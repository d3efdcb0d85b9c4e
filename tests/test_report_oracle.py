"""The report writers against an oracle built from `Statement` objects.

Each JSON report must be ``json.dumps(tree, sort_keys=True, indent=2)``
plus a newline of a tree whose statement lists are built from
`Statement` objects, one member at a time, and each text report must
write every statement as `render_statement` does. The tasks are seeded
random ones over 0 to 10 programs, named and as bitstrings; half of them
plant a correct policy, so that correct policies and set policies are
written too.
"""

import contextlib
import io
import json
import random
import string

import pytest

from vtask import cli
from vtask.core import Program, StateSpace, Statement, Vocabulary, build_language
from vtask.dsl import (
    TaskDocument,
    render_statement,
    serialize_check,
    serialize_language,
    serialize_report,
    serialize_task_document,
)
from vtask.errors import CapacityError
from vtask.search import SearchSpec, census
from vtask.tasks import (
    Policy,
    SEARCH_MODES,
    check_policy,
    find_correct_policies,
    find_correct_set_policies,
    validate_task,
)

KS = range(11)
# a task needs a language of two statements or more, so a program or more
TASK_KS = range(1, 11)
# set-policy searches stop at 8 programs (the 9- and 10-program tasks have
# tens of thousands of correct set policies), and search every subset
# (--set-policies all) only of languages of at most 16 statements: every
# statement that selects nothing is admissible, so on larger languages one
# task can have about a million correct set policies
SET_MAX_K = 8
SET_ALL_MAX_STATEMENTS = 16


def _set_caps(task):
    if len(task.language.vocabulary) > SET_MAX_K:
        return ()
    return (2, None) if len(task.language) <= SET_ALL_MAX_STATEMENTS else (2,)


def _random_names(rng, k):
    names = set()
    while len(names) < k:
        head = rng.choice(string.ascii_letters + "_")
        names.add(head + "".join(rng.choice(string.ascii_letters + string.digits + "_")
                                 for _ in range(rng.randrange(4))))
    return rng.sample(sorted(names), k)


def _random_language(rng, k):
    n = rng.randint(max(1, (k - 1).bit_length()), 6)
    values = rng.sample(range(1 << n), k)
    return build_language(Vocabulary.build((Program(v, n) for v in values), StateSpace(n)))


def _random_task(rng, k, writable):
    """A valid task over k programs; half the time the outputs are the
    selection of a random statement, which is then a correct policy. A
    task file has no line for the empty statement, so a writable task
    leaves it out of the inputs, and so out of their extension."""
    while True:
        lang = _random_language(rng, k)
        if len(lang) < 2:
            continue
        candidates = lang.masks[1:] if writable else lang.masks
        inputs = rng.sample(candidates, rng.randint(1, min(3, len(candidates) - 1 + writable)))
        extension = [y for y in lang.masks if any(y & x == x for x in inputs)]
        if len(extension) < 2:
            continue
        outputs = []
        if rng.random() < 0.5:
            policy = rng.choice(lang.masks)
            outputs = [y for y in extension if y & policy == policy]
        if not 0 < len(outputs) < len(extension):
            outputs = rng.sample(extension, rng.randint(1, len(extension) - 1))
        return validate_task(inputs, outputs, lang)


def _case(k, named, writable=False):
    rng = random.Random(f"{k}-{named}-{writable}")
    task = _random_task(rng, k, writable) if k else None
    lang = task.language if task else _random_language(rng, k)
    names = tuple(_random_names(rng, k)) if named else None
    return lang, task, names


def _labels(statement, vocabulary, names):
    """A statement's members' labels: sorted by name, or the programs'
    bitstrings in index order."""
    members = [i for i in range(len(vocabulary)) if statement.members >> i & 1]
    if names is None:
        return [vocabulary.programs[i].to_bitstring() for i in members]
    return sorted(names[i] for i in members)


def _json(tree):
    return (json.dumps(tree, sort_keys=True, indent=2) + "\n").encode()


def _search_results(task):
    results = [find_correct_policies(task, mode) for mode in SEARCH_MODES]
    for cap in _set_caps(task):
        try:
            results.append(find_correct_set_policies(task, cap))
        except CapacityError:
            pass
    return results


def _policy_tree(policy, vocabulary, names):
    if isinstance(policy, Policy):
        return _labels(policy.statement, vocabulary, names)
    return [_labels(s, vocabulary, names) for s in policy.sorted_statements()]


def _policy_text(policy, vocabulary, names):
    if isinstance(policy, Policy):
        return render_statement(policy.statement, vocabulary, names)
    return "[" + " ".join(render_statement(s, vocabulary, names) for s in policy.sorted_statements()) + "]"


def _search_tree(result, names):
    task = result.task
    vocab = task.language.vocabulary
    return {
        "inputs": [_labels(s, vocab, names) for s in task.sorted_inputs()],
        "outputs": [_labels(s, vocab, names) for s in task.sorted_outputs()],
        "language_size": len(task.language),
        "mode": result.mode,
        "checked": result.checked,
        "correct_count": len(result.correct),
        "correct": [_policy_tree(p, vocab, names) for p in result.correct],
        "selection_counts": [
            {"policy": _policy_tree(p, vocab, names), "selected": n}
            for p, n in result.per_policy_selection_counts.items()
        ],
    }


def _search_text(result, names):
    task = result.task
    vocab = task.language.vocabulary
    lines = [
        "inputs: " + " ".join(render_statement(s, vocab, names) for s in task.sorted_inputs()),
        "outputs: " + " ".join(render_statement(s, vocab, names) for s in task.sorted_outputs()),
        f"language: {len(task.language)} statements",
        f"mode: {result.mode}",
        f"checked: {result.checked}",
        f"correct policies: {len(result.correct)}",
    ]
    lines += ["  " + _policy_text(p, vocab, names) for p in result.correct]
    rows = result.per_policy_selection_counts
    if result.mode in SEARCH_MODES or rows:
        lines.append("selection counts:")
        lines += [f"  {_policy_text(p, vocab, names)}: {n}" for p, n in rows.items()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("named", [True, False], ids=["names", "bitstrings"])
@pytest.mark.parametrize("k", TASK_KS)
def test_search_reports_match_the_oracle(k, named):
    lang, task, names = _case(k, named)
    for result in _search_results(task):
        assert serialize_report(result, "structured", names) == _json(_search_tree(result, names))
        assert serialize_report(result, "text", names) == _search_text(result, names)


def _run(argv):
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    stdout.flush()
    return code, buffer.getvalue()


def test_oracle_tasks_have_correct_policies_and_set_policies():
    """The seeded tasks write the correct-policy lists of both searches."""
    results = [r for k in TASK_KS for r in _search_results(_case(k, True)[1])]
    assert any(r.correct for r in results if r.mode in SEARCH_MODES)
    assert any(r.correct for r in results if r.mode not in SEARCH_MODES)
    assert any(len(p.statements) > 1 for r in results if r.mode not in SEARCH_MODES for p in r.correct)


@pytest.mark.parametrize("k", TASK_KS[1:])
def test_search_cli_matches_the_oracle(k, tmp_path):
    """The CLI writes the single-statement report, then the set-policy
    one when asked for it; both come from a task file with names. (Over
    one program, every task has the empty statement as input.)"""
    _, task, names = _case(k, True, writable=True)
    vocab = task.language.vocabulary
    doc = TaskDocument.build(
        n_states=vocab.space.n_states,
        programs=zip(names, vocab.programs),
        inputs=[[names[i] for i in s.indices()] for s in task.sorted_inputs()],
        outputs=[[names[i] for i in s.indices()] for s in task.sorted_outputs()],
    )
    path = tmp_path / "task.pvt"
    path.write_text(serialize_task_document(doc))
    for mode in SEARCH_MODES:
        single = find_correct_policies(task, mode)
        for structured in (False, True):
            expected = _json(_search_tree(single, names)) if structured else _search_text(single, names)
            flags = ["--mode", mode] + (["--structured"] if structured else [])
            assert _run(["search", str(path), *flags])[1] == expected
            for cap in _set_caps(task):
                try:
                    result = find_correct_set_policies(task, cap)
                except CapacityError:
                    continue
                tree = _search_tree(result, names)
                more = _json(tree) if structured else _search_text(result, names)
                arg = "all" if cap is None else str(cap)
                assert _run(["search", str(path), *flags, "--set-policies", arg])[1] == expected + more


@pytest.mark.parametrize("named", [True, False], ids=["names", "bitstrings"])
@pytest.mark.parametrize("k", TASK_KS)
def test_check_reports_match_the_oracle(k, named):
    lang, task, names = _case(k, named)
    vocab = lang.vocabulary
    rng = random.Random(k)
    for members in {0, *rng.sample(lang.masks, min(4, len(lang)))}:
        report = check_policy(task, Statement(members))
        tree = {
            "policy": _labels(report.policy.statement, vocab, names),
            "selected": [_labels(s, vocab, names) for s in report.selected],
            "outputs": [_labels(s, vocab, names) for s in task.sorted_outputs()],
            "correct": report.correct,
        }
        assert serialize_check(report, "structured", names) == _json(tree)
        lines = [
            "policy: " + render_statement(report.policy.statement, vocab, names),
            f"selected {len(report.selected)} statements "
            "(the inputs' extension filtered by the policy):",
            *("  " + render_statement(s, vocab, names) for s in report.selected),
            f"outputs ({len(task.outputs)}):",
            *("  " + render_statement(s, vocab, names) for s in task.sorted_outputs()),
            "verdict: " + ("CORRECT" if report.correct else "INCORRECT"),
        ]
        assert serialize_check(report, "text", names) == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("named", [True, False], ids=["names", "bitstrings"])
@pytest.mark.parametrize("k", KS)
def test_language_reports_match_the_oracle(k, named):
    lang, _, names = _case(k, named)
    vocab = lang.vocabulary
    bitstrings = [p.to_bitstring() for p in vocab.programs]
    tree = {
        "count": len(lang),
        "programs": dict(zip(names or bitstrings, bitstrings)),
        "statements": [_labels(s, vocab, names) for s in lang],
    }
    assert serialize_language(lang, names, "structured") == _json(tree)
    lines = [f"language: {len(lang)} statements over {len(vocab)} programs"]
    lines += [render_statement(s, vocab, names) for s in lang]
    assert serialize_language(lang, names, "text") == ("\n".join(lines) + "\n").encode()


_CENSUS_SPECS = {
    "1-1": SearchSpec(1, 1, exemplar_limit=5),
    "2-2": SearchSpec(2, 2, exemplar_limit=30),
    "3-2": SearchSpec(3, 2, exemplar_limit=30),
    "2-3": SearchSpec(2, 3, exemplar_limit=30),
    "3-3-shaped": SearchSpec(3, 3, require_classification_shaped=True, exemplar_limit=30),
    "4-3-dedup": SearchSpec(4, 3, dedup=True, exemplar_limit=30),
    "3-4-max-tasks": SearchSpec(3, 4, max_tasks=10_000, exemplar_limit=30),
}


@pytest.mark.parametrize("name", sorted(_CENSUS_SPECS))
def test_census_exemplars_match_the_oracle(name):
    spec = _CENSUS_SPECS[name]
    report = census(spec)
    assert report.exemplars
    exemplars, lines = [], []
    for task in report.exemplars:
        vocab = task.language.vocabulary
        programs = [p.to_bitstring() for p in vocab.programs]
        exemplars.append({
            "programs": programs,
            "inputs": [_labels(s, vocab, None) for s in task.sorted_inputs()],
            "outputs": [_labels(s, vocab, None) for s in task.sorted_outputs()],
        })
        lines += [
            "  vocabulary [" + " ".join(programs) + "]",
            "    inputs: " + " ".join(render_statement(s, vocab) for s in task.sorted_inputs()),
            "    outputs: " + " ".join(render_statement(s, vocab) for s in task.sorted_outputs()),
        ]
    tree = {
        "n_states": spec.n_states,
        "vocab_size": spec.vocab_size,
        "require_classification_shaped": spec.require_classification_shaped,
        "dedup": spec.dedup,
        "max_tasks": spec.max_tasks,
        "time_budget": spec.time_budget,
        "exemplar_limit": spec.exemplar_limit,
        "vocabularies": report.vocabularies,
        "tasks_enumerated": report.tasks_enumerated,
        "tasks_valid": report.tasks_valid,
        "tasks_solvable": report.tasks_solvable,
        "tasks_unsolvable": report.tasks_unsolvable,
        "truncated": report.truncated,
        "exemplars": exemplars,
    }
    assert serialize_report(report, "structured") == _json(tree)
    text = serialize_report(report, "text").decode()
    head, _, tail = text.partition(f"exemplars: {len(report.exemplars)}\n")
    assert head and tail.splitlines() == lines
