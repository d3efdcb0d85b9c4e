"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value here was either derived by an independent
oracle (definitional set computations, exhaustive enumeration) and then
frozen, or is checked verbatim against the built-in reference instance.
"""

import random
import time

import pytest

from vtask.core import (
    EMPTY_STATEMENT,
    Program,
    StateSpace,
    build_language,
    extension_of_set,
    extension_of_statement,
    intersect_programs,
)
from vtask.dsl import (
    parse_task_file,
    serialize_report,
    serialize_task_document,
    serialize_verify,
)
from vtask.encoder import ClassificationSpec, encode_classification, verify_isomorphism
from vtask.errors import TaskFileError
from vtask.search import SearchSpec, canonicalize_task, census
from vtask.tasks import (
    Policy,
    decompose_binary,
    find_correct_policies,
    find_correct_set_policies,
    max_policy_length_bound,
)
from vtask.verify import (
    REFERENCE_N_STATES,
    REFERENCE_PROGRAMS,
    reference_task,
    run_reference_checks,
)

from conftest import (
    INVALID_DOCUMENTS,
    random_task,
    random_vocabulary,
    run_cli,
    statement_of,
)
from test_dsl import random_document


def report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS ({detail})")


def test_criterion_01_counterexample_reproduction():
    start = time.perf_counter()
    task, _, _ = reference_task()
    result = find_correct_policies(task, mode="exhaustive")
    elapsed = time.perf_counter() - start
    assert result.checked == 16
    assert result.correct == ()
    assert elapsed < 1.0
    report(1, f"0 correct policies among 16 checked in {elapsed * 1000:.1f} ms")


def test_criterion_02_counted_quantities():
    task, index, _ = reference_task()
    lang = task.language
    assert len(lang) == 16
    assert EMPTY_STATEMENT in lang
    assert len(task.input_extension) == 12
    result = find_correct_policies(task)
    counts = {
        name: result.per_policy_selection_counts[Policy(statement_of(index, name))]
        for name in ("f1", "f2", "f3", "f4")
    }
    assert counts == {"f1": 8, "f2": 8, "f3": 6, "f4": 6}
    assert sum(1 for s in lang if len(s) == 2) == 6
    assert max_policy_length_bound(task) == 2
    report(
        2,
        "|language|=16 with {} included, |extension of inputs|=12, "
        "selections 8/8/6/6, 6 two-member candidates, bound 2",
    )


def test_criterion_03_hand_checked_extension_assertions():
    task, index, _ = reference_task()
    lang = task.language

    ext_a = extension_of_statement(statement_of(index, "f1", "f2"), lang)
    assert ext_a == {
        statement_of(index, "f1", "f2"),
        statement_of(index, "f1", "f2", "f3"),
        statement_of(index, "f1", "f2", "f4"),
        statement_of(index, "f1", "f2", "f3", "f4"),
    }
    ext_b = extension_of_statement(statement_of(index, "f2", "f3"), lang)
    assert ext_b == {
        statement_of(index, "f2", "f3"),
        statement_of(index, "f1", "f2", "f3"),
        statement_of(index, "f2", "f3", "f4"),
        statement_of(index, "f1", "f2", "f3", "f4"),
    }
    union = extension_of_set(
        [statement_of(index, "f1", "f2"), statement_of(index, "f2", "f3")], lang
    )
    # the asserted union: listed as 8 completions, 6 of them distinct
    assert union == ext_a | ext_b
    assert union == {
        statement_of(index, "f1", "f2"),
        statement_of(index, "f1", "f2", "f3"),
        statement_of(index, "f1", "f2", "f4"),
        statement_of(index, "f1", "f2", "f3", "f4"),
        statement_of(index, "f2", "f3"),
        statement_of(index, "f2", "f3", "f4"),
    }

    def bits(text: str) -> Program:
        value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                value |= 1 << i
        return Program(value, len(text))

    two, three = StateSpace(2), StateSpace(3)
    truth_table = [
        (("01", "11"), two, True),
        (("01", "10"), two, False),
        (("011", "111"), three, True),
        (("011", "100"), three, False),
    ]
    for texts, space, expected in truth_table:
        got = not intersect_programs([bits(t) for t in texts], space).is_empty()
        assert got == expected, texts
    report(3, "both 4-completion extensions, their 6-statement union, and the truth table")


def test_criterion_04_empty_statement_properties_bulk():
    rng = random.Random(20_240)
    for _ in range(1000):
        vocab = random_vocabulary(rng, max_states=8, max_size=6)
        lang = build_language(vocab)
        assert EMPTY_STATEMENT in lang
        assert extension_of_statement(EMPTY_STATEMENT, lang) == lang.statement_set()
    report(4, "{} in language and its extension equals the language, 1000/1000 vocabularies")


def test_criterion_05_pruned_equals_exhaustive_bulk():
    rng = random.Random(20_241)
    for _ in range(1000):
        task = random_task(rng, max_states=5, max_vocab=5)
        exhaustive = find_correct_policies(task, mode="exhaustive")
        pruned = find_correct_policies(task, mode="pruned")
        assert exhaustive.correct == pruned.correct
        assert exhaustive.checked == len(task.language)
    report(5, "identical correct sets on 1000/1000 random tasks")


def test_criterion_06a_set_policy_search_verdict():
    task, _, _ = reference_task()
    start = time.perf_counter()
    result = find_correct_set_policies(task, cap=None)
    elapsed = time.perf_counter() - start
    assert result.checked == 1 << 16
    assert elapsed < 60.0
    # frozen verdict from the first full enumeration: no subset of the
    # language acts as a correct set policy for the reference task
    assert result.correct == ()
    report(
        6,
        f"(a) all 65536 statement subsets checked in {elapsed:.2f} s, "
        "0 correct set policies (frozen verdict)",
    )


def test_criterion_06b_binary_decomposition_verdicts():
    task, index, _ = reference_task()
    decomposition = decompose_binary(task)
    assert decomposition.failures == ()
    by_input = {next(iter(t.inputs)): t for t in decomposition.subtasks}
    assert set(by_input) == {statement_of(index, "f1"), statement_of(index, "f2")}
    assert by_input[statement_of(index, "f1")].outputs == {
        statement_of(index, "f1", "f3")
    }
    assert by_input[statement_of(index, "f2")].outputs == {
        statement_of(index, "f2", "f4")
    }
    # frozen verdicts: each binary subtask is itself unsolvable
    verdicts = {
        "f1": find_correct_policies(by_input[statement_of(index, "f1")]).correct,
        "f2": find_correct_policies(by_input[statement_of(index, "f2")]).correct,
    }
    assert verdicts == {"f1": (), "f2": ()}
    report(
        6,
        "(b) both one-input subtasks produced and searched: 0 correct "
        "policies each (frozen verdicts)",
    )


def test_criterion_07_encoder_isomorphism():
    task, _, _ = reference_task()
    programs = {
        name: Program.from_included_states(states, REFERENCE_N_STATES)
        for name, states in REFERENCE_PROGRAMS.items()
    }
    spec = ClassificationSpec.build(
        StateSpace(REFERENCE_N_STATES),
        features={"red_signal": programs["f1"], "human_red": programs["f2"]},
        labels={"blue_actual": programs["f3"], "human_blue": programs["f4"]},
        examples=[(["red_signal"], "blue_actual"), (["human_red"], "human_blue")],
    )
    encoded = encode_classification(spec)
    assert canonicalize_task(encoded) == canonicalize_task(task)
    assert verify_isomorphism(encoded, task)
    report(7, "encoded colored-box task has the reference task's canonical form")


def test_criterion_08_byte_determinism():
    verify_a = serialize_verify(run_reference_checks())
    verify_b = serialize_verify(run_reference_checks())
    assert verify_a == verify_b

    task, _, names = reference_task()
    search_a = serialize_report(find_correct_policies(task), "text", names)
    search_b = serialize_report(find_correct_policies(task), "text", names)
    assert search_a == search_b

    spec = SearchSpec(n_states=2, vocab_size=2)
    census_runs = [
        serialize_report(census(spec), mode)
        for _ in range(2)
        for mode in ("text", "structured")
    ]
    assert len(set(census_runs)) == 2  # one text form, one structured form

    cli_a = run_cli("verify-paper")
    cli_b = run_cli("verify-paper")
    assert cli_a.stdout == cli_b.stdout
    report(
        8,
        "verify-paper, the reference search, and the fixed census are "
        "byte-identical across runs",
    )


def test_criterion_09_dsl_round_trip_and_error_corpus():
    rng = random.Random(20_242)
    for _ in range(1000):
        doc = random_document(rng)
        text = serialize_task_document(doc)
        reparsed = parse_task_file(text)
        assert reparsed == doc
        assert serialize_task_document(reparsed) == text
    for text, line, fragment in INVALID_DOCUMENTS:
        with pytest.raises(TaskFileError) as info:
            parse_task_file(text)
        assert any(
            d.line == line and fragment in d.message for d in info.value.diagnostics
        ), (text, info.value.diagnostics)
        assert all(d.line >= 1 for d in info.value.diagnostics)
    report(
        9,
        f"1000/1000 documents round-tripped; {len(INVALID_DOCUMENTS)} invalid "
        "mutations all yielded line-numbered errors",
    )


def test_criterion_10_census_performance_envelope():
    spec = SearchSpec(n_states=3, vocab_size=3)
    start = time.perf_counter()
    result = census(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert not result.truncated
    assert result.tasks_valid == 509_154
    assert result.tasks_solvable == 25_008
    report(
        10,
        f"full 3-state/3-program census ({result.tasks_valid} tasks) in {elapsed:.2f} s",
    )
