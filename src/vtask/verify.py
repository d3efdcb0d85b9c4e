"""Built-in reference counterexample and its verification suite.

The reference instance is a two-class, one-feature-per-class task over
five states whose exhaustive policy search finds nothing: four programs,
each true everywhere except one state, inputs {{f1}, {f2}}, outputs
{{f1, f3}, {f2, f4}}. The suite re-derives every headline count from
scratch and checks the two hand-verifiable extensions, their union, the
per-policy selection sizes, the pruning bound, and the empty result of
the exhaustive search, plus the two language-wide facts (the empty
statement belongs to every language, and its extension is the whole
language) on a seeded sample of random vocabularies.

The instance is constructed directly against the core API, not parsed
from a task file, so the verification cannot drift with the DSL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    Language,
    Program,
    StateSpace,
    Statement,
    Vocabulary,
    build_language,
    extension_of_set,
    extension_of_statement,
    flags_mask,
)
from .errors import VTaskError
from .tasks import (
    Policy,
    Task,
    _extension_flags,
    find_correct_policies,
    max_policy_length_bound,
    validate_task,
)

REFERENCE_N_STATES = 5

# each program is true everywhere except one state; all share state 5
REFERENCE_PROGRAMS = {
    "f1": (2, 3, 4, 5),
    "f2": (1, 3, 4, 5),
    "f3": (1, 2, 4, 5),
    "f4": (1, 2, 3, 5),
}

REFERENCE_INPUTS = (("f1",), ("f2",))
REFERENCE_OUTPUTS = (("f1", "f3"), ("f2", "f4"))

RANDOM_VOCABULARY_SEED = 411
RANDOM_VOCABULARY_COUNT = 100


@dataclass(frozen=True)
class CheckResult:
    """One named verification check."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Result of the built-in reference verification suite."""

    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def reference_task(
    language_builder: Callable[[Vocabulary], Language] = build_language,
) -> tuple[Task, dict[str, int], tuple[str, ...]]:
    """The reference task, the name -> index table, and names aligned to
    vocabulary indices. ``language_builder`` is injectable so the suite
    itself can be tested against a broken builder."""
    space = StateSpace(REFERENCE_N_STATES)
    programs = {
        name: Program.from_included_states(states, REFERENCE_N_STATES)
        for name, states in REFERENCE_PROGRAMS.items()
    }
    vocab = Vocabulary.build(programs.values(), space)
    index = {name: vocab.index_of(p) for name, p in programs.items()}
    names = tuple(
        next(n for n, p in programs.items() if p == q) for q in vocab.programs
    )
    lang = language_builder(vocab)

    def statement(members: Sequence[str]) -> Statement:
        return Statement.from_indices(index[n] for n in members)

    task = validate_task(
        [statement(line) for line in REFERENCE_INPUTS],
        [statement(line) for line in REFERENCE_OUTPUTS],
        lang,
    )
    return task, index, names


def _statements(index: dict[str, int], *member_lists: Sequence[str]) -> frozenset[Statement]:
    return frozenset(
        Statement.from_indices(index[n] for n in members) for members in member_lists
    )


def _random_vocabulary(rng: random.Random) -> Vocabulary:
    """A vocabulary of distinct random programs, built straight from its
    drawn state masks: they are distinct, fit the space and number at
    most six, so no check of :meth:`Vocabulary.build` applies."""
    n = rng.randint(1, 8)
    size = rng.randint(0, min(6, 1 << n))
    values = rng.sample(range(1 << n), size)
    return Vocabulary(tuple(sorted(values)), StateSpace(n))


def _drawn(draw: int, vocab: Vocabulary) -> str:
    """Names one of the random languages, for a failing check's detail."""
    bits = ", ".join(f"{b:#x}" for b in vocab.bits)
    return (
        f"random language {draw} of {RANDOM_VOCABULARY_COUNT} "
        f"(vocabulary bits [{bits}] over {vocab.space.n_states} states)"
    )


def run_reference_checks(
    language_builder: Callable[[Vocabulary], Language] = build_language,
) -> VerifyReport:
    """Run every reference check and report one named result each."""
    checks: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    try:
        task, index, _ = reference_task(language_builder)
    except VTaskError as err:
        check("reference-construction", False, f"could not build the reference task: {err}")
        return VerifyReport(tuple(checks))
    lang = task.language

    check("language-size", len(lang) == 16, f"|language| = {len(lang)}, expected 16")
    empty_member = Statement(0) in lang
    check(
        "empty-statement-member",
        empty_member,
        "the empty statement belongs to the language"
        if empty_member
        else "the empty statement is missing from the reference language",
    )

    ext_f1f2 = extension_of_statement(
        Statement.from_indices([index["f1"], index["f2"]]), lang
    )
    expected_f1f2 = _statements(
        index, ("f1", "f2"), ("f1", "f2", "f3"), ("f1", "f2", "f4"), ("f1", "f2", "f3", "f4")
    )
    check(
        "extension-f1-f2",
        ext_f1f2 == expected_f1f2,
        f"completions of {{f1 f2}}: {len(ext_f1f2)}, expected the 4 supersets",
    )

    ext_f2f3 = extension_of_statement(
        Statement.from_indices([index["f2"], index["f3"]]), lang
    )
    expected_f2f3 = _statements(
        index, ("f2", "f3"), ("f1", "f2", "f3"), ("f2", "f3", "f4"), ("f1", "f2", "f3", "f4")
    )
    check(
        "extension-f2-f3",
        ext_f2f3 == expected_f2f3,
        f"completions of {{f2 f3}}: {len(ext_f2f3)}, expected the 4 supersets",
    )

    union = extension_of_set(
        [
            Statement.from_indices([index["f1"], index["f2"]]),
            Statement.from_indices([index["f2"], index["f3"]]),
        ],
        lang,
    )
    check(
        "union-of-extensions",
        union == ext_f1f2 | ext_f2f3 and len(union) == 6,
        f"joint extension has {len(union)} distinct statements, expected 6",
    )

    check(
        "input-extension-size",
        len(task.input_extension) == 12,
        f"|extension of inputs| = {len(task.input_extension)}, expected 12",
    )

    result = find_correct_policies(task, mode="exhaustive")
    expected_counts = {"f1": 8, "f2": 8, "f3": 6, "f4": 6}
    got_counts = {
        name: result.per_policy_selection_counts[
            Policy(Statement.from_indices([index[name]]))
        ]
        for name in expected_counts
    }
    check(
        "selection-counts",
        got_counts == expected_counts,
        "single-program policies select "
        + " ".join(f"{n}->{got_counts[n]}" for n in sorted(got_counts))
        + ", expected 8/8/6/6",
    )

    bound = max_policy_length_bound(task)
    check("policy-length-bound", bound == 2, f"bound = {bound}, expected 2")

    two_long = sum(1 for s in lang if len(s) == 2)
    check(
        "two-member-candidates",
        two_long == 6,
        f"{two_long} two-member statements, expected 6",
    )

    check(
        "exhaustive-search",
        result.checked == 16 and len(result.correct) == 0,
        f"checked {result.checked} policies, found {len(result.correct)} correct",
    )

    # the language-wide facts on masks: the empty statement holds position
    # 0, and the kernel that gives E_I puts every position in its extension
    rng = random.Random(RANDOM_VOCABULARY_SEED)
    missing = uncovered = ""
    for draw in range(1, RANDOM_VOCABULARY_COUNT + 1):
        vocab = _random_vocabulary(rng)
        sample = language_builder(vocab)
        if sample._position(0) < 0:
            missing = _drawn(draw, vocab)
            break
        covered = flags_mask(_extension_flags([0], sample))
        if covered != (1 << len(sample)) - 1:
            uncovered = (
                f"{covered.bit_count()} of the {len(sample)} statements of {_drawn(draw, vocab)}"
            )
            break
    check(
        "empty-statement-universal",
        not missing,
        f"empty statement missing from {missing}"
        if missing
        else f"empty statement present in {RANDOM_VOCABULARY_COUNT} random languages",
    )
    if missing:
        detail = f"not checked past {missing}, which lacks the empty statement"
    elif uncovered:
        detail = f"empty statement's extension holds only {uncovered}"
    else:
        detail = (
            "empty statement's extension equals the language in "
            f"{RANDOM_VOCABULARY_COUNT} random languages"
        )
    check("empty-extension-is-language", not (missing or uncovered), detail)

    return VerifyReport(tuple(checks))
