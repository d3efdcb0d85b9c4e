import random

from vtask import verify
from vtask.core import Language, Program, StateSpace, Vocabulary, build_language
from vtask.errors import VTaskError
from vtask.verify import (
    RANDOM_VOCABULARY_COUNT,
    RANDOM_VOCABULARY_SEED,
    _random_vocabulary,
    run_reference_checks,
)


def test_random_vocabularies_equal_the_built_ones():
    """The suite's random vocabularies, built straight from their drawn
    state masks, are the ones `Vocabulary.build` makes of the same draws."""
    drawn = random.Random(RANDOM_VOCABULARY_SEED)
    replayed = random.Random(RANDOM_VOCABULARY_SEED)
    for _ in range(RANDOM_VOCABULARY_COUNT):
        vocab = _random_vocabulary(drawn)
        n = replayed.randint(1, 8)
        size = replayed.randint(0, min(6, 1 << n))
        values = replayed.sample(range(1 << n), size)
        built = Vocabulary.build((Program(v, n) for v in values), StateSpace(n))
        assert vocab == built
        assert vocab.programs == built.programs
    # the same draws, and no more
    assert drawn.getstate() == replayed.getstate()


def test_a_builder_that_fails_is_one_failing_check():
    def broken(vocab):
        raise VTaskError("no language today")

    report = run_reference_checks(broken)
    assert [(c.name, c.passed) for c in report.checks] == [("reference-construction", False)]
    assert "no language today" in report.checks[0].detail


def _results(report):
    return {c.name: (c.passed, c.detail) for c in report.checks}


def test_a_builder_without_the_empty_statement_fails_both_universality_checks():
    def no_empty(vocab):
        return Language.from_masks(vocab, build_language(vocab).masks[1:])

    results = _results(run_reference_checks(no_empty))
    # the first random language has no programs, so it had only the empty statement
    first = "random language 1 of 100 (vocabulary bits [] over 4 states)"
    assert results["empty-statement-member"] == (
        False, "the empty statement is missing from the reference language")
    assert results["empty-statement-universal"] == (False, f"empty statement missing from {first}")
    assert results["empty-extension-is-language"] == (
        False, f"not checked past {first}, which lacks the empty statement")


def test_a_kernel_that_drops_a_position_fails_the_extension_check(monkeypatch):
    kernel = verify._extension_flags

    def drops_the_last(input_masks, lang):
        return kernel(input_masks, lang)[:-1] + b"\0"

    monkeypatch.setattr(verify, "_extension_flags", drops_the_last)
    results = _results(run_reference_checks())
    assert [name for name, (passed, _) in results.items() if not passed] == [
        "empty-extension-is-language"
    ]
    assert results["empty-extension-is-language"][1] == (
        "empty statement's extension holds only 0 of the 1 statements of "
        "random language 1 of 100 (vocabulary bits [] over 4 states)"
    )


def test_a_later_random_language_that_fails_is_named():
    """A builder that drops the empty statement only from vocabularies of
    five or more programs (the reference one has four) is caught at the
    first random language it breaks."""

    def breaks_at_five_programs(vocab):
        lang = build_language(vocab)
        return Language.from_masks(vocab, lang.masks[len(vocab) >= 5:])

    results = _results(run_reference_checks(breaks_at_five_programs))
    rng = random.Random(RANDOM_VOCABULARY_SEED)
    draw, vocab = next(
        (i, v) for i, v in enumerate(
            (_random_vocabulary(rng) for _ in range(RANDOM_VOCABULARY_COUNT)), start=1)
        if len(v) >= 5
    )
    bits = ", ".join(map(hex, vocab.bits))
    assert results["empty-statement-universal"] == (
        False,
        f"empty statement missing from random language {draw} of 100 "
        f"(vocabulary bits [{bits}] over {vocab.space.n_states} states)",
    )
    assert draw > 1 and results["empty-statement-member"][0]
