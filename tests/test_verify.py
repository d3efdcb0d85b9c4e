import random

from vtask.core import Program, StateSpace, Vocabulary
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
