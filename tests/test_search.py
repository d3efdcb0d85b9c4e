import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from vtask import search
from vtask.complexes import class_weights, complex_classes
from vtask.core import (
    Language,
    Program,
    StateSpace,
    Statement,
    Vocabulary,
    build_language,
    extension_of_set,
    statement_key,
    statement_masks,
)
from vtask.errors import CapacityError, DomainError
from vtask.search import (
    SearchSpec,
    canonicalize_task,
    census,
    enumerate_task_masks,
    enumerate_tasks,
    enumerate_vocabularies,
    is_classification_shaped,
    permute_task,
    task_from_canonical,
)
from vtask.tasks import Task, find_correct_policies, validate_task
from vtask.verify import reference_task

from conftest import random_task


# -- vocabulary enumeration --------------------------------------------------


def test_enumerate_vocabularies_two_states_size_one():
    vocabs = list(enumerate_vocabularies(SearchSpec(n_states=2, vocab_size=1)))
    assert len(vocabs) == 4
    assert [v.programs[0].bits for v in vocabs] == [0, 1, 2, 3]


def test_enumerate_vocabularies_size_zero():
    vocabs = list(enumerate_vocabularies(SearchSpec(n_states=2, vocab_size=0)))
    assert len(vocabs) == 1
    assert len(vocabs[0]) == 0


def test_enumeration_contains_reference_vocabulary():
    spec = SearchSpec(n_states=5, vocab_size=4)
    task, _, _ = reference_task()
    target = task.language.vocabulary
    assert any(v == target for v in enumerate_vocabularies(spec))


@pytest.mark.parametrize(
    "n_states, vocab_size, dedup",
    [(n, k, dedup) for n in range(1, 5) for k in range(4) for dedup in (False, True)]
    + [(5, 2, False), (5, 2, True)],
)
def test_enumerated_vocabularies_are_built_vocabularies(n_states, vocab_size, dedup):
    # the census constructs vocabularies from their bits, skipping ``build``'s checks
    spec = SearchSpec(n_states, vocab_size, dedup=dedup)
    for vocab in enumerate_vocabularies(spec):
        built = Vocabulary.build(vocab.programs, StateSpace(n_states))
        assert vocab == built and hash(vocab) == hash(built)
        assert [p.width for p in vocab.programs] == [n_states] * vocab_size
        assert tuple(p.bits for p in vocab.programs) == vocab.bits
        assert list(vocab.bits) == sorted(set(vocab.bits))
        copy = pickle.loads(pickle.dumps(vocab))
        assert copy == vocab and copy.programs == vocab.programs


def test_dedup_counts_pinned():
    spec = SearchSpec(n_states=3, vocab_size=2)
    assert sum(1 for _ in enumerate_vocabularies(spec)) == 28
    deduped = list(enumerate_vocabularies(SearchSpec(n_states=3, vocab_size=2, dedup=True)))
    assert len(deduped) == 9


def test_dedup_yields_orbit_representatives():
    spec = SearchSpec(n_states=3, vocab_size=2, dedup=True)
    representatives = {tuple(p.bits for p in v.programs) for v in enumerate_vocabularies(spec)}
    # every vocabulary's orbit meets the representative set exactly once
    full = SearchSpec(n_states=3, vocab_size=2)
    for vocab in enumerate_vocabularies(full):
        orbit = set()
        for perm in itertools.permutations(range(3)):
            mapped = tuple(
                sorted(
                    _apply_perm(p.bits, perm) for p in vocab.programs
                )
            )
            orbit.add(mapped)
        assert len(orbit & representatives) == 1


def _least_image_stream(n_states: int, vocab_size: int):
    """The definitional dedup rule: the combinations that are least among
    their images under all n! state permutations, in ascending order."""
    images = [
        [_apply_perm(b, perm) for b in range(1 << n_states)]
        for perm in itertools.permutations(range(n_states))
    ]
    for combo in itertools.combinations(range(1 << n_states), vocab_size):
        if all(tuple(sorted(table[b] for b in combo)) >= combo for table in images):
            yield combo


@pytest.mark.parametrize(
    "n_states, vocab_size",
    [(n, k) for n in range(1, 5) for k in range(5)] + [(5, 2), (5, 3), (6, 2)],
)
def test_dedup_stream_is_least_image_combinations(n_states, vocab_size):
    spec = SearchSpec(n_states=n_states, vocab_size=vocab_size, dedup=True)
    stream = [tuple(p.bits for p in v.programs) for v in enumerate_vocabularies(spec)]
    assert stream == list(_least_image_stream(n_states, vocab_size))


def test_combinations_match_itertools():
    for pool in range(17):
        for k in range(7):
            assert list(search._combinations(pool, k)) == list(
                itertools.combinations(range(pool), k)
            )


def test_vocabularies_over_64_states_are_drawn_lazily():
    # itertools.combinations would first copy all 2^64 programs
    spec = SearchSpec(n_states=64, vocab_size=3)
    first = [tuple(v.bits) for v in itertools.islice(enumerate_vocabularies(spec), 3)]
    assert first == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]


@pytest.mark.parametrize(
    "n_states, vocabularies, valid, solvable",
    [(5, 134, 2_162_996, 100_289), (6, 302, 5_538_784, 253_996)],
)
def test_dedup_census_totals_pinned(n_states, vocabularies, valid, solvable):
    report = census(SearchSpec(n_states=n_states, vocab_size=3, dedup=True))
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == (
        vocabularies, valid, solvable,
    )
    assert not report.truncated


def test_dedup_obeys_the_census_state_cap_only():
    # one program per orbit for each count of states it holds in: n + 1
    for n_states in (9, 10, 64):
        report = census(SearchSpec(n_states=n_states, vocab_size=1, dedup=True))
        assert report.vocabularies == n_states + 1
    with pytest.raises(CapacityError) as info:
        SearchSpec(n_states=65, vocab_size=1, dedup=True)
    assert info.value.cap_name == "max_states"


def _dedup_pairs(n):
    """Orbits of vocabularies of two programs over n states under state
    permutations. An ordered pair is a multiset of n columns over two bits,
    C(n + 3, 3) of them, n + 1 of which (columns 00 and 11 only) repeat a
    program. Swapping the programs swaps the columns 01 and 10, and fixes
    the multisets with t ≥ 1 of each, so by Burnside's lemma the orbits
    number (C(n + 3, 3) − (n + 1) + Σ_{t=1}^{⌊n/2⌋} (n − 2t + 1))/2."""
    fixed = sum(n - 2 * t + 1 for t in range(1, n // 2 + 1))
    return (math.comb(n + 3, 3) - (n + 1) + fixed) // 2


@pytest.mark.parametrize("n_states", [1000, 4096])
def test_dedup_weights_past_the_state_cap_match_closed_forms(n_states):
    # class_weights takes no state cap; its dedup weights sum to k! times
    # the orbits
    assert sum(weight for _, weight in class_weights(n_states, 1, dedup=True)) == n_states + 1
    two = sum(weight for _, weight in class_weights(n_states, 2, dedup=True))
    assert two == 2 * _dedup_pairs(n_states)


@pytest.mark.parametrize("n_states", [11, 32, 64])
def test_dedup_orbits_past_ten_states_match_closed_forms(n_states):
    one = census(SearchSpec(n_states, 1, dedup=True, exemplar_limit=0))
    assert one.vocabularies == n_states + 1
    two = census(SearchSpec(n_states, 2, dedup=True, exemplar_limit=0))
    assert two.vocabularies == _dedup_pairs(n_states)


def _apply_perm(bits: int, perm) -> int:
    out = 0
    for old, new in enumerate(perm):
        if bits >> old & 1:
            out |= 1 << new
    return out


def test_spec_caps():
    SearchSpec(n_states=64, vocab_size=2)
    with pytest.raises(CapacityError) as info:
        SearchSpec(n_states=65, vocab_size=2)
    assert (info.value.cap_name, info.value.cap_value) == ("max_states", 64)
    with pytest.raises(CapacityError):
        SearchSpec(n_states=2, vocab_size=7)
    with pytest.raises(ValueError):
        SearchSpec(n_states=0, vocab_size=1)


@pytest.mark.parametrize(
    "limits",
    [
        {"max_tasks": -1},
        {"time_budget": -1.0},
        {"time_budget": float("nan")},
        {"exemplar_limit": -1},
    ],
)
def test_spec_rejects_negative_or_nan_limits(limits):
    with pytest.raises(ValueError):
        SearchSpec(n_states=2, vocab_size=2, **limits)


def test_spec_rejects_an_infinite_time_budget():
    # a report could not write it: JSON has no infinite number
    with pytest.raises(ValueError):
        SearchSpec(n_states=2, vocab_size=2, time_budget=math.inf)


# -- task enumeration --------------------------------------------------------


def test_enumerate_tasks_tiny_language_pinned():
    vocab = Vocabulary.build([Program(0b11, 2)], StateSpace(2))
    tasks = list(enumerate_tasks(vocab))
    assert [
        ([s.members for s in t.sorted_inputs()], [s.members for s in t.sorted_outputs()])
        for t in tasks
    ] == [([0], [0]), ([0], [1])]


def test_enumerate_tasks_never_yields_whole_language_as_inputs():
    vocab = Vocabulary.build([Program(0b01, 2), Program(0b11, 2)], StateSpace(2))
    lang = build_language(vocab)
    for t in enumerate_tasks(vocab):
        assert len(t.inputs) < len(lang)


def test_enumerate_tasks_matches_validate_task():
    spec = SearchSpec(n_states=2, vocab_size=2)
    for vocab in enumerate_vocabularies(spec):
        for task in enumerate_tasks(vocab, spec):
            rebuilt = validate_task(task.inputs, task.outputs, task.language)
            assert rebuilt == task


def _assert_views_match_masks(task):
    lang = task.language
    assert validate_task(task.inputs, task.outputs, lang) == task
    assert task.sorted_inputs() == tuple(sorted(task.inputs, key=statement_key))
    assert task.sorted_outputs() == tuple(sorted(task.outputs, key=statement_key))
    assert task.input_extension == extension_of_set(task.inputs, lang)


def test_task_views_match_masks_on_random_tasks():
    rng = random.Random(8)
    for _ in range(300):
        _assert_views_match_masks(random_task(rng))


@pytest.mark.parametrize("n_states,vocab_size,shaped", [(2, 2, False), (3, 2, False), (3, 2, True)])
def test_task_views_match_masks_on_census_exemplars(n_states, vocab_size, shaped):
    spec = SearchSpec(
        n_states, vocab_size, require_classification_shaped=shaped, exemplar_limit=10**6
    )
    exemplars = census(spec).exemplars
    assert exemplars
    for task in exemplars:
        _assert_views_match_masks(task)


def test_enumerate_task_masks_order_is_ascending():
    vocab = Vocabulary.build([Program(0b01, 2), Program(0b11, 2)], StateSpace(2))
    lang = build_language(vocab)
    triples = list(enumerate_task_masks(lang))
    assert triples == sorted(triples, key=lambda t: (t[0], t[1]))
    assert len(triples) == len(set((i, o) for i, o, _ in triples))


def test_enumerate_tasks_draws_past_16_statements():
    vocab = Vocabulary.build(
        [Program(0b10000 | (1 << i), 5) for i in range(4)] + [Program(0b10000, 5)],
        StateSpace(5),
    )
    # all 32 subsets of the five programs, which share state 4: the first
    # task has the empty statement as input and as output
    lang = build_language(vocab)
    assert len(lang) == 32
    assert next(enumerate_tasks(vocab)) == Task(lang, 1, 1, 2**32 - 1)


def test_stream_contains_reference_task():
    task, _, _ = reference_task()
    lang = task.language
    i_alpha = sum(1 << lang.index_of(s) for s in task.inputs)
    o_alpha = sum(1 << lang.index_of(s) for s in task.outputs)
    seen_alpha = False
    for i_mask, o_mask, _ in enumerate_task_masks(lang):
        if i_mask == i_alpha and o_mask == o_alpha:
            seen_alpha = True
            break
        assert (i_mask, o_mask) < (i_alpha, o_alpha)
    assert seen_alpha


# -- classification shape ----------------------------------------------------


def test_reference_task_is_classification_shaped(ref_task):
    assert is_classification_shaped(ref_task)


def test_non_classification_shapes(ref_task, ref_index):
    lang = ref_task.language
    # output equals its input: no label appended
    t = validate_task(
        [next(iter(ref_task.inputs))], [next(iter(ref_task.inputs))], lang
    )
    assert not is_classification_shaped(t)


def test_classification_filter_pinned_counts():
    report = census(
        SearchSpec(n_states=2, vocab_size=2, require_classification_shaped=True)
    )
    assert report.tasks_enumerated == 262
    assert report.tasks_valid == 20
    assert report.tasks_solvable == 13
    assert report.tasks_unsolvable == 7


SHAPED_POINTS = [(2, 2), (2, 3), (2, 4), (3, 2)]


@pytest.mark.parametrize("n_states,vocab_size", SHAPED_POINTS)
def test_classification_filter_matches_task_level_predicate(n_states, vocab_size):
    spec = SearchSpec(n_states, vocab_size, require_classification_shaped=True)
    plain = SearchSpec(n_states, vocab_size)
    for vocab in enumerate_vocabularies(plain):
        filtered = {
            (tuple(sorted(s.members for s in t.inputs)), tuple(sorted(s.members for s in t.outputs)))
            for t in enumerate_tasks(vocab, spec)
        }
        by_predicate = {
            (tuple(sorted(s.members for s in t.inputs)), tuple(sorted(s.members for s in t.outputs)))
            for t in enumerate_tasks(vocab, plain)
            if is_classification_shaped(t)
        }
        assert filtered == by_predicate


def _task_key(task):
    return (
        tuple(p.bits for p in task.language.vocabulary.programs),
        tuple(sorted(s.members for s in task.inputs)),
        tuple(sorted(s.members for s in task.outputs)),
    )


def _brute_force_census(spec, vocabs):
    """(enumerated, valid, solvable, unsolvable tasks in census order) over
    ``vocabs``, from enumerate_tasks, is_classification_shaped and
    find_correct_policies."""
    plain = SearchSpec(spec.n_states, spec.vocab_size)
    enumerated = valid = solvable = 0
    unsolvable = []
    for vocab in vocabs:
        for task in enumerate_tasks(vocab, plain):
            enumerated += 1
            if spec.require_classification_shaped and not is_classification_shaped(task):
                continue
            valid += 1
            if find_correct_policies(task).correct:
                solvable += 1
            else:
                unsolvable.append(task)
    return enumerated, valid, solvable, unsolvable


def _brute_force_unsolvable(spec):
    """The unsolvable tasks in census order, drawn lazily from
    enumerate_vocabularies, enumerate_tasks, is_classification_shaped and
    find_correct_policies."""
    plain = SearchSpec(spec.n_states, spec.vocab_size)
    for vocab in enumerate_vocabularies(spec):
        for task in enumerate_tasks(vocab, plain):
            if spec.require_classification_shaped and not is_classification_shaped(task):
                continue
            if not find_correct_policies(task).correct:
                yield task


@pytest.mark.parametrize("n_states,vocab_size", SHAPED_POINTS)
def test_shaped_census_matches_brute_force(n_states, vocab_size):
    limit = 10
    spec = SearchSpec(
        n_states, vocab_size, require_classification_shaped=True, exemplar_limit=limit
    )
    enumerated, valid, solvable, unsolvable = _brute_force_census(
        spec, enumerate_vocabularies(spec)
    )
    report = census(spec)
    assert (report.tasks_enumerated, report.tasks_valid, report.tasks_solvable) == (
        enumerated,
        valid,
        solvable,
    )
    assert [_task_key(t) for t in report.exemplars] == [
        _task_key(t) for t in unsolvable[:limit]
    ]


@pytest.mark.parametrize(
    "n_states,vocab_size,shaped,n_unsolvable",
    [(2, 2, False, 189), (3, 2, False, 1_384), (2, 3, False, 2_197), (4, 2, False, 7_275),
     (2, 2, True, 7), (3, 2, True, 51), (4, 2, True, 265)],
)
def test_census_exemplars_across_repeated_languages(n_states, vocab_size, shaped, n_unsolvable):
    # every unsolvable task is an exemplar, so each one drawn from a
    # language seen before must be built from its own vocabulary
    spec = SearchSpec(
        n_states, vocab_size, require_classification_shaped=shaped, exemplar_limit=10**6
    )
    *_, unsolvable = _brute_force_census(spec, enumerate_vocabularies(spec))
    assert len(unsolvable) == n_unsolvable
    assert census(spec).exemplars == tuple(unsolvable)


def test_full_census_over_64_states_counts_every_vocabulary():
    report = census(SearchSpec(n_states=64, vocab_size=5, exemplar_limit=0))
    assert report.vocabularies == math.comb(1 << 64, 5)
    assert not report.truncated


@pytest.mark.parametrize("dedup", [False, True])
def test_exemplars_over_64_states_match_brute_force(dedup):
    spec = SearchSpec(n_states=64, vocab_size=3, dedup=dedup, exemplar_limit=20)
    expected = list(itertools.islice(_brute_force_unsolvable(spec), 20))
    assert census(spec).exemplars == tuple(expected)


@pytest.mark.parametrize(
    "n_states,vocab_size,enumerated,valid,solvable",
    [
        (3, 3, 509_154, 1_580, 417),
        (4, 3, 8_274_568, 21_842, 5_232),
        (4, 4, 681_127_310_008, 1_175_902, 54_632),
        # five programs: languages of up to 32 statements
        (3, 5, 32_531_945_671_202, 364_638, 3_173),
        (4, 5, 2_260_208_443_042_467_713_644, 324_846_014, 601_833),
        (
            10, 5, 25_423_344_703_205_948_690_674_206_212_386,
            3_479_481_419_542_778_324, 4_078_172_906_959_215,
        ),
        # six programs: the walk over the 28 vocabularies of three states
        (3, 6, 1_845_129_742_360_500_004, 7_136_198, 5_196),
    ],
)
def test_shaped_census_pinned(n_states, vocab_size, enumerated, valid, solvable):
    report = census(SearchSpec(n_states, vocab_size, require_classification_shaped=True))
    assert not report.truncated
    assert (report.tasks_enumerated, report.tasks_valid, report.tasks_solvable) == (
        enumerated,
        valid,
        solvable,
    )


def test_dedup_shaped_census_10_5_pinned():
    report = census(SearchSpec(10, 5, require_classification_shaped=True, dedup=True))
    assert not report.truncated
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == (
        9_637_611, 3_218_406_963_737, 3_842_280_964,
    )


def test_dedup_census_3_6_pinned():
    report = census(SearchSpec(3, 6, dedup=True))
    assert not report.truncated
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == (
        9, 615_042_742_424_638_916, 31_434_772_390,
    )
    assert report.tasks_enumerated == report.tasks_valid


def _program_set_orbits(n, k):
    """Orbits of the k-sets of the 2^n programs over n states under state
    permutations, by Burnside's lemma: a permutation fixes the k-sets that
    are unions of its cycles on the programs, as many as the coefficient
    of t^k in the product of (1 + t^|cycle|) over those cycles."""
    fixed = 0
    for perm in itertools.permutations(range(n)):
        poly = [1] + [0] * k
        seen = set()
        for program in range(1 << n):
            length = 0
            while program not in seen:
                seen.add(program)
                program = _apply_perm(program, perm)
                length += 1
            if length:
                for degree in range(k, length - 1, -1):
                    poly[degree] += poly[degree - length]
        fixed += poly[k]
    return fixed // math.factorial(n)


def test_program_set_orbits_match_the_dedup_stream():
    for n_states, vocab_size in ((2, 2), (3, 3), (3, 6), (4, 2)):
        spec = SearchSpec(n_states, vocab_size, dedup=True)
        assert _program_set_orbits(n_states, vocab_size) == sum(
            1 for _ in enumerate_vocabularies(spec)
        )
    assert _program_set_orbits(3, 6) == 9
    assert _program_set_orbits(4, 6) == 477


@pytest.mark.parametrize(
    "flags, enumerated, valid, solvable",
    [
        ({}, 20_250_997_994_219_823_988_661_526_808_076_421_395_408,
         20_250_997_994_219_823_988_661_526_808_076_421_395_408,
         130_175_473_589_025_672_634_869),
        ({"require_classification_shaped": True},
         20_250_997_994_219_823_988_661_526_808_076_421_395_408,
         10_857_122_105_738, 12_452_463),
        ({"dedup": True}, 1_627_312_418_485_544_892_675_933_187_614_510_503_716,
         1_627_312_418_485_544_892_675_933_187_614_510_503_716,
         10_460_813_019_935_573_766_822),
    ],
    ids=["plain", "shaped", "dedup"],
)
def test_census_4_6_pinned(flags, enumerated, valid, solvable):
    # the walk's C(16, 6) = 8,008 combinations are within the walk cap
    report = census(SearchSpec(4, 6, **flags))
    vocabularies = _program_set_orbits(4, 6) if flags.get("dedup") else math.comb(16, 6)
    assert not report.truncated
    assert len(report.exemplars) == 3
    assert (
        report.vocabularies, report.tasks_enumerated, report.tasks_valid, report.tasks_solvable
    ) == (vocabularies, enumerated, valid, solvable)


@pytest.mark.parametrize("dedup", [False, True])
def test_a_budgeted_six_program_run_walks_within_its_budget(dedup):
    # no cap refuses a walk that a budget bounds: 10/6 has about 1.6·10^15
    # combinations, and the run reports the prefix its budget walked. The
    # dedup walk checks the budget only at each orbit's first combination,
    # so only the plain walk is held to the budget
    start = time.monotonic()
    report = census(SearchSpec(10, 6, dedup=dedup, time_budget=0.5))
    elapsed = time.monotonic() - start
    assert report.truncated
    assert report.vocabularies > 0
    if not dedup:
        assert elapsed < 1.5


# -- census ------------------------------------------------------------------


def test_census_single_state_pinned():
    report = census(SearchSpec(n_states=1, vocab_size=1))
    assert report.vocabularies == 2
    assert report.tasks_enumerated == 2
    assert report.tasks_valid == 2
    assert report.tasks_solvable == 1
    assert report.tasks_unsolvable == 1


def test_full_census_4_4_pinned():
    report = census(SearchSpec(n_states=4, vocab_size=4))
    assert not report.truncated
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == (
        1_820,
        681_127_310_008,
        299_767_983,
    )


def test_full_census_4_5_pinned():
    # five-program languages have up to 32 statements, and the count walks
    # no input set of them
    report = census(SearchSpec(n_states=4, vocab_size=5))
    assert not report.truncated
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == (
        4_368,
        2_260_208_443_042_467_713_644,
        30_331_760_665_925,
    )
    assert report.tasks_enumerated == report.tasks_valid


def _input_mask_census(lang):
    """The unfiltered census of one language, summed over its input walk:
    one term per input mask."""
    ext = lang.extension_masks()
    enumerated = solvable = 0
    for _, ei, _ in search._inputs(lang):
        if ei.bit_count() < 2:
            continue
        enumerated += (1 << ei.bit_count()) - 2
        solvable += len({e & ei for e in ext} - {0, ei})
    return enumerated, enumerated, solvable


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_up_set_census_matches_input_mask_oracle(n_states, data):
    values = data.draw(
        st.lists(st.integers(0, (1 << n_states) - 1), max_size=5, unique=True)
    )
    vocab = Vocabulary.build((Program(v, n_states) for v in values), StateSpace(n_states))
    lang = build_language(vocab)
    assume(len(lang) <= 16)
    spec = SearchSpec(n_states, len(values))
    assert search._census_language(spec, lang) == _input_mask_census(lang)


def test_up_set_census_matches_input_mask_oracle_up_to_4_4():
    languages = {}
    for n_states, vocab_size in itertools.product(range(1, 5), range(5)):
        for vocab in enumerate_vocabularies(SearchSpec(n_states, vocab_size)):
            languages.setdefault(statement_masks(vocab), vocab)
    assert len(languages) == 104
    for vocab in languages.values():
        lang = build_language(vocab)
        spec = SearchSpec(vocab.space.n_states, len(vocab))
        assert search._census_language(spec, lang) == _input_mask_census(lang)


def _realizable_classes(k):
    """The classes of complexes on [k] that some vocabulary has as its
    language: at most one program is empty."""
    for cls in complex_classes(k):
        if k - sum(cls.faces >> (1 << i) & 1 for i in range(k)) <= 1:
            yield cls


def test_shape_filter_keeps_the_enumerated_count():
    # the filter decides which tasks are valid, not which are enumerated
    for k in range(5):
        for cls in _realizable_classes(k):
            lang = build_language(cls.realization)
            spec = SearchSpec(cls.realization.space.n_states, k, require_classification_shaped=True)
            enumerated, _, _ = search._census_language(spec, lang)
            assert enumerated == _input_mask_census(lang)[0]


def _shaped_walk_census(lang):
    """The shaped valid and solvable counts of one language, summed over
    the uncapped input walk of the task stream: one term per input mask
    whose feature union leaves some program out."""
    ext = lang.extension_masks()
    members = lang.masks
    programs = 0
    for m in members:
        programs |= m
    valid = solvable = 0
    for i_mask, ei, union in search._inputs(lang):
        if union == programs:
            continue
        blocks = search._output_blocks(members, i_mask, ei, union)
        # the blocks are disjoint (an output extending two inputs would make
        # each input a subset of the other), and every input lies in E_I but
        # in no block, so no output inside their union is E_I
        union = 0
        outputs = 1
        for block in blocks:
            union |= block
            outputs *= (1 << block.bit_count()) - 1
        valid += outputs
        if outputs:
            solvable += sum(
                1 for sel in {e & ei for e in ext}
                if not sel & ~union and all(sel & block for block in blocks)
            )
    return valid, solvable


def test_shaped_counts_match_the_input_walk():
    checked = 0
    for k in range(6):
        for cls in _realizable_classes(k):
            lang = build_language(cls.realization)
            if len(lang) <= 16:
                spec = SearchSpec(cls.realization.space.n_states, k, require_classification_shaped=True)
                assert search._census_language(spec, lang)[1:] == _shaped_walk_census(lang)
                checked += 1
    assert checked == 141


@pytest.mark.parametrize("faces", [0x1FFFF, 0x3FFFF, 0x7FFFF, 0xFFFFF], ids=hex)
def test_shaped_counts_match_the_input_walk_past_16_statements(faces):
    # the 16-statement simplex on programs 0-3, and program 4 with none, one
    # or both of programs 0 and 1: 17 to 20 statements
    (cls,) = (c for c in complex_classes(5) if c.faces == faces)
    lang = build_language(cls.realization)
    assert len(lang) == faces.bit_count()
    spec = SearchSpec(cls.realization.space.n_states, 5, require_classification_shaped=True)
    assert search._census_language(spec, lang)[1:] == _shaped_walk_census(lang)


def test_shaped_counts_match_the_input_walk_over_six_programs():
    # the six-program census walks the 3/6 vocabularies, whose languages
    # hold 12 to 30 statements
    languages = {}
    for vocab in enumerate_vocabularies(SearchSpec(3, 6)):
        languages.setdefault(statement_masks(vocab), build_language(vocab))
    small = [lang for lang in languages.values() if len(lang) <= 16]
    assert len(small) == 11
    for lang in small:
        spec = SearchSpec(3, 6, require_classification_shaped=True)
        assert search._census_language(spec, lang)[1:] == _shaped_walk_census(lang)


def test_shaped_walk_builds_blocks_only_for_inputs_missing_a_program(monkeypatch):
    calls = 0
    original = search._output_blocks

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    def no_input_walk(lang):
        raise AssertionError("the census walks no input set")

    monkeypatch.setattr(search, "_output_blocks", counted)
    # four programs that share state 0: the language of all 16 subsets
    vocab = Vocabulary.build([Program(b, 3) for b in (0b001, 0b011, 0b101, 0b111)], StateSpace(3))
    lang = build_language(vocab)
    assert len(lang) == 16
    # an input set misses program p when it lies among the statements without p
    without = [sum(1 << j for j, m in enumerate(lang.masks) if not m >> p & 1) for p in range(4)]
    missing = sum(
        1 for i_mask in range(1, (1 << 16) - 1) if any(not i_mask & ~w for w in without)
    )
    spec = SearchSpec(3, 4, require_classification_shaped=True)
    assert sum(1 for _ in enumerate_task_masks(lang, spec))
    assert calls == missing
    calls = 0
    monkeypatch.setattr(search, "_inputs", no_input_walk)
    search._census_language(spec, lang)
    assert calls == 0


def _up_sets(ext):
    """Every up-set U of a language's statements under inclusion, with the
    mask of its non-minimal members, given each statement's extension mask.
    Statements are decided largest first, since extensions only ever hold
    larger indices, and one may join U only when all of its strict
    extensions are in U already."""
    strict = [e & ~(1 << j) for j, e in enumerate(ext)]
    # each entry leaves out every statement below j that it does not push
    # an inclusion for, so it yields one up-set
    stack = [(len(strict), 0, 0)]
    while stack:
        j, up, covered = stack.pop()
        while j:
            j -= 1
            if not strict[j] & ~up:
                stack.append((j, up | 1 << j, covered | strict[j]))
        yield up, covered


def _up_set_walk_census(spec, lang):
    """The enumerated and solvable counts of one language, one term per
    up-set U of its statements: the inputs I with up(I) = U are the sets
    between min U and U (I = L is no input), and without the filter the
    solvable outputs are the distinct selections E_s ∩ U but ∅ and U. With
    the filter, solvable counts the nonempty up-sets of each program's
    link, each walked over a language of its own."""
    ext = lang.extension_masks()
    full = (1 << len(ext)) - 1
    enumerated = solvable = 0
    for up, covered in _up_sets(ext):
        size = up.bit_count()
        if size < 2:
            continue
        inputs = (1 << covered.bit_count()) - (up == full)
        enumerated += inputs * ((1 << size) - 2)
        if not spec.require_classification_shaped:
            solvable += inputs * len({e & up for e in ext} - {0, up})
    if spec.require_classification_shaped:
        members = lang.masks
        statements = set(members)
        for p in range(len(lang.vocabulary)):
            link = tuple(m for m in members if not m >> p & 1 and m | 1 << p in statements)
            link_ext = Language.from_masks(lang.vocabulary, link).extension_masks()
            solvable += sum(1 for _ in _up_sets(link_ext)) - 1
    return enumerated, solvable


def _oracle_languages():
    """Every realizable class of at most five programs, and every 3/6
    vocabulary: (its spec's state count, its program count, its language)."""
    for k in range(6):
        for cls in _realizable_classes(k):
            yield cls.realization.space.n_states, k, build_language(cls.realization)
    for vocab in enumerate_vocabularies(SearchSpec(3, 6)):
        yield 3, 6, build_language(vocab)


@pytest.mark.parametrize("shaped", [False, True])
def test_census_counts_match_the_up_set_walk(shaped):
    checked = 0
    for n_states, k, lang in _oracle_languages():
        spec = SearchSpec(n_states, k, require_classification_shaped=shaped)
        enumerated, _, solvable = search._census_language(spec, lang)
        assert (enumerated, solvable) == _up_set_walk_census(spec, lang)
        checked += 1
    assert checked == 238 + 28


@pytest.mark.parametrize(
    "k, dedekind", enumerate([2, 3, 6, 20, 168, 7_581, 7_828_354])
)
def test_up_set_count_gives_the_dedekind_numbers(k, dedekind):
    # k programs that share a state have all 2^k subsets as statements, and
    # the up-sets of that cube are the monotone Boolean functions of k
    # variables (OEIS A000372)
    vocab = Vocabulary.build(
        [Program(b, 4) for b in range(1, 2 * k, 2)], StateSpace(4)
    )
    lang = build_language(vocab)
    assert len(lang) == 1 << k
    full = (1 << len(lang)) - 1
    assert search._up_set_sum(lang.extension_masks(), full, 0, {}) == dedekind
    if k <= 5:
        assert sum(1 for _ in _up_sets(lang.extension_masks())) == dedekind


def _five_program_vocabulary(n_statements):
    """Five programs over four states with a language of ``n_statements``:
    24, where states 0 and 1 each hold four programs, or 32, where state 0
    holds all five."""
    bits = [0b0111, 0b1011, 0b0011, 0b0001, 0b0010]
    if n_statements == 32:
        bits[-1] = 0b0001 | 0b1100
    vocab = Vocabulary.build([Program(b, 4) for b in bits], StateSpace(4))
    assert len(build_language(vocab)) == n_statements
    return vocab


def test_input_extensions_grow_only_as_drawn():
    lang = build_language(_five_program_vocabulary(24))
    ext = lang.extension_masks()
    tracemalloc.start()
    try:
        prefix = list(itertools.islice(search._inputs(lang), 4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole table would hold 2^24 entries
    assert peak < 1 << 20
    # drawn and dropped, 2^20 inputs of 32 statements leave the walk's
    # stack of at most 32 triples
    walk = search._inputs(build_language(_five_program_vocabulary(32)))
    tracemalloc.start()
    try:
        for _ in itertools.islice(walk, 1 << 20):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    for i_mask, ei, _ in prefix:
        expected = 0
        for j in range(i_mask.bit_length()):
            if i_mask >> j & 1:
                expected |= ext[j]
        assert ei == expected


def test_input_extensions_end_before_the_whole_language():
    lang = build_language(Vocabulary.build([Program(0b01, 2), Program(0b11, 2)], StateSpace(2)))
    table = list(search._inputs(lang))
    assert len(table) == (1 << len(lang)) - 2
    assert table[0][0] == 1


def test_input_walk_matches_its_definition():
    checked = 0
    for k in range(6):
        for cls in _realizable_classes(k):
            lang = build_language(cls.realization)
            if len(lang) > 8:
                continue
            walk = list(search._inputs(lang))
            assert [i_mask for i_mask, _, _ in walk] == list(range(1, (1 << len(lang)) - 1))
            for i_mask, ei, union in walk:
                inputs = lang.statements_of(i_mask)
                assert set(lang.statements_of(ei)) == extension_of_set(inputs, lang)
                expected = 0
                for statement in inputs:
                    expected |= statement.members
                assert union == expected
            checked += 1
    assert checked == 36


def test_task_streams_pinned():
    # SHA-256 of the first 20,000 triples of the plain and the shaped stream
    # of every realizable class with at most 12 statements, each triple
    # written "i o e\n" and each stream closed by an empty line
    digest = hashlib.sha256()
    streams = 0
    for k in range(6):
        for cls in _realizable_classes(k):
            lang = build_language(cls.realization)
            if len(lang) > 12:
                continue
            for shaped in (False, True):
                spec = SearchSpec(
                    cls.realization.space.n_states, k, require_classification_shaped=shaped
                )
                for triple in itertools.islice(enumerate_task_masks(lang, spec), 20_000):
                    digest.update(b"%d %d %d\n" % triple)
                digest.update(b"\n")
                streams += 1
    assert streams == 166
    assert digest.hexdigest() == "004dbea6a2de9432b5077cab0e997169d0cf6b18e097f253cb2cbc38c8fc7df7"


def test_task_streams_past_16_statements_pinned():
    # as above, the first 1,000 triples of each stream of every realizable
    # class with 13 to 32 statements, then of the 64-statement language of
    # six programs that share a state
    languages = []
    for k in range(6):
        for cls in _realizable_classes(k):
            lang = build_language(cls.realization)
            if 13 <= len(lang) <= 32:
                languages.append((lang, cls.realization.space.n_states, k))
    vocab = Vocabulary.build([Program(b, 4) for b in range(1, 12, 2)], StateSpace(4))
    languages.append((build_language(vocab), 4, 6))
    assert len(languages) == 156 and len(languages[-1][0]) == 64
    digest = hashlib.sha256()
    for lang, n_states, k in languages:
        for shaped in (False, True):
            spec = SearchSpec(n_states, k, require_classification_shaped=shaped)
            for triple in itertools.islice(enumerate_task_masks(lang, spec), 1000):
                digest.update(b"%d %d %d\n" % triple)
            digest.update(b"\n")
    assert digest.hexdigest() == "17bb6f90a79056a6d54302210dd9cdc7b0a0abbc91983a68e18f5468a03e4669"


def test_exemplar_walk_past_the_input_walk_cap_stops_when_filled(monkeypatch):
    drawn = 0
    original = search._inputs

    def counted(lang):
        nonlocal drawn
        for entry in original(lang):
            drawn += 1
            yield entry

    monkeypatch.setattr(search, "_inputs", counted)
    lang = build_language(_five_program_vocabulary(32))
    spec = SearchSpec(n_states=4, vocab_size=5)
    triples = search._unsolvable_triples(lang, spec, 5)
    # the inputs {} (mask 1) alone have 2^32 - 2 outputs
    assert drawn == 1
    assert [i_mask for i_mask, _, _ in triples] == [1] * 5
    for i_mask, o_mask, ei in triples:
        assert find_correct_policies(Task(lang, i_mask, o_mask, ei)).correct == ()
    drawn = 0
    assert search._unsolvable_triples(lang, spec, 0) == []
    assert drawn == 0


def test_census_cap_errors_name_their_caps(monkeypatch):
    # 3/6 walks C(8, 6) = 28 combinations, one more than the patched cap
    monkeypatch.setattr(search, "CENSUS_WALK_CAP", 27)
    with pytest.raises(CapacityError) as info:
        census(SearchSpec(n_states=3, vocab_size=6))
    assert (info.value.cap_name, info.value.cap_value) == ("census_walk_cap", 27)
    assert "C(2^3, 6), about 28, program combinations" in str(info.value)
    assert "27-combination census walk cap" in str(info.value)
    assert "pass a time budget to walk a prefix" in str(info.value)
    # a walk of exactly the cap is admitted
    monkeypatch.setattr(search, "CENSUS_WALK_CAP", 28)
    assert census(SearchSpec(n_states=3, vocab_size=6)).vocabularies == 28


def test_census_vocab_size_zero_is_empty():
    report = census(SearchSpec(n_states=3, vocab_size=0))
    assert report.vocabularies == 1
    assert report.tasks_valid == 0
    assert report.tasks_solvable == 0
    assert report.exemplars == ()


def test_census_matches_brute_force():
    spec = SearchSpec(n_states=2, vocab_size=2)
    report = census(spec)
    total = solvable = 0
    for vocab in enumerate_vocabularies(spec):
        for task in enumerate_tasks(vocab, spec):
            total += 1
            if find_correct_policies(task).correct:
                solvable += 1
    assert report.tasks_valid == total == 262
    assert report.tasks_solvable == solvable == 73
    assert report.tasks_unsolvable == total - solvable


def test_census_exemplars_confirmed_unsolvable():
    report = census(SearchSpec(n_states=2, vocab_size=2, exemplar_limit=5))
    assert len(report.exemplars) == 5
    for task in report.exemplars:
        assert find_correct_policies(task, mode="exhaustive").correct == ()


def test_census_zero_budget_truncates():
    report = census(SearchSpec(n_states=2, vocab_size=2, time_budget=0.0))
    assert report.truncated
    assert report.tasks_valid == 0


def test_census_deadline_ignores_wall_clock_steps(monkeypatch):
    # a wall clock that jumps a day forward at every reading must not fire
    # a one-minute budget
    readings = itertools.count(time.time(), 86_400)
    monkeypatch.setattr(time, "time", lambda: next(readings))
    report = census(SearchSpec(n_states=2, vocab_size=2, time_budget=60.0))
    assert not report.truncated
    assert report.tasks_valid == 262


def test_census_report_invariant_raises():
    report = census(SearchSpec(n_states=1, vocab_size=1))
    with pytest.raises(ValueError):
        dataclasses.replace(report, tasks_unsolvable=report.tasks_unsolvable + 1)


def test_census_max_tasks_truncates():
    report = census(SearchSpec(n_states=2, vocab_size=2, max_tasks=10))
    assert report.truncated
    assert report.tasks_valid >= 10


_TRUNCATED_RUNS = {
    "plain": {"max_tasks": 1000},
    "shaped": {"require_classification_shaped": True, "max_tasks": 100},
    "dedup": {"dedup": True, "max_tasks": 1000},
}


@pytest.mark.parametrize("exemplar_limit", [0, 3, 10**6])
@pytest.mark.parametrize("kind", sorted(_TRUNCATED_RUNS))
def test_census_truncates_between_vocabularies(kind, exemplar_limit):
    # the limit is checked before each vocabulary, so a truncated report
    # counts whole languages: exactly those of its first ``vocabularies``
    # vocabularies, which also hold its exemplars
    spec = SearchSpec(
        n_states=3, vocab_size=3, exemplar_limit=exemplar_limit, **_TRUNCATED_RUNS[kind]
    )
    report = census(spec)
    assert report.truncated
    assert 0 < report.vocabularies < len(list(enumerate_vocabularies(spec)))
    vocabs = itertools.islice(enumerate_vocabularies(spec), report.vocabularies)
    enumerated, valid, solvable, unsolvable = _brute_force_census(spec, vocabs)
    assert (report.tasks_enumerated, report.tasks_valid, report.tasks_solvable) == (
        enumerated,
        valid,
        solvable,
    )
    # more than the smaller limits, fewer than the largest
    assert 3 < len(unsolvable) < 10**6
    assert report.exemplars == tuple(unsolvable[:exemplar_limit])


def test_six_program_runs_over_the_walk_cap_fail_before_walking(monkeypatch):
    # from five states on, C(2^n, 6) is over the walk cap: 906,192 at five
    def no_walk(spec):
        raise AssertionError("a capped census walks no vocabulary")

    cap = ("census_walk_cap", search.CENSUS_WALK_CAP)
    flags = ({}, {"dedup": True}, {"require_classification_shaped": True})
    with monkeypatch.context() as patched:
        patched.setattr(search, "enumerate_vocabularies", no_walk)
        for n_states in [*range(5, 11), 64]:
            for mode in flags:
                with pytest.raises(CapacityError) as info:
                    census(SearchSpec(n_states, 6, **mode))
                assert (info.value.cap_name, info.value.cap_value) == cap
    # 3/6 walks its C(8, 6) = 28 combinations, the complements of the
    # program pairs, and with dedup the complements of the nine orbits of
    # pairs; 4/6, which walks 8,008, is pinned below
    assert math.comb(2**4, 6) <= search.CENSUS_WALK_CAP < math.comb(2**5, 6)
    assert census(SearchSpec(3, 6)).vocabularies == 28
    assert census(SearchSpec(3, 6, dedup=True)).vocabularies == 9


def test_untruncated_walk_over_the_cap_fails_before_walking(monkeypatch):
    def no_walk(spec):
        raise AssertionError("a capped census walks no vocabulary")

    cap = ("census_walk_cap", search.CENSUS_WALK_CAP)
    with monkeypatch.context() as patched:
        patched.setattr(search, "enumerate_vocabularies", no_walk)
        for spec in (SearchSpec(10, 6), SearchSpec(5, 6, dedup=True)):
            with pytest.raises(CapacityError) as info:
                census(spec)
            assert (info.value.cap_name, info.value.cap_value) == cap
    # a walk with a task limit or a budget may stop early, so it is not
    # capped; the same runs walk a prefix that ends before any vocabulary
    for spec in (
        SearchSpec(10, 6, max_tasks=0),
        SearchSpec(10, 6, time_budget=0.0),
        SearchSpec(5, 6, dedup=True, max_tasks=0),
        SearchSpec(5, 6, dedup=True, time_budget=0.0),
    ):
        report = census(spec)
        assert (report.truncated, report.vocabularies) == (True, 0)
    # a budgeted 3/6 walks all 28 combinations; a budgeted run of at most
    # five programs takes the class sum
    assert census(SearchSpec(3, 6, time_budget=60.0)).vocabularies == 28
    assert census(SearchSpec(3, 3, time_budget=60.0)).tasks_valid == 509_154


def test_census_memo_is_per_run(monkeypatch):
    # 5/3 has 4,960 vocabularies, 11 distinct languages and 7 classes of
    # languages with nonzero weight; each census computes each class once,
    # and a second census in the same process computes them all again
    calls = 0
    original = search._census_language

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(search, "_census_language", counted)
    spec = SearchSpec(n_states=5, vocab_size=3)
    first = census(spec)
    assert first.vocabularies == 4_960
    assert calls == len(class_weights(5, 3)) == 7
    calls = 0
    second = census(spec)
    assert calls == 7
    assert dataclasses.replace(second, elapsed_seconds=0.0) == dataclasses.replace(
        first, elapsed_seconds=0.0
    )


def test_census_builds_languages_only_when_used(monkeypatch):
    # a language is built for each class with nonzero weight, over its
    # realization, and never more; without exemplars no vocabulary is
    # walked at all
    built = []
    original = search.build_language

    def counted(vocab):
        built.append(vocab)
        return original(vocab)

    def no_walk(spec):
        raise AssertionError("a census without exemplars walks no vocabulary")

    monkeypatch.setattr(search, "build_language", counted)
    spec = SearchSpec(n_states=5, vocab_size=3, exemplar_limit=0)
    realizations = [cls.realization for cls, _ in class_weights(5, 3)]
    with monkeypatch.context() as patched:
        patched.setattr(search, "enumerate_vocabularies", no_walk)
        assert census(spec).vocabularies == 4_960
    assert len(built) == len(set(built)) == 7
    assert set(built) == set(realizations)

    built.clear()
    masked = []
    original_masks = search.statement_masks

    def counted_masks(vocab):
        masked.append(vocab)
        return original_masks(vocab)

    monkeypatch.setattr(search, "statement_masks", counted_masks)
    report = census(dataclasses.replace(spec, exemplar_limit=3))
    # the exemplar walk computes each walked vocabulary's statement masks
    # once, builds its language from them, and stops at the vocabulary of
    # the last exemplar
    assert len(built) == 7
    assert set(built) == set(realizations)
    walked = []
    for vocab in enumerate_vocabularies(spec):
        walked.append(vocab)
        if vocab == report.exemplars[-1].language.vocabulary:
            break
    assert masked == walked


ORACLE_POINTS = (
    [(n, k, shaped) for n in range(1, 5) for k in range(5) for shaped in (False, True)]
    + [(5, 3, False), (6, 2, False), (6, 3, False)]
)


def _check_class_sum_against_the_walk(spec):
    """Totals from the class sum equal the counting walk's, and exemplars
    the first unsolvable tasks of the brute-force stream."""
    walked = search._census_walk(spec, None)
    report = census(spec)
    assert not report.truncated
    assert (
        report.vocabularies, report.tasks_enumerated, report.tasks_valid, report.tasks_solvable
    ) == (walked.vocabularies, walked.enumerated, walked.valid, walked.solvable)
    limit = min(spec.exemplar_limit, report.tasks_unsolvable)
    expected = itertools.islice(_brute_force_unsolvable(spec), limit)
    assert [_task_key(t) for t in report.exemplars] == [_task_key(t) for t in expected]


@pytest.mark.parametrize("n_states, vocab_size, shaped", ORACLE_POINTS)
def test_class_sum_matches_the_vocabulary_walk(n_states, vocab_size, shaped):
    _check_class_sum_against_the_walk(
        SearchSpec(n_states, vocab_size, require_classification_shaped=shaped, exemplar_limit=5)
    )


@pytest.mark.parametrize(
    "n_states, vocab_size, shaped, totals",
    [
        (10, 4, False, (45_545_029_376, 54_441_538_247_156_139_238, 23_549_934_641_915_322)),
        (
            10, 5, False,
            (
                9_291_185_992_704,
                25_423_344_703_205_948_690_674_206_212_386,
                347_656_871_410_844_646_336_236,
            ),
        ),
        (10, 4, True, (45_545_029_376, 74_819_048_989_594, 2_640_082_603_988)),
    ],
)
def test_class_sum_reaches_ten_states(n_states, vocab_size, shaped, totals):
    report = census(SearchSpec(n_states, vocab_size, require_classification_shaped=shaped))
    assert not report.truncated
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == totals
    if shaped:
        # the shape filter keeps a share of every task of the full census
        assert report.tasks_enumerated == 54_441_538_247_156_139_238
    else:
        assert report.tasks_enumerated == report.tasks_valid
    assert len(report.exemplars) == 3


DEDUP_ORACLE_POINTS = (
    [(n, k, shaped) for n in range(1, 5) for k in range(5) for shaped in (False, True)]
    + [(n, k, shaped) for n, k in ((5, 3), (6, 3), (5, 4)) for shaped in (False, True)]
)


@pytest.mark.parametrize("n_states, vocab_size, shaped", DEDUP_ORACLE_POINTS)
def test_dedup_class_sum_matches_the_orbit_key_walk(n_states, vocab_size, shaped):
    # the walk counts each orbit's least vocabulary, keyed by its orbit key
    _check_class_sum_against_the_walk(
        SearchSpec(
            n_states, vocab_size, require_classification_shaped=shaped, dedup=True,
            exemplar_limit=5,
        )
    )


@pytest.mark.parametrize(
    "n_states, vocab_size, totals",
    [
        (10, 3, (3_504, 84_164_044, 3_769_446)),
        (10, 4, (144_873, 146_126_714_471_838, 63_183_960_095)),
    ],
)
def test_dedup_class_sum_reaches_ten_states(monkeypatch, n_states, vocab_size, totals):
    # these walks would take C(1024, k)·k! orbit-key steps. The totals were
    # confirmed by a walk over the multisets of ten state columns, like the
    # one in test_complexes (2.7 minutes at 10/4)
    def no_walk(*args):
        raise AssertionError("dedup totals walk no vocabulary")

    monkeypatch.setattr(search, "_census_walk", no_walk)
    report = census(SearchSpec(n_states, vocab_size, dedup=True))
    assert not report.truncated
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == totals
    assert report.tasks_enumerated == report.tasks_valid
    assert len(report.exemplars) == 3


def test_six_programs_still_walk_vocabularies(monkeypatch):
    def no_classes(*args):
        raise AssertionError("six-program complexes are not listed")

    monkeypatch.setattr(search, "class_weights", no_classes)
    report = census(SearchSpec(n_states=3, vocab_size=6))
    assert (report.vocabularies, report.tasks_valid, report.tasks_solvable) == (
        28, 1_845_129_742_360_500_004, 94_345_163_871,
    )
    assert not report.truncated


@pytest.mark.parametrize(
    "limits",
    [
        {"dedup": True},
        {"max_tasks": 10**9},
        {"time_budget": 60.0},
        {"max_tasks": 10**9, "time_budget": 60.0},
    ],
)
def test_dedup_and_truncatable_runs_walk_vocabularies(monkeypatch, limits):
    # only a task limit that binds walks vocabularies for the totals: the
    # limit marks a prefix of the vocabularies, which only the walk finds,
    # and the class sum shows that 10^9 is above every 3/3 total. A dedup
    # run walks them only for its exemplars, and a time budget bounds the
    # class sum without choosing the walk, with a task limit or without
    def wrong_way(*args):
        raise AssertionError("this run takes its totals the other way")

    monkeypatch.setattr(search, "_census_walk", wrong_way)
    report = census(SearchSpec(n_states=3, vocab_size=3, **limits))
    assert not report.truncated
    assert report.tasks_valid == (134_770 if "dedup" in limits else 509_154)


def test_a_task_limit_truncates_the_walk(monkeypatch):
    # the class sum reaches the limit, so the run walks vocabularies
    walks = 0
    original = search._census_walk

    def counted(*args):
        nonlocal walks
        walks += 1
        return original(*args)

    monkeypatch.setattr(search, "_census_walk", counted)
    report = census(SearchSpec(n_states=3, vocab_size=3, max_tasks=1000))
    assert walks == 1
    assert report.truncated
    assert report.tasks_valid < 509_154


@pytest.mark.parametrize(
    "n_states, vocab_size, flags",
    [
        (3, 3, {}),
        (3, 3, {"require_classification_shaped": True}),
        (3, 3, {"dedup": True}),
        (4, 4, {"exemplar_limit": 10}),
        (6, 4, {"dedup": True, "require_classification_shaped": True}),
    ],
)
def test_a_task_limit_that_cannot_bind_changes_no_report(monkeypatch, n_states, vocab_size, flags):
    # a limit above the class sum's valid total reports that sum, which
    # is what the walk would count; a limit equal to it walks
    unlimited = census(SearchSpec(n_states, vocab_size, **flags))
    valid = unlimited.tasks_valid
    if n_states < 6:
        spec = SearchSpec(n_states, vocab_size, max_tasks=valid + 1, **flags)
        totals = search._census_walk(spec, None)
        assert (totals.truncated, totals.vocabularies, totals.valid, totals.solvable) == (
            False, unlimited.vocabularies, valid, unlimited.tasks_solvable,
        )
    with monkeypatch.context() as patched:
        patched.setattr(search, "_census_walk", lambda *args: pytest.fail("walked"))
        for limit in (valid + 1, 10**30):
            spec = SearchSpec(n_states, vocab_size, max_tasks=limit, **flags)
            report = census(spec)
            assert dataclasses.replace(report, elapsed_seconds=0.0) == dataclasses.replace(
                unlimited, spec=spec, elapsed_seconds=0.0
            )
    walked = []
    monkeypatch.setattr(
        search, "_census_walk", lambda *args: walked.append(args) or search._Totals()
    )
    census(SearchSpec(n_states, vocab_size, max_tasks=valid, **{**flags, "exemplar_limit": 0}))
    assert len(walked) == 1


def _no_walk(*args):
    raise AssertionError("a budgeted run of at most five programs walks no vocabulary")


def test_a_spent_budget_censuses_no_class(monkeypatch):
    monkeypatch.setattr(search, "_census_walk", _no_walk)
    monkeypatch.setattr(search, "_census_language", lambda *args: pytest.fail("censused"))
    report = census(SearchSpec(n_states=3, vocab_size=3, time_budget=0.0))
    assert (report.truncated, report.vocabularies, report.tasks_valid) == (True, 0, 0)
    assert report.exemplars == ()


def test_a_budget_spent_during_the_sum_reports_the_empty_prefix(monkeypatch):
    # the clock passes the deadline once the first class is censused
    now = 0.0
    censused = 0
    original = search._census_language

    def first_class_takes_an_hour(*args):
        nonlocal now, censused
        censused += 1
        now += 3600.0
        return original(*args)

    monkeypatch.setattr(time, "monotonic", lambda: now)
    monkeypatch.setattr(search, "_census_walk", _no_walk)
    monkeypatch.setattr(search, "_census_language", first_class_takes_an_hour)
    report = census(SearchSpec(n_states=10, vocab_size=5, dedup=True, time_budget=60.0))
    assert censused == 1
    assert report.truncated
    assert (report.vocabularies, report.tasks_enumerated, report.tasks_valid) == (0, 0, 0)
    assert report.exemplars == ()


def test_a_budget_spent_during_the_exemplar_walk_keeps_the_totals(monkeypatch):
    # the clock passes the deadline as the exemplar walk reaches the ninth
    # 3/2 vocabulary; the first eight hold 19 unsolvable tasks
    full = census(SearchSpec(n_states=3, vocab_size=2, exemplar_limit=50))
    now = 0.0
    original = search.enumerate_vocabularies

    def ninth_vocabulary_comes_an_hour_late(spec):
        nonlocal now
        for n, vocab in enumerate(original(spec)):
            if n == 8:
                now += 3600.0
            yield vocab

    monkeypatch.setattr(time, "monotonic", lambda: now)
    monkeypatch.setattr(search, "enumerate_vocabularies", ninth_vocabulary_comes_an_hour_late)
    report = census(SearchSpec(n_states=3, vocab_size=2, exemplar_limit=50, time_budget=60.0))
    assert report.truncated and not full.truncated
    counts = ("vocabularies", "tasks_enumerated", "tasks_valid", "tasks_solvable")
    assert [getattr(report, c) for c in counts] == [getattr(full, c) for c in counts]
    assert report.exemplars == full.exemplars[:19]


def test_exemplar_cap_fires_before_the_walk(monkeypatch):
    # 3/3 has 484,146 unsolvable tasks, more than the cap holds; 2/2 has
    # 189, so a limit far above the cap lists all of them
    with monkeypatch.context() as patched:
        patched.setattr(search, "_exemplars", lambda *args: pytest.fail("walked"))
        with pytest.raises(CapacityError) as info:
            census(SearchSpec(n_states=3, vocab_size=3, exemplar_limit=10**19))
    assert (info.value.cap_name, info.value.cap_value) == ("census_exemplar_cap", 100_000)
    report = census(SearchSpec(n_states=2, vocab_size=2, exemplar_limit=10**19))
    assert len(report.exemplars) == report.tasks_unsolvable == 189


def test_reference_vocabulary_census_has_unsolvable_tasks():
    # single-language census over the embedded reference vocabulary: the
    # language admits unsolvable tasks (the reference task among them)
    task, _, _ = reference_task()
    lang = task.language
    i_alpha = sum(1 << lang.index_of(s) for s in task.inputs)
    o_alpha = sum(1 << lang.index_of(s) for s in task.outputs)
    ext = lang.extension_masks()
    ei = 0
    for s in task.inputs:
        ei |= ext[lang.index_of(s)]
    selections = {ext[p] & ei for p in range(len(lang))}
    assert o_alpha not in selections  # the reference task itself is unsolvable
    n_outputs = (1 << ei.bit_count()) - 2
    achievable = {s for s in selections if s and s != ei}
    assert n_outputs - len(achievable) >= 1


# -- canonicalization --------------------------------------------------------


def test_canonical_form_reflexive(ref_task):
    assert canonicalize_task(ref_task) == canonicalize_task(ref_task)


def test_canonical_form_idempotent(ref_task):
    form = canonicalize_task(ref_task)
    rebuilt = task_from_canonical(form)
    assert canonicalize_task(rebuilt) == form


def test_identity_permutation_preserves_task(ref_task):
    same = permute_task(ref_task, tuple(range(5)))
    assert canonicalize_task(same) == canonicalize_task(ref_task)
    assert {s.members for s in same.inputs} == {s.members for s in ref_task.inputs}


@pytest.mark.parametrize("perm", [(0, 1, 2, 3), (0, 0, 1, 2, 3), (1, 2, 3, 4, 5)])
def test_permute_task_rejects_a_non_permutation(ref_task, perm):
    with pytest.raises(DomainError):
        permute_task(ref_task, perm)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_canonical_form_permutation_invariant(seed, rng):
    task = random_task(random.Random(seed), max_states=4, max_vocab=4)
    n = task.language.vocabulary.space.n_states
    perm = list(range(n))
    rng.shuffle(perm)
    image = permute_task(task, tuple(perm))
    form = canonicalize_task(task)
    assert canonicalize_task(image) == form
    assert canonicalize_task(task_from_canonical(form)) == form


def _permute_bits(bits, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if bits >> i & 1)


def _least_state_image(task):
    """The n! rule: the least image, over every state permutation, of the
    sorted program values and the input and output masks moved into that
    sorted vocabulary."""
    programs = [p.bits for p in task.language.vocabulary.programs]
    k = len(programs)

    def image(perm):
        mapped = [_permute_bits(b, perm) for b in programs]
        order = sorted(range(k), key=mapped.__getitem__)
        position = [order.index(i) for i in range(k)]

        def masks(statements):
            moved = (_permute_bits(s.members, position) for s in statements)
            return tuple(sorted(moved, key=lambda m: (m.bit_count(), m)))

        return tuple(sorted(mapped)), masks(task.inputs), masks(task.outputs)

    n = task.language.vocabulary.space.n_states
    return n, min(map(image, itertools.permutations(range(n))))


def test_canonical_forms_match_least_state_image_classes():
    rng = random.Random(7)
    tasks = []
    for _ in range(600):
        task = random_task(rng, max_states=4, max_vocab=4)
        perm = list(range(task.language.vocabulary.space.n_states))
        rng.shuffle(perm)
        tasks += [task, permute_task(task, tuple(perm))]
    pairs = {(canonicalize_task(t), _least_state_image(t)) for t in tasks}
    # the two partitions agree exactly when each form pairs with one oracle form
    assert len({form for form, _ in pairs}) == len(pairs)
    assert len({oracle for _, oracle in pairs}) == len(pairs)
    assert len(pairs) < len(tasks) // 2


def test_reference_orbit_size_pinned(ref_task):
    # distinct images of the reference task under all 120 state
    # permutations; its stabilizer is the double swap of the two
    # class-feature pairs, so the orbit has 60 members
    images = set()
    for perm in itertools.permutations(range(5)):
        image = permute_task(ref_task, perm)
        images.add(
            (
                tuple(p.bits for p in image.language.vocabulary.programs),
                tuple(sorted(s.members for s in image.inputs)),
                tuple(sorted(s.members for s in image.outputs)),
            )
        )
    assert len(images) == 60


def test_canonicalization_program_cap():
    vocab = Vocabulary.build([Program(b, 4) for b in range(1, 10)], StateSpace(4))
    task = validate_task([Statement(0)], [Statement(1)], build_language(vocab))
    with pytest.raises(CapacityError) as err:
        canonicalize_task(task)
    assert err.value.cap_name == "canon_max_programs"


def test_canonicalization_reaches_past_eight_states():
    vocab = Vocabulary.build(
        [Program(b, 12) for b in (0b111111000011, 0b000111111001, 0b100000111111)],
        StateSpace(12),
    )
    lang = build_language(vocab)
    task = validate_task([Statement(0b001)], [Statement(0b011), Statement(0b101)], lang)
    form = canonicalize_task(task)
    assert (form.n_states, form.n_programs) == (12, 3)
    assert canonicalize_task(task_from_canonical(form)) == form
    image = permute_task(task, tuple(range(11, -1, -1)))
    assert canonicalize_task(image) == form
