import itertools
import random

import pytest
from hypothesis import given, strategies as st

from vtask.core import (
    EMPTY_STATEMENT,
    MAX_VOCAB,
    Language,
    Program,
    StateSpace,
    Statement,
    Vocabulary,
    build_language,
    extension_of_set,
    extension_of_statement,
    intersect_programs,
    is_statement,
    statement_key,
    statement_masks,
)
from vtask.errors import CapacityError, DomainError, MalformedInputError

from conftest import statement_of


def bits(text: str) -> Program:
    """Literal notation helper: leftmost character is state 1."""
    value = 0
    for i, ch in enumerate(text):
        if ch == "1":
            value |= 1 << i
    return Program(value, len(text))


def vocab_of(*texts: str) -> Vocabulary:
    width = len(texts[0]) if texts else 1
    return Vocabulary.build((bits(t) for t in texts), StateSpace(width))


# -- state space and programs ------------------------------------------------


def test_state_space_bounds():
    assert StateSpace(1).full_mask == 1
    assert StateSpace(64).n_states == 64
    with pytest.raises(MalformedInputError):
        StateSpace(0)
    with pytest.raises(CapacityError) as info:
        StateSpace(65)
    assert "65" in str(info.value)


def test_program_literal_reading_order():
    # "01111" excludes state 1 only
    p = bits("01111")
    assert not p.includes_state(1)
    assert all(p.includes_state(s) for s in (2, 3, 4, 5))
    assert p.included_states() == (2, 3, 4, 5)
    assert p.to_bitstring() == "01111"


def test_to_bitstring_matches_the_per_state_definition():
    rng = random.Random(5)
    for width in range(1, 65):
        full = (1 << width) - 1
        for value in {0, full, 1, 1 << (width - 1), *(rng.getrandbits(width) for _ in range(20))}:
            p = Program(value, width)
            expected = "".join("1" if p.includes_state(s) else "0" for s in range(1, width + 1))
            assert p.to_bitstring() == expected


def test_program_from_included_states():
    p = Program.from_included_states([2, 3, 4, 5], 5)
    assert p == bits("01111")
    with pytest.raises(MalformedInputError):
        Program.from_included_states([0], 5)
    with pytest.raises(MalformedInputError):
        Program.from_included_states([6], 5)


def test_program_width_validation():
    with pytest.raises(MalformedInputError):
        Program(0b100, 2)
    with pytest.raises(MalformedInputError):
        Program(1, 0)
    with pytest.raises(MalformedInputError):
        bits("01").includes_state(0)
    with pytest.raises(MalformedInputError):
        intersect_programs([bits("01"), bits("011")], StateSpace(2))


def test_vocabulary_canonical_order_and_duplicates():
    v = vocab_of("01111", "10111", "11011", "11101")
    assert [p.bits for p in v.programs] == sorted(p.bits for p in v.programs)
    with pytest.raises(MalformedInputError):
        vocab_of("01", "01")
    with pytest.raises(MalformedInputError):
        Vocabulary.build([bits("01")], StateSpace(3))


def test_vocabulary_index_of():
    v = vocab_of("011", "101")
    assert v.index_of(bits("011")) == 1
    with pytest.raises(DomainError):
        v.index_of(bits("110"))


def test_statement_from_indices_rejects_a_negative_index():
    assert Statement.from_indices([0, 2]).members == 0b101
    with pytest.raises(MalformedInputError):
        Statement.from_indices([-1])


def test_vocabulary_cap():
    space = StateSpace(5)
    programs = [Program(v, 5) for v in range(MAX_VOCAB + 1)]
    with pytest.raises(CapacityError) as info:
        Vocabulary.build(programs, space)
    assert info.value.cap_name == "max_vocab"


# -- intersection ------------------------------------------------------------


def test_intersect_programs_pairwise():
    space = StateSpace(5)
    out = intersect_programs([bits("01111"), bits("10111")], space)
    assert out.to_bitstring() == "00111"


def test_intersect_programs_nullary_is_everything():
    assert intersect_programs([], StateSpace(5)).to_bitstring() == "11111"


def test_intersect_programs_reference_vocabulary():
    space = StateSpace(5)
    out = intersect_programs(
        [bits("01111"), bits("10111"), bits("11011"), bits("11101")], space
    )
    assert out.to_bitstring() == "00001"
    assert not out.is_empty()


def test_intersect_programs_width_mismatch():
    with pytest.raises(MalformedInputError):
        intersect_programs([bits("01")], StateSpace(5))


# -- statement admission -----------------------------------------------------


def test_is_statement_reference_vocabulary():
    v = vocab_of("01111", "10111", "11011", "11101")
    assert is_statement(range(4), v)
    assert is_statement([], v)


def test_is_statement_disjoint_pair():
    v = vocab_of("01", "10")
    assert not is_statement([0, 1], v)
    assert is_statement([0], v)


def test_is_statement_out_of_range():
    v = vocab_of("01", "10")
    with pytest.raises(MalformedInputError):
        is_statement([2], v)


def test_non_null_intersection_truth_table():
    # pairs over 2- and 3-state spaces with known verdicts
    two = StateSpace(2)
    three = StateSpace(3)
    assert not intersect_programs([bits("01"), bits("11")], two).is_empty()
    assert intersect_programs([bits("01"), bits("10")], two).is_empty()
    assert not intersect_programs([bits("011"), bits("111")], three).is_empty()
    assert intersect_programs([bits("011"), bits("100")], three).is_empty()


# -- language construction ---------------------------------------------------


def test_build_language_reference_vocabulary():
    lang = build_language(vocab_of("01111", "10111", "11011", "11101"))
    assert len(lang) == 16
    assert lang.statements[0] == EMPTY_STATEMENT


def test_build_language_empty_vocabulary():
    lang = build_language(Vocabulary.build([], StateSpace(3)))
    assert list(lang) == [EMPTY_STATEMENT]


def test_build_language_excludes_disjoint_subsets():
    lang = build_language(vocab_of("01", "10"))
    assert {s.members for s in lang} == {0b00, 0b01, 0b10}


def test_language_canonical_statement_order():
    lang = build_language(vocab_of("01111", "10111", "11011", "11101"))
    keys = [statement_key(s) for s in lang]
    assert keys == sorted(keys)


def test_statement_masks_are_the_sharing_subsets_in_key_order():
    rng = random.Random(2024)
    for trial in range(300):
        n = rng.randint(1, 6)
        k = rng.randint(0, min(8, 1 << n))
        values = rng.sample(range(1 << n), k)
        if trial % 2 and k and 0 not in values:
            values[0] = 0  # the empty program
        vocab = Vocabulary.build((Program(v, n) for v in values), StateSpace(n))
        expected = sorted(
            (Statement(m) for m in range(1 << k) if is_statement(Statement(m).indices(), vocab)),
            key=statement_key,
        )
        masks = statement_masks(vocab)
        assert masks == tuple(s.members for s in expected)
        assert build_language(vocab).statements == tuple(expected)


def test_language_index_and_membership():
    lang = build_language(vocab_of("01", "10"))
    assert Statement(0b01) in lang
    assert Statement(0b11) not in lang
    with pytest.raises(DomainError):
        lang.index_of(Statement(0b11))


def test_mask_language_matches_linear_scans():
    """The masks-only language against its definitions: ``statement_masks``
    for the data, statement objects for the view, and a linear scan of the
    masks for lookup by position."""
    rng = random.Random(18)
    for trial in range(300):
        n = rng.randint(1, 6)
        k = rng.randint(0, min(12, 1 << n))
        values = rng.sample(range(1 << n), k)
        if trial % 3 == 0 and k and 0 not in values:
            values[0] = 0  # the empty program
        vocab = Vocabulary.build((Program(v, n) for v in values), StateSpace(n))
        lang = build_language(vocab)
        masks = statement_masks(vocab)
        assert lang.masks == masks
        assert lang.statements == tuple(map(Statement, masks))
        assert Language(vocab, lang.statements) == lang
        probes = [*masks, -1, 1 << k, *(rng.getrandbits(k + 1) for _ in range(50))]
        for m in probes:
            assert (Statement(m) in lang) == (m in masks)
            if m in masks:
                assert lang.index_of(Statement(m)) == masks.index(m)
            else:
                with pytest.raises(DomainError):
                    lang.index_of(Statement(m))
        for _ in range(5):
            mask = rng.getrandbits(len(masks))
            expected = tuple(m for j, m in enumerate(masks) if mask >> j & 1)
            assert lang.member_masks(mask) == expected
            assert lang.statements_of(mask) == tuple(map(Statement, expected))


def test_language_from_statements_keeps_canonical_order():
    lang = build_language(vocab_of("011", "110", "101"))
    assert Language(lang.vocabulary, lang.statements[:-1]).masks == lang.masks[:-1]
    outside = (Statement(-1), Statement(0b1000))
    for broken in (lang.statements[::-1], lang.statements + lang.statements[-1:], outside):
        with pytest.raises(MalformedInputError):
            Language(lang.vocabulary, broken)


# -- extensions --------------------------------------------------------------


def test_extension_of_statement_reference_pairs(ref_task, ref_index):
    lang = ref_task.language
    ext = extension_of_statement(statement_of(ref_index, "f1", "f2"), lang)
    assert ext == {
        statement_of(ref_index, "f1", "f2"),
        statement_of(ref_index, "f1", "f2", "f3"),
        statement_of(ref_index, "f1", "f2", "f4"),
        statement_of(ref_index, "f1", "f2", "f3", "f4"),
    }
    ext2 = extension_of_statement(statement_of(ref_index, "f2", "f3"), lang)
    assert ext2 == {
        statement_of(ref_index, "f2", "f3"),
        statement_of(ref_index, "f1", "f2", "f3"),
        statement_of(ref_index, "f2", "f3", "f4"),
        statement_of(ref_index, "f1", "f2", "f3", "f4"),
    }
    # the two extensions overlap in two statements, so the union has 6
    assert len(ext | ext2) == 6
    assert extension_of_set(
        [statement_of(ref_index, "f1", "f2"), statement_of(ref_index, "f2", "f3")],
        lang,
    ) == ext | ext2


def test_extension_of_empty_statement_is_language(ref_task):
    lang = ref_task.language
    assert extension_of_statement(EMPTY_STATEMENT, lang) == lang.statement_set()


def test_extension_requires_membership():
    lang = build_language(vocab_of("01", "10"))
    with pytest.raises(DomainError):
        extension_of_statement(Statement(0b11), lang)
    with pytest.raises(DomainError):
        extension_of_set([Statement(0b11)], lang)


def test_extension_of_set_empty_is_empty(ref_task):
    assert extension_of_set([], ref_task.language) == frozenset()


def test_reference_input_extension_listing(ref_task, ref_index):
    # the 12 statements containing f1 or f2
    expected = {
        statement_of(ref_index, *names)
        for names in [
            ("f1",),
            ("f2",),
            ("f1", "f2"),
            ("f1", "f3"),
            ("f1", "f4"),
            ("f2", "f3"),
            ("f2", "f4"),
            ("f1", "f2", "f3"),
            ("f1", "f3", "f4"),
            ("f1", "f2", "f4"),
            ("f2", "f3", "f4"),
            ("f1", "f2", "f3", "f4"),
        ]
    }
    assert ref_task.input_extension == expected


# -- property tests ----------------------------------------------------------


@st.composite
def vocabularies(draw, max_states: int = 6, max_size: int = 6):
    n = draw(st.integers(1, max_states))
    size = draw(st.integers(0, min(max_size, 1 << n)))
    values = draw(
        st.lists(
            st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True
        )
    )
    return Vocabulary.build((Program(v, n) for v in values), StateSpace(n))


def naive_language(vocab: Vocabulary) -> frozenset[int]:
    """Definitional oracle: filter the whole powerset with set objects."""
    state_sets = [frozenset(p.included_states()) for p in vocab.programs]
    universe = frozenset(range(1, vocab.space.n_states + 1))
    admitted = set()
    indices = range(len(vocab))
    for r in range(len(vocab) + 1):
        for combo in itertools.combinations(indices, r):
            inter = universe
            for i in combo:
                inter &= state_sets[i]
            if inter:
                admitted.add(sum(1 << i for i in combo))
    return frozenset(admitted)


@given(vocabularies())
def test_build_language_matches_naive_filter(vocab):
    lang = build_language(vocab)
    assert {s.members for s in lang} == naive_language(vocab)


@given(vocabularies())
def test_empty_statement_in_every_language(vocab):
    lang = build_language(vocab)
    assert EMPTY_STATEMENT in lang
    assert extension_of_statement(EMPTY_STATEMENT, lang) == lang.statement_set()


@given(vocabularies(), st.randoms(use_true_random=False))
def test_membership_and_antitone_extensions(vocab, rng):
    lang = build_language(vocab)
    y = rng.choice(lang.statements)
    # x is a random subset of y, hence also a statement (downward closure)
    x = Statement(y.members & rng.getrandbits(max(1, len(vocab))))
    assert x in lang
    ext_x = extension_of_statement(x, lang)
    ext_y = extension_of_statement(y, lang)
    assert y in ext_y
    assert x in ext_x
    assert ext_y <= ext_x


@given(vocabularies())
def test_extension_masks_match_subset_definition(vocab):
    lang = build_language(vocab)
    assert lang.extension_masks() == tuple(
        sum(1 << j for j, t in enumerate(lang.statements) if s.issubset(t))
        for s in lang.statements
    )


@given(vocabularies(), st.randoms(use_true_random=False))
def test_statements_of_and_mask_of_are_inverse(vocab, rng):
    lang = build_language(vocab)
    mask = rng.getrandbits(len(lang))
    chosen = lang.statements_of(mask)
    assert chosen == tuple(s for j, s in enumerate(lang.statements) if mask >> j & 1)


@given(vocabularies())
def test_language_downward_closed(vocab):
    lang = build_language(vocab)
    members = {s.members for s in lang}
    for s in lang:
        m = s.members
        sub = m
        while True:
            assert sub in members
            if sub == 0:
                break
            sub = (sub - 1) & m


@given(st.integers(1, 64))
def test_nullary_intersection_is_all_ones(n):
    space = StateSpace(n)
    assert intersect_programs([], space).bits == space.full_mask
