"""Bitset model of states, declarative programs, statements, and languages.

A declarative program over an environment of ``n`` states is a subset of
those states, stored as an ``n``-bit integer (bit ``i`` set means state
``i + 1`` is a member; the leftmost character of the ``"01111"`` literal
notation is state 1). A vocabulary is an ordered tuple of distinct
programs; a statement is a subset of the vocabulary, stored as a bitmask
over vocabulary indices, that is admitted only when its member programs
share at least one state. The intersection of zero programs is the whole
state space, so the empty statement belongs to every language.

A language is held as the tuple of its statements' member masks; the
layers above search, validate and report on those masks, and build a
:class:`Statement` object only for a statement they print or return.

All types here are immutable and hashable; languages may be shared freely
across threads or worker processes.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, DomainError, MalformedInputError

MAX_STATES = 64
MAX_VOCAB = 20


@dataclass(frozen=True)
class StateSpace:
    """The finite set of environment states, identified 1..n_states."""

    n_states: int

    def __post_init__(self) -> None:
        if self.n_states < 1:
            raise MalformedInputError("a state space needs at least one state")
        if self.n_states > MAX_STATES:
            raise CapacityError(
                f"state space of {self.n_states} states exceeds the "
                f"{MAX_STATES}-state cap (one machine word per program); "
                "this is an implementation limit, not a model constraint",
                cap_name="max_states",
                cap_value=MAX_STATES,
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n_states) - 1


@dataclass(frozen=True, order=True)
class Program:
    """A declarative program: the set of states in which it returns true."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise MalformedInputError("program width must be positive")
        if self.bits < 0 or self.bits >> self.width:
            raise MalformedInputError(
                f"program bits {self.bits:#x} do not fit in width {self.width}"
            )

    @classmethod
    def from_included_states(cls, states: Iterable[int], width: int) -> "Program":
        """Build a program from 1-based state numbers."""
        bits = 0
        for s in states:
            if not 1 <= s <= width:
                raise MalformedInputError(f"state {s} outside 1..{width}")
            bits |= 1 << (s - 1)
        return cls(bits, width)

    def includes_state(self, state: int) -> bool:
        if not 1 <= state <= self.width:
            raise MalformedInputError(f"state {state} outside 1..{self.width}")
        return bool(self.bits >> (state - 1) & 1)

    def included_states(self) -> tuple[int, ...]:
        return tuple(s for s in range(1, self.width + 1) if self.bits >> (s - 1) & 1)

    def is_empty(self) -> bool:
        return self.bits == 0

    def to_bitstring(self) -> str:
        """Literal notation: leftmost character is state 1."""
        return format(self.bits, f"0{self.width}b")[::-1]


@dataclass(frozen=True)
class Vocabulary:
    """An ordered set of distinct programs; the index of a program is its
    identity inside statements.

    ``bits`` holds the programs' state masks in ascending order, the
    canonical order that keeps everything derived from a vocabulary
    deterministic; ``programs`` views them as :class:`Program` objects.
    Build from programs through :meth:`build`, which checks them.
    """

    bits: tuple[int, ...]
    space: StateSpace

    @classmethod
    def build(cls, programs: Iterable[Program], space: StateSpace) -> "Vocabulary":
        programs = tuple(sorted(programs))
        for p in programs:
            if p.width != space.n_states:
                raise MalformedInputError(
                    f"program width {p.width} does not match the "
                    f"{space.n_states}-state space"
                )
        for a, b in zip(programs, programs[1:]):
            if a == b:
                raise MalformedInputError(
                    f"duplicate program {a.to_bitstring()} in vocabulary"
                )
        if len(programs) > MAX_VOCAB:
            raise CapacityError(
                f"vocabulary of {len(programs)} programs exceeds the "
                f"{MAX_VOCAB}-program materialization cap "
                f"(2^{MAX_VOCAB} candidate statements); this is an "
                "implementation limit, not a model constraint",
                cap_name="max_vocab",
                cap_value=MAX_VOCAB,
            )
        return cls(tuple(p.bits for p in programs), space)

    @cached_property
    def programs(self) -> tuple[Program, ...]:
        return tuple(Program(b, self.space.n_states) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[Program]:
        return iter(self.programs)

    def index_of(self, program: Program) -> int:
        try:
            return self.programs.index(program)
        except ValueError:
            raise DomainError(
                f"program {program.to_bitstring()} is not in the vocabulary"
            ) from None

    @property
    def member_mask(self) -> int:
        """Bitmask selecting every vocabulary index."""
        return (1 << len(self.bits)) - 1


@dataclass(frozen=True)
class Statement:
    """A subset of the vocabulary, as a bitmask over vocabulary indices.

    Instances are plain masks; admission (nonempty intersection of the
    member programs) is checked by :func:`is_statement` and guaranteed for
    statements handed out by a :class:`Language`.
    """

    members: int

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Statement":
        mask = 0
        for i in indices:
            if i < 0:
                raise MalformedInputError(f"vocabulary index {i} is negative")
            mask |= 1 << i
        return cls(mask)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.members.bit_length()) if self.members >> i & 1)

    def __len__(self) -> int:
        return self.members.bit_count()

    def issubset(self, other: "Statement") -> bool:
        return self.members & other.members == self.members


EMPTY_STATEMENT = Statement(0)


def statement_key(statement: Statement) -> tuple[int, int]:
    """Canonical sort key: member count first, then mask value."""
    return (len(statement), statement.members)


@dataclass(frozen=True, init=False)
class Language:
    """All statements over a vocabulary, in canonical order, held as their
    member masks.

    ``masks`` is sorted by (member count, mask value) and always starts
    with the empty statement. :class:`Statement` objects are built only on
    request: by :attr:`statements`, a view built on first use that
    iteration goes through, and by :meth:`statements_of`. Build through
    :func:`build_language`, which makes no statement object;
    ``Language(vocabulary, statements)`` takes statements already in
    canonical order, at API edges.
    """

    vocabulary: Vocabulary
    masks: tuple[int, ...]

    def __init__(self, vocabulary: Vocabulary, statements: Iterable[Statement]) -> None:
        masks = tuple(s.members for s in statements)
        keys = [(m.bit_count(), m) for m in masks]
        in_order = all(a < b for a, b in zip(keys, keys[1:]))
        if not (in_order and all(m >> len(vocabulary) == 0 for m in masks)):
            raise MalformedInputError(
                "language statements must be distinct subsets of the vocabulary, "
                "in canonical order"
            )
        self._hold(vocabulary, masks)

    @classmethod
    def from_masks(cls, vocabulary: Vocabulary, masks: tuple[int, ...]) -> "Language":
        """The language whose statements have these member masks, which
        must be in canonical order (as :func:`statement_masks` returns
        them)."""
        lang = cls.__new__(cls)
        lang._hold(vocabulary, masks)
        return lang

    def _hold(self, vocabulary: Vocabulary, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "masks", masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __contains__(self, statement: Statement) -> bool:
        return self._position(statement.members) >= 0

    @cached_property
    def statements(self) -> tuple[Statement, ...]:
        """The statements as objects, in language order."""
        return tuple(map(Statement, self.masks))

    def _position(self, mask: int) -> int:
        """The language position of the statement with this member mask,
        or -1 when it is not one: bisections find the run of masks with
        its member count, then the mask among them."""
        masks = self.masks
        count = mask.bit_count()
        start = bisect_left(masks, count, key=int.bit_count)
        end = bisect_right(masks, count, start, key=int.bit_count)
        j = bisect_left(masks, mask, start, end)
        return j if j < end and masks[j] == mask else -1

    def _positions(self, masks: Iterable[int]) -> Iterator[int]:
        """:meth:`_position` of each mask, for many masks: the run of a
        member count is found only when the count changes, so masks in
        canonical (``statement_key``) order cost one bisection each."""
        members = self.masks
        count = start = end = -1
        for mask in masks:
            if mask.bit_count() != count:
                count = mask.bit_count()
                start = bisect_left(members, count, key=int.bit_count)
                end = bisect_right(members, count, start, key=int.bit_count)
            j = bisect_left(members, mask, start, end)
            yield j if j < end and members[j] == mask else -1

    def index_of(self, statement: Statement) -> int:
        j = self._position(statement.members)
        if j < 0:
            raise DomainError(
                f"statement with member mask {statement.members:#x} is not "
                "in this language"
            )
        return j

    def statement_set(self) -> frozenset[Statement]:
        return frozenset(self.statements)

    def member_masks(self, position_mask: int) -> tuple[int, ...]:
        """The member masks of the statements at a mask's set bits (over
        language positions), in language order."""
        return tuple(compress(self.masks, bit_flags(position_mask)))

    def statements_of(self, mask: int) -> tuple[Statement, ...]:
        """The statements at a mask's set bits, in language order."""
        return tuple(map(Statement, self.member_masks(mask)))

    def extension_masks(self) -> tuple[int, ...]:
        """For each statement, the bitmask (over language indices) of its
        extension. The table holds len^2 bits; the census in
        ``vtask.search`` is its only caller."""
        return self._extension_masks

    @cached_property
    def _extension_masks(self) -> tuple[int, ...]:
        # the extension of s is the sum of 1 << j over the statements j ⊇ s
        masks = self.masks
        sums = _superset_sums(self, {m: 1 << j for j, m in enumerate(masks)})
        return tuple(map(sums.__getitem__, masks))


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: 1 where it is set, 0
    where it is clear, up to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def flags_mask(flags: bytes) -> int:
    """The inverse of :func:`bit_flags`: bit j is set where ``flags[j]`` is 1."""
    return int(b"0" + flags.translate(_DIGITS)[::-1], 2)


def _superset_sums(lang: Language, weights: Mapping[int, int]) -> dict[int, int]:
    """For each statement mask of the language, the sum of ``weights``
    (keyed by statement mask, absent meaning 0) over its supersets.

    One superset-sum (zeta) transform: for each vocabulary bit, add the sum
    of every statement holding the bit into the same statement without it.
    A language is closed under subsets, so that smaller mask is a statement
    too, and no superset of a non-statement is one; the pass therefore stays
    inside the language and costs O(k·|L|) additions for k programs, never
    O(2^k). Its sums may be masks of any width; counts go through
    :func:`superset_counts`.
    """
    masks = lang.masks
    sums = dict.fromkeys(masks, 0)
    sums.update(weights)
    for i in range(len(lang.vocabulary)):
        bit = 1 << i
        for m in masks:
            if m & bit:
                sums[m ^ bit] += sums[m]
    return sums


def superset_counts(n_bits: int, members: Sequence[int]) -> array:
    """For every mask below ``2**n_bits``, the number of ``members`` (distinct
    masks) that are its supersets, indexed by mask.

    The superset-sum (zeta) transform of the members' indicator, run
    word-parallel on one int that holds a fixed-width field per mask of the
    cube, mask m at field m: for each bit, shift the fields that hold it
    down onto the fields without it, keep those, and add, so one pass
    costs a few operations on a 2^n_bits-field int. A field never exceeds
    the number of members, so 2-byte fields hold fewer than 2^16 members
    and 4-byte fields hold the 2^MAX_VOCAB of any language.
    """
    width = 2 if len(members) < 1 << 16 else 4
    cells = bytearray(width << n_bits)
    for m in members:
        cells[m * width] = 1  # the low byte of field m
    acc = int.from_bytes(cells, "little")
    for i in range(n_bits):
        run = width << i  # bytes in each block of masks with bit i clear
        low = int.from_bytes((b"\xff" * run + bytes(run)) * (1 << (n_bits - 1 - i)), "little")
        acc += acc >> 8 * run & low
    counts = array("H" if width == 2 else "I", acc.to_bytes(len(cells), "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    return counts


def intersect_programs(programs: Iterable[Program], space: StateSpace) -> Program:
    """Intersection of a set of programs; the empty intersection is the
    whole state space."""
    acc = space.full_mask
    for p in programs:
        if p.width != space.n_states:
            raise MalformedInputError(
                f"program width {p.width} does not match the "
                f"{space.n_states}-state space"
            )
        acc &= p.bits
    return Program(acc, space.n_states)


def is_statement(members: Iterable[int], vocab: Vocabulary) -> bool:
    """True when the programs at the given vocabulary indices share at
    least one state. True for the empty selection."""
    acc = vocab.space.full_mask
    for i in members:
        if not 0 <= i < len(vocab):
            raise MalformedInputError(
                f"vocabulary index {i} outside 0..{len(vocab) - 1}"
            )
        acc &= vocab.bits[i]
    return acc != 0


def statement_masks(vocab: Vocabulary) -> tuple[int, ...]:
    """The member masks of every admissible subset of the vocabulary, in
    canonical (``statement_key``) order: the statements of its language.

    Walks all 2^len(vocab) subsets with an incremental-intersection table
    that doubles per program, so each subset costs one AND. The vocabulary
    cap bounds the walk.
    """
    inter = [vocab.space.full_mask]
    for bits in vocab.bits:
        inter += [value & bits for value in inter]
    kept = list(compress(range(len(inter)), inter))
    # a stable sort of ascending masks by member count orders them by key
    kept.sort(key=int.bit_count)
    return tuple(kept)


def build_language(vocab: Vocabulary) -> Language:
    """The language of every admissible subset of the vocabulary, as
    masks: no statement object is built."""
    return Language.from_masks(vocab, statement_masks(vocab))


def extension_of_statement(x: Statement, lang: Language) -> frozenset[Statement]:
    """All completions of ``x``: the statements of which ``x`` is a subset.
    Always contains ``x`` itself; the empty statement's extension is the
    whole language."""
    if x not in lang:
        raise DomainError(
            f"statement with member mask {x.members:#x} is not in this language"
        )
    m = x.members
    return frozenset(compress(lang.statements, [y & m == m for y in lang.masks]))


def extension_of_set(X: Iterable[Statement], lang: Language) -> frozenset[Statement]:
    """Union of the member extensions; empty for the empty set."""
    out: frozenset[Statement] = frozenset()
    for x in X:
        out |= extension_of_statement(x, lang)
    return out
