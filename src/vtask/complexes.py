"""Simplicial complexes on the program positions, their classes under
relabeling, and how many vocabularies have a language in each class.

The language of a vocabulary of k programs is a simplicial complex K on
the positions [k] = {0, ..., k - 1}: its statement masks, a family closed
under subsets that holds the empty mask. A complex is stored as its face
set, a 2^k-bit integer whose bit m is set when the mask m is a face, so
relabeling two programs, finding the facets and meeting a family of
columns are a few integer operations each. The census shares two bit
tables from here: :func:`transpose` and :func:`column_images`.

A census counts each vocabulary by its language alone, and the counts are
the same for every relabeling of the programs. So the census over all
C(2^n, k) vocabularies is a sum over the classes of complexes, each class
weighed by the number of vocabularies whose language lies in it. That
number has a closed form. An ordered k-tuple of programs over n states is
a map from the states to columns, the set of programs that hold in each
state, and its language is the down-closure of the columns it uses: K
exactly when every column lies in K and every facet of K is used. A dedup
census counts the orbits of vocabularies under state permutations
instead: multisets of n columns, up to the k! relabelings. The orbits
whose language lies in K's class are the orbits of K's automorphism group
Aut K (the relabelings whose column map fixes K's face set) on the
multisets whose language is exactly K.

Both are one sum over a group G of relabelings, {id} for the plain census
and Aut K for dedup: Burnside's lemma over G, with Möbius inversion over
the set partitions π of [k] to keep the programs distinct, where
μ(π) = Π_B (−1)^(|B|−1)·(|B|−1)! (Harary and Palmer, Graphical
Enumeration, 1973, ch. 2). A class of ``orbit`` labeled complexes weighs

    W(K) = orbit·Σ_{τ ∈ G} Σ_π μ(π)·c(τ, π)

where c(τ, π) counts the maps, or with dedup the multisets, that τ fixes,
whose columns lie in C_π, the columns that hold each block of π whole or
not at all, and whose language is K. Let F be the set of facets of K and
D the union of the τ-cycles of columns that lie wholly in K ∩ C_π. Then
c = 0 unless F ⊆ D. Otherwise the plain c counts the maps of the n
states into D that use all |F| facets,

    Σ_i (−1)^i·C(|F|, i)·(|D| − i)^n,

and the dedup c, since a fixed multiset is constant on each cycle, is the
coefficient of x^n in the product over the cycles O of D of
x^|O|/(1 − x^|O|) for a cycle of facets and 1/(1 − x^|O|) for any other.
So W(K) counts the k-tuples of distinct programs whose language lies in
K's class, or, since |Aut K| = k!/orbit, k! times the orbits. A
vocabulary is k! tuples, so the census totals are (1/k!)·Σ W(K)·census(K)
over the classes.

Classes are listed for up to five programs: 19, 167 and 7,580 labeled
complexes in 9, 29 and 209 classes for k = 3, 4 and 5. Six programs have
about 7.8·10^6 labeled complexes, too many to list this way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Program, StateSpace, Vocabulary
from .errors import CapacityError

COMPLEX_MAX_VERTICES = 5


@dataclass(frozen=True)
class ComplexClass:
    """A class of complexes on ``vertices`` positions under relabeling:
    the least face set of the class, its facets, and the number of labeled
    complexes in the class."""

    vertices: int
    faces: int
    facets: int
    orbit: int

    @functools.cached_property
    def realization(self) -> Vocabulary:
        """A vocabulary whose language is this complex, up to relabeling:
        one state per face, and program i holds at the faces that contain
        i. The programs are distinct whenever some vocabulary has this
        language, since then at most one position is not a vertex."""
        states = [m for m in range(1 << self.vertices) if self.faces >> m & 1]
        return Vocabulary.build(
            (Program(bits, len(states)) for bits in transpose(states, self.vertices)),
            StateSpace(len(states)),
        )


def _column_mask(k: int, holds) -> int:
    """The set of columns (masks over [k]) for which ``holds`` is true, as
    a 2^k-bit integer."""
    return sum(1 << c for c in range(1 << k) if holds(c))


def _down_sets(k: int) -> list[int]:
    """Every down-set of the masks over [k], as face sets, the empty family
    included. A down-set over [j + 1] is a pair of down-sets A ⊇ B over
    [j]: A holds the faces without j, and B the faces with j, less j, which
    sit 2^j bits higher."""
    sets = [0, 1]
    for j in range(k):
        shift = 1 << j
        sets = [a | b << shift for a in sets for b in sets if not b & ~a]
    return sets


def complex_classes(k: int) -> tuple[ComplexClass, ...]:
    """Every class of complexes on [k] under relabeling, in ascending order
    of least face set. Each class is the orbit of a complex under the
    swaps of adjacent positions, which generate every relabeling; swapping
    i and i + 1 moves each face with i but not i + 1 up by 2^i bits."""
    if k > COMPLEX_MAX_VERTICES:
        raise CapacityError(
            f"complexes on {k} positions are too many to list; capped at "
            f"{COMPLEX_MAX_VERTICES}",
            cap_name="complex_max_vertices",
            cap_value=COMPLEX_MAX_VERTICES,
        )
    swaps = [
        (_column_mask(k, lambda c: c >> i & 3 == 1), 1 << i) for i in range(k - 1)
    ]
    # a face without i is no facet when the face plus i, 2^i bits higher, is one
    without = [(_column_mask(k, lambda c: not c >> i & 1), 1 << i) for i in range(k)]
    seen: set[int] = set()
    classes = []
    for faces in _down_sets(k):
        if not faces or faces in seen:
            continue
        orbit = {faces}
        frontier = [faces]
        while frontier:
            x = frontier.pop()
            for low, shift in swaps:
                high = low << shift
                y = x & ~(low | high) | (x & low) << shift | (x & high) >> shift
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        least = min(orbit)
        covered = 0
        for mask, shift in without:
            covered |= least >> shift & mask
        classes.append(ComplexClass(k, least, least & ~covered, len(orbit)))
    classes.sort(key=lambda c: c.faces)
    return tuple(classes)


def _set_partitions(k: int) -> list[tuple[int, int]]:
    """Each set partition π of [k] as (μ(π), C_π): its Möbius value and
    the columns that hold each of its blocks whole or not at all."""
    partitions: list[list[int]] = [[]]
    for v in range(k):
        bit = 1 << v
        partitions = [
            p[:i] + [p[i] | bit] + p[i + 1:] for p in partitions for i in range(len(p))
        ] + [p + [bit] for p in partitions]
    out = []
    for blocks in partitions:
        mu = math.prod(
            (-1) ** (b.bit_count() - 1) * math.factorial(b.bit_count() - 1) for b in blocks
        )
        columns = _column_mask(k, lambda c: all(c & b in (0, b) for b in blocks))
        out.append((mu, columns))
    return out


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The ``width`` columns of a bit matrix: bit j < width of row i
    becomes bit i of column j. A transpose is its own inverse, so this
    turns programs into state columns and columns back into programs."""
    columns = [0] * width
    for i, row in enumerate(rows):
        row &= (1 << width) - 1
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << i
            row ^= low
    return columns


def _permute_program_bits(bits: int, perm: tuple[int, ...]) -> int:
    out = 0
    for old, new in enumerate(perm):
        if bits >> old & 1:
            out |= 1 << new
    return out


@functools.cache
def column_images(k: int) -> tuple[tuple[int, ...], ...]:
    """For each relabeling of [k], in ``itertools.permutations`` order with
    the identity first, the image of every column (mask over [k]). Cached
    for the life of the process: one table per number of programs."""
    return tuple(
        tuple(_permute_program_bits(c, perm) for c in range(1 << k))
        for perm in itertools.permutations(range(k))
    )


def _relabeling_cycles(
    k: int, images: Iterable[Sequence[int]]
) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Each relabeling τ of [k], given as the image of every column, as the
    cycles of its column map, each a 2^k-bit mask of columns, with the
    union of its cycles of each length."""
    out = []
    for image in images:
        cycles: list[int] = []
        by_length: dict[int, int] = {}
        seen = 0
        for c in range(1 << k):
            if seen >> c & 1:
                continue
            cycle = 0
            while not cycle >> c & 1:
                cycle |= 1 << c
                c = image[c]
            seen |= cycle
            cycles.append(cycle)
            length = cycle.bit_count()
            by_length[length] = by_length.get(length, 0) | cycle
        out.append((cycles, sorted(by_length.items())))
    return out


# the cycles of a column map by length: (length, number of cycles) pairs
CycleType = tuple[tuple[int, int], ...]


@functools.cache
def _class_terms(
    k: int, dedup: bool
) -> tuple[tuple[ComplexClass, tuple[tuple[CycleType, int], ...]], ...]:
    """Each class with the terms of Σ_{τ ∈ G} Σ_π μ(π)·c(τ, π) that do not
    depend on the states: for each cycle type of D, the sum of μ(π) over
    the pairs (τ, π) with τ ∈ G, F ⊆ D and that type. G is Aut K with
    ``dedup`` and the identity alone without, whose cycles are the single
    columns. τ is in Aut K exactly when K's face set is a union of τ's
    column cycles; then every τ-cycle lies in K or outside it, so
    D = K ∩ T(τ, π), where T(τ, π) is the union of the τ-cycles that lie
    wholly in C_π. Cached, with the classes' realizations, for the life of
    the process: a handful of tables, one per number of programs and
    mode."""
    partitions = _set_partitions(k)
    images = column_images(k) if dedup else [range(1 << k)]
    relabelings = [
        (cycles, by_length, [
            sum(cycle for cycle in cycles if not cycle & ~columns) for _, columns in partitions
        ])
        for cycles, by_length in _relabeling_cycles(k, images)
    ]
    out = []
    for cls in complex_classes(k):
        terms: dict[CycleType, int] = {}
        for cycles, by_length, invariant in relabelings:
            if any(cls.faces & cycle not in (0, cycle) for cycle in cycles):
                continue
            for (mu, _), within in zip(partitions, invariant):
                d = cls.faces & within
                if cls.facets & ~d:
                    continue
                cycle_type = tuple(
                    (length, (d & mask).bit_count() // length)
                    for length, mask in by_length if d & mask
                )
                terms[cycle_type] = terms.get(cycle_type, 0) + mu
        out.append((cls, tuple((t, mu) for t, mu in terms.items() if mu)))
    return tuple(out)


def _multisets(cycle_type: CycleType, size: int) -> int:
    """The coefficient of x^size in the product of 1/(1 − x^length) over
    the cycles of the type: the multisets of ``size`` columns from the
    cycles' union that hold each column of a cycle equally often."""
    ways = [1] + [0] * size
    for length, count in cycle_type:
        for _ in range(count):
            for s in range(length, size + 1):
                ways[s] += ways[s - length]
    return ways[size]


def _maps(cycle_type: CycleType, facets: int, n_states: int) -> int:
    """The maps of the states into the cycles' union that use each of
    ``facets`` of its columns, by inclusion–exclusion over the facets
    left out."""
    size = sum(length * count for length, count in cycle_type)
    return sum(
        (-1) ** i * math.comb(facets, i) * (size - i) ** n_states for i in range(facets + 1)
    )


@functools.cache
def class_weights(
    n_states: int, k: int, dedup: bool = False
) -> tuple[tuple[ComplexClass, int], ...]:
    """Each class of complexes on [k] that is the language of some k-tuple
    of distinct programs over ``n_states`` states, with its weight W(K):
    the number of those tuples whose language lies in the class, or with
    ``dedup`` k! times the number of orbits of vocabularies under state
    permutations whose language lies in it. The weights sum to
    k!·C(2^n, k), or k! times the dedup vocabularies. A complex with more
    facets than states is no language, so its sum is never taken."""
    out = []
    for cls, terms in _class_terms(k, dedup):
        facets = cls.facets.bit_count()
        if facets > n_states:
            continue
        # a dedup multiset holds each facet at least once, the x^|O| of its
        # cycle: the other columns number n − |F|
        weight = sum(
            mu * (
                _multisets(cycle_type, n_states - facets) if dedup
                else _maps(cycle_type, facets, n_states)
            )
            for cycle_type, mu in terms
        )
        if weight:
            out.append((cls, cls.orbit * weight))
    return tuple(out)
