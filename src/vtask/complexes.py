"""Simplicial complexes on the program positions, their classes under
relabeling, and how many vocabularies have a language in each class.

The language of a vocabulary of k programs is a simplicial complex K on
the positions [k] = {0, ..., k - 1}: its statement masks, a family closed
under subsets that holds the empty mask. A complex is stored as its face
set, a 2^k-bit integer whose bit m is set when the mask m is a face, so
relabeling two programs, finding the facets and meeting a family of
columns are a few integer operations each.

A census counts each vocabulary by its language alone, and the counts are
the same for every relabeling of the programs. So the census over all
C(2^n, k) vocabularies is a sum over the classes of complexes, each class
weighed by the number of vocabularies whose language lies in it. That
number has a closed form. An ordered k-tuple of programs over n states is
a map from the states to columns, the set of programs that hold in each
state, and its language is the down-closure of the columns it uses: K
exactly when every column lies in K and every facet of K is used. Tuples
of distinct programs come from Möbius inversion over the set partitions
π of [k], with μ(π) = Π_B (−1)^(|B|−1)·(|B|−1)!:

    N(K) = Σ_π μ(π)·[F ⊆ C_π]·Σ_j C(|K ∩ C_π| − |F|, j)·surj(n, |F| + j)

Here F is the set of facets of K, C_π the set of columns that hold each
block of π whole or not at all, and surj(n, m) = m!·S(n, m) the number of
maps of n states onto m columns (Stanley, Enumerative Combinatorics,
vol. 1, §3.7). Isomorphic complexes have equal N, so a class of
``orbit`` labeled complexes weighs orbit·N(K), and since a vocabulary is
k! tuples, the census totals are (1/k!)·Σ orbit·N(K)·census(K) over the
classes.

Classes are listed for up to five programs: 19, 167 and 7,580 labeled
complexes in 9, 29 and 209 classes for k = 3, 4 and 5. Six programs have
about 7.8·10^6 labeled complexes, too many to list this way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
        space = StateSpace(len(states))
        return Vocabulary.build(
            (
                Program(sum(1 << s for s, m in enumerate(states) if m >> i & 1), len(states))
                for i in range(self.vertices)
            ),
            space,
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


@functools.cache
def _class_terms(k: int) -> tuple[tuple[ComplexClass, tuple[tuple[int, int], ...]], ...]:
    """Each class with the terms of N(K) that do not depend on the states:
    for each count f of free columns |K ∩ C_π| − |F|, the sum of μ(π) over
    the partitions π with F ⊆ C_π and that count. Cached, with the
    classes' realizations, for the life of the process: a handful of
    tables, one per number of programs."""
    partitions = _set_partitions(k)
    out = []
    for cls in complex_classes(k):
        terms: dict[int, int] = {}
        for mu, columns in partitions:
            if not cls.facets & ~columns:
                free = (cls.faces & columns).bit_count() - cls.facets.bit_count()
                terms[free] = terms.get(free, 0) + mu
        out.append((cls, tuple((free, mu) for free, mu in terms.items() if mu)))
    return tuple(out)


@functools.cache
def class_weights(n_states: int, k: int) -> tuple[tuple[ComplexClass, int], ...]:
    """Each class of complexes on [k] that is the language of some k-tuple
    of distinct programs over ``n_states`` states, with its weight
    orbit·N(K): the number of those tuples whose language lies in the
    class. The weights sum to k!·C(2^n, k). A complex with more facets
    than states is no language, so its sum is never taken."""
    # surj(n, m) for m = 0..n: the maps of the states onto m columns
    surj = [
        sum((-1) ** i * math.comb(m, i) * (m - i) ** n_states for i in range(m + 1))
        for m in range(n_states + 1)
    ]
    out = []
    for cls, terms in _class_terms(k):
        used = cls.facets.bit_count()
        if used > n_states:
            continue
        tuples = sum(
            mu * sum(
                math.comb(free, j) * surj[used + j]
                for j in range(min(free, n_states - used) + 1)
            )
            for free, mu in terms
        )
        if tuples:
            out.append((cls, cls.orbit * tuples))
    return tuple(out)
