import itertools
import math
import random

import pytest

from vtask.complexes import (
    ComplexClass,
    class_weights,
    column_images,
    complex_classes,
    transpose,
)
from vtask.core import statement_masks
from vtask.errors import CapacityError
from vtask.search import SearchSpec, enumerate_vocabularies


def _relabel(faces: int, k: int, perm) -> int:
    """The face set of a complex with position i renamed ``perm[i]``."""
    out = 0
    for m in range(1 << k):
        if faces >> m & 1:
            out |= 1 << sum(1 << perm[i] for i in range(k) if m >> i & 1)
    return out


def _least_image(faces: int, k: int) -> int:
    return min(_relabel(faces, k, perm) for perm in itertools.permutations(range(k)))


def _face_set(masks) -> int:
    return sum(1 << m for m in masks)


def _brute_force_complexes(k: int) -> list[int]:
    """Every family of masks over [k] that holds the empty mask and every
    subset of each member, by testing all 2^(2^k) families."""
    out = []
    for family in range(1, 1 << (1 << k), 2):
        members = [m for m in range(1 << k) if family >> m & 1]
        if all(family >> (m & ~(1 << i)) & 1 for m in members for i in range(k)):
            out.append(family)
    return out


@pytest.mark.parametrize(
    "k, labeled, classes",
    [(0, 1, 1), (1, 2, 2), (2, 5, 4), (3, 19, 9), (4, 167, 29), (5, 7580, 209)],
)
def test_class_counts_pinned(k, labeled, classes):
    found = complex_classes(k)
    assert len(found) == classes
    assert sum(c.orbit for c in found) == labeled
    assert [c.faces for c in found] == sorted(c.faces for c in found)


@pytest.mark.parametrize("k", range(5))
def test_classes_match_brute_force_orbits(k):
    orbits: dict[int, int] = {}
    for faces in _brute_force_complexes(k):
        least = _least_image(faces, k)
        orbits[least] = orbits.get(least, 0) + 1
    assert {c.faces: c.orbit for c in complex_classes(k)} == orbits


@pytest.mark.parametrize("k", range(6))
def test_facets_are_the_maximal_faces(k):
    for c in complex_classes(k):
        faces = [m for m in range(1 << k) if c.faces >> m & 1]
        maximal = [m for m in faces if not any(m != f and m & f == m for f in faces)]
        assert c.facets == _face_set(maximal)


def test_six_positions_are_capped():
    with pytest.raises(CapacityError) as info:
        complex_classes(6)
    assert (info.value.cap_name, info.value.cap_value) == ("complex_max_vertices", 5)


@pytest.mark.parametrize("k", range(6))
def test_weights_sum_to_the_ordered_vocabularies(k):
    # class_weights has no state cap, so the count of maps that use every
    # facet is checked past the census's 64 states too, up to 4,096
    for n_states in (*range(1, 11), 11, 16, 32, 64, 1000, 4096):
        total = sum(weight for _, weight in class_weights(n_states, k))
        assert total == math.factorial(k) * math.comb(1 << n_states, k)


@pytest.mark.parametrize(
    "n_states, k",
    [(n, k) for n in range(1, 4) for k in range(5)] + [(4, 2), (4, 3), (5, 3)],
)
def test_weights_match_the_vocabulary_walk(n_states, k):
    # every vocabulary is k! tuples, one per ordering of its programs, and
    # each ordering's language is a relabeling of the sorted one
    walked: dict[int, int] = {}
    for vocab in enumerate_vocabularies(SearchSpec(n_states, k)):
        least = _least_image(_face_set(statement_masks(vocab)), k)
        walked[least] = walked.get(least, 0) + math.factorial(k)
    assert {c.faces: w for c, w in class_weights(n_states, k)} == walked


@pytest.mark.parametrize(
    "n_states, k",
    [(n, k) for n in range(1, 5) for k in range(5)] + [(5, 3)],
)
def test_dedup_weights_match_the_orbit_key_walk(n_states, k):
    # each orbit representative that the dedup walk yields is k! weight in
    # the class of its language, so the weights over k! sum to the
    # vocabularies it yields
    walked: dict[int, int] = {}
    vocabularies = 0
    for vocab in enumerate_vocabularies(SearchSpec(n_states, k, dedup=True)):
        least = _least_image(_face_set(statement_masks(vocab)), k)
        walked[least] = walked.get(least, 0) + math.factorial(k)
        vocabularies += 1
    weights = class_weights(n_states, k, dedup=True)
    assert {c.faces: w for c, w in weights} == walked
    assert sum(w for _, w in weights) == math.factorial(k) * vocabularies


def _column_multiset_orbits(n_states: int, k: int) -> dict[int, int]:
    """Orbits of vocabularies under state permutations, by class of their
    language: the multisets of n state columns whose k programs are
    distinct, up to the k! relabelings. A multiset's language is the
    down-closure of its columns."""
    relabelings = [
        [sum(1 << perm[i] for i in range(k) if c >> i & 1) for c in range(1 << k)]
        for perm in itertools.permutations(range(k))
    ]
    seen = set()
    orbits: dict[int, int] = {}
    for columns in itertools.combinations_with_replacement(range(1 << k), n_states):
        rows = {sum((c >> i & 1) << s for s, c in enumerate(columns)) for i in range(k)}
        if len(rows) < k:
            continue
        key = min(tuple(sorted(table[c] for c in columns)) for table in relabelings)
        if key in seen:
            continue
        seen.add(key)
        faces = _face_set(m for m in range(1 << k) if any(m & c == m for c in columns))
        least = _least_image(faces, k)
        orbits[least] = orbits.get(least, 0) + 1
    return orbits


@pytest.mark.parametrize("n_states, k", [(10, 3), (5, 4), (3, 5)])
def test_dedup_weights_match_the_column_multiset_walk(n_states, k):
    weights = class_weights(n_states, k, dedup=True)
    assert {c.faces: w // math.factorial(k) for c, w in weights} == _column_multiset_orbits(
        n_states, k
    )


@pytest.mark.parametrize("k", range(6))
def test_realization_has_the_class_as_language(k):
    for c in complex_classes(k):
        missing = k - sum(c.faces >> (1 << i) & 1 for i in range(k))
        if missing > 1:
            # two empty programs: no vocabulary has this language
            continue
        vocab = c.realization
        assert len(vocab) == k and vocab.space.n_states == c.faces.bit_count()
        assert _least_image(_face_set(statement_masks(vocab)), k) == c.faces


def test_transpose_swaps_rows_and_columns_and_is_its_own_inverse():
    rng = random.Random(24)
    for _ in range(300):
        width, height = rng.randint(0, 9), rng.randint(0, 9)
        rows = [rng.getrandbits(width) for _ in range(height)]
        columns = transpose(rows, width)
        assert len(columns) == width
        assert all(
            columns[j] >> i & 1 == rows[i] >> j & 1 for i in range(height) for j in range(width)
        )
        assert transpose(columns, height) == rows
        assert transpose([row | 1 << width for row in rows], width) == columns


@pytest.mark.parametrize("k", range(6))
def test_column_images_relabel_every_column_identity_first(k):
    images = column_images(k)
    assert images[0] == tuple(range(1 << k))
    assert len(images) == len(set(images)) == math.factorial(k)
    for perm, image in zip(itertools.permutations(range(k)), images):
        # a column is a face set's face: relabel the one-face complex
        assert [1 << c for c in image] == [_relabel(1 << c, k, perm) for c in range(1 << k)]
    assert column_images(k) is images


def test_complexes_missing_two_vertices_weigh_nothing():
    for k in range(2, 6):
        for n_states in (1, 4, 10):
            for dedup in (False, True):
                for c, _ in class_weights(n_states, k, dedup):
                    assert sum(c.faces >> (1 << i) & 1 for i in range(k)) >= k - 1


def test_class_fields():
    # the full simplex on three positions: eight faces, one facet
    full = complex_classes(3)[-1]
    assert full == ComplexClass(vertices=3, faces=(1 << 8) - 1, facets=1 << 7, orbit=1)
