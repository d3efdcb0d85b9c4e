"""Enumerate vocabularies and tasks over small state spaces and census
which tasks admit correct policies.

The task space is doubly exponential (subsets of a language of subsets),
so everything here is capped and the caps fail loudly. A census covers
every vocabulary of a given size, every nonempty proper subset of each
language as inputs, and every nonempty proper subset of the input
extension as outputs, in a fixed order:

    vocabulary ordinal asc, then input mask asc, then output mask asc,

where masks index the language's canonical statement order. A ``Task``
holds three such masks, and :func:`enumerate_task_masks` is a language's
one stream of them. "First" always means first in this order.

Counting walks no output set, and the census no input set. Fix the
inputs I, with input extension E_I. The valid outputs are the sets inside
the union of disjoint blocks C_i that meet every block: one block, E_I,
without a filter; for classification-shaped tasks, one block per input i,
holding the statements i ∪ {p} for each program p outside the inputs'
feature union. So there are Π(2^|C_i| − 1) − [∪C_i = E_I] valid outputs,
and the solvable ones are the distinct selections ``E_policy ∩ E_I`` that
are valid outputs. E_I is the up-set U = up(I), shared by the
2^(|U| − |min U|) inputs between min U and U (one fewer when U is the
whole language, which is no input), so the census counts once per up-set
of the language, 168 for the 16-statement language against 65,536 input
masks, and admits languages of up to 32 statements, every language of
five programs. The shape filter does not change which tasks are
enumerated; its ``valid`` and ``solvable`` come from two closed forms over
the statements (:func:`_shaped_counts`). Only exemplars walk the task
stream, and only until the limit is reached: its input walk holds one
entry per statement however far it is drawn, and the shaped stream skips
at once the inputs whose features cover every program, which leave every
block empty.

A language's census depends only on its statement masks, and it is the
same for every relabeling of the programs. A language over k programs is
a simplicial complex on the k program positions, so an untruncated census
of at most five programs is a weighted sum over the classes of complexes
under relabeling (:mod:`vtask.complexes`): each class with nonzero weight
is censused once, over a ``Language`` built from a realization of the
class. The weights count the program tuples whose language lies in the
class, or with ``--dedup`` k! times the orbits of vocabularies under state
permutations (Burnside's lemma over the class's automorphisms), and
``vocabularies`` is their sum over k!: C(2^n, k), or the dedup orbits.
No vocabulary is walked for the totals, and the states enter only the
weights, so full and dedup 64/5 take seconds.

Two kinds of run still count by walking vocabularies: runs with
``max_tasks``, whose limit marks a prefix of the vocabularies, and
six-program runs (about 7.8·10^6 labeled complexes, too many to list).
A ``time_budget`` only bounds a run. The sum checks it before each class,
and a sum cut short reports the empty prefix, with no vocabulary. The
walk keys a memo by statement masks (:func:`vtask.core.statement_masks`),
so it counts each distinct language once. It checks the time budget and
the task limit before each vocabulary, so a truncated report counts the
whole languages of its first ``vocabularies`` vocabularies, and may
overshoot ``max_tasks`` by one language's tasks. Only six-program runs
walk untruncated. Three states hold at most C(8, 6) = 28 program
combinations; from four states on the walk must meet six programs that
share a state, whose language of 64 statements is over the up-set cap,
so the run fails on that cap before it walks any vocabulary.

Every run takes its exemplars from one more walk in census order. It
draws each distinct language's unsolvable triples once, and stops as
soon as it holds the ``exemplar_limit`` first unsolvable tasks, or all
of them when there are fewer; more than 100,000 exceed a cap. The totals
say how many there are, so it never walks past the last vocabulary that
a truncated run counted, and ``exemplar_limit=0`` walks nothing. The
time budget bounds it too, checked before each vocabulary.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .complexes import COMPLEX_MAX_VERTICES, _permute_program_bits, class_weights
from .core import (
    Language,
    Program,
    StateSpace,
    Vocabulary,
    bit_flags,
    build_language,
    statement_masks,
)
from .errors import CapacityError, DomainError
from .tasks import Task, validate_task

CENSUS_MAX_VOCAB = 6
CENSUS_LANGUAGE_CAP = 16
CENSUS_UPSET_CAP = 32
CENSUS_EXEMPLAR_CAP = 100_000
CANON_MAX_PROGRAMS = 8


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of a census run.

    Validity of enumerated tasks is always required;
    ``require_classification_shaped`` additionally restricts the census to
    tasks shaped like encoded classification problems. ``max_tasks`` and
    ``time_budget`` truncate the run (flagged in the report); both are
    checked before each vocabulary of a walk, so a truncated run counts
    whole languages, and the budget before each class of the class sum,
    which then reports no vocabulary, and before each vocabulary of the
    exemplar walk. States are capped as in ``StateSpace``.
    """

    n_states: int
    vocab_size: int
    require_classification_shaped: bool = False
    dedup: bool = False
    max_tasks: int | None = None
    time_budget: float | None = None
    exemplar_limit: int = 3

    def __post_init__(self) -> None:
        if self.n_states < 1 or self.vocab_size < 0:
            raise ValueError("n_states must be >= 1 and vocab_size >= 0")
        StateSpace(self.n_states)
        if self.vocab_size > CENSUS_MAX_VOCAB:
            raise CapacityError(
                f"census over {self.vocab_size}-program vocabularies exceeds "
                f"the {CENSUS_MAX_VOCAB}-program census cap",
                cap_name="census_max_vocab",
                cap_value=CENSUS_MAX_VOCAB,
            )
        if self.exemplar_limit < 0:
            raise ValueError("exemplar_limit must be >= 0")
        if self.max_tasks is not None and self.max_tasks < 0:
            raise ValueError("max_tasks must be >= 0")
        # written so that NaN fails too
        if self.time_budget is not None and not 0 <= self.time_budget < math.inf:
            raise ValueError("time_budget must be a finite nonnegative number of seconds")


@dataclass(frozen=True)
class CensusReport:
    """Aggregate outcome of a census. ``tasks_enumerated`` counts every
    definition-valid task seen; ``tasks_valid`` those passing the spec's
    task filter (equal when no filter is set). A ``truncated`` report
    holds the totals counted and the exemplars found before a limit cut
    the count or the exemplar walk short. ``elapsed_seconds`` is
    informational and excluded from serialized output."""

    spec: SearchSpec
    vocabularies: int
    tasks_enumerated: int
    tasks_valid: int
    tasks_solvable: int
    tasks_unsolvable: int
    exemplars: tuple[Task, ...]
    truncated: bool
    elapsed_seconds: float

    def __post_init__(self) -> None:
        if self.tasks_solvable + self.tasks_unsolvable != self.tasks_valid:
            raise ValueError(
                f"solvable ({self.tasks_solvable}) plus unsolvable "
                f"({self.tasks_unsolvable}) tasks must equal valid tasks "
                f"({self.tasks_valid})"
            )


def _state_columns(program_bits: Sequence[int], n_states: int) -> list[int]:
    """For each state, the mask of the programs that hold there."""
    columns = []
    for s in range(n_states):
        column = 0
        for i, bits in enumerate(program_bits):
            column |= (bits >> s & 1) << i
        columns.append(column)
    return columns


def _orbit_key(
    program_bits: tuple[int, ...], n_states: int, relabelings: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Key of a program tuple's orbit under state permutations: its state
    columns, sorted, least over the program relabelings. ``relabelings``
    maps each column under every permutation of the program positions. Two
    tuples share a key exactly when a state permutation maps one onto the
    other."""
    columns = _state_columns(program_bits, n_states)
    return min(tuple(sorted(table[c] for c in columns)) for table in relabelings)


def _combinations(pool: int, k: int, low: int = 0) -> Iterator[tuple[int, ...]]:
    """``itertools.combinations(range(low, pool), k)``, drawn lazily: that
    one first copies the pool, and 2^64 programs do not fit in memory."""
    if not k:
        yield ()
        return
    for first in range(low, pool - k + 1):
        for rest in _combinations(pool, k - 1, first + 1):
            yield (first, *rest)


def enumerate_vocabularies(spec: SearchSpec) -> Iterator[Vocabulary]:
    """Every vocabulary of ``spec.vocab_size`` programs over the state
    space, in ascending program-tuple order. With ``dedup``, only the
    representative (least under state permutations) of each orbit:
    combinations come in ascending order, so the first of each orbit key
    is the least member of its orbit."""
    space = StateSpace(spec.n_states)
    k = spec.vocab_size
    relabelings = [
        [_permute_program_bits(column, perm) for column in range(1 << k)]
        for perm in itertools.permutations(range(k))
    ] if spec.dedup else []
    seen: set[tuple[int, ...]] = set()
    for combo in _combinations(1 << spec.n_states, k):
        if spec.dedup:
            key = _orbit_key(combo, spec.n_states, relabelings)
            if key in seen:
                continue
            seen.add(key)
        # ascending, distinct and within the vocabulary cap: nothing to check
        yield Vocabulary(combo, space)


def _language_cap(lang: Language, cap: int, cap_name: str, why: str) -> None:
    """Raise a :class:`CapacityError` when the language exceeds ``cap``
    statements."""
    m = len(lang)
    if m > cap:
        raise CapacityError(
            f"language of {m} statements exceeds the {cap}-statement census "
            f"cap ({why}); reduce n_states or vocab_size",
            cap_name=cap_name,
            cap_value=cap,
        )


def _up_sets(ext: Sequence[int]) -> Iterator[tuple[int, int]]:
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


def _output_blocks(members: tuple[int, ...], i_mask: int, ei: int, feature_union: int) -> list[int]:
    """One block per input i: the language indices of the statements
    i ∪ {p}, for each program p outside the inputs' feature union. Each
    such statement extends i, so every block lies in ``ei``."""
    blocks = {}
    for i in range(i_mask.bit_length()):
        if i_mask >> i & 1:
            blocks[members[i]] = 0
    for j in range(ei.bit_length()):
        if ei >> j & 1:
            extra = members[j] & ~feature_union
            base = members[j] ^ extra
            if extra.bit_count() == 1 and base in blocks:
                blocks[base] |= 1 << j
    return list(blocks.values())


def _inputs(lang: Language) -> Iterator[tuple[int, int, int]]:
    """(input mask, E_I, the inputs' feature union) for each input mask in
    ascending order but 0 and the whole language. A stack holds one triple
    per statement of the current mask, over it and the statements above:
    each mask drops the trailing statements below its lowest one and adds
    that one."""
    ext = lang.extension_masks()
    members = lang.masks
    # the triple of no statement sits at the bottom
    stack = [(0, 0, 0)]
    for i_mask in range(1, (1 << len(ext)) - 1):
        low = (i_mask & -i_mask).bit_length() - 1
        if low:
            del stack[-low:]
        _, ei, union = stack[-1]
        top = (i_mask, ei | ext[low], union | members[low])
        stack.append(top)
        yield top


def _ascending_submasks(mask: int) -> Iterator[int]:
    """Nonzero submasks of ``mask`` in ascending value order."""
    sub = 0
    while True:
        sub = (sub - mask) & mask
        if sub == 0:
            return
        yield sub


def _outputs(ei: int, blocks: Sequence[int]) -> Iterator[int]:
    """Output masks other than ``ei`` that lie inside the blocks' union and
    meet every block, in ascending order."""
    union = 0
    for block in blocks:
        union |= block
    for o_mask in _ascending_submasks(union):
        if o_mask != ei and all(o_mask & block for block in blocks):
            yield o_mask


def enumerate_task_masks(
    lang: Language, spec: SearchSpec | None = None
) -> Iterator[tuple[int, int, int]]:
    """The language's task stream: (input mask, output mask,
    input-extension mask) triples over language indices, one per valid
    task, in census order. Applies the spec's task filter when given."""
    _language_cap(
        lang, CENSUS_LANGUAGE_CAP, "census_language_cap",
        "the stream walks 2^|language| input sets",
    )
    return _task_masks(lang, spec)


def _task_masks(
    lang: Language, spec: SearchSpec | None
) -> Iterator[tuple[int, int, int]]:
    """:func:`enumerate_task_masks` without its cap, for walks that stop
    early. A plain input has the one block E_I."""
    shaped = spec is not None and spec.require_classification_shaped
    members = lang.masks
    programs = 0
    for m in members:
        programs |= m
    for i_mask, ei, union in _inputs(lang):
        if not shaped:
            blocks = [ei]
        elif union == programs:
            continue
        else:
            blocks = _output_blocks(members, i_mask, ei, union)
        for o_mask in _outputs(ei, blocks):
            yield i_mask, o_mask, ei


def is_classification_shaped(task: Task) -> bool:
    """True when the task looks like an encoded classification problem:
    every output is some input plus exactly one extra program, that extra
    program appears in no input, and every input has at least one output.
    """
    input_masks = [s.members for s in task.inputs]
    feature_union = 0
    for m in input_masks:
        feature_union |= m
    covered = set()
    for o in task.outputs:
        matched = None
        for m in input_masks:
            extra = o.members & ~m
            if o.members | m == o.members and extra.bit_count() == 1:
                if extra & feature_union:
                    continue
                matched = m
                break
        if matched is None:
            return False
        covered.add(matched)
    return covered == set(input_masks)


def enumerate_tasks(vocab: Vocabulary, spec: SearchSpec | None = None) -> Iterator[Task]:
    """Every valid task over the vocabulary, in census order: one per
    triple of its language's :func:`enumerate_task_masks` stream."""
    lang = build_language(vocab)
    for i_mask, o_mask, ei in enumerate_task_masks(lang, spec):
        yield Task(lang, i_mask, o_mask, ei)


@dataclass
class _Totals:
    vocabularies: int = 0
    enumerated: int = 0
    valid: int = 0
    solvable: int = 0
    truncated: bool = False


def _unsolvable_triples(
    lang: Language, spec: SearchSpec, limit: int
) -> list[tuple[int, int, int]]:
    """The first ``limit`` triples of the language's task stream that no
    selection E_p ∩ E_I matches. The stream is drawn lazily, so the walk
    stops when the limit fills, however large the language."""
    ext = lang.extension_masks()
    unsolvable = (
        (i_mask, o_mask, ei) for i_mask, o_mask, ei in _task_masks(lang, spec)
        if all(e & ei != o_mask for e in ext)
    )
    return list(itertools.islice(unsolvable, limit))


def _shaped_counts(lang: Language) -> tuple[int, int]:
    """The language's valid and solvable shaped task counts, from its
    statements alone. Let V be the programs in some statement and N(i) the
    programs p ∉ i with i ∪ {p} a statement. Inputs I with feature union
    W ⊊ V have Π_{i ∈ I} (2^|N(i) ∖ W| − 1) valid outputs, so by Möbius
    inversion over the union there are

        Σ_{W ⊊ V} Σ_{W' ⊆ W} (−1)^|W ∖ W'| · 2^(Σ_{i ⊆ W'} |N(i) ∖ W|) − [V ≠ ∅],

    the last term for the empty input set. A solvable output is the
    selection {i ∪ {p} : i ∈ I} of one program p ∉ W, which exists exactly
    when I is a nonempty up-set of the link of p: the statements m ∌ p with
    m ∪ {p} a statement."""
    members = lang.masks
    statements = set(members)
    programs = sum(1 << p for p in range(len(lang.vocabulary)) if 1 << p in statements)
    # over language indices: the link of each program (empty outside V), and
    # the statements inside each mask of programs
    links = [
        sum(1 << j for j, m in enumerate(members) if not m >> p & 1 and m | 1 << p in statements)
        for p in range(programs.bit_length())
    ]
    inside = [sum(1 << j for j, m in enumerate(members) if not m & ~w) for w in range(programs + 1)]
    valid = -(programs != 0)
    # every submask of V but V itself, the last in ascending order
    for w in (0, *_ascending_submasks(programs))[:-1]:
        # Σ_{i ⊆ W'} |N(i) ∖ W| counts the statements inside W' of the links
        # of the programs outside W
        outside = [link for p, link in enumerate(links) if not w >> p & 1]
        for inner in (0, *_ascending_submasks(w)):
            exponent = sum((inside[inner] & link).bit_count() for link in outside)
            valid += (-1) ** (w ^ inner).bit_count() << exponent
    solvable = 0
    for link in links:
        link_masks = tuple(itertools.compress(members, bit_flags(link)))
        ext = Language.from_masks(lang.vocabulary, link_masks).extension_masks()
        solvable += sum(1 for _ in _up_sets(ext)) - 1
    return valid, solvable


def _census_language(spec: SearchSpec, lang: Language) -> tuple[int, int, int]:
    """Census of one language: its enumerated, valid and solvable task
    counts, from closed-form counts per up-set of its statements, or for
    ``valid`` and ``solvable`` under the shape filter from
    :func:`_shaped_counts`. No input or output set is walked."""
    _language_cap(
        lang, CENSUS_UPSET_CAP, "census_upset_cap",
        "the count walks the language's up-sets, whose number grows "
        "doubly exponentially with the programs",
    )
    # E_I depends only on U = up(I), and the inputs with up(I) = U are the
    # sets between min U and U; I = L is not an input
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
            selections = {e & up for e in ext}
            selections.discard(0)
            selections.discard(up)
            solvable += inputs * len(selections)
    if spec.require_classification_shaped:
        return (enumerated, *_shaped_counts(lang))
    return enumerated, enumerated, solvable


def _census_classes(spec: SearchSpec, deadline: float | None) -> _Totals:
    """Totals as a sum over the classes of complexes: each class is
    censused once, over the language of its realization, and weighed by the
    program tuples whose language lies in it, or with dedup by k! times the
    orbits of vocabularies whose language lies in it; a vocabulary is k!
    such tuples. The deadline is checked before each class. A sum cut short
    counts no whole vocabulary, so its report is the empty prefix."""
    # vocabularies, enumerated, valid and solvable, in program tuples
    sums = [0] * 4
    for cls, weight in class_weights(spec.n_states, spec.vocab_size, spec.dedup):
        if deadline is not None and time.monotonic() >= deadline:
            return _Totals(truncated=True)
        counts = (1, *_census_language(spec, build_language(cls.realization)))
        sums = [total + weight * count for total, count in zip(sums, counts)]
    return _Totals(*(total // math.factorial(spec.vocab_size) for total in sums))


def _exemplars(spec: SearchSpec, limit: int, deadline: float | None) -> list[Task]:
    """The first ``limit`` unsolvable tasks in census order. The walk over
    vocabularies stops as soon as it holds them, and draws each language's
    triples once, keyed by its statement masks; a ``Language`` is built
    only to draw them or to hold an exemplar. A walk that meets the
    deadline returns the exemplars found so far."""
    exemplars: list[Task] = []
    if not limit:
        return exemplars
    memo: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for vocab in enumerate_vocabularies(spec):
        if deadline is not None and time.monotonic() >= deadline:
            break
        missing = limit - len(exemplars)
        key = statement_masks(vocab)
        lang = None
        if key not in memo:
            lang = build_language(vocab)
            # ``missing`` never grows, so these triples cover every later
            # vocabulary with this language
            memo[key] = _unsolvable_triples(lang, spec, missing)
        triples = memo[key][:missing]
        if triples and lang is None:
            lang = build_language(vocab)
        exemplars.extend(Task(lang, i_mask, o_mask, ei) for i_mask, o_mask, ei in triples)
        if len(exemplars) == limit:
            break
    return exemplars


def _census_walk(spec: SearchSpec, deadline: float | None) -> _Totals:
    """Totals from the vocabulary walk, each distinct language counted once.
    The deadline and the task limit are checked before each vocabulary."""
    if spec.max_tasks is None and deadline is None:
        if 1 << (spec.n_states - 1) >= spec.vocab_size > COMPLEX_MAX_VERTICES:
            # the walk must meet six programs that share a state, whose
            # language of all 64 subsets is over the up-set cap
            shared = Vocabulary(tuple(range(1, 2 * spec.vocab_size, 2)), StateSpace(spec.n_states))
            _census_language(spec, build_language(shared))
    totals = _Totals()
    # keyed by statement masks; it lives for one call, so a later census
    # in the same process starts afresh
    memo: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for vocab in enumerate_vocabularies(spec):
        if deadline is not None and time.monotonic() >= deadline:
            totals.truncated = True
            break
        if spec.max_tasks is not None and totals.valid >= spec.max_tasks:
            totals.truncated = True
            break
        totals.vocabularies += 1
        key = statement_masks(vocab)
        if key not in memo:
            memo[key] = _census_language(spec, build_language(vocab))
        enumerated, valid, solvable = memo[key]
        totals.enumerated += enumerated
        totals.valid += valid
        totals.solvable += solvable
    return totals


def census(spec: SearchSpec) -> CensusReport:
    """Run the census in one process. A run of at most five programs
    without ``max_tasks`` sums over the classes of complexes; the other
    runs walk the vocabularies. A time budget only bounds either one.
    The exemplars come from :func:`_exemplars`, which stops as soon as it
    holds them: a truncated run counted a prefix of the vocabularies, so
    its first unsolvable tasks all lie in that prefix, unless the deadline
    cuts the walk short.
    """
    start = time.monotonic()
    deadline = start + spec.time_budget if spec.time_budget is not None else None
    if spec.max_tasks is None and spec.vocab_size <= COMPLEX_MAX_VERTICES:
        totals = _census_classes(spec, deadline)
    else:
        totals = _census_walk(spec, deadline)
    unsolvable = totals.valid - totals.solvable
    limit = min(spec.exemplar_limit, unsolvable)
    if limit > CENSUS_EXEMPLAR_CAP:
        raise CapacityError(
            f"{limit} exemplars exceed the {CENSUS_EXEMPLAR_CAP}-exemplar census "
            "cap (every exemplar is held in memory); lower exemplar_limit",
            cap_name="census_exemplar_cap",
            cap_value=CENSUS_EXEMPLAR_CAP,
        )
    exemplars = _exemplars(spec, limit, deadline)
    elapsed = time.monotonic() - start
    return CensusReport(
        spec=spec,
        vocabularies=totals.vocabularies,
        tasks_enumerated=totals.enumerated,
        tasks_valid=totals.valid,
        tasks_solvable=totals.solvable,
        tasks_unsolvable=unsolvable,
        exemplars=tuple(exemplars),
        # the walk always fills unless its deadline cut it short
        truncated=totals.truncated or len(exemplars) < limit,
        elapsed_seconds=elapsed,
    )


@dataclass(frozen=True, order=True)
class CanonicalTask:
    """Relabeling-invariant form of a task: the least, over every
    relabeling of its programs, of its sorted state columns (for each
    state, the mask of the programs that hold there), its sorted input
    masks and its sorted output masks. Bit i of every column and mask
    refers to the same program i."""

    n_states: int
    n_programs: int
    columns: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


def canonicalize_task(task: Task) -> CanonicalTask:
    """Canonical form of a task under state permutation; two tasks are
    isomorphic exactly when their canonical forms are equal. A state
    permutation only reorders the state columns, and the program order is
    arbitrary, so the form sorts the columns and takes the least result
    over the k! program relabelings."""
    vocab = task.language.vocabulary
    k = len(vocab)
    if k > CANON_MAX_PROGRAMS:
        raise CapacityError(
            f"canonicalization tries all {k}! program relabelings; capped at "
            f"{CANON_MAX_PROGRAMS} programs",
            cap_name="canon_max_programs",
            cap_value=CANON_MAX_PROGRAMS,
        )
    n = vocab.space.n_states
    parts = (
        _state_columns(vocab.bits, n),
        [s.members for s in task.inputs],
        [s.members for s in task.outputs],
    )

    def image(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(sorted(_permute_program_bits(m, perm) for m in masks))
            for masks in parts
        )

    return CanonicalTask(n, k, *min(map(image, itertools.permutations(range(k)))))


def _task_over_programs(
    program_bits: Sequence[int], n_states: int, inputs: Sequence[int], outputs: Sequence[int]
) -> Task:
    """The task whose program i holds in ``program_bits[i]``; ``inputs`` and
    ``outputs`` are statement masks over those positions, moved here to the
    positions of the sorted vocabulary."""
    vocab = Vocabulary.build(
        (Program(b, n_states) for b in program_bits), StateSpace(n_states)
    )
    position = [vocab.bits.index(b) for b in program_bits]
    lang = build_language(vocab)
    return validate_task(
        [_permute_program_bits(m, position) for m in inputs],
        [_permute_program_bits(m, position) for m in outputs],
        lang,
    )


def permute_task(task: Task, perm: tuple[int, ...]) -> Task:
    """Image of a task under a state permutation (``perm[i]`` is where
    0-based state ``i`` goes). Useful for isomorphism tests."""
    n = task.language.vocabulary.space.n_states
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{perm} is not a permutation of 0..{n - 1}")
    return _task_over_programs(
        [_permute_program_bits(b, perm) for b in task.language.vocabulary.bits],
        n,
        [s.members for s in task.inputs],
        [s.members for s in task.outputs],
    )


def task_from_canonical(form: CanonicalTask) -> Task:
    """Materialize a task whose canonical form is ``form``: program i holds
    in the states whose column has bit i."""
    program_bits = [
        sum((column >> i & 1) << s for s, column in enumerate(form.columns))
        for i in range(form.n_programs)
    ]
    return _task_over_programs(program_bits, form.n_states, form.inputs, form.outputs)
