"""Enumerate vocabularies and tasks over small state spaces and census
which tasks admit correct policies.

The task space is doubly exponential (subsets of a language of subsets),
so every walk here is lazy or capped, and the caps fail loudly. A census
covers every vocabulary of a given size, every nonempty proper subset of
each language as inputs, and every nonempty proper subset of the input
extension as outputs, in a fixed order:

    vocabulary ordinal asc, then input mask asc, then output mask asc,

where masks index the language's canonical statement order. A ``Task``
holds three such masks, and :func:`enumerate_task_masks` is a language's
one stream of them, drawn lazily and with no cap on the language's size.
"First" always means first in this order.

Counting walks no output set, and the census no input set. Fix the
inputs I, with input extension E_I. The valid outputs are the sets inside
the union of disjoint blocks C_i that meet every block: one block, E_I,
without a filter; for classification-shaped tasks, one block per input i,
holding the statements i ∪ {p} for each program p outside the inputs'
feature union. So there are Π(2^|C_i| − 1) − [∪C_i = E_I] valid outputs,
and the solvable ones are the distinct selections ``E_policy ∩ E_I`` that
are valid outputs. E_I is the up-set U = up(I), shared by the
2^(|U| − |min U|) inputs between min U and U, so the enumerated count is
a sum over the up-sets of the language. One memoized recursion over
position masks (:func:`_up_set_sum`) gives it without walking them: the
268,899 up-sets of the 200 classes of 10/5 take 38,593 memo entries, and
the 7,828,354 of the 64-statement language, all subsets of six programs,
take 92,906. The unfiltered ``solvable`` is a closed form over pairs of
statements (:func:`_solvable_count`), and under the shape filter
``valid`` and ``solvable`` are two closed forms over the statements
(:func:`_shaped_counts`). Only exemplars walk the task
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

Two kinds of run still count by walking vocabularies: runs with a
``max_tasks`` that may bind, whose limit marks a prefix of the
vocabularies, and six-program runs (about 7.8·10^6 labeled complexes, too
many to list). A run of at most five programs with a task limit takes the
class sum first, and reports it when its ``valid`` is below the limit:
the walk would count every vocabulary too. A ``time_budget`` only bounds
a run, and never sends it to the walk. The sum checks it before each
class, and a sum cut short reports the empty prefix, with no vocabulary.
The walk keys a memo by statement masks
(:func:`vtask.core.statement_masks`), so it counts each distinct
language once, over a ``Language`` built from its key. It checks the time budget and the task limit before each
vocabulary, so a truncated report counts the whole languages of its first
``vocabularies`` vocabularies, and may overshoot ``max_tasks`` by one
language's tasks. Only six-program runs walk untruncated, and nothing
but the walk's length bounds them: C(2^n, 6) program combinations, which
dedup walks too, to find each orbit's first. A run with neither limit
fails before it walks when they exceed the 10,000-combination walk cap,
which admits 8,008 at four states and refuses 906,192 at five. A task
limit alone walks until the run's valid total reaches it, which may take
indefinitely long; a time budget bounds any walk.

Every run takes its exemplars from one more walk in census order. It
computes each vocabulary's statement masks once, as both memo key and
language, draws each distinct language's unsolvable triples once, and
stops as soon as it holds the ``exemplar_limit`` first unsolvable tasks,
or all of them when there are fewer; more than 100,000 exceed a cap.
The totals say how many there are, so it never walks past the last
vocabulary that a truncated run counted, and ``exemplar_limit=0`` walks
nothing. The time budget bounds it too, checked before each vocabulary.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .complexes import (
    COMPLEX_MAX_VERTICES, _permute_program_bits, class_weights, column_images, transpose
)
from .core import (
    Language,
    Program,
    StateSpace,
    Vocabulary,
    build_language,
    statement_masks,
)
from .errors import CapacityError, DomainError
from .tasks import Task, validate_task

CENSUS_MAX_VOCAB = 6
CENSUS_WALK_CAP = 10_000
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
    exemplar walk. ``max_tasks`` alone bounds no time: a six-program run,
    or one whose limit binds, walks until it reaches the limit, so pass a
    ``time_budget`` too. States are capped as in ``StateSpace``.
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
    representative (least under state permutations) of each orbit. An
    orbit's key is its state columns, sorted, least over the program
    relabelings (:func:`vtask.complexes.column_images`), so two tuples
    share a key exactly when a state permutation maps one onto the other.
    Combinations come in ascending order, so the first of each orbit key
    is the least member of its orbit."""
    space = StateSpace(spec.n_states)
    images = column_images(spec.vocab_size) if spec.dedup else ()
    seen: set[tuple[int, ...]] = set()
    for combo in _combinations(1 << spec.n_states, spec.vocab_size):
        if spec.dedup:
            columns = transpose(combo, spec.n_states)
            key = min(tuple(sorted(image[c] for c in columns)) for image in images)
            if key in seen:
                continue
            seen.add(key)
        # ascending, distinct and within the vocabulary cap: nothing to check
        yield Vocabulary(combo, space)


def _up_set_sum(ext: Sequence[int], q: int, weighted: int, memo: dict[int, int]) -> int:
    """Σ over the up-sets U of the positions in the mask ``q`` of
    2^(2·|U| − |min U|) when ``weighted`` is 1, or of 1 when it is 0,
    given each statement's extension mask. Extensions only ever hold
    larger positions, so the lowest position x of q is minimal in q. The
    up-sets without x are those of q ∖ {x}; those with x hold ↑x ∩ q and an
    up-set U' of q ∖ ↑x, with x the one minimal member that U' lacks.
    ``memo`` maps masks to sums, for one language and one weight."""
    if not q:
        return 1
    total = memo.get(q)
    if total is None:
        low = q & -q
        up = ext[low.bit_length() - 1] & q
        rest = _up_set_sum(ext, q ^ low, weighted, memo)
        if up == low:
            # x is maximal in q too, so q ∖ ↑x is q ∖ {x}
            total = rest + (rest << weighted)
        else:
            total = rest + (
                _up_set_sum(ext, q & ~up, weighted, memo) << weighted * (2 * up.bit_count() - 1)
            )
        memo[q] = total
    return total


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
    task, in census order, filtered by the spec when given (a plain input
    has the one block E_I). The stream is lazy and takes no cap: its input
    walk holds one entry per statement however far it is drawn."""
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
        (i_mask, o_mask, ei) for i_mask, o_mask, ei in enumerate_task_masks(lang, spec)
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
    m ∪ {p} a statement, whose up-sets :func:`_up_set_sum` counts."""
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
    # the empty up-set is no input; a link is empty outside V
    memo: dict[int, int] = {}
    ext = lang.extension_masks()
    solvable = sum(_up_set_sum(ext, link, 0, memo) - 1 for link in links)
    return valid, solvable


def _solvable_count(lang: Language) -> int:
    """The language's solvable task count without the shape filter, from
    its statements alone. Each distinct nonempty selection E_s ∩ E_I is the
    selection of one closed statement, the intersection of its members. Let
    C_s be the statements i with i ∪ s a statement, and N_s the rest. The
    input sets I ⊆ L in which s is closed and selects something are counted
    by inclusion–exclusion over the programs t ∖ s that every selected
    statement t ⊇ s holds: I ∩ C_s must be a nonempty subset of
    X_{s,t∖s} = ↑(t ∖ s) ∩ C_s. So there are

        Σ_s [Σ_{t ⊇ s} (−1)^|t ∖ s| · (2^(|N_s| + |X_{s,t∖s}|) − 2^|N_s|) − 1] − (2^|L| − 2)

    solvable tasks: the −1 drops I = L, which is no input, and the last
    term the selection E_I of each input, which is no valid output."""
    members = lang.masks
    ext = lang.extension_masks()
    size = len(ext)
    position = {m: j for j, m in enumerate(members)}
    # i ∪ s is a statement when some facet holds both: C_s is the union of
    # the down-sets of the facets that hold s
    facets = [
        (f, sum(1 << j for j, m in enumerate(members) if not m & ~f))
        for f, e in zip(members, ext) if not e & (e - 1)
    ]
    # a −1 per statement drops I = L
    solvable = 2 - (1 << size) - size
    for s, up in zip(members, ext):
        closure = 0
        for f, below in facets:
            if not s & ~f:
                closure |= below
        outside = 1 << (size - closure.bit_count())
        while up:
            low = up & -up
            up ^= low
            extra = members[low.bit_length() - 1] ^ s
            term = (outside << (ext[position[extra]] & closure).bit_count()) - outside
            solvable += -term if extra.bit_count() & 1 else term
    return solvable


def _census_language(spec: SearchSpec, lang: Language) -> tuple[int, int, int]:
    """Census of one language: its enumerated, valid and solvable task
    counts, from its statements alone; no input set, output set or up-set
    is walked. An input I has 2^|E_I| − 2 outputs, and E_I is the up-set
    U = up(I) of the 2^(|U| − |min U|) sets I between min U and U, so
    F(L) = Σ_{I ⊆ L} 2^|E_I| = Σ_U 2^(2·|U| − |min U|), the weighted
    :func:`_up_set_sum`. Leaving out I = ∅ and I = L, there are
    F(L) − 1 − 2^|L| − 2·(2^|L| − 2) = F(L) − 3·(2^|L| − 1) tasks.
    ``solvable`` comes from :func:`_solvable_count`, or with ``valid``
    under the shape filter from :func:`_shaped_counts`."""
    everything = (1 << len(lang)) - 1
    enumerated = _up_set_sum(lang.extension_masks(), everything, 1, {}) - 3 * everything
    if spec.require_classification_shaped:
        return (enumerated, *_shaped_counts(lang))
    return enumerated, enumerated, _solvable_count(lang)


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
    triples once, keyed by its statement masks; each vocabulary's
    ``Language`` is built from that key, so no mask is computed twice. A
    walk that meets the deadline returns the exemplars found so far."""
    exemplars: list[Task] = []
    if not limit:
        return exemplars
    memo: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for vocab in enumerate_vocabularies(spec):
        if deadline is not None and time.monotonic() >= deadline:
            break
        missing = limit - len(exemplars)
        key = statement_masks(vocab)
        lang = Language.from_masks(vocab, key)
        if key not in memo:
            # ``missing`` never grows, so these triples cover every later
            # vocabulary with this language
            memo[key] = _unsolvable_triples(lang, spec, missing)
        exemplars.extend(Task(lang, *triple) for triple in memo[key][:missing])
        if len(exemplars) == limit:
            break
    return exemplars


def _census_walk(spec: SearchSpec, deadline: float | None) -> _Totals:
    """Totals from the vocabulary walk, each distinct language counted once.
    The deadline and the task limit are checked before each vocabulary."""
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
            memo[key] = _census_language(spec, Language.from_masks(vocab, key))
        enumerated, valid, solvable = memo[key]
        totals.enumerated += enumerated
        totals.valid += valid
        totals.solvable += solvable
    return totals


def census(spec: SearchSpec) -> CensusReport:
    """Run the census in one process. A run of at most five programs
    sums over the classes of complexes. Six-program runs walk the
    vocabularies, and so do runs whose class sum reaches ``max_tasks``.
    A time budget only bounds either one. A walk with neither limit fails
    on the walk cap when it has more than ``CENSUS_WALK_CAP`` program
    combinations.
    The exemplars come from :func:`_exemplars`, which stops as soon as it
    holds them: a truncated run counted a prefix of the vocabularies, so
    its first unsolvable tasks all lie in that prefix, unless the deadline
    cuts the walk short.
    """
    start = time.monotonic()
    deadline = start + spec.time_budget if spec.time_budget is not None else None
    if spec.vocab_size > COMPLEX_MAX_VERTICES:
        combinations = math.comb(1 << spec.n_states, spec.vocab_size)
        if spec.max_tasks is None and deadline is None and combinations > CENSUS_WALK_CAP:
            raise CapacityError(
                f"an untruncated census walks all C(2^{spec.n_states}, {spec.vocab_size}), "
                f"about {combinations:.3g}, program combinations, over the "
                f"{CENSUS_WALK_CAP}-combination census walk cap; pass a time budget "
                "to walk a prefix, or reduce n_states",
                cap_name="census_walk_cap",
                cap_value=CENSUS_WALK_CAP,
            )
        totals = _census_walk(spec, deadline)
    else:
        totals = _census_classes(spec, deadline)
        # at equality the walk may stop before a last vocabulary without
        # a valid task, so only a sum below the limit is the walk's report
        if spec.max_tasks is not None and totals.valid >= spec.max_tasks:
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
        transpose(vocab.bits, n),
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
    return _task_over_programs(
        transpose(form.columns, form.n_programs), form.n_states, form.inputs, form.outputs
    )
