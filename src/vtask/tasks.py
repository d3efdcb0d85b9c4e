"""Tasks, policies, correctness decisions, and exhaustive policy search.

A task pairs a set of input statements with a set of correct outputs drawn
strictly from the inputs' extension. A policy is a single statement; it is
correct when intersecting its extension with the inputs' extension yields
exactly the correct outputs. A set policy generalizes this to several
statements acting jointly through the union of their extensions.

Search results report counts and candidates only; they make no claim about
what the counts mean.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .core import (
    Language,
    Statement,
    _superset_sums,
    extension_of_set,
    extension_of_statement,
    flags_mask,
    statement_key,
    superset_counts,
)
from .errors import CapacityError, DomainError, TaskValidationError

SET_POLICY_CANDIDATE_CAP = 1 << 20
SET_POLICY_TABLE_BITS = 1 << 30

SEARCH_MODES = ("exhaustive", "pruned")


@dataclass(frozen=True)
class Task:
    """A validated input/output pair over a language, held as masks over
    its statement indices with read-only frozenset views. Build through
    :func:`validate_task`, which checks the invariants, or from a census
    task-stream triple."""

    language: Language
    input_mask: int
    output_mask: int
    extension_mask: int

    @cached_property
    def inputs(self) -> frozenset[Statement]:
        return frozenset(self.sorted_inputs())

    @cached_property
    def outputs(self) -> frozenset[Statement]:
        return frozenset(self.sorted_outputs())

    @cached_property
    def input_extension(self) -> frozenset[Statement]:
        return frozenset(self.language.statements_of(self.extension_mask))

    def sorted_inputs(self) -> tuple[Statement, ...]:
        return self.language.statements_of(self.input_mask)

    def sorted_outputs(self) -> tuple[Statement, ...]:
        return self.language.statements_of(self.output_mask)


@dataclass(frozen=True)
class Policy:
    """A single-statement policy."""

    statement: Statement


@dataclass(frozen=True)
class SetPolicy:
    """A policy made of several statements acting through the union of
    their extensions. May be empty, in which case its extension is empty."""

    statements: frozenset[Statement]

    def sorted_statements(self) -> tuple[Statement, ...]:
        return tuple(sorted(self.statements, key=statement_key))


AnyPolicy = Union[Policy, SetPolicy]


@dataclass(frozen=True)
class PolicySearchResult:
    """Outcome of a policy search: candidates examined and the correct ones
    in canonical order.

    A single-statement search (``mode`` in :data:`SEARCH_MODES`) examines a
    prefix of the language, since pruning drops only its longest
    statements; ``counts`` holds the selection count of each of those
    ``checked`` statements by language position. A set-policy search leaves
    ``counts`` empty.
    """

    task: Task
    mode: str
    checked: int
    correct: tuple[AnyPolicy, ...]
    counts: tuple[int, ...] = ()

    @cached_property
    def per_policy_selection_counts(self) -> Mapping[AnyPolicy, int]:
        """A read-only view of the selection size of each reported policy,
        built on first use: every candidate of a single-statement search,
        and each correct policy of a set-policy search."""
        if self.mode in SEARCH_MODES:
            table = {Policy(s): n for s, n in zip(self.task.language, self.counts)}
        else:
            table = dict.fromkeys(self.correct, len(self.task.outputs))
        return MappingProxyType(table)


def validate_task(
    inputs: Iterable[Statement | int], outputs: Iterable[Statement | int], lang: Language
) -> Task:
    """Check the task invariants and return the task, held as masks.

    Inputs and outputs are statements, or their member masks as the task
    file's reader hands them over. Checks run in a fixed order (emptiness,
    then input membership and properness, then output membership and
    properness), so a candidate violating several invariants reports the
    same code every time. The input extension E_I is computed over
    language positions by :func:`_extension_flags`.
    """
    input_masks = _canonical_masks(inputs)
    output_masks = _canonical_masks(outputs)
    if not input_masks:
        raise TaskValidationError("empty-inputs", "a task needs at least one input")
    if not output_masks:
        raise TaskValidationError("empty-outputs", "a task needs at least one output")
    input_flags = bytearray(len(lang))
    for x, j in zip(input_masks, lang._positions(input_masks)):
        if j < 0:
            raise TaskValidationError(
                "input-not-statement",
                f"input with member mask {x:#x} is not a statement of the language",
            )
        input_flags[j] = 1
    if len(input_masks) == len(lang):
        raise TaskValidationError(
            "input-equals-language",
            "the inputs must be a proper subset of the language",
        )
    in_extension = _extension_flags(input_masks, lang)
    output_flags = bytearray(len(lang))
    for o, j in zip(output_masks, lang._positions(output_masks)):
        if j < 0 or not in_extension[j]:
            raise TaskValidationError(
                "output-outside-extension",
                f"output with member mask {o:#x} is not in the extension of the inputs",
            )
        output_flags[j] = 1
    # the outputs lie in E_I, so they fill it exactly when they are as many
    if len(output_masks) == in_extension.count(1):
        raise TaskValidationError(
            "output-equals-extension",
            "the outputs must be a proper subset of the inputs' extension",
        )
    return Task(lang, *map(flags_mask, (input_flags, output_flags, in_extension)))


def _canonical_masks(items: Iterable[Statement | int]) -> list[int]:
    """The distinct member masks of statements or masks in canonical
    (``statement_key``) order: ascending, then stably by member count."""
    masks = sorted({x if isinstance(x, int) else x.members for x in items})
    masks.sort(key=int.bit_count)
    return masks


def _extension_flags(input_masks: Iterable[int], lang: Language) -> bytes:
    """One byte per language position: 1 where the statement contains one
    of the input masks (is in E_I), else 0.

    Word-parallel, as :func:`superset_counts`: one int holds every
    statement mask in a fixed-width field, in language order, with the
    field's top bit spare. For each input x, AND x into every field and
    XOR x out again, which leaves a field zero exactly where its statement
    contains x. Adding the all-ones value below the top bit to every field
    carries into the top bit exactly where the field is nonzero, and no
    carry leaves a field. A statement is in E_I where some input leaves
    its top bit clear, so each input costs a few operations on one int.
    """
    k = len(lang.vocabulary)
    packed = array("B" if k < 8 else "H" if k < 16 else "I", lang.masks)
    if sys.byteorder == "big":
        packed.byteswap()
    width, top = packed.itemsize, 8 * packed.itemsize - 1
    fields = int.from_bytes(packed, "little")

    def every_field(value: int) -> int:
        return int.from_bytes(value.to_bytes(width, "little") * len(packed), "little")

    carry = every_field((1 << top) - 1)
    tops = every_field(1 << top)
    missed = tops  # top bits of the statements no input seen so far is in
    for x in input_masks:
        spread = every_field(x)
        missed &= (fields & spread ^ spread) + carry
    in_extension = (missed ^ tops) >> top
    return in_extension.to_bytes(width * len(packed), "little")[::width]


def _require_in_language(pi: Statement, lang: Language) -> None:
    if pi not in lang:
        raise DomainError(
            f"policy with member mask {pi.members:#x} is not in the task's language"
        )


def selection(pi: Statement, task: Task) -> frozenset[Statement]:
    """The statements a policy selects from the inputs' extension:
    E_inputs ∩ E_policy."""
    _require_in_language(pi, task.language)
    return frozenset(y for y in task.input_extension if pi.issubset(y))


def is_correct_policy(pi: Policy, task: Task) -> bool:
    """True when the policy selects exactly the correct outputs."""
    return selection(pi.statement, task) == task.outputs


@dataclass(frozen=True)
class PolicyCheckReport:
    """Outcome of checking one policy against one task: the mask, over
    language positions, of the statements it selects, and whether they are
    exactly the outputs. ``selected`` is a view of them in canonical order,
    built on first use."""

    task: Task
    policy: Policy
    selection_mask: int
    correct: bool

    @cached_property
    def selected(self) -> tuple[Statement, ...]:
        return self.task.language.statements_of(self.selection_mask)


def check_policy(task: Task, statement: Statement) -> PolicyCheckReport:
    """Check the policy of one statement against the task.

    The selection E_inputs ∩ E_policy is a mask over language positions:
    the task's extension mask ANDed with the positions of the statements
    that contain the policy, from :func:`_extension_flags`. The policy is
    correct exactly when that mask is the output mask."""
    lang = task.language
    _require_in_language(statement, lang)
    completions = flags_mask(_extension_flags([statement.members], lang))
    selected = task.extension_mask & completions
    return PolicyCheckReport(task, Policy(statement), selected, selected == task.output_mask)


def max_policy_length_bound(task: Task) -> int:
    """Largest member count a correct policy can have.

    Every output must complete the policy, so the policy is a subset of
    each output; the shortest output bounds the policy's size.
    """
    return min(map(int.bit_count, task.language.member_masks(task.output_mask)))


def find_correct_policies(task: Task, mode: str = "exhaustive") -> PolicySearchResult:
    """Search every statement of the language for correct policies.

    ``exhaustive`` checks all statements including the empty one;
    ``pruned`` skips statements longer than :func:`max_policy_length_bound`.
    The language is sorted by member count, so the candidates are a prefix
    of it. Both modes find the same correct set; ``checked`` counts the
    candidates actually examined, and ``counts`` holds their selection
    counts by language position.

    Every candidate's selection count #{y ∈ E_inputs : p ⊆ y} is its
    superset sum with weight 1 on each member of the input extension, read
    from one packed pass over the cube of member masks
    (:func:`superset_counts`). A candidate is correct exactly when it is a
    subset of every output, so it selects all of them, and its count equals
    the number of outputs, so it selects nothing else. Only the correct
    candidates become :class:`Policy` objects.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}; expected one of {SEARCH_MODES}")
    lang = task.language
    masks = lang.masks
    selected = superset_counts(len(lang.vocabulary), lang.member_masks(task.extension_mask))
    common = lang.vocabulary.member_mask
    for o in lang.member_masks(task.output_mask):
        common &= o
    checked = len(lang)
    if mode == "pruned":
        checked = bisect_right(masks, max_policy_length_bound(task), key=int.bit_count)
    counts = tuple(map(selected.__getitem__, masks[:checked]))
    hits = compress(range(checked), map(task.output_mask.bit_count().__eq__, counts))
    correct = tuple(Policy(Statement(masks[j])) for j in hits if masks[j] & common == masks[j])
    return PolicySearchResult(task=task, mode=mode, checked=checked, correct=correct, counts=counts)


def set_selection(policy: SetPolicy, task: Task) -> frozenset[Statement]:
    """E_inputs ∩ E_policy for a set policy (empty for the empty policy)."""
    return extension_of_set(policy.statements, task.language) & task.input_extension


def is_correct_set_policy(policy: SetPolicy, task: Task) -> bool:
    """True when the set policy's joint extension selects exactly the
    correct outputs."""
    return set_selection(policy, task) == task.outputs


@lru_cache(maxsize=1)
def _largest_printable(digits: int) -> int | float:
    """The largest int that ``str`` converts within ``digits`` decimal
    digits; no bound when ``digits`` is 0, Python's setting for none."""
    return 10**digits - 1 if digits else math.inf


def _subset_count(n_items: int, cap: int | None, ceiling: int | float) -> int:
    """The subsets of at most ``cap`` of ``n_items`` items (of any size
    with ``cap=None``). The sum stops once it passes ``ceiling``, so a
    count over the ceiling comes back as some number over it."""
    if cap is None or cap >= n_items:
        return 1 << n_items
    total = 0
    for size in range(cap + 1):
        total += math.comb(n_items, size)
        if total > ceiling:
            break
    return total


def find_correct_set_policies(task: Task, cap: int | None = None) -> PolicySearchResult:
    """Find every correct set policy of at most ``cap`` statements (of any
    size with ``cap=None``).

    A set policy selects the union of its members' selections E_p ∩ E_inputs,
    so it is correct exactly when every member is admissible (selects only
    outputs) and the members together cover the outputs. Each statement's
    superset sum weighs each output with its own low bit and every other
    member of the input extension with the one bit above them, so a
    statement is admissible exactly when its sum is below that bit, and the
    sum is then its selection as a bitmask over the outputs. Only subsets of
    the admissible statements are built, one OR each. The correct ones come
    in (size, language mask) order, each with selection count
    ``len(task.outputs)``.

    ``checked`` counts the candidates by definition: the subsets of the
    language of at most ``cap`` statements (2^len(language) with
    ``cap=None``). Capacity errors come before the work they guard: more
    than ``SET_POLICY_TABLE_BITS`` selection bits (statements times
    outputs) before the superset-sum pass, more than
    ``SET_POLICY_CANDIDATE_CAP`` subsets of the admissible statements
    before they are built, and a ``checked`` count with more decimal digits
    than Python converts to text (``sys.get_int_max_str_digits()``), which
    no report could print. A negative ``cap`` raises ``ValueError``.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"set-policy cap must be None or >= 0, got {cap}")
    lang = task.language
    digits = sys.get_int_max_str_digits()
    printable = _largest_printable(digits)
    n_candidates = _subset_count(len(lang), cap, printable)
    if n_candidates > printable:
        raise CapacityError(
            f"set-policy search over {len(lang)} statements would report a "
            f"candidate count of more than {digits} decimal digits, the most "
            "Python converts to text; pass a smaller subset-size cap",
            cap_name="set_policy_candidates",
            cap_value=digits,
        )
    n_outputs = task.output_mask.bit_count()
    if len(lang) * n_outputs > SET_POLICY_TABLE_BITS:
        raise CapacityError(
            f"set-policy search over {len(lang)} statements and {n_outputs} "
            f"outputs needs {len(lang) * n_outputs} selection bits, over the "
            f"{SET_POLICY_TABLE_BITS}-bit cap",
            cap_name="set_policy_table_bits",
            cap_value=SET_POLICY_TABLE_BITS,
        )
    weights = dict.fromkeys(lang.member_masks(task.extension_mask), 1 << n_outputs)
    for j, o in enumerate(lang.member_masks(task.output_mask)):
        weights[o] = 1 << j
    selected = _superset_sums(lang, weights)
    o_bits = (1 << n_outputs) - 1
    admissible = [(1 << i, selected[m]) for i, m in enumerate(lang.masks) if selected[m] <= o_bits]
    if _subset_count(len(admissible), cap, SET_POLICY_CANDIDATE_CAP) > SET_POLICY_CANDIDATE_CAP:
        raise CapacityError(
            f"set-policy search over {len(admissible)} admissible statements "
            f"would build more than {SET_POLICY_CANDIDATE_CAP} subsets of them; "
            "pass a smaller subset-size cap",
            cap_name="set_policy_candidates",
            cap_value=SET_POLICY_CANDIDATE_CAP,
        )
    limit = len(admissible) if cap is None else cap
    correct_masks: list[int] = []
    # depth first: (next admissible position, language mask, selection mask)
    stack = [(0, 0, 0)]
    while stack:
        start, subset, joint = stack.pop()
        if joint == o_bits:
            correct_masks.append(subset)
        if subset.bit_count() < limit:
            for j, (bit, sel) in enumerate(admissible[start:], start + 1):
                stack.append((j, subset | bit, joint | sel))
    correct_masks.sort(key=lambda s: (s.bit_count(), s))
    correct = tuple(SetPolicy(frozenset(lang.statements_of(m))) for m in correct_masks)
    mode = "set-full" if cap is None else f"set-cap-{cap}"
    return PolicySearchResult(task=task, mode=mode, checked=n_candidates, correct=correct)


@dataclass(frozen=True)
class BinaryDecomposition:
    """Binary subtasks of a task, one per input, plus the pairs that could
    not form a valid task and the invariant each one violated."""

    subtasks: tuple[Task, ...]
    failures: tuple[tuple[Statement, str], ...]


def decompose_binary(task: Task) -> BinaryDecomposition:
    """Split a task into one subtask per input statement.

    Each input is paired with the outputs that complete it. Pairs that fail
    validation (an input no output extends, or whose outputs exhaust its
    extension) are recorded rather than raised.
    """
    subtasks: list[Task] = []
    failures: list[tuple[Statement, str]] = []
    for i in task.sorted_inputs():
        extending = frozenset(o for o in task.outputs if i.issubset(o))
        try:
            subtasks.append(validate_task([i], extending, task.language))
        except TaskValidationError as err:
            failures.append((i, err.code))
    return BinaryDecomposition(tuple(subtasks), tuple(failures))


def policy_weakness(policy: AnyPolicy, lang: Language) -> int:
    """Extension cardinality of a policy within the language.

    Weakness here is a borrowed measure, not something this package
    defines: the count of completions a policy admits.
    """
    if isinstance(policy, Policy):
        return len(extension_of_statement(policy.statement, lang))
    return len(extension_of_set(policy.statements, lang))
