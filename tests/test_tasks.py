import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from vtask import tasks
from vtask.core import (
    EMPTY_STATEMENT,
    Language,
    Program,
    StateSpace,
    Statement,
    Vocabulary,
    build_language,
    extension_of_set,
    extension_of_statement,
    statement_key,
)
from vtask.errors import CapacityError, DomainError, TaskValidationError
from vtask.tasks import (
    Policy,
    SetPolicy,
    decompose_binary,
    find_correct_policies,
    find_correct_set_policies,
    is_correct_policy,
    is_correct_set_policy,
    max_policy_length_bound,
    policy_weakness,
    selection,
    set_selection,
    validate_task,
)

from conftest import random_task, random_vocabulary, statement_of


@pytest.fixture(scope="module")
def tiny():
    """L = {{}, {f}} over a single always-true program."""
    vocab = Vocabulary.build([Program(0b11, 2)], StateSpace(2))
    return build_language(vocab)


# -- validation --------------------------------------------------------------


def test_reference_task_is_valid(ref_task):
    assert len(ref_task.inputs) == 2
    assert len(ref_task.outputs) == 2
    assert len(ref_task.input_extension) == 12


def error_code(fn):
    with pytest.raises(TaskValidationError) as info:
        fn()
    return info.value.code


def test_validation_codes(ref_task, ref_index, tiny):
    lang = ref_task.language
    f1 = statement_of(ref_index, "f1")
    assert error_code(lambda: validate_task([], [f1], lang)) == "empty-inputs"
    assert error_code(lambda: validate_task([f1], [], lang)) == "empty-outputs"
    assert (
        error_code(lambda: validate_task(lang.statements, [f1], lang))
        == "input-equals-language"
    )
    assert (
        error_code(lambda: validate_task([f1], [statement_of(ref_index, "f2")], lang))
        == "output-outside-extension"
    )
    ext = extension_of_statement(f1, lang)
    assert (
        error_code(lambda: validate_task([f1], ext, lang))
        == "output-equals-extension"
    )
    # a mask that is not a statement of its language
    disjoint_vocab = Vocabulary.build(
        [Program(0b01, 2), Program(0b10, 2)], StateSpace(2)
    )
    disjoint_lang = build_language(disjoint_vocab)
    assert (
        error_code(
            lambda: validate_task([Statement(0b11)], [Statement(0b01)], disjoint_lang)
        )
        == "input-not-statement"
    )


def test_validation_rejects_output_equal_extension_example(tiny):
    # I = {x}, O = E_{x} is invalid however it is spelled
    x = tiny.statements[1]
    with pytest.raises(TaskValidationError) as info:
        validate_task([x], extension_of_statement(x, tiny), tiny)
    assert info.value.code == "output-equals-extension"


def _dense_language(k: int) -> Language:
    """Every subset of k programs that each miss one state of k + 1."""
    full = (1 << (k + 1)) - 1
    vocab = Vocabulary.build(
        [Program(full & ~(1 << i), k + 1) for i in range(k)], StateSpace(k + 1)
    )
    return build_language(vocab)


def _validation_oracle(inputs: list[int], outputs: list[int], lang: Language):
    """The error code of the first invariant the masks break, checked in
    the documented order from the definitions, or the task's
    (input, output, extension) masks over language positions."""
    members = lang.masks
    ins = sorted(set(inputs), key=tasks._mask_key)
    outs = sorted(set(outputs), key=tasks._mask_key)
    if not ins:
        return "empty-inputs"
    if not outs:
        return "empty-outputs"
    if any(x not in members for x in ins):
        return "input-not-statement"
    if len(ins) == len(lang):
        return "input-equals-language"
    extension = {s.members for s in extension_of_set(map(Statement, ins), lang)}
    if any(o not in extension for o in outs):
        return "output-outside-extension"
    if set(outs) == extension:
        return "output-equals-extension"
    return tuple(
        sum(1 << j for j, m in enumerate(members) if m in chosen)
        for chosen in (set(ins), set(outs), extension)
    )


def test_word_parallel_validation_matches_definitions():
    """Inputs, outputs and E_I against ``extension_of_set``, and every error
    code in the documented order, on seeded candidates that may break
    several invariants at once: masks outside the language, outputs
    outside E_I, inputs or outputs that fill what they must not. The
    languages cross every field width of the packed E_I, up to a dense
    16-program language of 2^16 statements."""
    rng = random.Random(18)
    languages = [_dense_language(k) for k in (0, 3, 7, 8, 15, 16)]
    languages += [build_language(random_vocabulary(rng, 6, 12)) for _ in range(40)]
    seen = set()
    for lang in languages:
        members = lang.masks
        k = len(lang.vocabulary)
        for _ in range(8 if len(lang) > 4096 else 40):
            inputs = rng.sample(members, rng.randint(0, min(3, len(lang))))
            if rng.random() < 0.05:
                inputs = list(members)
            if rng.random() < 0.2:
                inputs.append(rng.getrandbits(k + 1))
            extension = []
            if all(x in members for x in inputs):
                extension = sorted(s.members for s in extension_of_set(map(Statement, inputs), lang))
            pool = extension if extension and rng.random() < 0.8 else members
            outputs = rng.sample(pool, rng.randint(0, min(4, len(pool))))
            if rng.random() < 0.1:
                outputs = list(extension)
            expected = _validation_oracle(inputs, outputs, lang)
            for given_as in (list, lambda ms: [Statement(m) for m in ms]):
                if isinstance(expected, str):
                    assert error_code(
                        lambda: validate_task(given_as(inputs), given_as(outputs), lang)
                    ) == expected
                else:
                    task = validate_task(given_as(inputs), given_as(outputs), lang)
                    assert (task.input_mask, task.output_mask, task.extension_mask) == expected
                    assert task.input_extension == extension_of_set(task.inputs, lang)
            seen.add(expected if isinstance(expected, str) else "valid")
    assert seen == {
        "empty-inputs", "empty-outputs", "input-not-statement", "input-equals-language",
        "output-outside-extension", "output-equals-extension", "valid",
    }


# -- single-policy correctness -----------------------------------------------


def test_selection_counts_for_reference_singletons(ref_task, ref_index):
    for name, expected in (("f1", 8), ("f2", 8), ("f3", 6), ("f4", 6)):
        sel = selection(statement_of(ref_index, name), ref_task)
        assert len(sel) == expected
        assert not is_correct_policy(Policy(statement_of(ref_index, name)), ref_task)


def test_empty_policy_selects_whole_input_extension(ref_task):
    sel = selection(EMPTY_STATEMENT, ref_task)
    assert sel == ref_task.input_extension
    assert len(sel) == 12
    assert not is_correct_policy(Policy(EMPTY_STATEMENT), ref_task)


def test_policy_outside_language_is_domain_error(tiny, ref_task):
    with pytest.raises(DomainError):
        selection(Statement(0b1000000), ref_task)


def test_exhaustive_search_on_reference(ref_task, ref_index):
    result = find_correct_policies(ref_task, mode="exhaustive")
    assert result.checked == 16
    assert result.correct == ()
    counts = result.per_policy_selection_counts
    assert counts[Policy(statement_of(ref_index, "f1"))] == 8
    assert counts[Policy(statement_of(ref_index, "f2"))] == 8
    assert counts[Policy(statement_of(ref_index, "f3"))] == 6
    assert counts[Policy(statement_of(ref_index, "f4"))] == 6
    assert counts[Policy(EMPTY_STATEMENT)] == 12


def test_pruned_search_on_reference(ref_task):
    result = find_correct_policies(ref_task, mode="pruned")
    # lengths 0, 1, 2 only: 1 + 4 + 6 candidates
    assert result.checked == 11
    assert result.correct == ()
    assert all(len(p.statement) <= 2 for p in result.per_policy_selection_counts)


def test_unknown_mode_rejected(ref_task):
    with pytest.raises(ValueError):
        find_correct_policies(ref_task, mode="fast")


def test_search_finds_correct_policy_when_one_exists():
    # vocabulary {11, 10}: policy {10} selects exactly {{11,10}} from E_{{11}}
    vocab = Vocabulary.build([Program(0b11, 2), Program(0b01, 2)], StateSpace(2))
    lang = build_language(vocab)
    a = Statement.from_indices([vocab.index_of(Program(0b11, 2))])
    b = Statement.from_indices([vocab.index_of(Program(0b01, 2))])
    ab = Statement(a.members | b.members)
    task = validate_task([a], [ab], lang)
    result = find_correct_policies(task)
    assert [p.statement for p in result.correct] == [b, ab]


# -- the pruning bound -------------------------------------------------------


def test_length_bound_reference(ref_task):
    assert max_policy_length_bound(ref_task) == 2


def test_length_bound_zero_for_empty_output(tiny):
    # only the empty statement completes to the empty statement
    task = validate_task([EMPTY_STATEMENT], [EMPTY_STATEMENT], tiny)
    assert max_policy_length_bound(task) == 0
    result = find_correct_policies(task, mode="pruned")
    assert result.checked == 1


def test_length_bound_three_member_output(ref_task, ref_index):
    lang = ref_task.language
    task = validate_task(
        [statement_of(ref_index, "f1")],
        [statement_of(ref_index, "f1", "f3", "f4")],
        lang,
    )
    assert max_policy_length_bound(task) == 3


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_pruned_equals_exhaustive_on_random_tasks(seed):
    task = random_task(random.Random(seed), max_states=5, max_vocab=5)
    exhaustive = find_correct_policies(task, mode="exhaustive")
    pruned = find_correct_policies(task, mode="pruned")
    assert exhaustive.correct == pruned.correct
    assert exhaustive.checked == len(task.language)
    assert pruned.checked <= exhaustive.checked


def _oracle_task(rng: random.Random, kind: str):
    """A task over k <= 12 programs. Dense: the reference family, each
    program false in exactly one state, so every subset is a statement.
    Sparse: random programs, so the language usually misses some of the
    2^k subsets. Half the tasks take their outputs from one policy's
    selection, so correct policies turn up often. Wide: the dense language
    of 16 programs with the empty statement as the only input, so E_I is
    all 2^16 statements and the empty statement's count needs a field
    wider than 16 bits."""
    while True:
        k = 16 if kind == "wide" else rng.randint(1, 12)
        if kind != "sparse":
            n = k + 1
            bits = [((1 << n) - 1) & ~(1 << i) for i in range(k)]
        else:
            n = rng.randint(2, 8)
            if k > (1 << n) - 1:
                continue
            bits = rng.sample(range(1, 1 << n), k)
        lang = build_language(Vocabulary.build((Program(b, n) for b in bits), StateSpace(n)))
        if len(lang) < 3:
            continue
        if kind == "wide":
            inputs = [EMPTY_STATEMENT]
        else:
            inputs = rng.sample(lang.statements, rng.randint(1, min(3, len(lang) - 1)))
        extension = sorted(extension_of_set(inputs, lang), key=statement_key)
        if kind == "wide" or rng.random() < 0.5:
            planted = rng.choice(lang.statements)
            outputs = [y for y in extension if planted.issubset(y)]
        else:
            outputs = rng.sample(extension, rng.randint(1, len(extension)))
        if 0 < len(outputs) < len(extension):
            return validate_task(inputs, outputs, lang)


# selection tests the oracle runs per search; past this, it tests a sample
ORACLE_TESTS = 1 << 18


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["dense", "sparse"]))
@example(seed=0, kind="wide")
def test_policy_search_matches_selection_oracle(seed, kind):
    rng = random.Random(seed)
    task = _oracle_task(rng, kind)
    bound = max_policy_length_bound(task)
    n_extension = len(task.input_extension)
    for mode in ("exhaustive", "pruned"):
        result = find_correct_policies(task, mode=mode)
        examined = [
            Policy(s) for s in task.language if mode == "exhaustive" or len(s) <= bound
        ]
        counts = result.per_policy_selection_counts
        assert list(counts) == examined
        assert result.checked == len(result.counts) == len(examined)
        # every candidate while that stays cheap; else the empty statement,
        # whose count is |E_I|, and a seeded sample
        tested = examined
        if len(examined) * n_extension > ORACLE_TESTS:
            tested = [examined[0], *rng.sample(examined, ORACLE_TESTS // n_extension)]
        correct = set(result.correct)
        for policy in tested:
            selected = selection(policy.statement, task)
            assert counts[policy] == len(selected)
            assert (policy in correct) == (selected == task.outputs)
        assert all(is_correct_policy(p, task) for p in result.correct)
        assert list(result.correct) == [p for p in examined if p in correct]


# -- set policies ------------------------------------------------------------


def test_empty_set_policy_never_correct(ref_task):
    assert set_selection(SetPolicy(frozenset()), ref_task) == frozenset()
    assert not is_correct_set_policy(SetPolicy(frozenset()), ref_task)


def test_outputs_as_set_policy_on_reference(ref_task, ref_index):
    # E_{{f1,f3}} ∪ E_{{f2,f4}} picks up longer completions too, so the
    # outputs themselves are not a correct set policy; verify the exact
    # selection against a definitional computation
    policy = SetPolicy(ref_task.outputs)
    sel = set_selection(policy, ref_task)
    definitional = frozenset(
        y
        for y in ref_task.language
        if any(p.issubset(y) for p in policy.statements)
        and any(i.issubset(y) for i in ref_task.inputs)
    )
    assert sel == definitional
    assert len(sel) == 7
    assert not is_correct_set_policy(policy, ref_task)


def test_full_set_policy_search_on_reference_finds_nothing(ref_task):
    result = find_correct_set_policies(ref_task, cap=None)
    assert result.checked == 1 << 16
    assert result.correct == ()
    assert result.mode == "set-full"


def test_set_policy_cap_zero_checks_only_empty(ref_task):
    result = find_correct_set_policies(ref_task, cap=0)
    assert result.checked == 1
    assert result.correct == ()


def test_set_policy_negative_cap_is_rejected(ref_task):
    with pytest.raises(ValueError, match="cap"):
        find_correct_set_policies(ref_task, cap=-1)


def test_singleton_set_policies_match_single_policies(ref_task):
    capped = find_correct_set_policies(ref_task, cap=1)
    assert capped.checked == len(ref_task.language) + 1
    singles = find_correct_policies(ref_task)
    assert {
        frozenset(p.statements) for p in capped.correct
    } == {frozenset([p.statement]) for p in singles.correct}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_singleton_equivalence_on_random_tasks(seed):
    task = random_task(random.Random(seed), max_states=4, max_vocab=4)
    for candidate in task.language:
        single = is_correct_policy(Policy(candidate), task)
        as_set = is_correct_set_policy(SetPolicy(frozenset([candidate])), task)
        assert single == as_set


def _set_policy_oracle_task(rng: random.Random):
    """A task over a random language of 3 to 11 statements. Sparse random
    programs leave some statements with no completion among the inputs'
    extension, so their selection is empty. Half the tasks take their
    outputs from the selection of a random set of statements, so correct
    set policies turn up often."""
    while True:
        n = rng.randint(2, 6)
        k = rng.randint(1, min(5, (1 << n) - 1))
        bits = rng.sample(range(1, 1 << n), k)
        lang = build_language(Vocabulary.build((Program(b, n) for b in bits), StateSpace(n)))
        if not 3 <= len(lang) <= 11:
            continue
        inputs = rng.sample(lang.statements, rng.randint(1, min(3, len(lang) - 1)))
        extension = sorted(extension_of_set(inputs, lang), key=statement_key)
        if rng.random() < 0.5:
            planted = rng.sample(lang.statements, rng.randint(1, min(3, len(lang))))
            outputs = [y for y in extension if any(p.issubset(y) for p in planted)]
        else:
            outputs = rng.sample(extension, rng.randint(1, len(extension)))
        if 0 < len(outputs) < len(extension):
            return validate_task(inputs, outputs, lang)


@pytest.mark.parametrize("seed", range(4))
def test_set_policy_search_matches_brute_force(seed):
    rng = random.Random(seed)
    with_empty_selection = with_correct = 0
    for _ in range(40):
        task = _set_policy_oracle_task(rng)
        statements = task.language.statements
        with_empty_selection += any(not selection(s, task) for s in statements)
        # every subset of the language, in (size, language mask) order
        subsets = sorted(range(1 << len(statements)), key=lambda m: (m.bit_count(), m))
        policies = [
            (mask.bit_count(), SetPolicy(frozenset(s for i, s in enumerate(statements)
                                                   if mask >> i & 1)))
            for mask in subsets
        ]
        for cap in (None, 0, 1, 2, 3):
            candidates = [p for size, p in policies if cap is None or size <= cap]
            result = find_correct_set_policies(task, cap=cap)
            assert result.checked == len(candidates)
            assert list(result.correct) == [
                p for p in candidates if is_correct_set_policy(p, task)
            ]
            assert result.per_policy_selection_counts == {
                p: len(set_selection(p, task)) for p in result.correct
            }
        with_correct += bool(result.correct)
    assert with_empty_selection and with_correct


def _reference_family_task(k: int):
    """The reference task's inputs {f1}, {f2} and outputs {f1, f3},
    {f2, f4} over k programs that each miss one state of k + 1: every
    subset is a statement, 2^k in all."""
    vocab = Vocabulary.build(
        [Program(((1 << (k + 1)) - 1) & ~(1 << i), k + 1) for i in range(k)],
        StateSpace(k + 1),
    )
    lang = build_language(vocab)
    return validate_task(
        [Statement(0b0001), Statement(0b0010)], [Statement(0b0101), Statement(0b1010)], lang
    )


def test_set_policy_search_builds_no_language_square_table(monkeypatch, ref_task):
    def no_table(lang):
        raise AssertionError("set-policy search must not build the |L|^2 table")

    monkeypatch.setattr(Language, "extension_masks", no_table)
    result = find_correct_set_policies(ref_task, cap=None)
    assert (result.checked, result.correct) == (1 << 16, ())
    # the reference family at 14 programs: 16,384 statements, a 2^28-bit table
    task = _reference_family_task(14)
    assert len(task.language) == 1 << 14
    capped = find_correct_set_policies(task, cap=1)
    assert capped.checked == len(task.language) + 1
    assert capped.correct == ()


def test_set_policy_selection_table_stays_small():
    task = _reference_family_task(15)
    assert len(task.language) == 1 << 15
    tracemalloc.start()
    try:
        result = find_correct_set_policies(task, cap=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.checked, result.correct) == ((1 << 15) + 1, ())
    assert peak < 10 * 2**20


def test_set_policy_selection_table_cap(monkeypatch, ref_task):
    # 16 statements and 2 outputs: 32 selection bits
    monkeypatch.setattr(tasks, "SET_POLICY_TABLE_BITS", 32)
    assert find_correct_set_policies(ref_task, cap=1).correct == ()
    monkeypatch.setattr(tasks, "SET_POLICY_TABLE_BITS", 31)
    with pytest.raises(CapacityError) as info:
        find_correct_set_policies(ref_task, cap=1)
    assert (info.value.cap_name, info.value.cap_value) == ("set_policy_table_bits", 31)


def test_set_policy_capacity_error():
    # five programs sharing a state: 32 statements. With the empty
    # statement as input and every other statement as output, all 31 of
    # those are admissible: 2^31 subsets to build
    vocab = Vocabulary.build(
        [Program(0b10000 | (1 << i), 5) for i in range(4)]
        + [Program(0b10000, 5)],
        StateSpace(5),
    )
    lang = build_language(vocab)
    assert len(lang) == 32
    task = validate_task([lang.statements[0]], lang.statements[1:], lang)
    for cap in (None, 20):
        with pytest.raises(CapacityError) as info:
            find_correct_set_policies(task, cap=cap)
        assert info.value.cap_name == "set_policy_candidates"
        assert "31 admissible statements" in str(info.value)
    # 1 + 31 + 465 + 4,495 subsets of at most three statements
    result = find_correct_set_policies(task, cap=3)
    assert result.checked == sum(math.comb(32, i) for i in range(4))
    assert result.correct == ()


def test_set_policy_cap_counts_admissible_subsets():
    # the reference family at five programs: 32 statements, 2^32 subsets
    # by definition, but none of them admissible, so one subset is built
    task = _reference_family_task(5)
    assert len(task.language) == 32
    result = find_correct_set_policies(task, cap=None)
    assert (result.checked, result.correct) == (1 << 32, ())


def test_set_policy_count_past_the_printable_digits_is_capped(monkeypatch):
    # 16,384 statements: 2^16384 candidates has 4,933 decimal digits, more
    # than the 4,300 that Python converts to text by default
    task = _reference_family_task(14)
    monkeypatch.setattr(tasks.sys, "get_int_max_str_digits", lambda: 4300)
    with pytest.raises(CapacityError) as info:
        find_correct_set_policies(task, cap=None)
    assert (info.value.cap_name, info.value.cap_value) == ("set_policy_candidates", 4300)
    assert "4300 decimal digits" in str(info.value)
    # with no digit limit the count is reported whole
    monkeypatch.setattr(tasks.sys, "get_int_max_str_digits", lambda: 0)
    result = find_correct_set_policies(task, cap=None)
    assert (result.checked, result.correct) == (1 << 16384, ())


def test_decompose_reference_task(ref_task, ref_index):
    decomposition = decompose_binary(ref_task)
    assert decomposition.failures == ()
    assert len(decomposition.subtasks) == 2
    by_input = {next(iter(t.inputs)): t for t in decomposition.subtasks}
    t1 = by_input[statement_of(ref_index, "f1")]
    assert t1.outputs == {statement_of(ref_index, "f1", "f3")}
    t2 = by_input[statement_of(ref_index, "f2")]
    assert t2.outputs == {statement_of(ref_index, "f2", "f4")}
    # neither binary subtask is solvable either (checked exhaustively)
    for sub in decomposition.subtasks:
        assert find_correct_policies(sub).correct == ()


def test_decompose_records_inputs_without_outputs(ref_task, ref_index):
    lang = ref_task.language
    task = validate_task(
        [statement_of(ref_index, "f1"), statement_of(ref_index, "f2")],
        [statement_of(ref_index, "f1", "f3")],
        lang,
    )
    decomposition = decompose_binary(task)
    assert len(decomposition.subtasks) == 1
    assert decomposition.failures == (
        (statement_of(ref_index, "f2"), "empty-outputs"),
    )


# -- weakness ----------------------------------------------------------------


def test_policy_weakness_reference_values(ref_task, ref_index):
    lang = ref_task.language
    assert policy_weakness(Policy(EMPTY_STATEMENT), lang) == 16
    assert (
        policy_weakness(Policy(statement_of(ref_index, "f1", "f2", "f3", "f4")), lang)
        == 1
    )
    assert policy_weakness(Policy(statement_of(ref_index, "f1", "f2")), lang) == 4
    joint = SetPolicy(
        frozenset(
            [statement_of(ref_index, "f1", "f2"), statement_of(ref_index, "f2", "f3")]
        )
    )
    assert policy_weakness(joint, lang) == 6


def test_weakness_antitone_in_policy_size(ref_task):
    lang = ref_task.language
    for small in lang:
        for big in lang:
            if small.issubset(big):
                assert policy_weakness(Policy(big), lang) <= policy_weakness(
                    Policy(small), lang
                )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_growing_a_policy_never_grows_its_selection(seed):
    task = random_task(random.Random(seed), max_states=4, max_vocab=4)
    lang = task.language
    for pi in lang:
        base = selection(pi, task)
        for j in range(len(lang.vocabulary)):
            grown = Statement(pi.members | (1 << j))
            if grown in lang:
                assert selection(grown, task) <= base
