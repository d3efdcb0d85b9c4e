"""Seeded workload generation: task files, the op list of one pass, and
the facts each op's output is checked against.

A workload is a fixed list of CLI invocations (ops) that one client runs
back to back, pass after pass. The seed picks the programs, inputs and
outputs of every generated task and the order of the ops; the shape of a
pass (how many tasks of which size and density, which commands) is the
same for every seed, so runs with different seeds measure the same amount
of work. vtask sees only the generated files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import gate
from gate import Oracle, SearchExpectation, TaskSpec

WORKLOADS = ("search-wide", "set-policy", "census", "census-filtered")

# search-wide: one dense and one random task per vocabulary size
SEARCH_KS = (9, 10, 11, 12)
RANDOM_STATES = 8
RANDOM_DENSITY = 0.5
# accepted |L|·|E_I| / 4^k for random tasks; exhaustive search tests every
# statement against every member of E_I, so this fixes each task's cost
RANDOM_COST = (0.0144, 0.0156)

# set-policy: language sizes of the generated tasks (the reference adds 16)
SET_POLICY_SIZES = (16, 17, 18, 19, 20)
SET_POLICY_PLANTED = (17, 19)
SET_POLICY_CAP = "3"
# correct set policies a planted task may have; an unplanted task has none,
# so every seed prints about the same amount
SET_POLICY_PLANTED_CORRECT = (1, 16)

# census sweep points (states, programs); 5/3 also runs with two workers
CENSUS_POINTS = ((1, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3),
                 (5, 2), (6, 2), (3, 4), (5, 3))
SHAPED_POINTS = ((1, 1), (2, 2), (2, 4), (3, 2), (4, 2), (3, 3))
DEDUP_POINTS = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 1), (5, 3))
# a census pass runs each light op (every point not named below, each
# under 0.2 s) LIGHT_REPEATS times, and a named one as often as given: an
# op's median then rests on more samples for about 30% more pass time,
# which steadies the latency percentiles. census 3/4 sets the tail one.
LIGHT_REPEATS = 4
CENSUS_REPEATS = {"full 3/4": 2, "full 5/3": 1, "full 5/3 w2": 1}
FILTERED_REPEATS = {"shaped 3/3": 1, "dedup 5/3": 1}

# the embedded reference task: each program false in one state, all share state 5
REFERENCE = TaskSpec(
    n_states=5,
    programs=(("f1", 0b11110), ("f2", 0b11101), ("f3", 0b11011), ("f4", 0b10111)),
    inputs=(0b0001, 0b0010),
    outputs=(0b0101, 0b1010),
)

CLASSIFICATION = """states 5
program red_signal 01111
program human_red 10111
label blue_actual 11011
label human_blue 11101
example red_signal -> blue_actual
example human_red -> human_blue
"""
CLASSIFICATION_INPUTS = {frozenset({"red_signal"}), frozenset({"human_red"})}
CLASSIFICATION_OUTPUTS = {
    frozenset({"red_signal", "blue_actual"}),
    frozenset({"human_red", "human_blue"}),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its exit code and stdout; the
    check returns the number of tasks the op decided."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, bytes], int] = field(compare=False)


@dataclass
class Workload:
    name: str
    ops: list[Op]  # every op once, in seeded order
    warmup: list[Op]  # run once before timing; checked, not timed
    min_passes: int
    properties: dict
    schedule: list[Op] = field(default_factory=list)  # one timed pass; default ops

    def __post_init__(self):
        self.schedule = self.schedule or self.ops


# --- task generation ---------------------------------------------------------


def _names(rng: random.Random, k: int) -> list[str]:
    ids = rng.sample(range(10, 100), k)
    return [f"p{i}" for i in ids]


def _dense_task(rng: random.Random, k: int, planted: bool) -> tuple[TaskSpec, int | None]:
    """Reference family: program i is false in exactly one state, so every
    subset of the vocabulary is a statement (|L| = 2^k)."""
    n = k + rng.randint(1, 3)
    full = (1 << n) - 1
    holes = rng.sample(range(n), k)
    programs = tuple(zip(_names(rng, k), (full & ~(1 << h) for h in holes)))
    a, b, *rest = rng.sample(range(k), k)
    inputs = (1 << a, 1 << b)
    if planted:
        policy = 1 << a | 1 << rest[0] | 1 << rest[1]
        outputs = tuple(y for y in range(1 << k) if y & policy == policy)
        return TaskSpec(n, programs, inputs, outputs), policy
    outputs = tuple(sorted({1 << rng.choice((a, b)) | 1 << x for x in rng.sample(rest, 3)}))
    return TaskSpec(n, programs, inputs, outputs), None


def _random_programs(rng: random.Random, k: int) -> tuple[int, ...]:
    values: set[int] = set()
    while len(values) < k:
        bits = sum(1 << i for i in range(RANDOM_STATES) if rng.random() < RANDOM_DENSITY)
        if bits:
            values.add(bits)
    return tuple(rng.sample(sorted(values), k))


def _random_task(rng: random.Random, k: int, planted: bool) -> tuple[TaskSpec, int | None]:
    """Random programs over a few states: a sparser language, resampled
    until its search cost falls in RANDOM_COST so every seed does similar
    work."""
    lo, hi = RANDOM_COST
    while True:
        bits = _random_programs(rng, k)
        lang = gate.language(RANDOM_STATES, list(bits))
        a, b = rng.sample(range(k), 2)
        ext = [y for y in lang if y >> a & 1 or y >> b & 1]
        if not lo <= len(lang) * len(ext) / 4 ** k <= hi:
            continue
        programs = tuple(zip(_names(rng, k), bits))
        inputs = (1 << a, 1 << b)
        if planted:
            candidates = [p for p in ext if p >> a & 1 and p.bit_count() == 3]
            if candidates:
                policy = rng.choice(candidates)
                outputs = tuple(y for y in ext if y & policy == policy)
                return TaskSpec(RANDOM_STATES, programs, inputs, outputs), policy
        else:
            pairs = [y for y in ext if y.bit_count() == 2]
            if len(pairs) >= 3:
                outputs = tuple(sorted(rng.sample(pairs, 3)))
                return TaskSpec(RANDOM_STATES, programs, inputs, outputs), None


def _set_policy_task(rng: random.Random, size: int, planted: bool) -> TaskSpec:
    """Five random programs over five states whose language has exactly
    ``size`` statements; a planted task's outputs are the joint selection
    of two statements."""
    lo, hi = SET_POLICY_PLANTED_CORRECT if planted else (0, 0)
    n, k = 5, 5
    while True:
        bits = rng.sample(range(1, 1 << n), k)
        lang = gate.language(n, bits)
        if len(lang) != size:
            continue
        a, b = rng.sample(range(k), 2)
        spec = TaskSpec(n, tuple(zip(_names(rng, k), bits)), (1 << a, 1 << b), ())
        ext = Oracle(spec).ext_inputs
        if len(ext) < 4:
            continue
        if planted:
            s1, s2 = rng.sample(ext, 2)
            outputs = tuple(y for y in ext if y & s1 == s1 or y & s2 == s2)
        else:
            outputs = tuple(sorted(rng.sample(ext, 3)))
        spec = TaskSpec(n, spec.programs, spec.inputs, outputs)
        oracle = Oracle(spec)
        if not oracle.is_valid():
            continue
        try:
            if lo <= oracle.set_policy_counts(None) <= hi:
                return spec
        except ValueError:  # too many admissible statements to count
            continue


def _expectation(spec: TaskSpec, planted: int | None, set_args=()) -> SearchExpectation:
    oracle = Oracle(spec)
    if not oracle.is_valid():
        raise ValueError("generated an invalid task")
    correct = oracle.correct_policies()
    if planted is not None and planted not in correct:
        raise ValueError("planted policy is not correct")
    counts = {arg: oracle.set_policy_counts(None if arg == "all" else int(arg))
              for arg in set_args}
    return SearchExpectation(oracle, correct, planted, counts)


# --- ops ---------------------------------------------------------------------


def _search_op(path: Path, exp: SearchExpectation, mode: str, structured: bool,
               set_arg: str | None = None) -> Op:
    argv = ["search", str(path)]
    if mode == "pruned":
        argv += ["--mode", "pruned"]
    if set_arg is not None:
        argv += ["--set-policies", set_arg]
    if structured:
        argv.append("--structured")
    check = partial(gate.check_search, exp, structured=structured,
                    exhaustive=mode == "exhaustive", set_arg=set_arg)
    return Op(" ".join([path.stem] + argv[2:]), tuple(argv), check)


def _census_op(n: int, k: int, kind: str, structured: bool, workers: int = 1) -> Op:
    argv = ["census", "--n-states", str(n), "--vocab-size", str(k)]
    if kind == "shaped":
        argv.append("--classification-shaped")
    elif kind == "dedup":
        argv.append("--dedup")
    if workers != 1:
        argv += ["--workers", str(workers)]
    if structured:
        argv.append("--structured")
    name = f"census {kind} {n}/{k}" + (f" w{workers}" if workers != 1 else "")
    return Op(name, tuple(argv),
              lambda rc, out: gate.check_census(n, k, kind, rc, out, structured))


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def _search_wide(rng: random.Random, workdir: Path) -> Workload:
    ops, tasks = [], []
    for k in SEARCH_KS:
        for dense in (True, False):
            planted = dense == (k % 2 == 1)  # half the tasks, half the dense ones
            spec, policy = (_dense_task if dense else _random_task)(rng, k, planted)
            exp = _expectation(spec, policy)
            path = _write(workdir, f"{'dense' if dense else 'random'}{k}.pvt", spec.task_file())
            for mode in ("exhaustive", "pruned"):
                for structured in (False, True):
                    ops.append(_search_op(path, exp, mode, structured))
            tasks.append({"k": k, "L": len(exp.oracle.lang), "E_I": len(exp.oracle.ext_inputs),
                          "outputs": len(spec.outputs), "dense": dense, "planted": planted,
                          "correct": len(exp.correct)})
    ref = _write(workdir, "reference.pvt", REFERENCE.task_file())
    ref_exp = _expectation(REFERENCE, None)
    ops.append(_search_op(ref, ref_exp, "exhaustive", False))
    warmup = [_search_op(ref, ref_exp, mode, s) for mode in ("exhaustive", "pruned")
              for s in (False, True)]
    rng.shuffle(ops)
    return Workload("search-wide", ops, warmup, 3, _summary(tasks))


def _set_policy(rng: random.Random, workdir: Path) -> Workload:
    ops, tasks = [], []
    set_args = ("all", SET_POLICY_CAP)
    specs = [("reference", REFERENCE, False)] + [
        (f"setpol{size}", _set_policy_task(rng, size, size in SET_POLICY_PLANTED),
         size in SET_POLICY_PLANTED)
        for size in SET_POLICY_SIZES
    ]
    for stem, spec, planted in specs:
        exp = _expectation(spec, None, set_args)
        path = _write(workdir, f"{stem}.pvt", spec.task_file())
        ops.append(_search_op(path, exp, "exhaustive", False, "all"))
        # the reference's capped search is only a warm-up; its full search
        # in both formats puts verify-paper at the median of the pass
        capped = _search_op(path, exp, "exhaustive", True, SET_POLICY_CAP)
        if stem == "reference":
            reference_cap = capped
            ops.append(_search_op(path, exp, "exhaustive", True, "all"))
        else:
            ops.append(capped)
        tasks.append({"k": len(spec.programs), "L": len(exp.oracle.lang),
                      "E_I": len(exp.oracle.ext_inputs), "outputs": len(spec.outputs),
                      "dense": len(exp.oracle.lang) == 1 << len(spec.programs),
                      "planted": planted, "correct_set_policies": exp.set_counts["all"]})
    cls = _write(workdir, "classification.pvt", CLASSIFICATION)
    for structured in (False, True):
        argv = ("encode", str(cls)) + (("--structured",) if structured else ())
        ops.append(Op("encode" + (" --structured" if structured else ""), argv, partial(
            gate.check_encode, CLASSIFICATION_INPUTS, CLASSIFICATION_OUTPUTS,
            structured=structured)))
    verify = Op("verify-paper", ("verify-paper",), gate.check_verify_paper)
    ops.append(verify)
    warmup = [reference_cap, ops[-2], verify]
    rng.shuffle(ops)
    return Workload("set-policy", ops, warmup, 20, _summary(tasks))


def _census_schedule(rng: random.Random, ops: list[Op], repeats: dict[str, int]) -> list[Op]:
    schedule = [op for op in ops
                for _ in range(repeats.get(op.name.removeprefix("census "), LIGHT_REPEATS))]
    rng.shuffle(schedule)
    return schedule


def _census(rng: random.Random, workdir: Path) -> Workload:
    ops = [_census_op(n, k, "full", i % 2 == 1) for i, (n, k) in enumerate(CENSUS_POINTS)]
    ops.append(_census_op(5, 3, "full", True, workers=2))
    warmup = [_census_op(2, 2, "full", False), _census_op(2, 2, "full", True, workers=2)]
    rng.shuffle(ops)
    return Workload("census", ops, warmup, 4, {"points": [op.name for op in ops]},
                    _census_schedule(rng, ops, CENSUS_REPEATS))


def _census_filtered(rng: random.Random, workdir: Path) -> Workload:
    ops = [_census_op(n, k, "shaped", i % 2 == 1) for i, (n, k) in enumerate(SHAPED_POINTS)]
    ops += [_census_op(n, k, "dedup", i % 2 == 0) for i, (n, k) in enumerate(DEDUP_POINTS)]
    warmup = [_census_op(2, 2, "shaped", False), _census_op(3, 2, "dedup", False)]
    rng.shuffle(ops)
    return Workload("census-filtered", ops, warmup, 4, {"points": [op.name for op in ops]},
                    _census_schedule(rng, ops, FILTERED_REPEATS))


def _summary(tasks: list[dict]) -> dict:
    """Input properties a property-specific claim must cite."""
    n = len(tasks)
    return {
        "tasks": tasks,
        "k": sorted(t["k"] for t in tasks),
        "L": sorted(t["L"] for t in tasks),
        "dense_share": sum(t["dense"] for t in tasks) / n,
        "planted_share": sum(t["planted"] for t in tasks) / n,
    }


_BUILDERS = {
    "search-wide": _search_wide,
    "set-policy": _set_policy,
    "census": _census,
    "census-filtered": _census_filtered,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's files into ``workdir`` and its op list."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
