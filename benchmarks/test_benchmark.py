"""Tests of the benchmark itself: the correctness gate, the tracer's
self-time arithmetic, the fixed facts and the seeded generator.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import vtask.cli  # noqa: E402
import vtask.core  # noqa: E402
import vtask.dsl  # noqa: E402
import vtask.search  # noqa: E402
import vtask.verify  # noqa: E402


def _drop_last_statement(vocab):
    lang = vtask.core.build_language(vocab)
    return vtask.core.Language(lang.vocabulary, lang.statements[:-1])


def test_gate_passes_correct_outputs(tmp_path):
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        wl = workloads.build(name, 7, tmp_path / name)
        for op in wl.warmup:
            sample = run.run_op(op, vtask.cli.main)
            assert sample.failure is None, (op.name, sample.failure)


@pytest.mark.parametrize("module", [vtask.search, vtask.dsl])
def test_gate_catches_a_broken_build_language(tmp_path, monkeypatch, module):
    wl = workloads.build("search-wide" if module is vtask.dsl else "census", 7, tmp_path)
    op = wl.warmup[0]
    monkeypatch.setattr(module, "build_language", _drop_last_statement)
    sample = run.run_op(op, vtask.cli.main)
    assert sample.failure is not None


def test_gate_catches_a_missing_policy(tmp_path, monkeypatch):
    wl = workloads.build("search-wide", 3, tmp_path)
    op = next(op for op in wl.ops if op.name == "dense9")  # has a planted policy
    assert run.run_op(op, vtask.cli.main).failure is None
    find = vtask.cli.find_correct_policies

    def drop_one(task, mode):
        result = find(task, mode)
        return dataclasses.replace(result, correct=result.correct[1:])

    monkeypatch.setattr(vtask.cli, "find_correct_policies", drop_one)
    assert run.run_op(op, vtask.cli.main).failure is not None


def test_self_time_of_nested_spans():
    ticks = iter([0, 1, 2, 2.5, 3, 4, 5, 8, 12, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("parent"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 3
            with tracer.span("a.child"):  # 2 .. 2.5
                pass
        with tracer.span("b"):  # 4 .. 5
            pass
        with tracer.span("c"):  # 8 .. 12, runs past its parent
            pass
    own = dict(zip((s.name for s in tracer.spans), spans.self_times(tracer.spans)))
    assert own == {"parent": 10 - 2 - 1 - 2, "a": 1.5, "a.child": 0.5, "b": 1, "c": 4}
    agg = spans.aggregate(tracer.spans)
    assert agg["parent"]["s"] == 10 and agg["parent"]["calls"] == 1


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span("p", None, 0.0, 10.0)
    kids = [spans.Span("k", 0, 1.0, 4.0), spans.Span("k", 0, 3.0, 6.0)]
    assert spans.self_times([parent, *kids])[0] == pytest.approx(5.0)


def test_traced_run_reports_layers_and_restores_vtask(tmp_path):
    wl = workloads.build("set-policy", 1, tmp_path)
    originals = (vtask.search.build_language, vtask.core.Language.extension_masks,
                 vtask.cli.census, vtask.verify.run_reference_checks.__defaults__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        samples = run.run_pass(wl.ops, vtask.cli.main, tracer).samples
    finally:
        tracer.uninstall()
    assert all(s.failure is None for s in samples)
    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["tasks.find_correct_set_policies.checked"] >= 1 << 16
    assert metrics["verify.run_reference_checks.s"] > 0
    assert metrics["encoder.encode_classification.s"] > 0
    assert 0 < metrics["cli.main.self_s"] < sum(s.seconds for s in samples)
    assert originals == (vtask.search.build_language, vtask.core.Language.extension_masks,
                         vtask.cli.census, vtask.verify.run_reference_checks.__defaults__)


def _brute_force_census(n_states, vocab_size, shaped):
    """Census totals straight from the definitions: every input set,
    every output set, every policy."""
    valid = solvable = 0
    for vocab in combinations(range(1 << n_states), vocab_size):
        lang = gate.language(n_states, list(vocab))
        for i_size in range(1, len(lang)):
            for inputs in combinations(lang, i_size):
                ext = [y for y in lang if any(x & y == x for x in inputs)]
                sels = {frozenset(y for y in ext if p & y == p) for p in lang}
                for o_size in range(1, len(ext)):
                    for outputs in combinations(ext, o_size):
                        if shaped and not _shaped(inputs, outputs):
                            continue
                        valid += 1
                        solvable += frozenset(outputs) in sels
    return valid, solvable


def _shaped(inputs, outputs):
    features = 0
    for x in inputs:
        features |= x
    covered = set()
    for o in outputs:
        match = [x for x in inputs if x & o == x and (o & ~x).bit_count() == 1
                 and not o & ~x & features]
        if not match:
            return False
        covered.add(match[0])
    return covered == set(inputs)


@pytest.mark.parametrize("point", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
def test_small_census_facts_by_brute_force(point):
    vocabularies, valid, solvable = gate.CENSUS_FACTS[point]
    assert vocabularies == math.comb(1 << point[0], point[1])
    assert _brute_force_census(*point, shaped=False) == (valid, solvable)


@pytest.mark.parametrize("point", [(1, 1), (2, 2), (3, 2), (4, 2)])
def test_small_shaped_facts_by_brute_force(point):
    assert _brute_force_census(*point, shaped=True) == gate.SHAPED_FACTS[point]


def _orbits(n_states, vocab_size):
    """Burnside: the mean, over state permutations, of the vocabularies
    each one fixes (those that are unions of its cycles on programs)."""
    total = 0
    for perm in permutations(range(n_states)):
        seen, poly = set(), [1] + [0] * vocab_size
        for value in range(1 << n_states):
            length, v = 0, value
            while v not in seen:
                seen.add(v)
                length += 1
                v = sum(1 << perm[i] for i in range(n_states) if v >> i & 1)
            if length:
                for size in range(vocab_size, length - 1, -1):
                    poly[size] += poly[size - length]
        total += poly[vocab_size]
    return total // math.factorial(n_states)


def test_dedup_orbit_facts():
    for point, orbits in gate.DEDUP_ORBITS.items():
        assert _orbits(*point) == orbits, point


def test_generator_is_seeded(tmp_path):
    for name in ("search-wide", "set-policy"):
        files = []
        for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
            (tmp_path / name / sub).mkdir(parents=True)
            wl = workloads.build(name, seed, tmp_path / name / sub)
            files.append(({p.name: p.read_text() for p in (tmp_path / name / sub).iterdir()},
                          [op.name for op in wl.ops], wl.properties))
        assert files[0] == files[1]
        assert files[0][0] != files[2][0]
        props = files[0][2]
        assert props["planted_share"] > 0 and 0 < props["dense_share"] < 1


def test_tail_quantile_leaves_ten_samples_beyond_it(tmp_path):
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        wl = workloads.build(name, 1, tmp_path / name)
        q = run.tail_fraction(len(wl.ops), wl.min_passes)
        assert 0.5 < q < 1
        n = len(wl.ops) * wl.min_passes
        samples = list(range(n))
        assert n - 1 - run.nearest_rank(samples, q) >= 10


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in spans.LAYER_METRICS.items()]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_speed_factor_averages_the_samples_near_an_interval():
    speed = run.Speedometer()
    ref = run.REFERENCE_CALIBRATION_S
    w = run.CALIBRATION_WINDOW_S
    speed.samples = [(0.0, ref), (1.0, 2 * ref), (1.0 + w / 2, 4 * ref), (3.0, ref)]
    assert speed.factor(1.0, 1.0) == pytest.approx(1 / 3)  # samples at 1.0 and 1.0 + w/2
    assert speed.factor(2.0, 2.0 + w / 2) == pytest.approx(0.4)  # none near: one each side
    assert speed.factor(0.0, 3.0) == pytest.approx(0.5)


@pytest.mark.parametrize("name, heavy", [("census", workloads.CENSUS_REPEATS),
                                         ("census-filtered", workloads.FILTERED_REPEATS)])
def test_census_schedule_repeats_the_light_points(tmp_path, name, heavy):
    wl = workloads.build(name, 1, tmp_path)
    counts = {op.name.removeprefix("census "): sum(s is op for s in wl.schedule)
              for op in wl.ops}
    assert {n: counts[n] for n in heavy} == heavy
    assert {c for n, c in counts.items() if n not in heavy} == {workloads.LIGHT_REPEATS}
