"""Span recorder for the traced run, and the per-layer metrics it yields.

``Tracer.install`` wraps public vtask functions on the attributes their
callers look up (for example ``vtask.search.build_language`` and
``vtask.core.Language.extension_masks``) and ``uninstall`` restores the
originals, so untraced runs execute vtask unmodified. Each call becomes a
span with a name, start, end, parent and a few counts; a span's self time
is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index of the parent span, None at top level
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, self.clock())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recorded as span ``name``; ``counts(result, *args)``
        returns the counts to attach to the span."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.counts.update(counts(result, *args))
                return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced vtask function at the attributes callers use."""
        import vtask.cli
        import vtask.core
        import vtask.dsl
        import vtask.encoder
        import vtask.search
        import vtask.tasks
        import vtask.verify

        build = self.wrap("core.build_language", vtask.core.build_language, _language_counts)
        validate = self.wrap("tasks.validate_task", vtask.tasks.validate_task)
        ext_set = self.wrap("core.extension_of_set", vtask.core.extension_of_set)
        find = self.wrap("tasks.find_correct_policies", vtask.tasks.find_correct_policies,
                         _policy_counts)
        for module in (vtask.dsl, vtask.encoder, vtask.search):
            self._patch(module, "build_language", build)
        for module in (vtask.dsl, vtask.encoder, vtask.verify, vtask.search):
            self._patch(module, "validate_task", validate)
        for module in (vtask.tasks, vtask.verify):
            self._patch(module, "extension_of_set", ext_set)
        for module in (vtask.cli, vtask.verify):
            self._patch(module, "find_correct_policies", find)
        # run_reference_checks takes its language builder as a default argument
        checks = vtask.verify.run_reference_checks
        self._patch(checks, "__defaults__", (build,))
        self._patch(vtask.cli, "run_reference_checks",
                    self.wrap("verify.run_reference_checks", checks))
        self._patch(vtask.cli, "find_correct_set_policies", self.wrap(
            "tasks.find_correct_set_policies", vtask.tasks.find_correct_set_policies,
            lambda r, *a: {"checked": r.checked, "correct": len(r.correct)}))
        self._patch(vtask.cli, "census", self.wrap("search.census", vtask.search.census,
                                                   _census_counts))
        for attr, name in (("parse_task_file", "dsl.parse_task_file"),
                           ("realize_document", "dsl.realize_document")):
            self._patch(vtask.dsl, attr, self.wrap(name, getattr(vtask.dsl, attr)))
        self._patch(vtask.dsl, "serialize_report", self.wrap(
            "dsl.serialize_report", vtask.dsl.serialize_report,
            lambda r, *a: {"bytes": len(r)}))
        self._patch(vtask.dsl, "encode_classification", self.wrap(
            "encoder.encode_classification", vtask.encoder.encode_classification))
        self._patch(vtask.search, "enumerate_vocabularies",
                    self._wrap_vocabularies(vtask.search.enumerate_vocabularies))
        self._patch(vtask.core.Language, "extension_masks",
                    self._wrap_extension_masks(vtask.core.Language.extension_masks))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap_vocabularies(self, fn):
        """One span per ``next()``, so time spent generating (and, with
        dedup, canonicalizing) vocabularies is separated from the census
        loop that consumes them."""

        def traced(spec):
            gen = fn(spec)
            combos = math.comb(1 << spec.n_states, spec.vocab_size)
            while True:
                with self.span("search.enumerate_vocabularies") as record:
                    record.counts["combinations"], combos = combos, 0
                    try:
                        vocab = next(gen)
                    except StopIteration:
                        return
                    record.counts["kept"] = 1
                yield vocab

        return traced

    def _wrap_extension_masks(self, method):
        def traced(lang):
            with self.span("core.extension_masks") as record:
                fresh = "_extension_masks" not in lang.__dict__
                result = method(lang)
                if fresh:
                    pairs = len(lang) ** 2
                    record.counts.update(pairs=pairs, table_bytes=pairs / 8)
                return result

        return traced


def _language_counts(lang, vocab):
    return {"subsets": 1 << len(vocab), "statements": len(lang)}


def _policy_counts(result, task, *args):
    return {"checked": result.checked, "correct": len(result.correct),
            "selection_tests": result.checked * len(task.input_extension)}


def _census_counts(report, *args):
    return {"tasks_enumerated": report.tasks_enumerated, "tasks_valid": report.tasks_valid}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds ``s``, total self seconds ``self_s``,
    ``calls``, and the sum of each count."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.name]
        t["s"] += s.end - s.start
        t["self_s"] += own
        t["calls"] += 1
        for key, value in s.counts.items():
            t[key] += value
    return totals


def census_input_masks(spans: list[Span]) -> int:
    """Σ(2^|L| − 2) over the languages the in-process census loops walked."""
    return sum((1 << s.counts["statements"]) - 2 for s in spans
               if s.name == "core.build_language" and s.parent is not None
               and spans[s.parent].name == "search.census")


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = {
    "cli.main.self_s": ("s", "lower"),
    "dsl.parse_task_file.s": ("s", "lower"),
    "dsl.realize_document.self_s": ("s", "lower"),
    "dsl.serialize_report.s": ("s", "lower"),
    "dsl.serialize_report.bytes": ("bytes", "lower"),
    "core.build_language.s": ("s", "lower"),
    "core.build_language.calls": ("count", "lower"),
    "core.build_language.subsets": ("count", "lower"),
    "core.build_language.statements": ("count", "lower"),
    "core.extension_masks.s": ("s", "lower"),
    "core.extension_masks.calls": ("count", "lower"),
    "core.extension_masks.pairs": ("count", "lower"),
    "core.extension_masks.table_bytes": ("bytes", "lower"),
    "core.extension_of_set.s": ("s", "lower"),
    "tasks.validate_task.self_s": ("s", "lower"),
    "tasks.find_correct_policies.s": ("s", "lower"),
    "tasks.find_correct_policies.checked": ("count", "lower"),
    "tasks.find_correct_policies.selection_tests": ("count", "lower"),
    "tasks.find_correct_policies.correct": ("count", "higher"),
    "tasks.find_correct_set_policies.s": ("s", "lower"),
    "tasks.find_correct_set_policies.checked": ("count", "lower"),
    "tasks.find_correct_set_policies.correct": ("count", "higher"),
    "search.enumerate_vocabularies.s": ("s", "lower"),
    "search.enumerate_vocabularies.combinations": ("count", "lower"),
    "search.enumerate_vocabularies.kept": ("count", "lower"),
    "search.enumerate_vocabularies.kept_ratio": ("ratio", "higher"),
    "search.census.s": ("s", "lower"),
    "search.census.self_s": ("s", "lower"),
    "search.census.input_masks": ("count", "lower"),
    "search.census.tasks_enumerated": ("count", "lower"),
    "search.census.tasks_valid": ("count", "higher"),
    "search.census.valid_ratio": ("ratio", "higher"),
    "search.census.speedup_2w": ("ratio", "higher"),
    "verify.run_reference_checks.s": ("s", "lower"),
    "encoder.encode_classification.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass; a layer the
    pass never entered reads 0."""
    agg = aggregate(spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0)

    out = {metric: get(*metric.rsplit(".", 1)) for metric in LAYER_METRICS}
    vocab, census = "search.enumerate_vocabularies", "search.census"
    combos = get(vocab, "combinations")
    out[f"{vocab}.kept_ratio"] = get(vocab, "kept") / combos if combos else 0.0
    enumerated = get(census, "tasks_enumerated")
    out[f"{census}.valid_ratio"] = get(census, "tasks_valid") / enumerated if enumerated else 0.0
    out[f"{census}.input_masks"] = census_input_masks(spans)
    return out
