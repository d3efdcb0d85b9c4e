#!/usr/bin/env python3
"""End-to-end benchmark of the vtask CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of search-wide, set-policy, census, census-filtered, or ``all``
(each workload in its own process). One client runs the workload's ops
back to back through ``vtask.cli.main(argv)`` with stdout captured, pass
after pass, for about S seconds; every op's exit code and output are
checked. Op and set-up times are CPU time (``cpu_clock``); in ``--trace 0``
they are also normalized to a reference machine speed (``Speedometer``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
# speed samples: a fixed loop of CALIBRATION_ROUNDS rounds every
# CALIBRATION_EVERY_S of wall time; an op's speed is the mean over the
# samples within CALIBRATION_WINDOW_S of process time of it
CALIBRATION_ROUNDS = 5000
CALIBRATION_EVERY_S = 0.02
CALIBRATION_WINDOW_S = 0.1
# near the loop's fastest times on the reference machine (2 cores,
# Python 3.11.7), so normalized seconds read like CPU seconds there
REFERENCE_CALIBRATION_S = 4.6e-4

END_TO_END = {
    "setup_s": "s",
    "norm_cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "tasks_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
}


def cpu_clock() -> float:
    """CPU seconds used by this process and its reaped children.

    Unlike wall time, this leaves out the time the guest gives to other
    processes. vtask is single-threaded and CPU-bound, so on an idle
    machine the two agree. The census worker pool is joined before its op
    returns, so the children term counts the workers' time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Speedometer:
    """Samples the machine's speed while ops run.

    On a shared host the CPU time of the same work drifts by 20-50% within
    a minute, in spells of a fraction of a second and longer: the host
    runs other tenants on the same cores, and the guest is not told. A
    fixed pure-Python loop slows in step with vtask, so while running,
    a wall-clock timer interrupts the process every CALIBRATION_EVERY_S and
    times the loop. (Not a CPU-time timer: while one is armed, Linux
    advances the process CPU clock only at scheduler ticks.) ``factor``
    turns an op's CPU time into CPU time at the reference speed; the
    loop's own time is excluded from the op's.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (process time, loop seconds)
        self.spent = 0.0  # process time spent in the loop

    def _tick(self, signum, frame) -> None:
        start = time.process_time()
        x = 0
        for i in range(CALIBRATION_ROUNDS):
            x ^= (i * 2654435761) & 0xFFFF
        end = time.process_time()
        self.samples.append((end, end - start))
        self.spent += end - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Reference loop time over the mean loop time of the samples
        within CALIBRATION_WINDOW_S of the process-time interval."""
        lo = bisect.bisect_left(self.samples, (start - CALIBRATION_WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + CALIBRATION_WINDOW_S,))
        near = [loop for _, loop in self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]]
        return REFERENCE_CALIBRATION_S / statistics.fmean(near)


@dataclass
class Sample:
    op: object
    seconds: float  # wall clock
    cpu: float  # cpu_clock, less the Speedometer's loop
    at: tuple[float, float]  # process time at start and end
    decided: int
    failure: str | None
    norm: float = 0.0  # cpu at the reference speed, set by measure


def run_op(op, main, tracer=None, speed=None) -> Sample:
    """Run one op in-process and check it; only the CLI call is timed."""
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    failure, rc = None, None
    spent = speed.spent if speed else 0.0
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        start, cpu_start, at = time.perf_counter(), cpu_clock(), time.process_time()
        try:
            if tracer is None:
                rc = main(list(op.argv))
            else:
                with tracer.span("cli.main"):
                    rc = main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            failure = traceback.format_exc()
        seconds, cpu = time.perf_counter() - start, cpu_clock() - cpu_start
        at = (at, time.process_time())
        if speed:
            cpu -= speed.spent - spent
        stdout.flush()
    out = raw.getvalue()
    stdout.detach()
    decided = 0
    if failure is None:
        try:
            decided = op.check(rc, out)
        except Exception as exc:  # a gate failure or output the gate cannot parse
            failure = f"{type(exc).__name__}: {exc}"
    return Sample(op, seconds, cpu, at, decided, failure)


@dataclass
class Pass:
    samples: list[Sample]


def run_pass(ops, main, tracer=None, speed=None) -> Pass:
    return Pass([run_op(op, main, tracer, speed) for op in ops])


def repeat(step, budget: float, min_rounds: int) -> None:
    """Call ``step`` back to back until another call would overrun
    ``budget`` seconds, and at least ``min_rounds`` times."""
    start, rounds = time.perf_counter(), 0
    while True:
        t0 = time.perf_counter()
        step()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - t0) > budget:
            return


def tail_fraction(ops_per_pass: int, min_passes: int) -> float:
    """Fixed tail quantile of a workload: the centre of the band of the
    slowest op for which at least ten samples lie beyond it in a run of
    ``min_passes`` passes. Centring on a band keeps the quantile on the
    same op whatever the number of passes."""
    j = math.floor(ops_per_pass - 0.5 - 10 / min_passes)
    return (j + 0.5) / ops_per_pass


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)  # q * n can land a rounding error above an integer
    return ordered[max(0, rank - 1)]


@contextmanager
def work_dir():
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def setup_probe(name: str, seed: int) -> tuple[float, tuple[float, float]]:
    """CPU time of a fresh interpreter from its start until it has
    generated the workload's inputs and imported vtask, with this
    process's process time before and after it."""
    with work_dir() as path:
        start, at = cpu_clock(), time.process_time()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
                        str(path)], check=True, stdout=subprocess.DEVNULL)
        return cpu_clock() - start, (at, time.process_time())


def measure(wl, main, seed: int, seconds: int) -> tuple[list[Pass], float, float]:
    """Untraced passes for about ``seconds``; returns them with the median
    set-up time and the peak resident memory in MiB.

    Set-up probes run between passes, spread over the run, so a slow spell
    of the shared machine skews few of them. Peak memory is this process's
    plus that of its largest child (the census worker pool) as of the end
    of the first pass, before any probe ran; every pass does the same work.
    Op and set-up times are normalized by the speed sampled around them.
    """
    passes: list[Pass] = []
    probes: list[tuple[float, tuple[float, float]]] = []
    children_kib = 0
    start = time.perf_counter()
    speed = Speedometer()

    def step() -> None:
        nonlocal children_kib
        due = len(probes) * seconds / SETUP_PROBES
        if passes and len(probes) < SETUP_PROBES and time.perf_counter() - start >= due:
            probes.append(setup_probe(wl.name, seed))
        passes.append(run_pass(wl.schedule, main, speed=speed))
        if len(passes) == 1:
            children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    with speed.running():
        repeat(step, seconds, wl.min_passes)
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(wl.name, seed))
    for s in (s for p in passes for s in p.samples):
        s.norm = s.cpu * speed.factor(*s.at)
    setup_s = statistics.median(cpu * speed.factor(*at) for cpu, at in probes)
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, setup_s, (own_kib + children_kib) / 1024


def op_medians(passes: list[Pass], clock: str) -> dict[str, float]:
    """Each op's median time over the run's passes, by the Sample field
    ``clock``. Single op times still swing on a shared machine, so an op's
    cost is the middle of its samples, not any one of them."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for s in p.samples:
            times.setdefault(s.op.name, []).append(getattr(s, clock))
    return {name: statistics.median(v) for name, v in times.items()}


def end_to_end(wl, passes: list[Pass], setup_s: float, rss: float) -> tuple[dict, dict]:
    """Each op counts once per pass at its median time, however often the
    schedule runs it, so the latency percentiles pick an op by rank and
    report that op's typical cost."""
    typical = op_medians(passes, "norm")
    latencies = [typical[op.name] for op in wl.ops] * len(passes)
    q = tail_fraction(len(wl.ops), wl.min_passes)
    norm = sum(typical.values())
    decided = {s.op.name: s.decided for s in passes[0].samples}
    metrics = {
        "setup_s": setup_s,
        "norm_cpu_s": norm,
        "op_p50_ms": nearest_rank(latencies, 0.5) * 1000,
        "op_tail_ms": nearest_rank(latencies, q) * 1000,
        "tasks_per_norm_s": sum(decided.values()) / norm,
        "peak_rss_mb": rss,
    }
    detail = {"passes": len(passes), "ops": len(latencies),
              "op_samples": sum(len(p.samples) for p in passes),
              "op_tail_percentile": round(100 * q, 2),
              "cpu_s": sum(op_medians(passes, "cpu").values()),
              "wall_s": sum(op_medians(passes, "seconds").values())}
    return metrics, detail


def per_layer(untraced: list[Pass], traced: list[Pass], layer: list[dict]) -> dict:
    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    metrics["trace.overhead_s"] = (sum(op_medians(traced, "cpu").values())
                                   - sum(op_medians(untraced, "cpu").values()))
    wall = op_medians(untraced, "seconds")
    one, two = wall.get("census full 5/3"), wall.get("census full 5/3 w2")
    metrics["search.census.speedup_2w"] = one / two if one and two else 0.0
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import vtask.cli

    if not Path(vtask.cli.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported vtask from {vtask.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with work_dir() as path:
        wl = workloads.build(name, seed, path)
        samples = [run_op(op, vtask.cli.main) for op in wl.warmup]
        if trace:
            # untraced and traced passes alternate, so load drift on a
            # shared machine hits both sides of trace.overhead_s alike
            untraced, traced, layer = [], [], []
            tracer = spans.Tracer()

            def pair() -> None:
                untraced.append(run_pass(wl.ops, vtask.cli.main))
                tracer.install()
                try:
                    traced.append(run_pass(wl.ops, vtask.cli.main, tracer))
                finally:
                    tracer.uninstall()
                layer.append(spans.layer_metrics(tracer.spans))
                tracer.spans.clear()

            repeat(pair, seconds, 2)
            metrics = per_layer(untraced, traced, layer)
            units = {m: unit for m, (unit, _) in spans.LAYER_METRICS.items()}
            detail = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
            passes = untraced + traced
        else:
            passes, setup_s, rss = measure(wl, vtask.cli.main, seed, seconds)
            metrics, detail = end_to_end(wl, passes, setup_s, rss)
            units = END_TO_END
    samples += [s for p in passes for s in p.samples]
    failures = [s for s in samples if s.failure is not None]
    for s in failures[:5]:
        print(f"FAILED {s.op.name}: {s.failure}", file=sys.stderr)
    detail["failed_ops_share"] = len(failures) / len(samples)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"ops attempted {len(samples)}  failed {len(failures)}")
    for metric, value in metrics.items():
        print(f"  {metric:<45} {value:>16.6f} {units[metric]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print("inputs " + json.dumps(wl.properties, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory and set-up are
    its own; prints their reports and one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run.py: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "vtask" / "cli.py").is_file():
        print(f"run.py: no vtask source at {SRC}; run from a vtask checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

if __name__ == "__main__":
    sys.exit(main())
