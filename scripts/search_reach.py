#!/usr/bin/env python3
"""Time `vtask search` on dense tasks of growing size: how far exhaustive
policy search, and the check of one policy, reach within a wall-time
budget.

Each task is from the reference family: k programs over k + 1 states,
program i false in state i only, so all 2^k subsets are statements. The
inputs are {f1} and {f2}; the outputs are the four completions of
{f1 ... f(k-2)}, the one correct policy. For k from --min-k to --max-k,
every search (exhaustive and pruned, text and --structured) and
`check --policy f1` run in a fresh interpreter with stdout discarded.
{f1} selects 2^(k-1) statements and is not correct, so a finished check
exits 1; a finished search exits 0. Each row gives its CLI wall time and
the child's peak RSS. A run that overruns the budget is killed and not
run at larger k. The last line names, for each run, the largest k that
finished within the budget.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the vtask command line of each run, the task file going after the
# command, and the exit code of a finished run
RUNS = {
    "exhaustive text": (["search"], 0),
    "exhaustive structured": (["search", "--structured"], 0),
    "pruned text": (["search", "--mode", "pruned"], 0),
    "pruned structured": (["search", "--mode", "pruned", "--structured"], 0),
    "check --policy f1": (["check", "--policy", "f1"], 1),
}


def reference_family(k: int) -> str:
    """The task file of the k-program reference-family task."""
    n = k + 1
    lines = [f"states {n}"]
    lines += [
        f"program f{i} " + "".join("0" if s == i else "1" for s in range(1, n + 1))
        for i in range(1, k + 1)
    ]
    lines += ["input f1", "input f2"]
    policy = " ".join(f"f{i}" for i in range(1, k - 1))
    for extra in ("", f" f{k - 1}", f" f{k}", f" f{k - 1} f{k}"):
        lines.append(f"output {policy}{extra}")
    return "\n".join(lines) + "\n"


def run_cli(path: Path, argv: list[str], budget: float) -> tuple[float, float, int | None]:
    """Wall seconds, peak RSS in MB and exit code of one CLI run; the exit
    code is None when the budget ran out and the run was killed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "vtask", argv[0], str(path), *argv[1:]],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    timer = threading.Timer(budget, proc.kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.monotonic() - start
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if proc.returncode >= 0 else None
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return elapsed, usage.ru_maxrss / scale, code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-k", type=int, default=10)
    parser.add_argument("--max-k", type=int, default=20)
    parser.add_argument("--budget", type=float, default=10.0, help="wall seconds per search")
    args = parser.parse_args()
    if not 3 <= args.min_k <= args.max_k <= 20:
        parser.error("need 3 <= --min-k <= --max-k <= 20 (the CLI's vocabulary cap)")
    if not args.budget > 0:
        parser.error("--budget must be positive")
    reach: dict[str, int | None] = dict.fromkeys(RUNS)
    live = set(RUNS)
    print(f"{'k':>2} {'statements':>10}  {'run':<22} {'wall_s':>7} {'peak_rss_mb':>11}  exit")
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.min_k, args.max_k + 1):
            path = Path(tmp) / f"reference_family_{k}.pvt"
            path.write_text(reference_family(k), encoding="utf-8")
            for name, (argv, finished) in RUNS.items():
                if name not in live:
                    continue
                wall, rss, code = run_cli(path, argv, args.budget)
                shown = "killed" if code is None else str(code)
                print(f"{k:>2} {1 << k:>10}  {name:<22} {wall:>7.2f} {rss:>11.1f}  {shown}",
                      flush=True)
                if code == finished and wall <= args.budget:
                    reach[name] = k
                else:
                    live.discard(name)
            if not live:
                break
    summary = ", ".join(f"{name} {'none' if k is None else k}" for name, k in reach.items())
    print(f"largest k within {args.budget:g} s: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
