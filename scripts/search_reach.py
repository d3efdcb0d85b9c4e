#!/usr/bin/env python3
"""Time `vtask search` on dense tasks of growing size: how far exhaustive
policy search, and the check of one policy, reach within a wall-time
budget.

Each task has k programs over k + 1 states, program i false in state i
only, so all 2^k subsets are statements, and its inputs are {f1} and
{f2}. Two families differ in their outputs. In the reference family they
are the four completions of {f1 ... f(k-2)}, the one correct policy. In
the planted family they are every completion of {f1 f2 f3}, the one
correct policy: 2^(k-3) output lines, so reading the file weighs as much
as searching it. For k from --min-k to --max-k and each family, every
search (exhaustive and pruned, text and --structured) and
`check --policy f1` run in a fresh interpreter with stdout discarded.
{f1} is not correct in either family, so a finished check exits 1; a
finished search exits 0. Each row gives its CLI wall time and the child's
peak RSS. A run that overruns the budget is killed and not run at larger
k. The last line names, for each family and run, the largest k that
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


def _programs(k: int) -> list[str]:
    """The states and program lines of a k-program task: program fi is
    false in state i only."""
    n = k + 1
    return [f"states {n}"] + [
        f"program f{i} " + "".join("0" if s == i else "1" for s in range(1, n + 1))
        for i in range(1, k + 1)
    ]


def reference_family(k: int) -> str:
    """The task file of the k-program reference-family task."""
    lines = _programs(k) + ["input f1", "input f2"]
    policy = " ".join(f"f{i}" for i in range(1, k - 1))
    for extra in ("", f" f{k - 1}", f" f{k}", f" f{k - 1} f{k}"):
        lines.append(f"output {policy}{extra}")
    return "\n".join(lines) + "\n"


def planted_outputs(k: int) -> str:
    """The task file of the k-program task whose outputs are every
    completion of {f1 f2 f3}."""
    lines = _programs(k) + ["input f1", "input f2"]
    for rest in range(1 << (k - 3)):
        extra = "".join(f" f{i + 4}" for i in range(k - 3) if rest >> i & 1)
        lines.append(f"output f1 f2 f3{extra}")
    return "\n".join(lines) + "\n"


FAMILIES = {"reference": reference_family, "planted": planted_outputs}


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
    runs = [(family, name) for family in FAMILIES for name in RUNS]
    reach: dict[tuple[str, str], int | None] = dict.fromkeys(runs)
    live = set(runs)
    print(f"{'k':>2} {'statements':>10}  {'family':<9} {'run':<22} {'wall_s':>7} "
          f"{'peak_rss_mb':>11}  exit")
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.min_k, args.max_k + 1):
            for family, write in FAMILIES.items():
                path = Path(tmp) / f"{family}_{k}.pvt"
                path.write_text(write(k), encoding="utf-8")
                for name, (argv, finished) in RUNS.items():
                    if (family, name) not in live:
                        continue
                    wall, rss, code = run_cli(path, argv, args.budget)
                    shown = "killed" if code is None else str(code)
                    print(f"{k:>2} {1 << k:>10}  {family:<9} {name:<22} {wall:>7.2f} "
                          f"{rss:>11.1f}  {shown}", flush=True)
                    if code == finished and wall <= args.budget:
                        reach[family, name] = k
                    else:
                        live.discard((family, name))
            if not live:
                break
    summary = ", ".join(
        f"{family} {name} {'none' if k is None else k}" for (family, name), k in reach.items()
    )
    print(f"largest k within {args.budget:g} s: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
