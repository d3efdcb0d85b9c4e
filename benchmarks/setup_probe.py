"""Set-up of one benchmark run in a fresh interpreter, timed by run.py:
import vtask and generate the workload's inputs.

    python3 benchmarks/setup_probe.py WORKLOAD SEED DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import vtask.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
