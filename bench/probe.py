"""Set-up probe: import mosteff (with its CLI) and build one workload's inputs.

    python3 bench/probe.py WORKLOAD SEED

run.py times fresh interpreters running this file; that time is `setup_s`.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mosteff  # noqa: E402,F401
import mosteff.cli  # noqa: E402,F401
from workloads import WORKLOADS, EvalCounter  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]()
    workload.units(workload.inputs(int(sys.argv[2])), EvalCounter(), None)
