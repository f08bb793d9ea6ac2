"""Self-test of the benchmark (not part of the package's test suite).

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (default: all three), from the repository root:
  * two traced runs with the same seed report identical deterministic counts;
  * a second seed gives different inputs and still no failed unit.
Each run is short (--seconds 1: one round).  Exits non-zero on a failure.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

DETERMINISTIC = (
    "fevals_per_unit",
    "iters_per_unit",
    "linalg.factorizations",
    "divdiff.fallback_evals",
    "divdiff.staircase_evals",
    "solvers.iterations",
)
SEED, OTHER_SEED = 11, 12


def run(workload, seed):
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, timeout=600,
    )
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    values = {**record["end_to_end"], **{k: v["value"] for k, v in record["metrics"].items()}}
    return record, {name: values[name] for name in DETERMINISTIC}


def differ(a, b):
    if isinstance(a, dict):
        return any(differ(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return any(differ(x, y) for x, y in zip(a, b))
    return not np.array_equal(a, b)


def main():
    names = sys.argv[1:] or list(WORKLOADS)
    failures = []
    for name in names:
        first, counts_a = run(name, SEED)
        _, counts_b = run(name, SEED)
        other, _ = run(name, OTHER_SEED)
        if counts_a != counts_b:
            failures.append(f"{name}: same seed, different counts {counts_a} vs {counts_b}")
        workload = WORKLOADS[name]()
        if not differ(workload.inputs(SEED), workload.inputs(OTHER_SEED)):
            failures.append(f"{name}: seeds {SEED} and {OTHER_SEED} give the same inputs")
        for record in (first, other):
            if not record["correct"] or record["failed"] != 0:
                failures.append(f"{name}: seed {record['args']['seed']} failed {record['failed']} units")
        print(f"{name}: counts {counts_a}")
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
