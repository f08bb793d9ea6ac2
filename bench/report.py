"""Every end-to-end metric of every workload, from one command.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py once per workload (untraced), from the repository root,
and prints each workload's table.  Exits non-zero if any workload's outputs
are wrong.
"""

import argparse
import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("chapman", "tables", "dense")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        lines = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"# correct={result['correct']} failed={result['failed']} of {result['attempted']}\n")
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
