"""mosteff benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {chapman,tables,dense} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 a second, traced pass follows the untraced
one and the JSON holds the per-layer metrics.  The lines before it are a
human-readable table and the environment.  A copy of the result goes to
bench/out/, with the spans of a traced pass.

Timing.  A run repeats rounds of identical work for --seconds.  On a shared
machine each CPU switches between speed states some 30-40% apart, for one to
tens of seconds at a time, so a unit's latency is the fastest of its N
repetitions (N printed).  For chapman the repetitions of a step are the same
step of each simulated day.  Counts are per round and deterministic.
"""

import os

# Single-threaded BLAS in this process and in the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 9
TRACED_SHARE = 1 / 3  # the traced pass runs for this share of --seconds, at least one round


def _import_package():
    if not (SRC / "mosteff" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'mosteff'}")
    sys.path.insert(0, str(SRC))
    import mosteff

    if pathlib.Path(mosteff.__file__).resolve().parent != SRC / "mosteff":
        sys.exit(f"error: imported mosteff from {mosteff.__file__}, not from {SRC}")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mosteff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = None
    status = pathlib.Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


class SetupProbe:
    """Times fresh interpreters that import mosteff (and its CLI) and build
    the workload's inputs.  The probes are spread over the untraced pass, so
    that their median does not hang on one moment's CPU speed."""

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
        self.interval = seconds / (SETUP_PROBES - 1)
        self.times = []
        self.last = None

    def probe(self):
        t0 = time.perf_counter()
        # No timeout: Popen.wait polls in steps of up to 50 ms when given one.
        subprocess.run(self.argv, cwd=ROOT, check=True)
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        return self.last - t0

    def between_rounds(self):
        """Probe if one is due; return the seconds it took."""
        if len(self.times) < SETUP_PROBES and time.perf_counter() - self.last >= self.interval:
            return self.probe()
        return 0.0

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


class Pass:
    """Rounds of one workload for a time budget, timed unit by unit."""

    def __init__(self, workload, inputs, seconds, tracer=None, between_rounds=lambda: 0.0):
        from workloads import EvalCounter

        self.counter = EvalCounter()
        units = workload.units(inputs, self.counter, tracer)
        if tracer is not None:
            tracer.install()
        try:
            self._rounds(workload, units, seconds, between_rounds)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _rounds(self, workload, units, seconds, between_rounds):
        self.workload = workload
        self.latencies = []
        self.rounds = 0
        self.first = None
        self.differing = {}  # unit index -> later rounds whose output differs
        self.counts_differ = False
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            before = self.counter.fevals
            lat, outs = workload.run_round(units)
            fevals = self.counter.fevals - before
            self.latencies.extend(lat)
            self.rounds += 1
            if self.first is None:
                self.first = outs
                self.fevals = fevals
                self.iterations = workload.iterations(outs)
            else:
                # Every round repeats the first one exactly.
                for i in workload.differing(self.first, outs):
                    self.differing[i] = self.differing.get(i, 0) + 1
                self.counts_differ |= fevals != self.fevals or workload.iterations(outs) != self.iterations
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
            start += between_rounds()
        self.units = len(self.latencies) // self.rounds

    def failed(self, ok):
        """Failed units: wrong in the first round, or different later."""
        return sum(self.rounds for good in ok if not good) + sum(
            n for i, n in self.differing.items() if ok[i]
        )

    def timings(self):
        """Latency of each unit's fastest repetition, and the throughput
        those latencies give."""
        size = self.workload.period or self.units
        n = len(self.latencies) // size
        best = np.array(self.latencies[: n * size]).reshape(n, size).min(axis=0)
        return {
            "units_per_s": size / float(np.sum(best)),
            "unit_ms_p50": float(np.percentile(best, 50)) * 1e3,
            "unit_ms_p90": float(np.percentile(best, 90)) * 1e3,
            "repetitions": n,
            "units": size,
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("chapman", "tables", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_package()
    import mosteff.cli  # noqa: F401  (part of what a user's process imports)
    from workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)

    probes = SetupProbe(args.workload, args.seed, args.seconds)
    probes.probe()
    plain = Pass(workload, inputs, args.seconds, between_rounds=probes.between_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = probes.median()
    timing = plain.timings()

    # Correctness: the first round against the reference; later rounds
    # against the first.
    ok = workload.check(inputs, plain.first)
    failed = plain.failed(ok)
    attempted = len(plain.latencies)
    problems = ["evaluation or iteration count differs between rounds"] if plain.counts_differ else []

    best = f"{timing['units']} units, each the fastest of {timing['repetitions']}"
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_PROBES} fresh interpreters"),
        "units_per_s": (timing["units_per_s"], "1/s", best),
        "unit_ms_p50": (timing["unit_ms_p50"], "ms", best),
        "unit_ms_p90": (timing["unit_ms_p90"], "ms", best),
        "fevals_per_unit": (plain.fevals / plain.units, "count", f"{plain.fevals} per round of {plain.units} units"),
        "iters_per_unit": (plain.iterations / plain.units, "count", f"{plain.iterations} per round"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed pass"),
    }
    info = {"fail_frac": (failed / attempted, "frac", f"{failed} of {attempted} units")}

    traced_spans = None
    if args.trace:
        from tracing import Tracer, unit_of

        tracer = Tracer()
        traced = Pass(workload, inputs, args.seconds * TRACED_SHARE, tracer)
        traced_timing = traced.timings()
        layers = tracer.layer_metrics(traced.rounds)
        layers["trace.overhead_frac"] = 1.0 - traced_timing["units_per_s"] / timing["units_per_s"]
        if traced.counts_differ or (traced.fevals, traced.iterations) != (plain.fevals, plain.iterations):
            problems.append(
                f"traced counts (fevals {traced.fevals}, iterations {traced.iterations}) differ from "
                f"untraced ({plain.fevals}, {plain.iterations})"
            )
        # The traced pass must compute exactly what the untraced one did.
        ok_traced = list(ok)
        for i in workload.differing(plain.first, traced.first):
            ok_traced[i] = False
        failed += traced.failed(ok_traced)
        attempted += len(traced.latencies)
        traced_spans = tracer
        result_metrics = {name: {"value": float(v), "unit": unit_of(name)} for name, v in layers.items()}
        info["trace.rounds"] = (traced.rounds, "count", "rounds of the traced pass")
    else:
        result_metrics = {name: {"value": float(v), "unit": u} for name, (v, u, _) in metrics.items()}

    print(f"# mosteff benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {plain.rounds} rounds of {plain.units} units in the untraced pass")
    for name, (value, unit, note) in {**metrics, **info}.items():
        print(f"{name:24s} {value:14.6g} {unit:8s} {note}")
    if args.trace:
        for name, entry in result_metrics.items():
            print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    for problem in problems:
        print(f"# check failed: {problem}")

    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, env=env, args=vars(args), info={k: v[0] for k, v in info.items()},
                  end_to_end={k: v[0] for k, v in metrics.items()})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    np.save(out_dir / f"{stem}-latencies.npy", np.array(plain.latencies))
    if traced_spans is not None:
        traced_spans.save(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
