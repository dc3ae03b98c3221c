"""Benchmark of mlqkit: one single-threaded caller per workload, closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload {qwhittaker,identities,bijections} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the caller repeats whole passes of the workload's fixed
call mix for at least S seconds and at least one cycle of the pool.  Each
call in the pool (at least 100 of them) is repeated over the run, and the
latency metrics use each call's fastest repetition.  The host's speed
drifts in phases of seconds to minutes, so timings are also divided by the
host's slowdown in the run: the fastest time of a fixed reference kernel,
run after every pass, over its reference time.

With ``--trace 1`` it alternates untraced and traced passes over the first
passes of the pool for S seconds and reports the per-layer metrics of
layertrace.py.  Every output is checked.  The last
line printed is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layertrace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s, spread over the run so that one slow
# phase of the host does not set the median.
SETUP_PROBES = 9
# The reference kernel's fastest time on the host the benchmark was built on,
# in a quiet period.  Timings are reported at this host speed.
KERNEL_REFERENCE_S = 0.005
TRACE_PASSES = {"qwhittaker": 1, "identities": 2, "bijections": 4}

END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Meter:
    """Times top-level calls and counts attempts and failures.

    Each call is keyed by its task and its place in the task, and keeps the
    fastest of its repetitions.  A tracer, when given, records only while
    one of these calls runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.best = {}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self._key = None

    def call(self, fn, *args):
        self.attempted += 1
        if self.tracer:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.active = False
            self.busy += elapsed
            task, index = self._key
            self._key = (task, index + 1)
            if elapsed < self.best.get(self._key, float("inf")):
                self.best[self._key] = elapsed

    def run_pass(self, tasks) -> float:
        """Run one pass; return the seconds spent inside its calls."""
        self.busy = 0.0
        for task in tasks:
            self._key = (id(task), 0)
            attempted = self.attempted
            try:
                self.failed += task.run(self)
            except Exception:
                # a call that raises fails every call of its task
                if not self.failed:
                    traceback.print_exc(file=sys.stderr)
                self.failed += task.calls
                self.attempted = attempted + task.calls
        return self.busy

    def best_latencies(self, pool):
        """Fastest latency of each call in one cycle of the pool."""
        keys = ((id(task), i) for tasks in pool for task in tasks
                for i in range(1, task.calls + 1))
        return [self.best[k] for k in keys if k in self.best]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("qwhittaker", "identities", "bijections"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Seconds from launching a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def reference_kernel():
    """Fixed dict, tuple and set work that does not touch mlqkit.

    Its fastest time in a run measures the host's speed during that run.
    """
    d = {}
    for i in range(3000):
        key = (i % 11, tuple((j, (i * j) % 5) for j in range(1, 6)))
        d[key] = d.get(key, 0) + 1
        if i % 8 == 0:
            d = dict(d)
    rows = [set(range(k % 9, k % 9 + 6)) for k in range(500)]
    total = 0
    for a, b in zip(rows, rows[1:]):
        total += len(sorted(a | b)) + len(a & b)
    return len(d) + total


def run_plain(pool, seconds, probe):
    """Timed passes, each followed by the reference kernel; the setup probes
    run between passes, spread over the run."""
    meter = Meter()
    kernel = []
    setups = []
    passes = 0
    start = time.perf_counter()
    while passes < len(pool) or time.perf_counter() - start < seconds:
        meter.run_pass(pool[passes % len(pool)])
        passes += 1
        begin = time.perf_counter()
        reference_kernel()
        kernel.append(time.perf_counter() - begin)
        if len(setups) * seconds <= (time.perf_counter() - start) * SETUP_PROBES:
            setups.append(probe())
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    best = meter.best_latencies(pool)
    slowdown = min(kernel) / KERNEL_REFERENCE_S
    measured = {
        "setup_s": statistics.median(setups),
        "calls_per_s": len(best) / sum(best),
        "call_p50_ms": statistics.median(best) * 1e3,
        "call_p90_ms": statistics.quantiles(best, n=10)[-1] * 1e3,
    }
    metrics = {name: value / slowdown for name, value in measured.items()}
    metrics["calls_per_s"] = measured["calls_per_s"] * slowdown
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = (f"passes={passes} calls={meter.attempted} pool_calls={len(best)} "
               f"host_slowdown={slowdown:.4f} measured: "
               + " ".join(f"{name}={value:.6g}" for name, value in measured.items()))
    return metrics, meter.attempted, meter.failed, summary


def run_traced(pool, passes, seconds):
    tracer = Tracer()
    plain, traced = Meter(), Meter(tracer)
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for tasks in pool[:passes]:
            plain_s += plain.run_pass(tasks)
            with tracer.installed():
                traced_s += traced.run_pass(tasks)
        rounds += 1
    metrics = tracer.metrics(rounds * passes)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    summary = f"traced_passes={rounds * passes}"
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, summary


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        sys.exit("bench: refusing to run under python -O: asserts in mlqkit do real work")
    if not (SRC / "mlqkit" / "__init__.py").is_file():
        sys.exit(f"bench: no mlqkit sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import mlqkit

    if not Path(mlqkit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported mlqkit from {mlqkit.__file__}, not {SRC}")
    import workloads

    pool = workloads.build_pool(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return

    if args.trace:
        metrics, attempted, failed, summary = run_traced(
            pool, TRACE_PASSES[args.workload], args.seconds)
    else:
        values, attempted, failed, summary = run_plain(
            pool, args.seconds, lambda: probe_setup(args))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_METRICS}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {summary}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':28s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} calls)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
