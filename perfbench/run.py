#!/usr/bin/env python3
"""rategame benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload solve-monotone --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics,
derived from spans around the library calls, and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run record with the spans goes to ``.perfbench-runs/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import layers
import record
from tracer import Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "configs", "base_case.cfg")
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("events_per_ref", "events/ref"),
              ("peak_rss_mb", "MiB"))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def reference_seconds() -> float:
    """Wall time of a fixed mix of the kinds of work the program does, each
    about 5 ms on a quiet 2-core x86-64 VM: an integer loop, small numpy
    operations in a loop, passes over a 2 MB array, and dict and list churn.
    It measures the host's speed right now; ``wall_ref`` is the pass time
    in units of its mean over the run."""
    import numpy as np

    t = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    x = np.linspace(0.0, 1.0, 257)
    y = np.zeros_like(x)
    for _ in range(500):
        y = np.sqrt(x * x + 0.5) * np.exp(-x) + 0.5 * y
    a = np.arange(250_000, dtype=float)
    b = np.empty_like(a)
    for _ in range(8):
        np.multiply(a[::-1], 1.0001, out=b)
        np.add(b, 1.0, out=a)
    d = {}
    for i in range(20_000):
        d[i % 5000] = [i, float(i)]
    return time.perf_counter() - t


def measure(run_pass, seconds):
    """Closed loop: passes back to back until ``seconds`` have elapsed (at
    least one pass), with the reference timed before each pass and after
    the last."""
    results, reference = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        reference.append(reference_seconds())
        results.append(run_pass())
    reference.append(reference_seconds())
    return results, reference


def call_samples(results) -> dict:
    samples: dict = {}
    for r in results:
        for label, seconds in r.calls.items():
            samples.setdefault(label, []).append(seconds)
    return samples


def wall_of(results) -> float:
    """Wall time of one pass: the calls' total time over the run divided by
    the number of passes."""
    return sum(sum(r.calls.values()) for r in results) / len(results)


def import_seconds() -> list[float]:
    """Wall time of fresh interpreters that start, ``import rategame`` and
    exit, one per repeat. A process imports the package once, and one
    sample is too noisy to bound, so the import is timed in children."""
    import resource

    def limit_cpu():  # a child that spins is killed instead of hanging the run
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    code = "import sys; sys.path.insert(0, sys.argv[1]); import rategame"
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code, SRC], preexec_fn=limit_cpu)
        # a blocking wait: with a timeout, Popen.wait polls in steps of up
        # to 50 ms, and the time read after it would be rounded up to them
        rc = child.wait()
        times.append(time.perf_counter() - t)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, child.args)
    return times


def peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rategame", "__init__.py")) \
            or not os.path.isfile(CONFIG):
        print(f"perfbench: no rategame source checkout at {ROOT} "
              "(need src/rategame and configs/base_case.cfg)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Checks, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup = WORKLOADS[args.workload]
    os.makedirs(RUNS_DIR, exist_ok=True)
    outdir = os.path.join(RUNS_DIR, f"out-{os.getpid()}")
    checks = Checks()
    tracer = Tracer()
    ctx = Context(CONFIG, args.seed, outdir,
                  span=tracer.span if args.trace else lambda name, **attrs: nullcontext())
    try:
        if args.trace:
            metrics, extra, inputs = traced_run(args, ctx, setup, checks, tracer)
            units = dict(layers.PER_LAYER)
        else:
            metrics, extra, inputs = untraced_run(args, ctx, setup, checks)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    fail_ratio = checks.failed / checks.attempted
    print(f"fail_ratio {fail_ratio:.6g} failed/attempted ({checks.failed}/{checks.attempted})")
    for what in checks.failures:
        print(f"FAILED: {what}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    rec = record.run_record(ROOT, args, inputs.config, traced=bool(args.trace))
    print("record " + json.dumps(rec, sort_keys=True))
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record.write(RUNS_DIR, rec, result, extra, tracer.to_json() if args.trace else None)
    print(json.dumps(result))
    return 0


def untraced_run(args, ctx, setup, checks):
    """Set-up repeated, then passes back to back: the end-to-end metrics."""
    import_times = import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # so that peak_rss_mb never holds two sets of inputs
        t = time.perf_counter()
        inputs = setup(ctx)
        setup_times.append(time.perf_counter() - t)
    inputs.setup_checks(checks)
    results, reference = measure(lambda: inputs.run_pass(checks), args.seconds)
    work = [r.work for r in results]
    checks.check(len(set(work)) == 1, f"work per pass differs: {sorted(set(work))}")
    wall = wall_of(results)
    ref = statistics.mean(reference)
    metrics = {
        "wall_ref": wall / ref,
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "events_per_ref": work[0] * ref / wall if wall else 0.0,  # 0 only if every call failed
        "peak_rss_mb": peak_rss_mib(),
    }
    samples = call_samples(results)
    print(f"passes {len(results)}, work per pass {work[0]}, set-up repeats {SETUP_REPEATS}, "
          f"import median {statistics.median(import_times):.4f} s of {len(import_times)}")
    q1, q3 = quartiles(reference)
    print(f"wall_s {wall!r} s (mean pass); "
          f"events_per_s {work[0] / wall if wall else 0.0!r} events/s")
    print(f"reference: mean {ref:.5f} s, quartiles {q1:.5f}-{q3:.5f} s, n={len(reference)}")
    for label, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"  call {label!r}: median {statistics.median(values):.4f} s, "
              f"quartiles {q1:.4f}-{q3:.4f} s, n={len(values)}")
    return metrics, {"calls_s": samples, "work_per_pass": work, "import_s": import_times,
                     "setup_repeat_s": setup_times, "reference_s": reference,
                     "wall_s": wall}, inputs


def traced_run(args, ctx, setup, checks, tracer):
    """Untraced and traced passes alternate, so both see the same machine
    state; the traced set-up and zero-horizon runs come before and after."""
    setup_root = len(tracer.spans)
    with patched(layers.TARGETS, tracer.wrap), tracer.span("bench.setup"):
        inputs = setup(ctx)
    inputs.setup_checks(checks)

    untraced, traced, pass_roots = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(inputs.run_pass(checks))
        with patched(layers.TARGETS, tracer.wrap):
            pass_roots.append(len(tracer.spans))
            with tracer.span("bench.pass"):
                traced.append(inputs.run_pass(checks))

    fixed_roots = []
    with patched(layers.TARGETS, tracer.wrap):
        for policy, n in inputs.zero_horizon_runs:
            fixed_roots.append(len(tracer.spans))
            with tracer.span("bench.fixed", policy=policy, n=n):
                inputs.simulate(policy, n, 1e-9, 0.0)

    for seen, expected in layers.phi_bookkeeping(tracer):
        checks.check(seen == expected, f"Phi evaluations {seen} != 64 + iterations + 1 "
                                       f"= {expected}")
    metrics = layers.derive(tracer, setup_root, pass_roots, fixed_roots)
    metrics["trace.untraced_wall_s"] = wall_of(untraced)
    metrics["trace.traced_wall_s"] = wall_of(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    print(f"traced passes {len(traced)}: overhead {metrics['trace.overhead_s']:+.4f} s on an "
          f"untraced pass of {metrics['trace.untraced_wall_s']:.4f} s")
    return metrics, {"untraced_calls_s": call_samples(untraced),
                     "traced_calls_s": call_samples(traced)}, inputs


if __name__ == "__main__":
    sys.exit(main())
