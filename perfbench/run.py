"""The outerspace benchmark: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload geodesic --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the program is imported from its src/.

Workloads (see workloads.py):
  geodesic    rank-4/5 standard geodesics with exact fold additivity at
              every event, illegal-turn statistics and projection;
  simplicity  rank-3 Whitehead simplicity of planted and random words;
  qg-window   rank-3 factor balls and quasi-geodesic certificates over the
              first fold events of each path.

With --trace 0 the benchmark sets up (import, the run's fixed instance
set from the seed, warm-up), runs that set untraced, again while
--seconds leave room for it, scales the times to a fixed host speed
(see bench_untraced), and reports the end-to-end metrics:
throughput_ips (instances completed per second of instance time),
latency_p50_s, latency_tail_s (the fixed quantile TAIL_Q, printed with
the sample count), setup_s and peak_rss_mb.  fail_ratio is printed, and
carried by "failed" and "attempted" in the result line.

With --trace 1 it runs the workload's fixed traced set (the first
TRACE_SIZE instances of the seed's set; --seconds does not apply) three
times: once untraced, then twice with every layer wrapped (see
tracer.py).  It reports the per-layer metrics of the first traced pass,
unscaled, and the tracing overhead, checks that the exact work counts of
the two traced passes agree, and writes the spans to .perfbench_out/.

Every instance is checked exactly (rational equality, known verdicts,
certificates); an exception is caught inside its instance, recorded by
type and counted as a failure.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# latency_tail_s is this fixed quantile, so that runs with more passes
# over the set (a faster program) report the same statistic; one pass
# over the smallest set, 60 instances, leaves ten beyond it.
TAIL_Q = Fraction(5, 6)
TAIL_BEYOND = 10
TRACE_SIZE = 15         # instances in the fixed set of a traced run
# The reference loop, and its time at the fastest speed seen on the
# 2-core Xeon host the strata were made on; times are scaled to that speed.
REF_LOOPS = 200_000
REF_S = 0.012


def import_program():
    """Put the checkout's src/ first on sys.path and import outerspace."""
    package = SRC / "outerspace"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import outerspace
    if Path(outerspace.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported outerspace from "
                         f"{outerspace.__file__}, not from {package}")
    return outerspace


def set_up(workloads, name, seed):
    """Build the seed's instance set, warm up; return (set, seconds)."""
    t0 = time.perf_counter()
    instances = [workloads.make_instance(name, i)
                 for i in workloads.schedule(name, seed)]
    workloads.execute(workloads.make_instance(
        name, workloads.strata_order(name)[0]))
    return instances, time.perf_counter() - t0


def reference_s():
    """Time a fixed integer loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def host_scale(ref_before, ref_after):
    """Factor that scales a time taken between two reference-loop timings
    to the host speed at which the loop takes REF_S."""
    return 2 * REF_S / (ref_before + ref_after)


def run_instances(workloads, instances, tracer=None):
    """Run each instance once, timing the reference loop before the first
    instance and after each one.

    Returns (per-instance times, per-instance host-speed scale factors,
    failures, exception types); an instance's scale factor is REF_S over
    the mean of the reference times just before and after it.
    """
    times, refs, failures, errors = [], [reference_s()], [], Counter()
    for inst in instances:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                failure = workloads.execute(inst)
            else:
                with tracer.root("instance", workload=inst.workload,
                                 index=inst.index, kind=inst.kind):
                    failure = workloads.execute(inst)
        except Exception as exc:
            errors[type(exc).__name__] += 1
            failure = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        refs.append(reference_s())
        if failure is not None:
            failures.append(f"{inst.workload} #{inst.index} ({inst.kind}): "
                            f"{failure}")
    scales = [host_scale(a, b) for a, b in zip(refs, refs[1:])]
    return times, scales, failures, errors


def end_to_end(times, failures, setup_s):
    """End-to-end metrics {name: (value, unit)}."""
    ordered = sorted(times)
    n = len(ordered)
    metrics = {
        "throughput_ips": ((n - len(failures)) / sum(times), "1/s"),
        "latency_p50_s": (statistics.median(ordered), "s"),
        "latency_tail_s": (ordered[math.ceil(n * TAIL_Q) - 1], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics


def report(correct, attempted, failures, errors, metrics):
    for line in failures[:20]:
        print(f"FAIL {line}")
    if errors:
        print("exceptions by type: " + json.dumps(dict(errors)))
    print(f"fail_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} instances)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def bench_untraced(workloads, name, seed, seconds, import_s):
    """Time the seed's instance set for about ``seconds``.

    The set runs once, and again while another pass should end within
    ``seconds``; the times of all passes are pooled, so a faster program
    is measured on the same instances, only more often.  On a shared
    host the speed changes by up to 2x within seconds and can stay
    changed for minutes, so every time is scaled to the host speed at
    which the reference loop takes REF_S (see run_instances).
    Set-up runs SETUP_REPEATS times, scaled the same way; setup_s is the
    median plus the import time, also scaled (see main).
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        instances, took = set_up(workloads, name, seed)
        setups.append(took * host_scale(before, reference_s()))
    passes, times, speeds, failures, errors = 0, [], [], [], Counter()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + elapsed / passes / 2 > seconds:
            break
        t, k, f, e = run_instances(workloads, instances)
        passes += 1
        times += [a * b for a, b in zip(t, k)]
        speeds += k
        failures += f
        errors += e
    metrics = end_to_end(times, failures, import_s + statistics.median(setups))
    n = len(times)
    beyond = n - math.ceil(n * TAIL_Q)
    print(f"workload {name} seed {seed}: {passes} pass(es) over "
          f"{len(instances)} instances, {n} times; "
          f"latency_tail_s is p{float(100 * TAIL_Q):.1f} of {n} instances, "
          f"{beyond} beyond it"
          + ("" if beyond >= TAIL_BEYOND else f" (fewer than {TAIL_BEYOND})"))
    print(f"times scaled to host speed: median scale factor "
          f"{statistics.median(speeds):.3f} (reference loop "
          f"{REF_S * 1000:g} ms at scale 1)")
    report(not failures, n, failures, errors, metrics)


def bench_traced(workloads, name, seed):
    """Per-layer metrics of the fixed traced set; see the module docstring."""
    from tracer import EXACT_COUNTS, Tracer
    instances, _ = set_up(workloads, name, seed)
    fixed = instances[:TRACE_SIZE]
    t0 = time.perf_counter()
    times, _, failures, errors = run_instances(workloads, fixed)
    untraced_s = time.perf_counter() - t0
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            t, _, f, e = run_instances(workloads, fixed, tracer)
            wall = time.perf_counter() - t0
        finally:
            tracer.remove()
        times += t
        failures += f
        errors += e
        passes.append((tracer, wall, t0))
    (first, traced_s, origin), (second, _, _) = passes
    metrics = first.metrics(traced_s)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    again = second.metrics(traced_s)
    drift = {c: (metrics[c][0], again[c][0]) for c in EXACT_COUNTS
             if metrics[c][0] != again[c][0]}
    for c, (a, b) in drift.items():
        print(f"FAIL count {c} differs between traced passes: {a} != {b}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
    first.write_spans(spans, origin)
    print(f"workload {name} seed {seed}: traced set of {len(fixed)} "
          f"instances; spans in {spans.relative_to(ROOT)}")
    for metric, kinds in first.error_types().items():
        print(f"errors in {metric}: {json.dumps(kinds)}")
    report(not failures and not drift, len(times), failures, errors, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The import is most of a small workload's set-up, and it can run only
    # once per process, so it is scaled to the host speed on its own.
    before = reference_s()
    t0 = time.perf_counter()
    import_program()
    import workloads
    import_s = (time.perf_counter() - t0) * host_scale(before, reference_s())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.trace:
        bench_traced(workloads, args.workload, args.seed)
    else:
        bench_untraced(workloads, args.workload, args.seed, args.seconds,
                       import_s)


if __name__ == "__main__":
    main()
