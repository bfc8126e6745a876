"""Rebuild strata.json: each workload's corpus sorted by instance time.

    python3 perfbench/make_strata.py WORKLOAD [WORKLOAD ...]

Runs the corpus untraced twice, takes each instance's fastest time
scaled to the reference host speed (see run.run_instances), and stores
the corpus indices in order of that time.  The strata only shape
how runs draw the corpus (see workloads.schedule); they are not compared
with anything, so they need rebuilding only when a workload's inputs
change.
"""

import argparse
import json
import math
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args(argv)
    run.import_program()
    import workloads
    try:
        table = json.loads(workloads.STRATA_FILE.read_text())
    except FileNotFoundError:
        table = {}
    for name in args.workloads:
        corpus = [workloads.make_instance(name, i)
                  for i in range(workloads.WORKLOADS[name].corpus)]
        best = [math.inf] * len(corpus)
        for _ in range(2):
            times, scales, failures, _ = run.run_instances(workloads, corpus)
            if failures:
                sys.exit(f"{name}: {failures[0]}")
            best = [min(b, t * k) for b, t, k in zip(best, times, scales)]
        table[name] = sorted(range(len(corpus)), key=best.__getitem__)
        print(f"{name}: {len(corpus)} instances, {sum(best):.1f} s scaled; "
              f"times {json.dumps([round(t, 4) for t in best])}",
              file=sys.stderr)
    workloads.STRATA_FILE.write_text(
        json.dumps(table, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
