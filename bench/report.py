"""Print every metric of the benchmark, by name, for some of its workloads.

Usage, from the root of a checkout::

    python3 bench/report.py [--workloads check-small,conj-ladder] [--seed 1] [--seconds 24]

For each workload this makes one untraced and one traced run (see
``run.py``) and prints each end-to-end and per-layer metric with its unit,
its sample count and, for a per-layer metric, the end-to-end metrics it
should move (``layers.json``).  It exits 1 if any op failed its check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.FAMILIES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    chosen = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(chosen) - set(workloads.FAMILIES))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    moves = json.loads((run.BENCH / "layers.json").read_text())["moves"]

    failed = 0
    for workload in chosen:
        for trace in (0, 1):
            line, info = run.run_workload(workload, args.seed, args.seconds, trace)
            failed += line["failed"]
            if trace == 0:
                print(f"== {workload}  seed={info['seed']} commit={info['commit'][:12]} python={info['python']} "
                      f"nproc={info['nproc']} cpu={info['cpu']!r}")
            print(f"-- {'per-layer (traced)' if trace else 'end-to-end'}: attempted={line['attempted']} "
                  f"failed={line['failed']} failed_ratio={info['failed_ratio']:.4g}")
            for failure in info["failures"]:
                print(f"   failure: {failure}")
            for name, metric in line["metrics"].items():
                where = ", ".join(f"{m}@{w}" for m, w in moves.get(name, []))
                print(f"   {name:46s} {metric['value']:14.6g} {metric['unit']:9s} n={info['samples'][name]:<6d} {where}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
