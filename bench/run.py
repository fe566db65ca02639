"""Benchmark of the ``gogz`` command line on generated graph files.

Usage, from the root of a checkout::

    python3 bench/run.py --workload check-small --seed 1 --seconds 24 --trace 0

A run starts ``WORKERS`` fresh interpreters one after another (see
``worker.py``); each sets up its own seeded pool of graph files and then
calls ``gogz.cli.main`` in a closed loop for an equal share of
``--seconds``.  Every answer is checked against the fact the generator
planted (``workloads.py``); a wrong answer is a failed op.

Times are put at reference speed.  On a machine shared with other jobs
the core's speed drifts by tens of percent over seconds to minutes.  Each
worker therefore times a fixed piece of pure-Python work that does not use
``gogz`` (``worker.reference_kernel``) every ``worker.REFERENCE_EVERY_S``
seconds, and each op time is multiplied by ``speed_factor`` of the median
of the nearest samples: ``(REFERENCE_S / sample) ** REFERENCE_EXPONENT``.
The exponent is below 1 because the kernel's time swings more than the
program's under the same drift: on a 2-core Xeon VM, regressing the
program's time on the kernel's over 3-second windows gave slopes of 0.6 to
0.8, and across ten-run sets an exponent of 0.5 to 0.6 gave the steadiest
figures.  The factor does not depend on ``gogz``, so any change in
``gogz`` itself shows in full.  ``setup_s`` and per-layer times are scaled
by the worker's median sample; the unscaled end-to-end figures are kept in
the ``bench-info`` line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``ops_per_s`` is the median over the workers of the ops
each completed divided by the time they took; ``op_p50_ms`` and
``op_p90_ms`` are quantiles of all op times of the run.  The line before
the result starts with ``bench-info`` and gives the sample count of each
metric, the seed and the machine.  The same record is written to
``.bench_out/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKERS = 5
WORKER_GRACE_S = 120
REFERENCE_S = 0.001
REFERENCE_EXPONENT = 0.6
UNITS = {"calls": "calls/op", "yielded": "paths/op", "s": "s/op", "self_s": "s/op"}


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def machine_info(seed: int) -> dict:
    """What a result must carry to be compared with another."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gogz").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _commit() -> str:
    """HEAD of the checkout's own ``.git``, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run_workers(workload: str, seed: int, seconds: float, trace: int) -> list:
    """Run the workers in turn; each result gains its ``setup_s``."""
    OUT.mkdir(exist_ok=True)
    # A fixed hash seed keeps set and dict order, and so each op's work, the
    # same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    budget = seconds / WORKERS
    results = []
    for worker in range(WORKERS):
        argv = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--worker", str(worker),
            "--budget", repr(budget), "--trace", str(trace), "--out", str(OUT),
        ]  # fmt: skip
        spawned = time.monotonic()
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget + WORKER_GRACE_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {worker} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_op"] - spawned
        results.append(result)
    return results


def speed_factor(reference_s: float) -> float:
    """What a time measured while the reference kernel took ``reference_s`` is multiplied by."""
    return (REFERENCE_S / reference_s) ** REFERENCE_EXPONENT


def end_to_end(results: list, scaled: bool = True) -> dict:
    """Metric name -> (value, unit, samples); ``scaled`` puts times at reference speed."""
    per_worker = [
        [t * speed_factor(ref) if scaled else t for t, ref in zip(r["times"], r["reference_s"])] for r in results
    ]
    times = [t for worker_times in per_worker for t in worker_times]
    setups = [r["setup_s"] * speed_factor(r["reference_median_s"]) if scaled else r["setup_s"] for r in results]
    return {
        "setup_s": (statistics.median(setups), "s", len(results)),
        "ops_per_s": (statistics.median(len(ts) / sum(ts) for ts in per_worker), "ops/s", len(times)),
        "op_p50_ms": (1000 * _quantile(times, 0.5), "ms", len(times)),
        "op_p90_ms": (1000 * _quantile(times, 0.9), "ms", len(times)),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024, "MiB", len(results)),
    }


def per_layer(results: list) -> dict:
    """Metric name -> (value, unit, samples), per traced op, at reference speed."""
    totals = spans.merge_totals(
        [r["layers"] for r in results], [speed_factor(r["reference_median_s"]) for r in results]
    )
    names = totals["names"]
    traced = [t for r in results for t in r["traced_times"]]
    untraced = [t for r in results for t in r["times"]]
    ops = len(traced)

    def row(name: str) -> dict:
        return names.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "yielded": 0})

    metrics = {}

    def put(metric: str, value: float, unit: str) -> None:
        metrics[metric] = (value, unit, ops)

    for name, field in (
        ("cli.main", "self_s"),
        ("graphs.parse_graph", "s"),
        ("graphs.reduce_graph", "calls"),
        ("graphs.reduce_graph", "s"),
        ("words.root", "calls"),
        ("words.root", "s"),
        ("words.cyclic_meet", "calls"),
        ("words.cyclic_meet", "self_s"),
        ("paths.enumerate_complete_paths", "calls"),
        ("paths.enumerate_complete_paths", "self_s"),
        ("paths.enumerate_full_nonmaximal_paths", "self_s"),
        ("paths.check_conjugacy_path", "calls"),
        ("paths.iter_conjugacy_paths", "yielded"),
        ("paths.iter_conjugacy_paths", "self_s"),
        ("engine.power", "calls"),
        ("engine.power", "self_s"),
        ("engine.mul", "self_s"),
        ("verdicts.is_balanced", "s"),
        ("verdicts.is_word_hyperbolic", "s"),
        ("verdicts.is_acyl_hyperbolic", "s"),
        ("verdicts.trichotomy", "s"),
        ("verdicts.power_conjugate", "s"),
        ("verdicts.analyze", "self_s"),
    ):
        put(f"{name}.{field}", row(name)[field] / ops, UNITS[field])
    put("engine.builds", row("engine.build")["calls"] / ops, "calls/op")
    put("engine.build_s", row("engine.build")["s"] / ops, "s/op")
    put("paths.complete_chains", totals["complete_chains"] / ops, "chains/op")
    checks = totals["complete_checks"]
    put("paths.complete_yield", totals["complete_chains"] / checks if checks else 0.0, "1")
    put("engine.power.max_exponent_bits", totals["max_power_bits"], "bits")

    self_total = sum(r["self_s"] for r in names.values())
    for layer in spans.LAYERS:
        share = sum(r["self_s"] for n, r in names.items() if spans.layer_of(n) == layer)
        put(f"{layer}.self_share", share / self_total if self_total else 0.0, "1")
    put("tracing_overhead", 1 - sum(untraced) / sum(traced), "1")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result line, info) of one run."""
    results = run_workers(workload, seed, seconds, trace)
    metrics = per_layer(results) if trace else end_to_end(results)
    attempted = sum(len(r["times"]) + len(r["traced_times"]) for r in results)
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    info = dict(
        machine_info(seed),
        workload=workload,
        seconds=seconds,
        trace=trace,
        workers=WORKERS,
        samples={name: samples for name, (_, _, samples) in metrics.items()},
        failed_ratio=failed / attempted,
        failures=[f for r in results for f in r["failures"]][:10],
        warnings=sum(r["warnings"] for r in results),
    )
    if trace:
        info["spans_dropped"] = sum(r["layers"]["spans_dropped"] for r in results)
    else:
        info["unscaled"] = {name: value for name, (value, _, _) in end_to_end(results, scaled=False).items()}
    return line, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gogz" / "cli.py").is_file():
        print(f"error: no gogz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        line, info = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = dict(info, result=line)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print("bench-info " + json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
