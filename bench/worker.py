"""One worker process of a benchmark run: set up, run ops, report as JSON.

A worker is a fresh interpreter, so it starts with the cold caches a user
of ``gogz`` starts with.  It imports ``gogz`` from the checkout, writes its
pool of graph files, then calls ``gogz.cli.main`` in a closed loop (one
caller, no threads) until its time budget is spent.  Before every op it
clears each ``functools`` cache in the ``gogz`` modules, because each
``gogz`` command is a process of its own.  Between ops, every
``REFERENCE_EVERY_S`` seconds, it times ``reference_kernel``; ``run.py``
scales the op times by those samples.

With ``--trace 1`` every op runs twice, once with the layer wrappers of
`spans.Tracer` installed and once without, in alternating order, so the
two sets of op times give the tracing overhead.

Run by ``run.py``::

    python3 bench/worker.py --workload NAME --seed N --worker K --budget S --trace 0|1 --out DIR
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gogz.cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


REFERENCE_EVERY_S = 0.02
REFERENCE_WINDOW = 15


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no ``gogz``.

    Like the program, the work builds many small tuples, slices them and
    keys a dictionary with them; its time tracks how fast this core runs
    the program's kind of code at the moment.
    """
    start = time.perf_counter()
    table = {}
    for i in range(1000):
        word = tuple(range(i % 7, i % 7 + 5))
        key = word[1:] + word[:1]
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


def local_reference(samples, at):
    """Median of the ``REFERENCE_WINDOW`` reference samples nearest ``at``."""
    lo = max(0, min(at - REFERENCE_WINDOW // 2, len(samples) - REFERENCE_WINDOW))
    return statistics.median(samples[lo : lo + REFERENCE_WINDOW])


def gogz_caches():
    """Every ``functools`` cache held by a ``gogz`` module."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gogz" or name.startswith("gogz.")):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    caches[id(obj)] = obj
    return list(caches.values())


def run_op(argv, caches):
    """One ``gogz`` call: (seconds, exit code, stdout, warnings raised)."""
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = gogz.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed op, not a failed run
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), len(caught)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    inputs = Path(args.out) / f"inputs-{args.workload}-{args.seed}-{args.worker}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    ops = workloads.write_pool(args.workload, args.seed, args.worker, inputs)
    caches = gogz_caches()
    tracer = spans.Tracer() if args.trace else None

    times, traced_times, failures, warned = [], [], [], 0
    references, reference_at, last_reference = [], [], -1.0
    first_op = time.monotonic()
    deadline = first_op + args.budget
    i = 0
    while time.monotonic() < deadline:
        if time.monotonic() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference_kernel())
            last_reference = time.monotonic()
        reference_at.append(len(references) - 1)
        cmd, case, query = ops[i % len(ops)]
        modes = [False] if tracer is None else [bool(i % 2), not i % 2]
        for traced in modes:
            if traced:
                tracer.op = i
                tracer.install()
            try:
                seconds, code, stdout, caught = run_op(cmd, caches)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else times).append(seconds)
            warned += caught
            wrong = workloads.check_output(case, query, code, stdout)
            if wrong is not None:
                failures.append(f"{' '.join(cmd)}: {wrong}")
        i += 1
    shutil.rmtree(inputs, ignore_errors=True)

    scale = [local_reference(references, at) for at in reference_at]
    result = {
        "first_op": first_op,
        "times": times,
        "traced_times": traced_times,
        "reference_s": scale,
        "reference_median_s": statistics.median(references),
        "failed": len(failures),
        "failures": failures[:10],
        "warnings": warned,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        # one file per workload and worker: the latest traced run replaces it
        tracer.write_spans(Path(args.out) / f"spans-{args.workload}-{args.worker}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
