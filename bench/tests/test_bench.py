"""Tests of the benchmark itself: inputs, planted answers, spans, metric names.

Run from the root of the repository::

    python3 -m pytest -q bench/tests
"""

import contextlib
import importlib
import io
import json
import random
import sys
import time

import pytest

import gogz.cli
import run
import spans
import workloads
from workloads import Case, EdgeSpec, Query

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((run.BENCH / "layers.json").read_text())


def gogz_json(case: Case, tmp_path, query=None):
    path = tmp_path / "g.gog"
    path.write_text(case.text())
    argv = case.argvs(str(path))[0][0] if query is None else [
        "conj", str(path), "--from", query.source, "--to", query.target
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gogz.cli.main(argv)
    return code, out.getvalue()


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", sorted(workloads.FAMILIES))
def test_same_seed_gives_identical_files(workload, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        workloads.write_pool(workload, seed, 1, directory)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


# ---------------------------------------------------------- planted answers


def loop(base, p, q, vertex=0):
    return EdgeSpec(vertex, vertex, base, p, base, q)


PLANTED = [
    # a tree is balanced
    (workloads._plant([2, 1, 3], [EdgeSpec(0, 1, 2, 2, 0, 3), EdgeSpec(2, 0, 3, -1, 4, 2)], "tree"),
     {"balanced": True}),
    # every edge level: balanced
    (workloads._plant([2, 2], [EdgeSpec(0, 1, 2, 2, 3, -2), loop(0, 3, 3, 1), EdgeSpec(0, 0, 1, 1, 2, -1)], "level"),
     {"balanced": True}),
    # plus one unbalanced loop on a single primitive
    (workloads._plant([2, 2], [EdgeSpec(0, 1, 2, 2, 3, -2), loop(4, 2, -3, 1)], "unbalanced"),
     {"balanced": False, "hyperbolic": False}),
    # a loop on one primitive: not hyperbolic
    (workloads._plant([3], [loop(5, 2, -2)], "loop"), {"balanced": True, "hyperbolic": False}),
    # BS(m, n)
    (workloads._plant([1], [loop(0, 4, -4)], "bs", balanced=True, hyperbolic=False), {"balanced": True}),
    (workloads._plant([1], [loop(0, 2, 5)], "bs", balanced=False, hyperbolic=False),
     {"balanced": False, "hyperbolic": False}),
]


@pytest.mark.parametrize("case, expected", PLANTED, ids=[c.family + str(i) for i, (c, _) in enumerate(PLANTED)])
def test_planted_rules_hold_on_small_instances(case, expected, tmp_path):
    assert case.planted == dict(case.planted, **expected)
    code, stdout = gogz_json(case, tmp_path)
    assert workloads.check_output(case, None, code, stdout) is None
    verdicts = json.loads(stdout)["verdicts"]
    for key, value in expected.items():
        assert verdicts["balanced" if key == "balanced" else "word_hyperbolic"] is value


def test_ring_is_unbalanced(tmp_path):
    case = workloads.exponents_case(random.Random(0), 3)
    assert case.family == "ring-3" and case.planted["balanced"] is False
    code, stdout = gogz_json(case, tmp_path)
    assert workloads.check_output(case, None, code, stdout) is None


def test_ladder_queries_match_the_plant(tmp_path):
    case = workloads.ladder_case(random.Random(0), 0)
    assert [q.exists for q in case.queries] == [True, False] * 3
    for query in case.queries[:4]:
        code, stdout = gogz_json(case, tmp_path, query)
        assert workloads.check_output(case, query, code, stdout) is None


@pytest.mark.filterwarnings("ignore:enumerating closed paths")
@pytest.mark.parametrize("workload", sorted(workloads.FAMILIES))
def test_generated_cases_pass_the_checker(workload, tmp_path):
    ops = workloads.write_pool(workload, 3, 0, tmp_path)
    # the first check-chains case is a loops-5 graph, the slowest kind
    for argv, case, query in ops[:6] if workload != "check-chains" else ops[1:3]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = gogz.cli.main(argv)
        assert workloads.check_output(case, query, code, out.getvalue()) is None, argv


def test_checker_rejects_wrong_answers():
    case = PLANTED[2][0]
    good = {"verdicts": {"balanced": False, "word_hyperbolic": False},
            "witnesses": {"balance": {"verified": True}, "hyperbolicity": {"verified": True}}}
    assert workloads.check_output(case, None, 0, json.dumps(good)) is None
    assert workloads.check_output(case, None, 3, json.dumps(good)) == "exit code 3"
    assert workloads.check_output(case, None, 0, "not json") == "output is not JSON"
    flipped = dict(good, verdicts={"balanced": True, "word_hyperbolic": False})
    assert "planted" in workloads.check_output(case, None, 0, json.dumps(flipped))
    unverified = dict(good, witnesses={"balance": {}, "hyperbolicity": {"verified": True}})
    assert "not verified" in workloads.check_output(case, None, 0, json.dumps(unverified))
    free = Case("free", (2,), (), {})
    cross = {"verdicts": {"balanced": False, "word_hyperbolic": True}, "witnesses": {"balance": {"verified": True}}}
    assert workloads.check_output(free, None, 0, json.dumps(cross)) == "unbalanced but reported hyperbolic"
    query = Query("0:a0", "1:b1", False)
    assert "planted" in workloads.check_output(case, query, 0, json.dumps({"answer": {"exists": True}}))


# -------------------------------------------------------------------- spans


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@contextlib.contextmanager
def span(tracer, name):
    frame = tracer.begin(tracer.name_id(name))
    try:
        yield
    finally:
        tracer.end(frame)


def test_self_times_add_up_to_the_outer_span():
    tracer = spans.Tracer()
    with span(tracer, "cli.main"):
        busy(0.002)
        with span(tracer, "verdicts.analyze"):
            busy(0.002)
            with span(tracer, "paths.enumerate_complete_paths"):
                busy(0.003)
        with span(tracer, "engine.power"):
            busy(0.001)
    totals = tracer.totals()["names"]
    outer_nid, outer_start, outer_end, parent, _ = tracer.spans[0]
    assert parent == -1
    outer = outer_end - outer_start
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(outer, rel=1e-9)
    assert totals["cli.main"]["s"] == pytest.approx(outer, rel=1e-9)
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    assert totals["paths.enumerate_complete_paths"]["self_s"] >= 0.003


def test_uninstall_restores_module_bindings():
    modules = {name: m for name, m in sys.modules.items() if name == "gogz" or name.startswith("gogz.")}
    for layer in spans.LAYERS:
        importlib.import_module(f"gogz.{layer}")
        modules[f"gogz.{layer}"] = sys.modules[f"gogz.{layer}"]
    engine_class = sys.modules["gogz.engine"].Engine
    before = {name: dict(vars(m)) for name, m in modules.items()}
    before_engine = dict(vars(engine_class))

    tracer = spans.Tracer()
    tracer.install()
    try:
        paths, verdicts = modules["gogz.paths"], modules["gogz.verdicts"]
        original = before["gogz.paths"]["enumerate_complete_paths"]
        assert paths.enumerate_complete_paths is not original
        assert verdicts.enumerate_complete_paths is paths.enumerate_complete_paths
        assert modules["gogz.cli"].main is not before["gogz.cli"]["main"]
        assert engine_class.power is not before_engine["power"]
    finally:
        tracer.uninstall()

    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys(), name
        assert all(after[k] is before[name][k] for k in after), name
    assert all(vars(engine_class)[k] is v for k, v in before_engine.items())


def test_traced_conj_counts_generator_steps(tmp_path):
    case = workloads.ladder_case(random.Random(0), 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, stdout = gogz_json(case, tmp_path, case.queries[0])
    finally:
        tracer.uninstall()
    assert workloads.check_output(case, case.queries[0], code, stdout) is None
    totals = tracer.totals()["names"]
    assert totals["cli.main"]["calls"] == 1
    assert totals["paths.iter_conjugacy_paths"]["yielded"] >= 1
    assert totals["verdicts.power_conjugate"]["calls"] == 1
    roots = [span for span in tracer.spans if span[3] == -1]
    assert [tracer.names[span[0]] for span in roots] == ["cli.main"]


# ------------------------------------------------------------ metric names


def fake_results():
    layers = spans.Tracer()
    with span(layers, "cli.main"):
        pass
    return [{"times": [0.01, 0.02], "traced_times": [0.011, 0.021], "setup_s": 0.1,
             "maxrss_kb": 20000, "failed": 0, "layers": layers.totals(),
             "reference_s": [0.001, 0.002], "reference_median_s": 0.0015}]


def test_metric_names_match_benchmark_json():
    results = fake_results()
    assert list(run.end_to_end(results)) == [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = run.per_layer(results)
    assert sorted(per_layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert sorted(LAYER_MAP["moves"]) == sorted(per_layer)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, (_, unit, _) in {**run.end_to_end(results), **per_layer}.items():
        assert units[name] == unit, name
    workload_names = {w["name"] for w in BENCHMARK["workloads"]}
    assert workload_names == set(workloads.FAMILIES)
    for pairs in LAYER_MAP["moves"].values():
        assert all(w in workload_names and m in units for m, w in pairs)
