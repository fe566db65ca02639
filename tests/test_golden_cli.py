"""Golden CLI outputs: every report on the 12-graph suite and on four
golden-only graphs, byte for byte.

``tests/data/golden_cli.jsonl`` holds one JSON object per line: the argv of
one ``gogz`` call, its exit code and its exact stdout.  The calls are
``check`` (json and text) and ``paths --kind complete|nonmaximal`` on each
``conftest.SUITE_TEXTS`` graph, plus ``conj --oracle-bounds 2,3`` for every
pair of ``test_acceptance._ORACLE_PAIRS`` and of ``_POOL_PAIRS``, then the
same ``check`` and ``paths`` calls on ``contracts``, ``level_first``,
``long_full`` and ``roots_disagree`` (``_GOLDEN_ONLY_TEXTS``).  After those
come the text reports of the other commands on every graph: ``paths --kind
complete|nonmaximal``, ``conj`` on each pair with and without
``--oracle-bounds 2,3``, and ``oracle`` (json and text) on the relations of
``_ORACLE_RELATIONS``.  All calls pass ``--no-timing``.  Graph files are written as ``<name>.gog`` in a
fresh directory and named relatively, so ``input.path`` does not depend on
where the suite runs.

Regenerate (only when a report is meant to change, and say so in the
change log)::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys

from conftest import SUITE_TEXTS
from test_acceptance import _ORACLE_PAIRS

from gogz.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_cli.jsonl"

# Every oracle hit on the acceptance pairs has the empty conjugator.  On these
# the first hit is a vertex word, so the printed hit pins how the brute-force
# pool encodes words and that it tries shorter words first.
_POOL_PAIRS = {
    "comm_square": [("0:a", "0:b a b^-1")],
    "ab_square": [("0:q", "0:p^-1 q p")],
}

# Reports the suite never prints, kept out of SUITE_TEXTS so that the
# acceptance checks stay as they are: a contraction (``reduction.contractions``),
# a non-level witness when the shortest closed chain is level, a full
# non-maximal path of three steps, and two edge roots that disagree at a vertex
# (the evidence of ``edge_roots_disagree``).
_GOLDEN_ONLY_TEXTS = {
    "contracts": (
        "vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\n"
        'edge 0 0 1 minus="a b" plus="x"'
    ),
    "level_first": (
        "vertex 0 rank=1 gens=a\n"
        'edge 0 0 0 minus="a" plus="a"\nedge 1 0 0 minus="a" plus="a^2"'
    ),
    "long_full": (
        "vertex 0 rank=2 gens=a0,b0\nvertex 1 rank=2 gens=a1,b1\n"
        "vertex 2 rank=2 gens=a2,b2\nvertex 3 rank=2 gens=a3,b3\n"
        'edge 0 0 1 minus="a0^2" plus="a1"\nedge 1 1 2 minus="a1" plus="a2"\n'
        'edge 2 2 3 minus="a2" plus="a3^2"'
    ),
    "roots_disagree": (
        "vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\n"
        'edge 0 0 1 minus="a" plus="x^2"\nedge 1 0 1 minus="b" plus="x^3"'
    ),
}


# Relations for ``oracle``: one that holds and one that fails on each graph.
_ORACLE_RELATIONS = {
    "bs_2_3": ["t a^2 t^-1 = a^3", "t a^3 t^-1 = a^2"],
    "trefoil": ["t a^2 t^-1 = b^3", "a = b"],
    "comm_square": ["t_0 a b a^-1 b^-1 t_0^-1 = x^2", "a b = b a"],
}


def _pairs(name):
    return _ORACLE_PAIRS.get(name, []) + _POOL_PAIRS.get(name, [])


def _report_argvs(path):
    yield ["check", path, "--no-timing"]
    yield ["check", path, "--no-timing", "--format", "text"]
    yield ["paths", path, "--kind", "complete", "--no-timing"]
    yield ["paths", path, "--kind", "nonmaximal", "--no-timing"]


def golden_argvs():
    for name in SUITE_TEXTS:
        path = f"{name}.gog"
        yield from _report_argvs(path)
        for x, y in _pairs(name):
            yield ["conj", path, "--from", x, "--to", y, "--oracle-bounds", "2,3", "--no-timing"]
    for name in _GOLDEN_ONLY_TEXTS:
        yield from _report_argvs(f"{name}.gog")
    text = ["--no-timing", "--format", "text"]
    for name in {**SUITE_TEXTS, **_GOLDEN_ONLY_TEXTS}:
        path = f"{name}.gog"
        for kind in ("complete", "nonmaximal"):
            yield ["paths", path, "--kind", kind, *text]
        for x, y in _pairs(name):
            yield ["conj", path, "--from", x, "--to", y, *text]
            yield ["conj", path, "--from", x, "--to", y, "--oracle-bounds", "2,3", *text]
        for relation in _ORACLE_RELATIONS.get(name, []):
            yield ["oracle", path, "--relation", relation, "--no-timing"]
            yield ["oracle", path, "--relation", relation, *text]


def _write_suite(directory: pathlib.Path) -> None:
    for name, text in {**SUITE_TEXTS, **_GOLDEN_ONLY_TEXTS}.items():
        (directory / f"{name}.gog").write_text(text + "\n")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    _write_suite(tmp_path)
    monkeypatch.chdir(tmp_path)
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [r["argv"] for r in records] == list(golden_argvs())
    for record in records:
        code, out = _run(record["argv"])
        assert (code, out) == (record["exit"], record["stdout"]), record["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write_suite(pathlib.Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            lines = []
            for argv in golden_argvs():
                code, out = _run(argv)
                lines.append(json.dumps({"argv": argv, "exit": code, "stdout": out}))
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN}", file=sys.stderr)
