"""Golden CLI outputs: every report on the 12-graph suite, byte for byte.

``tests/data/golden_cli.jsonl`` holds one JSON object per line: the argv of
one ``gogz`` call, its exit code and its exact stdout.  The calls are
``check`` (json and text) and ``paths --kind complete|nonmaximal`` on each
``conftest.SUITE_TEXTS`` graph, plus ``conj --oracle-bounds 2,3`` for every
pair of ``test_acceptance._ORACLE_PAIRS`` and of ``_POOL_PAIRS``, all with
``--no-timing``.  Graph files are written as ``<name>.gog`` in a fresh
directory and named relatively, so ``input.path`` does not depend on where
the suite runs.

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


def golden_argvs():
    for name in SUITE_TEXTS:
        path = f"{name}.gog"
        yield ["check", path, "--no-timing"]
        yield ["check", path, "--no-timing", "--format", "text"]
        yield ["paths", path, "--kind", "complete", "--no-timing"]
        yield ["paths", path, "--kind", "nonmaximal", "--no-timing"]
        for x, y in _ORACLE_PAIRS.get(name, []) + _POOL_PAIRS.get(name, []):
            yield ["conj", path, "--from", x, "--to", y, "--oracle-bounds", "2,3", "--no-timing"]


def _write_suite(directory: pathlib.Path) -> None:
    for name, text in SUITE_TEXTS.items():
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
