"""Every relation a report prints holds when it is read back.

For each JSON ``check``, ``conj`` and ``paths`` call of
``tests/data/golden_cli.jsonl``, the report is printed afresh, each relation
it states is spelled in the ``--relation`` grammar, and ``gogz oracle``
must answer ``"holds": true``.  Chain witnesses and listed chains read as
``C B^m = B^n C`` (a full path as ``C S^m = E^n C``, from its start word to
its end word), each ``conj`` answer, additional relation and oracle hit as
``C X^m = Y^n C``, and the central element Z as ``Z = g^x`` against each
vertex generator g and its exponent x.  Powers are spelled in the file
grammar: ``a^k`` for a one-token word, the word's tokens repeated
otherwise.

The golden file pins these reports byte for byte; this test does not
compare bytes, so it still catches a printed conjugator that does not
conjugate (a dropped sign, a reversed product) when the golden replay is
left out.  Every golden conjugator still conjugates when its factors are
reversed, so one more report is read: ``check`` on two loops that carry
``a`` to ``b`` and ``b`` to ``a^2``, whose witness ``t_1 t_0`` conjugates
``a`` to ``a^2`` and ``t_0 t_1`` does not.
"""

import contextlib
import io
import json

from test_golden_cli import GOLDEN, _write_suite

from gogz.cli import main
from gogz.graphs import parse_graph

_TWO_LOOPS = 'vertex 0 rank=2 gens=a,b\nedge 0 0 0 minus="a" plus="b"\nedge 1 0 0 minus="b" plus="a^2"\n'


def _inverse(tokens):
    out = []
    for token in reversed(tokens):
        name, caret, exp = token.partition("^")
        out.append(f"{name}^{-int(exp) if caret else -1}")
    return out


def _power(word: str, k: int) -> str:
    """``word^k`` spelled in the file grammar."""
    tokens = word.split()
    if len(tokens) == 1:
        name, caret, exp = tokens[0].partition("^")
        return f"{name}^{(int(exp) if caret else 1) * k}"
    if k < 0:
        tokens, k = _inverse(tokens), -k
    return " ".join(tokens * k)


def _conjugation(conjugator: str, x: str, m: int, y: str, n: int) -> str:
    return f"{conjugator} {_power(x, m)} = {_power(y, n)} {conjugator}"


def _chain(entry: dict) -> str:
    start, end = (entry["base_word"],) * 2 if entry["kind"] == "complete" else (entry["start"], entry["end"])
    m, n = entry["relation"]["exponents"]
    return _conjugation(entry["relation"]["conjugator"], start, m, end, n)


def _relations(argv, doc, graph):
    """(what, relation) for every relation the report ``doc`` prints."""
    if argv[0] == "paths":
        for i, entry in enumerate(doc["paths"]):
            yield f"paths[{i}]", _chain(entry)
    elif argv[0] == "check":
        witnesses = doc["witnesses"]
        for kind in ("balance", "hyperbolicity"):
            if kind in witnesses:
                yield kind, _chain(witnesses[kind])
        central = witnesses.get("trichotomy", {}).get("central_element")
        for v, x in witnesses.get("trichotomy", {}).get("vertex_exponents", {}).items():
            yield f"central at {v}", f"{central} = {graph.vertices[int(v)].alphabet.names[0]}^{x}"
    else:
        x, y = doc["from"]["word"], doc["to"]["word"]
        answers = [doc["answer"]] if doc["answer"]["exists"] else []
        answers += doc.get("additional_relations", [])
        if doc["oracle"]["hit"] is not None:
            answers.append(doc["oracle"]["hit"])
        for i, answer in enumerate(answers):
            m, n = answer["exponents"]
            yield f"conj[{i}]", _conjugation(answer["conjugator"], x, m, y, n)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_printed_relations_hold_when_read_back(tmp_path, monkeypatch):
    _write_suite(tmp_path)
    (tmp_path / "two_loops.gog").write_text(_TWO_LOOPS)
    monkeypatch.chdir(tmp_path)
    kinds = []
    argvs = [json.loads(line)["argv"] for line in GOLDEN.read_text().splitlines()]
    for argv in [*argvs, ["check", "two_loops.gog", "--no-timing"]]:
        if argv[0] not in ("check", "conj", "paths") or "--format" in argv:
            continue
        code, out = _run(argv)
        assert code == 0, argv
        graph = parse_graph((tmp_path / argv[1]).read_text())
        for what, relation in _relations(argv, json.loads(out), graph):
            code, out = _run(["oracle", argv[1], "--relation", relation, "--no-timing"])
            assert code == 0 and json.loads(out)["holds"] is True, (argv, what, relation)
            kinds.append(what.partition("[")[0].partition(" at ")[0])
    assert sorted(set(kinds)) == ["balance", "central", "conj", "hyperbolicity", "paths"]
    assert len(kinds) > 90
