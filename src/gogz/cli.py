"""Command-line front end: parse a graph file, run deciders, print reports.

Four subcommands::

    gogz check FILE            all verdicts with witnesses, text or JSON
    gogz paths FILE --kind ... enumerate complete closed chains / full paths
    gogz conj FILE --from 0:a --to 1:b   power conjugacy with a certificate
    gogz oracle FILE --relation "t_0 a^2 t_0^-1 = a^3"   evaluate exactly

Exit codes separate mathematics from plumbing: verdicts (including "not
balanced" and "no, the relation is false") exit 0; malformed input exits 2;
a witness that fails its independent verification exits 3 (that is a bug in
this package, never a property of the input).  A reader that closes standard
output early (``gogz paths ... | head``) ends the report with exit 141, the
status a shell gives a process killed by SIGPIPE, and no traceback.

The argument parser is built once, at import, so :func:`main` can be called
repeatedly in one process without rebuilding it.  :func:`main` returns the
exit code, also for a bad command line and for ``--help``/``--version``.

JSON output is deterministic: the same file produces byte-identical reports
once ``--no-timing`` drops the one nondeterministic field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .engine import Engine, brute_force_power_conjugacy
from .errors import (
    GogzError,
    InternalInconsistencyError,
    ParseError,
)
from .graphs import Contraction, GraphOfGroups, parse_graph, side_name
from .paths import ConjugacyPath, enumerate_complete_paths, enumerate_full_nonmaximal_paths
from .verdicts import AnalysisReport, ConjugacyAnswer, _require_path, analyze, power_conjugate
from .words import MAX_WORD_LETTERS, Alphabet, FreeWord, parse_int

SCHEMA_VERSION = 2

# 128 + SIGPIPE: what a shell reports for a writer whose reader went away
EXIT_BROKEN_PIPE = 141


# ---------------------------------------------------------------- formatting


def _format_word(graph: GraphOfGroups, word: FreeWord) -> str:
    return graph.vertices[int(word.vertex)].alphabet.format(word)


def _format_item(graph: GraphOfGroups, item) -> str:
    if isinstance(item, FreeWord):
        return _format_word(graph, item)
    _, eid, exp = item
    return f"t_{eid}" if exp == 1 else f"t_{eid}^{exp}"


def _format_conjugator(graph: GraphOfGroups, items: Sequence) -> str:
    return " ".join(_format_item(graph, item) for item in items) or "1"


def _format_steps(path: ConjugacyPath) -> List[str]:
    return [f"e{s.edge.id}{'+' if s.forward else '-'}" for s in path.steps]


def _path_json(graph: GraphOfGroups, path: ConjugacyPath) -> dict:
    return {
        "steps": _format_steps(path),
        "start": _format_word(graph, path.start),
        "end": _format_word(graph, path.end),
        "transitions": [
            {
                "vertex": int(t.u.vertex),
                "incoming": _format_word(graph, t.u),
                "outgoing": _format_word(graph, t.v),
                "ratio": str(Fraction(*t.exps)),
            }
            for t in path.transitions
        ],
        "ratio": str(path.ratio()),
        "conjugator": _format_conjugator(graph, path.conjugator_items()),
    }


def _relation_json(graph: GraphOfGroups, path: ConjugacyPath) -> dict:
    return {
        "exponents": list(path.witness_exponents()),
        "conjugator": _format_conjugator(graph, path.conjugator_items()),
    }


def _complete_json(graph: GraphOfGroups, path: ConjugacyPath) -> dict:
    ratio = path.ratio()
    return {
        "kind": "complete",
        "steps": _format_steps(path),
        "base_vertex": path.steps[0].origin,
        "base_word": _format_word(graph, path.start),
        "ratio": str(ratio),
        "level": abs(ratio) == 1,
        "relation": _relation_json(graph, path),
        "verified": True,
    }


def _nonmax_json(graph: GraphOfGroups, path: ConjugacyPath) -> dict:
    first, last = path.steps[0], path.steps[-1]
    return {
        "kind": "full",
        "steps": _format_steps(path),
        "start": _format_word(graph, path.start),
        "end": _format_word(graph, path.end),
        "arrows": [
            [first.edge.id, side_name(first.origin_side)],
            [last.edge.id, side_name(last.terminus_side)],
        ],
        "relation": _relation_json(graph, path),
        "verified": True,
    }


def _contraction_json(graph: GraphOfGroups, step: Contraction) -> dict:
    return {
        "edge": step.edge_id,
        "absorbed": step.absorbed_vertex,
        "into": step.surviving_vertex,
        "generator_image": _format_word(graph, step.image),
    }


def _graph_summary(graph: GraphOfGroups) -> dict:
    return {"vertices": len(graph.vertices), "edges": len(graph.edges)}


def _count(n: int, singular: str, plural: Optional[str] = None) -> str:
    return f"{n} {singular if n == 1 else (plural or singular + 's')}"


# -------------------------------------------------------------------- check


def _report_json(report: AnalysisReport) -> dict:
    graph = report.graph
    balance = report.balance
    hyper = report.hyperbolicity
    tri = report.trichotomy
    acyl = tri.acyl

    verdicts = {
        "balanced": balance.balanced,
        "bs_subgroup": None
        if balance.bs_tag is None
        else "BS({},{})".format(balance.bs_tag[0], balance.bs_tag[1] * balance.bs_sign),
        "modulus": [str(r) for r in balance.modulus],
        "word_hyperbolic": hyper.hyperbolic,
        "contains_baumslag_solitar": not hyper.hyperbolic,
        "acyl_hyperbolic": None if acyl is None else acyl.acyl_hyperbolic,
        "trichotomy": tri.branch,
        "free_rank": tri.free_rank,
        "rel_hyp_note": report.rel_hyp_note,
        "notes": list(report.notes),
    }

    witnesses: dict = {}
    if balance.witness is not None:
        witnesses["balance"] = _complete_json(graph, balance.witness)
    if hyper.witness is not None:
        render = _complete_json if hyper.kind == "complete" else _nonmax_json
        witnesses["hyperbolicity"] = render(graph, hyper.witness)
    if acyl is not None:
        if acyl.acyl_hyperbolic:
            witnesses["acyl"] = {
                "condition": acyl.condition,
                "vertex": acyl.vertex,
                "evidence": [_format_word(graph, w) for w in acyl.evidence],
            }
        else:
            witnesses["acyl"] = {
                "snormal_generators": {
                    str(v): _format_word(graph, w)
                    for v, w in sorted(acyl.snormal_generators.items())
                },
                "verified": True,
            }
    if tri.branch == "surjects_Z" and tri.surjection_edges:
        witnesses["trichotomy"] = {"non_tree_edges": list(tri.surjection_edges)}
    elif tri.central is not None:
        reduced = report.reduced
        witnesses["trichotomy"] = {
            "central_element": _format_word(reduced, tri.central.element),
            "vertex_exponents": {
                str(v): x for v, x in sorted(tri.central.exponents.items())
            },
            "verified": True,
        }

    return {
        "verdicts": verdicts,
        "witnesses": witnesses,
        "reduction": {
            "reduced": _graph_summary(report.reduced),
            "trivial": report.reduced.is_trivial,
            # surviving vertices keep their original alphabets, so the
            # original graph can format every step's generator image
            "contractions": [_contraction_json(graph, step) for step in report.contractions],
        },
    }


def _render_check_text(body: dict) -> List[str]:
    verdicts = body["verdicts"]
    witnesses = body["witnesses"]
    lines = []
    red = body["reduction"]
    lines.append(
        "reduced graph: {}, {} ({})".format(
            _count(red["reduced"]["vertices"], "vertex", "vertices"),
            _count(red["reduced"]["edges"], "edge"),
            _count(len(red["contractions"]), "contraction"),
        )
    )
    bal = "balanced: {}".format(str(verdicts["balanced"]).lower())
    if verdicts["bs_subgroup"]:
        w = witnesses["balance"]
        bal += " — {} via chain {}: conjugates ({})^{} to ({})^{} by \"{}\"".format(
            verdicts["bs_subgroup"],
            " ".join(w["steps"]),
            w["base_word"],
            w["relation"]["exponents"][0],
            w["base_word"],
            w["relation"]["exponents"][1],
            w["relation"]["conjugator"],
        )
    lines.append(bal)
    if verdicts["modulus"]:
        lines.append("modulus ratios: " + ", ".join(verdicts["modulus"]))
    hyp = "word hyperbolic: {}".format(str(verdicts["word_hyperbolic"]).lower())
    if not verdicts["word_hyperbolic"]:
        w = witnesses["hyperbolicity"]
        hyp += " — contains a Baumslag-Solitar subgroup ({} path {})".format(
            w["kind"], " ".join(w["steps"])
        )
    lines.append(hyp)
    if verdicts["acyl_hyperbolic"] is None:
        lines.append("acylindrically hyperbolic: not applicable (free fundamental group)")
    else:
        acyl = "acylindrically hyperbolic: {}".format(
            str(verdicts["acyl_hyperbolic"]).lower()
        )
        w = witnesses["acyl"]
        if verdicts["acyl_hyperbolic"]:
            acyl += " — {} at vertex {}".format(w["condition"], w["vertex"])
            if w["evidence"]:
                acyl += " ({})".format(", ".join(w["evidence"]))
        else:
            acyl += " — s-normal generators: " + ", ".join(
                f"v{v}: {word}" for v, word in w["snormal_generators"].items()
            )
        lines.append(acyl)
    tri = "trichotomy: {}".format(verdicts["trichotomy"])
    w = witnesses.get("trichotomy")
    if w and "central_element" in w:
        tri += " — central element {} ({})".format(
            w["central_element"],
            ", ".join(f"v{v}: gen^{x}" for v, x in w["vertex_exponents"].items()),
        )
    elif w and "non_tree_edges" in w:
        tri += " — stable letter(s) of edge(s) {} generate the image".format(
            ", ".join(str(e) for e in w["non_tree_edges"])
        )
    if verdicts["free_rank"] is not None:
        tri += " — fundamental group is free of rank {}".format(verdicts["free_rank"])
    lines.append(tri)
    if verdicts["rel_hyp_note"]:
        lines.append("relative hyperbolicity: " + verdicts["rel_hyp_note"])
    for note in verdicts["notes"]:
        lines.append("note: " + note)
    return lines


def cmd_check(args, graph: GraphOfGroups, doc: dict) -> dict:
    report = analyze(graph)
    body = _report_json(report)
    doc.update(body)
    doc["text"] = _render_check_text(body)
    return doc


# --------------------------------------------------------------------- paths


def cmd_paths(args, graph: GraphOfGroups, doc: dict) -> dict:
    if args.kind == "complete":
        chains = enumerate_complete_paths(graph)
        listing = [_complete_json(graph, p) for p in chains]
        text = [
            "{} path {}: base {} at vertex {}, ratio {}, level {}".format(
                entry["kind"],
                " ".join(entry["steps"]),
                entry["base_word"],
                entry["base_vertex"],
                entry["ratio"],
                str(entry["level"]).lower(),
            )
            for entry in listing
        ]
    else:
        chains = enumerate_full_nonmaximal_paths(graph)
        listing = [_nonmax_json(graph, p) for p in chains]
        text = [
            "{} path {}: {} -> {}, arrows at {}".format(
                entry["kind"],
                " ".join(entry["steps"]),
                entry["start"],
                entry["end"],
                ", ".join(f"e{e} {side}" for e, side in entry["arrows"]),
            )
            for entry in listing
        ]
    engine = Engine(graph)
    for path in chains:  # each listed relation is reported verified
        _require_path(engine, path, f"{args.kind} path")
    doc["kind"] = args.kind
    doc["count"] = len(listing)
    doc["paths"] = listing
    doc["text"] = text or ["no paths"]
    return doc


# ---------------------------------------------------------------------- conj


def _parse_located_word(graph: GraphOfGroups, spec: str, flag: str) -> FreeWord:
    vertex_text, sep, word_text = spec.partition(":")
    if not sep:
        raise ParseError(f"{flag} wants '<vertex>:<word>', got {spec!r}")
    try:
        vid = parse_int(vertex_text)
    except ValueError:
        raise ParseError(f"{flag}: bad vertex id {vertex_text!r}") from None
    if vid not in graph.vertices:
        raise ParseError(f"{flag}: unknown vertex {vid}")
    return graph.vertices[vid].parse(word_text)


# The brute force holds its whole atom pool (every reduced vertex word of up
# to L letters: 2r(2r-1)^(k-1) of length k at a rank-r vertex, plus two per
# non-tree edge) and 2E powers of y in memory, so a few digits of
# --oracle-bounds could ask for more memory than any machine has.  Bounds
# past these are refused before anything is built.
MAX_ORACLE_ATOMS = 100_000
MAX_ORACLE_EXPONENT = 1_000


def _oracle_atom_count(graph: GraphOfGroups, letters: int) -> int:
    """The size of the brute force's atom pool; counting stops past MAX_ORACLE_ATOMS."""
    count = 2 * graph.betti_number
    for vertex in graph.vertices.values():
        words = 2 * vertex.rank
        for _ in range(letters):
            count += words
            if count > MAX_ORACLE_ATOMS:
                return count
            words *= 2 * vertex.rank - 1
    return count


def _parse_bounds(graph: GraphOfGroups, text: str) -> Tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ParseError("--oracle-bounds wants 'SYLLABLES,EXPONENTS[,LETTERS]'")
    try:
        numbers = [parse_int(p, signed=True) for p in parts]
    except ValueError:
        raise ParseError(f"--oracle-bounds: not integers: {text!r}") from None
    if any(n < 1 for n in numbers):
        raise ParseError("--oracle-bounds must be positive")
    syllables, exponents = numbers[0], numbers[1]
    letters = numbers[2] if len(numbers) == 3 else 2 * syllables
    if exponents > MAX_ORACLE_EXPONENT:
        raise ParseError(f"--oracle-bounds: exponents above {MAX_ORACLE_EXPONENT} are refused")
    if _oracle_atom_count(graph, letters) > MAX_ORACLE_ATOMS:
        raise ParseError(
            f"--oracle-bounds: words of up to {letters} letters give more than "
            f"{MAX_ORACLE_ATOMS} atoms on this graph; lower L"
        )
    return syllables, exponents, letters


def _answer_json(graph: GraphOfGroups, answer: ConjugacyAnswer) -> dict:
    out: dict = {"exists": answer.exists}
    if answer.exists:
        out["exponents"] = list(answer.exponents)
        out["conjugator"] = _format_conjugator(graph, answer.conjugator)
        out["route"] = answer.route
        if answer.path is not None:
            out["path"] = _path_json(graph, answer.path)
        out["verified"] = True
    return out


def _extra_json(graph: GraphOfGroups, path: ConjugacyPath) -> dict:
    return {**_relation_json(graph, path), "steps": _format_steps(path), "verified": True}


def cmd_conj(args, graph: GraphOfGroups, doc: dict) -> dict:
    x = _parse_located_word(graph, getattr(args, "from"), "--from")
    y = _parse_located_word(graph, args.to, "--to")
    bounds = _parse_bounds(graph, args.oracle_bounds) if args.oracle_bounds else None
    answer = power_conjugate(graph, x, y)
    doc["from"] = {"vertex": int(x.vertex), "word": _format_word(graph, x)}
    doc["to"] = {"vertex": int(y.vertex), "word": _format_word(graph, y)}
    doc["answer"] = _answer_json(graph, answer)
    text = []
    if answer.exists:
        m, n = answer.exponents
        text.append(
            'exists: "{}" conjugates ({})^{} to ({})^{} [{}]'.format(
                doc["answer"]["conjugator"],
                doc["from"]["word"],
                m,
                doc["to"]["word"],
                n,
                answer.route,
            )
        )
        if answer.additional:
            # relations beyond the answer matter when some chain is non-level:
            # on the one-loop graph a^2/a^3 they show a^2 ~ a^3, while the
            # answer for a and a is the trivial (1, 1)
            extras = [_extra_json(graph, path) for path in answer.additional]
            doc["additional_relations"] = extras
            for extra in extras:
                text.append(
                    'also: "{}" conjugates ({})^{} to ({})^{} via {}'.format(
                        extra["conjugator"],
                        doc["from"]["word"],
                        extra["exponents"][0],
                        doc["to"]["word"],
                        extra["exponents"][1],
                        " ".join(extra["steps"]),
                    )
                )
    else:
        text.append("no powers of the two elements are conjugate")

    if bounds is not None:
        syllables, exponents, letters = bounds
        hit = brute_force_power_conjugacy(
            Engine(graph), x, y, max_syllables=syllables, max_letters=letters, max_exp=exponents
        )
        oracle: dict = {"bounds": {"syllables": syllables, "exponents": exponents, "letters": letters}}
        if hit is not None:
            oracle["hit"] = {
                "exponents": [hit.m, hit.n],
                "conjugator": _format_conjugator(graph, hit.conjugator),
            }
            if not answer.exists:
                raise InternalInconsistencyError(
                    "bounded search found a conjugacy the decider refuted"
                )
            oracle["agreement"] = "confirmed"
            text.append(
                'oracle agrees: "{}" conjugates x^{} to y^{}'.format(
                    oracle["hit"]["conjugator"], hit.m, hit.n
                )
            )
        else:
            oracle["hit"] = None
            oracle["agreement"] = "refuted within bounds" if not answer.exists else "inconclusive"
            text.append(
                "oracle found no relation within bounds ({})".format(oracle["agreement"])
            )
        doc["oracle"] = oracle
    doc["text"] = text
    return doc


# -------------------------------------------------------------------- oracle


def _relation_tokens(graph: GraphOfGroups, side: str, what: str, letters: int) -> Tuple[list, int]:
    """The engine items of one side of a relation, and the running count of
    expanded letters, which starts at ``letters``.

    Tokens follow the graph file's word grammar (``name``, ``name^k``,
    ``1``): a generator token is parsed by the alphabet that owns the name,
    and a stable letter ``t_<edge-id>`` (or ``t`` when there is one edge) by
    an alphabet of that one letter.  A name spelled like a stable letter
    that is also a generator is refused as ambiguous.  Like a word, the
    whole relation may expand to at most :data:`MAX_WORD_LETTERS` letters.
    """
    owner = {name: v.alphabet for _, v in sorted(graph.vertices.items()) for name in v.alphabet.names}
    items = []
    for token in side.split():
        name = token.partition("^")[0]
        try:
            if name == "t" or name.startswith("t_"):
                if name in owner:
                    raise ParseError(
                        f"ambiguous token {token!r}: {name!r} is a generator of vertex {owner[name].vertex}"
                        " and the spelling of a stable letter"
                    )
                eid = _stable_letter_edge(graph, name, token)
                stable = Alphabet("t", (name,)).parse(token).letters
                items.extend(("t", eid, letter) for letter in stable)
                letters += len(stable)
            elif token != "1":
                if name not in owner:
                    raise ParseError(f"unknown generator or stable letter {token!r}")
                items.append(owner[name].parse(token))
                letters += len(items[-1].letters)
            if letters > MAX_WORD_LETTERS:
                raise ParseError(f"relation longer than {MAX_WORD_LETTERS} letters at token {token!r}")
        except ParseError as exc:
            raise ParseError(f"{what}: {exc}") from None
    return items, letters


def _stable_letter_edge(graph: GraphOfGroups, name: str, token: str) -> int:
    if name == "t":
        if len(graph.edges) != 1:
            raise ParseError("bare 't' is only unambiguous with a single edge; use t_<edge-id>")
        return next(iter(graph.edges))
    try:
        eid = parse_int(name[2:])
    except ValueError:
        raise ParseError(f"bad stable letter {token!r}") from None
    if eid not in graph.edges:
        raise ParseError(f"unknown edge in {token!r}")
    return eid


def cmd_oracle(args, graph: GraphOfGroups, doc: dict) -> dict:
    lhs_text, eq, rhs_text = args.relation.partition("=")
    if not eq or "=" in rhs_text:
        raise ParseError("--relation wants exactly one '='")
    lhs_items, letters = _relation_tokens(graph, lhs_text, "left side", 0)
    rhs_items, _ = _relation_tokens(graph, rhs_text, "right side", letters)
    engine = Engine(graph)
    lhs, rhs = engine.element_of(lhs_items), engine.element_of(rhs_items)
    holds = lhs == rhs
    doc["relation"] = args.relation.strip()
    doc["holds"] = holds
    doc["text"] = [str(holds).lower()]
    return doc


# ---------------------------------------------------------------------- main


def _base_document(command: str, path: str, data: bytes, graph: GraphOfGroups) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "gogz", "version": __version__},
        "command": command,
        "input": dict(
            path=path,
            sha256=hashlib.sha256(data).hexdigest(),
            **_graph_summary(graph),
        ),
    }


def _emit(doc: dict, args) -> None:
    text = doc.pop("text")
    if not args.no_timing:
        doc["timing"] = {"seconds": round(time.monotonic() - args.started, 6)}
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        header = "{} {} — {}, {}".format(
            doc["tool"]["name"],
            doc["command"],
            _count(doc["input"]["vertices"], "vertex", "vertices"),
            _count(doc["input"]["edges"], "edge"),
        )
        print(header)
        for line in text:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="graph of groups description file")
    common.add_argument(
        "--format", choices=("text", "json"), default="json", help="output format"
    )
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="omit the timing field so reports are byte-identical",
    )

    parser = argparse.ArgumentParser(
        prog="gogz",
        description="Analyze a graph of groups with free vertices and cyclic edges.",
    )
    parser.add_argument("--version", action="version", version=f"gogz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common], help="run every decider with witnesses")

    p_paths = sub.add_parser("paths", parents=[common], help="enumerate certified paths")
    p_paths.add_argument(
        "--kind",
        choices=("complete", "nonmaximal"),
        required=True,
        help="closed complete chains or full non-maximal paths",
    )

    p_conj = sub.add_parser("conj", parents=[common], help="decide power conjugacy")
    p_conj.add_argument("--from", required=True, metavar="V:WORD", help="source element")
    p_conj.add_argument("--to", required=True, metavar="V:WORD", help="target element")
    p_conj.add_argument(
        "--oracle-bounds",
        metavar="S,E[,L]",
        help="cross-check against brute force: S syllables, exponents up to E, "
        "L total letters (default 2*S)",
    )

    p_oracle = sub.add_parser(
        "oracle", parents=[common], help="evaluate one relation in the group"
    )
    p_oracle.add_argument(
        "--relation",
        required=True,
        help='e.g. "t_0 a^2 t_0^-1 = a^3"; tokens are generators and t_<edge-id>',
    )
    return parser


_COMMANDS = {
    "check": cmd_check,
    "paths": cmd_paths,
    "conj": cmd_conj,
    "oracle": cmd_oracle,
}

_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # a bad command line (2), or --help/--version (0)
        return exc.code
    args.started = time.monotonic()
    try:
        try:
            with open(args.file, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph file is not UTF-8 text (byte {exc.start})") from None
        graph = parse_graph(text)
        doc = _base_document(args.command, args.file, data, graph)
        doc = _COMMANDS[args.command](args, graph, doc)
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except GogzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(doc, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone.  If stdout is the process's own, point its file
        # descriptor at the null device so the flush at interpreter exit
        # cannot fail again and print "Exception ignored"; a stream a caller
        # put in its place is left to that caller
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
