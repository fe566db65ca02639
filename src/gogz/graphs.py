"""Graphs of groups with free vertex groups and cyclic edge groups.

A graph of groups here is a finite connected multigraph (loops and parallel
edges allowed) whose vertices carry finitely generated free groups and whose
edges carry an infinite cyclic group, included into the two endpoint groups
by a nontrivial word on each side.

Text format, one declaration per line::

    vertex 0 rank=2 gens=a,b
    vertex 1 rank=1 gens=x
    edge 0 0 1 minus="a b a^-1" plus="x^3"

``minus`` / ``plus`` are the inclusion words at the edge's minus and plus
endpoint.  Vertices must be declared before the edges that use them, and
generator names must be globally unique so that a word is unambiguous even
out of context.

Tokens are separated by blanks, which are spaces and tabs.  Quotes group
(blanks and ``#`` inside them are kept) and are dropped wherever they stand
in a token; ``#`` outside quotes starts a comment.  After the head and its
ids, a line's fields may come in any order, each once.  A line in the
canonical shape above, which :meth:`GraphOfGroups.to_text` writes, is parsed
with one regular-expression match; every other line, and every line that
would be refused, goes through the tokenizer, which places each error.

An edge *end* is **bad** when its inclusion word generates the whole vertex
group (rank-one vertex, word a single letter); it carries an **arrow** when
the inclusion word is a proper power, i.e. the edge group is not maximal
cyclic on that side.  A non-loop edge with a bad end is *reducible*:
contracting it changes nothing about the fundamental group.
:func:`reduce_graph` contracts until no reducible edge remains and logs every
step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .errors import AlphabetError, DegenerateInputError, ParseError
from .words import Alphabet, FreeWord, parse_int

MINUS = -1
PLUS = 1

_SIDE_NAMES = {MINUS: "minus", PLUS: "plus"}
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")


def side_name(side: int) -> str:
    return _SIDE_NAMES[side]


@dataclass(frozen=True)
class Vertex:
    """A vertex with its free group, named by a nonnegative integer id."""

    id: int
    alphabet: Alphabet

    def __post_init__(self):
        assert self.alphabet.vertex == str(self.id), "alphabet must be tagged with the vertex id"

    @classmethod
    def make(cls, vid: int, names: Iterable[str]) -> "Vertex":
        return cls(vid, Alphabet(str(vid), tuple(names)))

    @property
    def rank(self) -> int:
        return self.alphabet.rank

    def parse(self, text: str) -> FreeWord:
        return self.alphabet.parse(text)


@dataclass(frozen=True)
class Edge:
    """An edge with its two cyclic inclusion words.

    ``minus_word`` lives in the minus vertex group, ``plus_word`` in the plus
    vertex group; both generate the images of the same infinite cyclic edge
    group.
    """

    id: int
    minus_vertex: int
    plus_vertex: int
    minus_word: FreeWord
    plus_word: FreeWord

    @property
    def is_loop(self) -> bool:
        return self.minus_vertex == self.plus_vertex

    def vertex(self, side: int) -> int:
        return self.minus_vertex if side == MINUS else self.plus_vertex

    def word(self, side: int) -> FreeWord:
        return self.minus_word if side == MINUS else self.plus_word


@dataclass(frozen=True)
class OrientedEdge:
    """An edge together with a direction of travel (forward = minus to plus)."""

    edge: Edge
    forward: bool = True

    @property
    def origin_side(self) -> int:
        return MINUS if self.forward else PLUS

    @property
    def terminus_side(self) -> int:
        return PLUS if self.forward else MINUS

    @property
    def origin(self) -> int:
        return self.edge.vertex(self.origin_side)

    @property
    def origin_word(self) -> FreeWord:
        return self.edge.word(self.origin_side)

    @property
    def terminus_word(self) -> FreeWord:
        return self.edge.word(self.terminus_side)

    def __repr__(self):
        arrow = "+" if self.forward else "-"
        return f"OrientedEdge(e{self.edge.id}{arrow})"


@dataclass(frozen=True)
class TreeStep:
    edge_id: int
    parent: int
    child: int


@dataclass(frozen=True)
class SpanningTree:
    """A breadth-first spanning tree, rooted at the least vertex id.

    ``steps`` lists tree edges in discovery order (parent before child);
    ``non_tree_edge_ids`` are the remaining edges, sorted.  Ties are broken
    by edge id, so the tree is a deterministic function of the graph.
    """

    root: int
    steps: Tuple[TreeStep, ...]
    non_tree_edge_ids: Tuple[int, ...]


class GraphOfGroups:
    """A validated graph of groups.

    Construction checks that the graph is nonempty, that edge endpoints
    exist, that inclusion words are nontrivial and live over the right
    alphabets, and that generator names are globally unique.  It then builds
    ``tree``, the graph's one :class:`SpanningTree`, and that search is the
    check that the graph is connected.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        self.vertices: Dict[int, Vertex] = {}
        for v in vertices:
            if v.id in self.vertices:
                raise DegenerateInputError(f"duplicate vertex id {v.id}")
            self.vertices[v.id] = v
        self.edges: Dict[int, Edge] = {}
        for e in edges:
            if e.id in self.edges:
                raise DegenerateInputError(f"duplicate edge id {e.id}")
            self.edges[e.id] = e
        self._validate()
        self._incident: Dict[int, List[Tuple[Edge, int]]] = {v: [] for v in self.vertices}
        for e in self._sorted_edges():
            self._incident[e.minus_vertex].append((e, MINUS))
            self._incident[e.plus_vertex].append((e, PLUS))
        root_vertex = min(self.vertices)
        seen = {root_vertex}
        reached = [root_vertex]  # in breadth-first order
        steps: List[TreeStep] = []
        for v in reached:
            for edge, side in self._incident[v]:
                other = edge.vertex(-side)
                if other not in seen:
                    seen.add(other)
                    steps.append(TreeStep(edge.id, v, other))
                    reached.append(other)
        if len(seen) != len(self.vertices):
            missing = min(set(self.vertices) - seen)
            raise DegenerateInputError(f"graph is not connected (vertex {missing} unreachable)")
        tree_ids = {s.edge_id for s in steps}
        non_tree = tuple(i for i in sorted(self.edges) if i not in tree_ids)
        self.tree = SpanningTree(root_vertex, tuple(steps), non_tree)

    # -------------------------------------------------------------- basics

    def _sorted_edges(self) -> List[Edge]:
        return [self.edges[i] for i in sorted(self.edges)]

    def _sorted_vertices(self) -> List[Vertex]:
        return [self.vertices[i] for i in sorted(self.vertices)]

    def _validate(self):
        if not self.vertices:
            raise DegenerateInputError("a graph of groups needs at least one vertex")
        seen: Dict[str, int] = {}
        for v in self._sorted_vertices():
            if v.rank < 1:
                raise DegenerateInputError(f"vertex {v.id} must have rank >= 1")
            for name in v.alphabet.names:
                if name in seen:
                    raise DegenerateInputError(
                        f"generator {name!r} declared at vertex {seen[name]} and again at vertex {v.id}"
                    )
                seen[name] = v.id
        for e in self._sorted_edges():
            for side in (MINUS, PLUS):
                vid = e.vertex(side)
                if vid not in self.vertices:
                    raise DegenerateInputError(f"edge {e.id} uses unknown vertex {vid}")
                word = e.word(side)
                if word.vertex != str(vid):
                    raise AlphabetError(
                        f"edge {e.id} {side_name(side)} word is over vertex {word.vertex!r}, expected {vid}"
                    )
                if word.is_identity:
                    raise DegenerateInputError(f"edge {e.id} has a trivial {side_name(side)} inclusion word")

    @property
    def betti_number(self) -> int:
        """First Betti number |E| - |V| + 1 of the underlying connected graph."""
        return len(self.edges) - len(self.vertices) + 1

    def incident(self, vid: int) -> List[Tuple[Edge, int]]:
        """Edge ends at a vertex, ordered by (edge id, side); loops appear twice."""
        return list(self._incident[vid])

    def oriented_edges(self) -> List[OrientedEdge]:
        return [OrientedEdge(e, fwd) for e in self._sorted_edges() for fwd in (True, False)]

    # -------------------------------------------------------------- labels

    def is_bad_end(self, edge: Edge, side: int) -> bool:
        """True when the inclusion word generates the whole vertex group."""
        return self.vertices[edge.vertex(side)].rank == 1 and len(edge.word(side)) == 1

    def reducible_edges(self) -> List[Edge]:
        return [
            e
            for e in self._sorted_edges()
            if not e.is_loop and (self.is_bad_end(e, MINUS) or self.is_bad_end(e, PLUS))
        ]

    @property
    def is_trivial(self) -> bool:
        """A single vertex and no edges: the group is just that free group."""
        return len(self.vertices) == 1 and not self.edges

    # -------------------------------------------------------------- output

    def to_text(self) -> str:
        lines = []
        for v in self._sorted_vertices():
            lines.append(f"vertex {v.id} rank={v.rank} gens={','.join(v.alphabet.names)}")
        for e in self._sorted_edges():
            minus = self.vertices[e.minus_vertex].alphabet.format(e.minus_word)
            plus = self.vertices[e.plus_vertex].alphabet.format(e.plus_word)
            lines.append(f'edge {e.id} {e.minus_vertex} {e.plus_vertex} minus="{minus}" plus="{plus}"')
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"GraphOfGroups({len(self.vertices)} vertices, {len(self.edges)} edges)"


# ------------------------------------------------------------------ parsing


# One token after optional blanks: runs of plain characters and quoted
# spans (which keep blanks and ``#``), then a lone quote if one is left open.
# An empty token means the line ends or a comment starts.  The pattern
# matches at every position, so successive matches tile the line.
_TOKEN_RE = re.compile(r'[ \t]*((?:[^ \t#"]+|"[^"]*")*)("?)')


def _tokenize(line: str, lineno: int) -> List[Tuple[str, int]]:
    """Split a line on spaces and tabs into (text, 1-based column) tokens.

    Quotes group and are dropped; ``#`` outside quotes starts a comment.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(line):
        text, open_quote = m.groups()
        if open_quote:
            raise ParseError("unterminated quote", lineno, m.start(1) + 1)
        if not text:
            break
        tokens.append((text.replace('"', ""), m.start(1) + 1))
    return tokens


def _parse_int(token: Tuple[str, int], lineno: int, what: str) -> int:
    text, col = token
    try:
        return parse_int(text)
    except ValueError:
        raise ParseError(f"expected {what}, got {text!r}", lineno, col) from None


def _parse_fields(tokens, lineno: int, col0: int, allowed) -> Dict[str, Tuple[str, int]]:
    out: Dict[str, Tuple[str, int]] = {}
    for text, col in tokens:
        key, eq, value = text.partition("=")
        if not eq:
            raise ParseError(f"expected a {'/'.join(sorted(allowed))} field, got {text!r}", lineno, col)
        if key not in allowed:
            raise ParseError(f"unknown field {key!r}", lineno, col)
        if key in out:
            raise ParseError(f"repeated field {key!r}", lineno, col)
        out[key] = (value, col)
    for key in sorted(set(allowed) - set(out)):
        raise ParseError(f"missing field {key!r}", lineno, col0)
    return out


def _parse_edge_word(vertex: Vertex, value: str, col: int, lineno: int) -> FreeWord:
    try:
        word = vertex.parse(value)
    except ParseError as exc:
        raise ParseError(exc.message, lineno, col) from None
    if word.is_identity:
        raise ParseError("inclusion word must not be the identity", lineno, col)
    return word


# The canonical shape of each declaration, as ``to_text`` writes it, for
# ``fullmatch``.  Groups: vertex id, rank, names; edge id, endpoints, words.
_VERTEX_LINE_RE = re.compile(
    rf"[ \t]*vertex[ \t]+([0-9]+)[ \t]+rank=([0-9]+)[ \t]+gens=({_NAME}(?:,{_NAME})*)[ \t]*"
)
_EDGE_LINE_RE = re.compile(
    r'[ \t]*edge[ \t]+([0-9]+)[ \t]+([0-9]+)[ \t]+([0-9]+)[ \t]+minus="([^"]*)"[ \t]+plus="([^"]*)"[ \t]*'
)


def _add_canonical_vertex(m: re.Match, vertices: Dict[int, Vertex], gen_homes: Dict[str, int]) -> bool:
    """Add the vertex a canonical line declares, or return False, changing
    nothing, when the tokenizer path would refuse the line."""
    try:
        vid, rank = int(m[1]), int(m[2])
    except ValueError:  # more digits than ``int`` converts
        return False
    names = m[3].split(",")
    if vid in vertices or rank != len(names) or len(set(names)) != rank:
        return False
    if not gen_homes.keys().isdisjoint(names):
        return False
    gen_homes.update(dict.fromkeys(names, vid))
    vertices[vid] = Vertex.make(vid, names)
    return True


def _add_canonical_edge(m: re.Match, vertices: Dict[int, Vertex], edges: Dict[int, Edge]) -> bool:
    """Add the edge a canonical line declares, or return False, changing
    nothing, when the tokenizer path would refuse the line."""
    try:
        eid, minus_vertex, plus_vertex = int(m[1]), int(m[2]), int(m[3])
    except ValueError:  # more digits than ``int`` converts
        return False
    if eid in edges or minus_vertex not in vertices or plus_vertex not in vertices:
        return False
    try:
        minus, plus = vertices[minus_vertex].parse(m[4]), vertices[plus_vertex].parse(m[5])
    except ParseError:
        return False
    if minus.is_identity or plus.is_identity:
        return False
    edges[eid] = Edge(eid, minus_vertex, plus_vertex, minus, plus)
    return True


def parse_graph(text: str) -> GraphOfGroups:
    """Parse the text format; errors carry 1-based line and column positions.

    A line in the canonical shape is parsed from one match; any other line,
    or one the match cannot add, is tokenized, and only that path raises.
    """
    vertices: Dict[int, Vertex] = {}
    edges: Dict[int, Edge] = {}
    gen_homes: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _EDGE_LINE_RE.fullmatch(raw)
        if m is not None and _add_canonical_edge(m, vertices, edges):
            continue
        m = _VERTEX_LINE_RE.fullmatch(raw)
        if m is not None and _add_canonical_vertex(m, vertices, gen_homes):
            continue
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head, col0 = tokens[0]
        if head == "vertex":
            if len(tokens) < 2:
                raise ParseError("vertex needs an id", lineno, col0)
            vid = _parse_int(tokens[1], lineno, "a vertex id")
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid}", lineno, tokens[1][1])
            fields = _parse_fields(tokens[2:], lineno, col0, {"rank", "gens"})
            rank = _parse_int(fields["rank"], lineno, "an integer rank")
            gens_text, gens_col = fields["gens"]
            names = tuple(gens_text.split(",")) if gens_text else ()
            for name in names:
                if not _NAME_RE.match(name):
                    raise ParseError(f"bad generator name {name!r}", lineno, gens_col)
                if name in gen_homes:
                    raise ParseError(
                        f"generator {name!r} already declared at vertex {gen_homes[name]}", lineno, gens_col
                    )
                gen_homes[name] = vid
            if rank != len(names) or rank < 1:
                raise ParseError(f"rank={rank} but {len(names)} generator name(s)", lineno, gens_col)
            vertices[vid] = Vertex.make(vid, names)
        elif head == "edge":
            if len(tokens) < 4:
                raise ParseError("edge needs an id and two endpoint vertex ids", lineno, col0)
            eid = _parse_int(tokens[1], lineno, "an edge id")
            if eid in edges:
                raise ParseError(f"duplicate edge id {eid}", lineno, tokens[1][1])
            endpoints = []
            for token in tokens[2:4]:
                vid = _parse_int(token, lineno, "a vertex id")
                if vid not in vertices:
                    raise ParseError(f"unknown vertex {vid} (declare vertices first)", lineno, token[1])
                endpoints.append(vid)
            fields = _parse_fields(tokens[4:], lineno, col0, {"minus", "plus"})
            minus = _parse_edge_word(vertices[endpoints[0]], *fields["minus"], lineno=lineno)
            plus = _parse_edge_word(vertices[endpoints[1]], *fields["plus"], lineno=lineno)
            edges[eid] = Edge(eid, endpoints[0], endpoints[1], minus, plus)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col0)
    if not vertices:
        raise ParseError("no vertices declared", max(1, text.count(chr(10)) + 1), 1)
    return GraphOfGroups(vertices.values(), edges.values())


# -------------------------------------------------------------- contraction


@dataclass(frozen=True)
class Contraction:
    """One contraction step: the absorbed vertex's generator maps to ``image``."""

    edge_id: int
    absorbed_vertex: int
    surviving_vertex: int
    image: FreeWord


def reduce_graph(graph: GraphOfGroups) -> Tuple[GraphOfGroups, Tuple[Contraction, ...]]:
    """Contract reducible edges (least edge id first) until none remain.

    Contraction removes one edge and one vertex, so the Betti number of the
    underlying graph never changes; in particular a graph that reduces to a
    single vertex with no edges was a tree, and its group is free.

    One pass, in id order, over the edges reducible at the start.  A
    contraction rewrites only the ends at the vertex it absorbs: a^k
    becomes image^k, one word at the survivor, and vertex ranks never
    change.  That end has length one at a rank-one survivor only if |k| = 1,
    so it was bad already: no edge ever becomes reducible, and each starting
    candidate is re-checked (it may have become a loop, or lost its bad end)
    when its turn comes.  Each contraction costs time in the absorbed
    vertex's degree, and the result is built and validated once; ``graph``
    itself comes back when nothing contracts.
    """
    candidates = graph.reducible_edges()
    if not candidates:
        return graph, ()
    vertices = dict(graph.vertices)
    edges = dict(graph.edges)
    incident: Dict[int, set] = {vid: set() for vid in vertices}
    for e in edges.values():
        incident[e.minus_vertex].add(e.id)
        incident[e.plus_vertex].add(e.id)
    steps: List[Contraction] = []
    for candidate in candidates:
        edge = edges[candidate.id]
        minus_bad = graph.is_bad_end(edge, MINUS)
        plus_bad = graph.is_bad_end(edge, PLUS)
        if edge.is_loop or not (minus_bad or plus_bad):
            continue
        if minus_bad and plus_bad:
            # both endpoint groups are swallowed by the edge group; keep the
            # smaller vertex id for determinism
            absorbed_side = MINUS if edge.minus_vertex > edge.plus_vertex else PLUS
        else:
            absorbed_side = MINUS if minus_bad else PLUS
        absorbed = edge.vertex(absorbed_side)
        survivor = edge.vertex(-absorbed_side)
        eps = edge.word(absorbed_side).letters[0]
        image = edge.word(-absorbed_side) ** (1 if eps > 0 else -1)
        steps.append(Contraction(edge.id, absorbed, survivor, image))

        del edges[edge.id], vertices[absorbed]
        incident[survivor].discard(edge.id)
        moved = incident.pop(absorbed) - {edge.id}
        for eid in moved:
            e = edges[eid]
            mv, pv, mw, pw = e.minus_vertex, e.plus_vertex, e.minus_word, e.plus_word
            # a reduced rank-one word is generator^k with k the letter sum
            if mv == absorbed:
                mv, mw = survivor, image ** sum(mw.letters)
            if pv == absorbed:
                pv, pw = survivor, image ** sum(pw.letters)
            edges[eid] = Edge(eid, mv, pv, mw, pw)
        incident[survivor] |= moved
    return GraphOfGroups(vertices.values(), edges.values()), tuple(steps)
