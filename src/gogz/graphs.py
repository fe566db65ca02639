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
endpoint, in the word grammar of :mod:`gogz.text`.  Vertices must be
declared before the edges that use them, and generator names must be
globally unique so that a word is unambiguous even out of context.

Lines end at ``\n``, ``\r\n`` or ``\r`` only.  Tokens are separated by
blanks, which are spaces and tabs.  Quotes group (blanks and ``#`` inside
them are kept) and are dropped wherever they stand in a token; ``#``
outside quotes starts a comment.  After the head and its ids, a line's
fields may come in any order, each once.  A line in the canonical shape
above, which :meth:`GraphOfGroups.to_text` writes, is split with one
regular-expression match, and every other line by the tokenizer.  Both
shapes, and the records the public constructor is given, then go through
the same checks of each declaration (:func:`_add_vertex`,
:func:`_add_edge`); a line those checks refuse is tokenized to place the
error.

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
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import AlphabetError, DegenerateInputError, ParseError
from .text import format_items
from .words import Alphabet, FreeWord, parse_int

MINUS = -1
PLUS = 1

_SIDE_NAMES = {MINUS: "minus", PLUS: "plus"}
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAMES = rf"{_NAME}(?:,{_NAME})*"
_NAME_RE = re.compile(_NAME + r"\Z")
_NAMES_RE = re.compile(_NAMES + r"\Z")
_by_id = attrgetter("id")


def side_name(side: int) -> str:
    return _SIDE_NAMES[side]


class Vertex(NamedTuple):
    """A vertex, named by an integer id >= 0, with its free group's alphabet tagged by that id."""

    id: int
    alphabet: Alphabet

    @classmethod
    def make(cls, vid: int, names: Iterable[str]) -> "Vertex":
        return cls(vid, Alphabet(vid, tuple(names)))

    @property
    def rank(self) -> int:
        return self.alphabet.rank


class Edge(NamedTuple):
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


class TreeStep(NamedTuple):
    edge_id: int
    parent: int
    child: int


class SpanningTree(NamedTuple):
    """A breadth-first spanning tree, rooted at the least vertex id.

    ``steps`` lists tree edges in discovery order (parent before child);
    ``non_tree_edge_ids`` are the remaining edges, sorted.  Ties are broken
    by edge id, so the tree is a deterministic function of the graph.
    """

    root: int
    steps: Tuple[TreeStep, ...]
    non_tree_edge_ids: Tuple[int, ...]


class GraphOfGroups:
    """A checked graph of groups.

    The constructor runs the caller's vertices and then edges, in id
    order, through the reader's checks of a declaration, each word read
    back as :meth:`to_text` prints it, and refuses one in the reader's words
    after the declaration (``edge 0: unknown vertex 1 (declare vertices
    first)``).  It also checks that there is a vertex and, what no file
    can get wrong, that every alphabet and word is tagged with its own
    vertex's id.  It keeps the caller's records, and builds ``tree``, the
    graph's one :class:`SpanningTree`, whose search is the check that the
    graph is connected.  ``vertices`` and ``edges`` map ids to declarations
    in id order, which every listing of them follows.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        self.vertices: Dict[int, Vertex] = {}
        gen_homes: Dict[str, int] = {}
        for v in sorted(vertices, key=_by_id):
            if v.alphabet.vertex != v.id:
                raise AlphabetError(f"vertex {v.id} has an alphabet tagged {v.alphabet.vertex!r}")
            refusal = _add_vertex(v, v.rank, self.vertices, gen_homes)
            if refusal is not None:
                raise DegenerateInputError(f"vertex {v.id}: {refusal[0]}")
        if not self.vertices:
            raise DegenerateInputError("a graph of groups needs at least one vertex")
        self.edges: Dict[int, Edge] = {}
        for e in sorted(edges, key=_by_id):
            for side in (MINUS, PLUS):
                word, vid = e.word(side), e.vertex(side)
                if word.vertex != vid:
                    raise AlphabetError(
                        f"edge {e.id} {side_name(side)} word is over vertex '{word.vertex}', expected {vid}"
                    )
            refusal = _add_edge(*e, self.vertices, self.edges, lambda a, w: a.parse(format_items(self, [w])))
            if refusal is not None:
                raise DegenerateInputError(f"edge {e.id}: {refusal[0]}")
            self.edges[e.id] = e  # the caller's record, equal to the one added
        self._build_tree()

    @classmethod
    def _from_checked(cls, vertices: Dict[int, Vertex], edges: Dict[int, Edge]) -> "GraphOfGroups":
        """The graph of at least one vertex and of declarations, keyed by
        id, that keep the rules of :func:`_add_vertex` and :func:`_add_edge`
        (as the reader and :func:`reduce_graph` make them): put in id order,
        not checked again.  The spanning-tree search still checks that it
        is connected."""
        graph = cls.__new__(cls)
        graph.vertices = dict(sorted(vertices.items()))
        graph.edges = dict(sorted(edges.items()))
        graph._build_tree()
        return graph

    def _build_tree(self):
        incident: Dict[int, List[Tuple[Edge, int]]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            incident[e.minus_vertex].append((e, MINUS))
            incident[e.plus_vertex].append((e, PLUS))
        root_vertex = min(self.vertices)
        seen = {root_vertex}
        reached = [root_vertex]  # in breadth-first order
        steps: List[TreeStep] = []
        for v in reached:
            for edge, side in incident[v]:
                other = edge.vertex(-side)
                if other not in seen:
                    seen.add(other)
                    steps.append(TreeStep(edge.id, v, other))
                    reached.append(other)
        if len(seen) != len(self.vertices):
            missing = min(set(self.vertices) - seen)
            raise DegenerateInputError(f"graph is not connected (vertex {missing} unreachable)")
        tree_ids = {s.edge_id for s in steps}
        non_tree = tuple(i for i in self.edges if i not in tree_ids)
        self.tree = SpanningTree(root_vertex, tuple(steps), non_tree)

    # -------------------------------------------------------------- basics

    @property
    def betti_number(self) -> int:
        """First Betti number |E| - |V| + 1 of the underlying connected graph."""
        return len(self.edges) - len(self.vertices) + 1

    # -------------------------------------------------------------- labels

    def is_bad_end(self, edge: Edge, side: int) -> bool:
        """True when the inclusion word generates the whole vertex group."""
        # a reduced rank-one word is one syllable x^k
        return self.vertices[edge.vertex(side)].rank == 1 and abs(edge.word(side).syllables[0][1]) == 1

    def reducible_edges(self) -> List[Edge]:
        if all(v.rank > 1 for v in self.vertices.values()):  # only a rank-one vertex has bad ends
            return []
        return [
            e
            for e in self.edges.values()
            if not e.is_loop and (self.is_bad_end(e, MINUS) or self.is_bad_end(e, PLUS))
        ]

    @property
    def is_trivial(self) -> bool:
        """A single vertex and no edges: the group is just that free group."""
        return len(self.vertices) == 1 and not self.edges

    # -------------------------------------------------------------- output

    def to_text(self) -> str:
        lines = [f"vertex {v.id} rank={v.rank} gens={','.join(v.alphabet.names)}" for v in self.vertices.values()]
        for e in self.edges.values():
            minus, plus = format_items(self, [e.minus_word]), format_items(self, [e.plus_word])
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


# The canonical shape of each declaration, as ``to_text`` writes it, for
# ``fullmatch``.  Groups: vertex id, rank, names; edge id, endpoints, words.
# An integer has at most 18 digits, which ``int`` converts under any limit on
# digits; a longer one is left to the tokenizer.
_INT = r"([0-9]{1,18})"
_VERTEX_LINE_RE = re.compile(rf"[ \t]*vertex[ \t]+{_INT}[ \t]+rank={_INT}[ \t]+gens=({_NAMES})[ \t]*")
_EDGE_LINE_RE = re.compile(
    rf'[ \t]*edge[ \t]+{_INT}[ \t]+{_INT}[ \t]+{_INT}[ \t]+minus="([^"]*)"[ \t]+plus="([^"]*)"[ \t]*'
)

# A refusal: its message and the index of the part it blames, in the order
# a declaration's line spells its parts.
Refusal = Optional[Tuple[str, int]]


def _add_vertex(vertex: Vertex, rank: int, vertices: Dict[int, Vertex], gen_homes: Dict[str, int]) -> Refusal:
    """Add ``vertex``, declared with ``rank``, or return its refusal,
    changing nothing; ``gen_homes`` maps each name added to its vertex."""
    vid, names = vertex.id, vertex.alphabet.names
    if vid < 0:
        return f"expected a vertex id, got '{vid}'", 0
    if vid in vertices:
        return f"duplicate vertex id {vid}", 0
    homes, joined = dict.fromkeys(names, vid), ",".join(names)
    # one match for all names, which hold no comma when the count says so
    valid = _NAMES_RE.match(joined) and joined.count(",") == len(names) - 1
    if not (valid and len(homes) == len(names) and gen_homes.keys().isdisjoint(homes)):
        seen = set()
        for name in names:  # name the first refused name
            if not _NAME_RE.match(name):
                return f"bad generator name {name!r}", 2
            if name in gen_homes or name in seen:
                return f"generator {name!r} already declared at vertex {gen_homes.get(name, vid)}", 2
            seen.add(name)
    if rank != len(names) or rank < 1:
        return f"rank={rank} but {len(names)} generator name(s)", 2
    gen_homes.update(homes)
    vertices[vid] = vertex
    return None


def _add_edge(
    eid: int, minus_vertex: int, plus_vertex: int, minus, plus,
    vertices: Dict[int, Vertex], edges: Dict[int, Edge], read=Alphabet.parse,
) -> Refusal:
    """Add the edge ``edge <eid> <minus_vertex> <plus_vertex> minus=<minus>
    plus=<plus>`` declares, its words read at their endpoints by ``read``,
    or return its refusal, changing nothing."""
    if eid < 0:
        return f"expected an edge id, got '{eid}'", 0
    if eid in edges:
        return f"duplicate edge id {eid}", 0
    if minus_vertex not in vertices or plus_vertex not in vertices:
        blamed, vid = (1, minus_vertex) if minus_vertex not in vertices else (2, plus_vertex)
        return f"unknown vertex {vid} (declare vertices first)", blamed
    blamed = 3
    try:
        minus_word = read(vertices[minus_vertex].alphabet, minus)
        if minus_word.syllables:
            blamed = 4
            plus_word = read(vertices[plus_vertex].alphabet, plus)
            if plus_word.syllables:
                edges[eid] = Edge(eid, minus_vertex, plus_vertex, minus_word, plus_word)
                return None
    except ParseError as exc:
        return exc.message, blamed
    return "inclusion word must not be the identity", blamed


def parse_graph(text: str) -> GraphOfGroups:
    """Parse the text format; errors carry 1-based line and column positions.

    A line in the canonical shape is split by one match and taken when it
    passes :func:`_add_edge` or :func:`_add_vertex`.  Any other line, or
    one those checks refuse, is tokenized and goes through the same two
    functions, and only that path raises, at the column of the token the
    refusal blames.
    """
    vertices: Dict[int, Vertex] = {}
    edges: Dict[int, Edge] = {}
    gen_homes: Dict[str, int] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # the only line breaks
    for lineno, raw in enumerate(lines, start=1):
        if not raw:  # an empty line, as after the last line break
            continue
        m = _EDGE_LINE_RE.fullmatch(raw)
        if m is not None and _add_edge(int(m[1]), int(m[2]), int(m[3]), m[4], m[5], vertices, edges) is None:
            continue
        m = _VERTEX_LINE_RE.fullmatch(raw)
        if m is not None:
            vertex = Vertex.make(int(m[1]), m[3].split(","))
            if _add_vertex(vertex, int(m[2]), vertices, gen_homes) is None:
                continue
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head, col0 = tokens[0]
        if head == "vertex":
            if len(tokens) < 2:
                raise ParseError("vertex needs an id", lineno, col0)
            vid = _parse_int(tokens[1], lineno, "a vertex id")
            fields = _parse_fields(tokens[2:], lineno, col0, {"rank", "gens"})
            rank = _parse_int(fields["rank"], lineno, "an integer rank")
            gens = fields["gens"][0]
            located = (tokens[1], fields["rank"], fields["gens"])
            refusal = _add_vertex(Vertex.make(vid, gens.split(",") if gens else ()), rank, vertices, gen_homes)
        elif head == "edge":
            if len(tokens) < 4:
                raise ParseError("edge needs an id and two endpoint vertex ids", lineno, col0)
            eid = _parse_int(tokens[1], lineno, "an edge id")
            ends = [_parse_int(token, lineno, "a vertex id") for token in tokens[2:4]]
            fields = _parse_fields(tokens[4:], lineno, col0, {"minus", "plus"})
            located = (*tokens[1:4], fields["minus"], fields["plus"])
            refusal = _add_edge(eid, *ends, fields["minus"][0], fields["plus"][0], vertices, edges)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col0)
        if refusal is not None:
            message, blamed = refusal
            raise ParseError(message, lineno, located[blamed][1])
    if not vertices:
        raise ParseError("no vertices declared", len(lines), 1)
    return GraphOfGroups._from_checked(vertices, edges)


# -------------------------------------------------------------- contraction


class Contraction(NamedTuple):
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
    vertex's degree.  The result is built once, unvalidated: names stay
    unique and each end a nontrivial word at its vertex (image^k, k != 0, at
    the survivor).  ``graph`` itself comes back when nothing contracts.
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
        eps = edge.word(absorbed_side).syllables[0][1]  # the bad end is x or x^-1
        image = edge.word(-absorbed_side) ** eps
        steps.append(Contraction(edge.id, absorbed, survivor, image))

        del edges[edge.id], vertices[absorbed]
        incident[survivor].discard(edge.id)
        moved = incident.pop(absorbed) - {edge.id}
        for eid in moved:
            e = edges[eid]
            mv, pv, mw, pw = e.minus_vertex, e.plus_vertex, e.minus_word, e.plus_word
            # a reduced rank-one word is one syllable x^k
            if mv == absorbed:
                mv, mw = survivor, image ** mw.syllables[0][1]
            if pv == absorbed:
                pv, pw = survivor, image ** pw.syllables[0][1]
            edges[eid] = Edge(eid, mv, pv, mw, pw)
        incident[survivor] |= moved
    return GraphOfGroups._from_checked(vertices, edges), tuple(steps)
