"""Graph parsing, end labels, contraction, spanning trees."""

import pytest
from hypothesis import given, settings, strategies as st

from gogz.errors import DegenerateInputError, ParseError
from gogz.graphs import (
    MINUS,
    PLUS,
    Contraction,
    Edge,
    GraphOfGroups,
    Vertex,
    _tokenize,
    parse_graph,
    reduce_graph,
)
from gogz.words import root

BS23 = """
# one loop: t a^2 t^-1 = a^3
vertex 0 rank=1 gens=a
edge 0 0 0 minus="a^2" plus="a^3"
"""

TREFOIL = """
vertex 0 rank=1 gens=a
vertex 1 rank=1 gens=b
edge 0 0 1 minus="a^2" plus="b^3"
"""

THETA = """
vertex 0 rank=2 gens=a,b
vertex 1 rank=1 gens=x
edge 0 0 1 minus="a b" plus="x^2"
edge 1 0 1 minus="b a" plus="x^3"
"""


def test_parse_round_trip():
    g = parse_graph(THETA)
    assert sorted(g.vertices) == [0, 1]
    assert sorted(g.edges) == [0, 1]
    assert g.edges[0].minus_word == g.vertices[0].parse("a b")
    again = parse_graph(g.to_text())
    assert again.to_text() == g.to_text()


def test_parse_comments_and_blank_lines():
    g = parse_graph(BS23)
    assert len(g.edges) == 1
    assert g.edges[0].is_loop


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("vertex x rank=1 gens=a", 1, "vertex id"),
        ("vertex 0 rank=2 gens=a", 1, "generator name"),
        ("vertex 0 rank=1 gens=a\nvertex 0 rank=1 gens=b", 2, "duplicate vertex"),
        ("vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=a", 2, "already declared"),
        ("vertex 0 rank=1 gens=a\nedge 0 0 1 minus=\"a\" plus=\"a\"", 2, "unknown vertex"),
        ("vertex 0 rank=1 gens=a\nedge 0 0 0 minus=\"a\" plus=\"b\"", 2, "unknown generator"),
        ("vertex 0 rank=1 gens=a\nedge 0 0 0 minus=\"a a^-1\" plus=\"a\"", 2, "identity"),
        ("vertex 0 rank=1 gens=a\nedge 0 0 0 minus=\"a\"", 2, "missing field"),
        ("vertex 0 rank=1 gens=a\nedge 0 0 0 minus=\"a plus=\"a\"", 2, "quote"),
        ("widget 0", 1, "unknown directive"),
        ("", 1, "no vertices"),
    ],
)
def test_parse_errors_carry_positions(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def reference_tokenize(line, lineno):
    """The character-at-a-time scanner that ``_tokenize`` replaced."""
    tokens = []
    i, n = 0, len(line)
    while i < n:
        if line[i] in " \t":
            i += 1
            continue
        if line[i] == "#":
            break
        start = i
        buf = []
        quoted = False
        while i < n and (quoted or line[i] not in " \t#"):
            if line[i] == '"':
                quoted = not quoted
            else:
                buf.append(line[i])
            i += 1
        if quoted:
            raise ParseError("unterminated quote", lineno, start + 1)
        tokens.append(("".join(buf), start + 1))
    return tokens


def _scan(tokenize, line):
    try:
        return tokenize(line, 3)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='a=^"# \t', max_size=24))
def test_tokenize_matches_the_character_scanner(line):
    assert _scan(_tokenize, line) == _scan(reference_tokenize, line)


def test_disconnected_rejected():
    text = "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\n"
    with pytest.raises(DegenerateInputError, match=r"not connected \(vertex 1 unreachable\)"):
        parse_graph(text)


def test_end_labels():
    g = parse_graph(TREFOIL)
    e = g.edges[0]
    assert not g.is_bad_end(e, MINUS) and not g.is_bad_end(e, PLUS)
    assert abs(root(e.minus_word).exponent) >= 2 and abs(root(e.plus_word).exponent) >= 2
    assert not g.reducible_edges()

    h = parse_graph("vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nedge 0 0 1 minus=\"a\" plus=\"b^2\"")
    e = h.edges[0]
    assert h.is_bad_end(e, MINUS) and not h.is_bad_end(e, PLUS)
    assert abs(root(e.minus_word).exponent) == 1 and abs(root(e.plus_word).exponent) >= 2
    assert h.reducible_edges()


def test_loops_never_reducible():
    g = parse_graph("vertex 0 rank=1 gens=a\nedge 0 0 0 minus=\"a\" plus=\"a\"")
    assert not g.reducible_edges()  # a bad end on a loop does not make it reducible


# ------------------------------------------------------------- contraction


def test_contract_chain_to_single_vertex():
    # path of three rank-one vertices glued along proper powers at the middle
    text = """
    vertex 0 rank=1 gens=a
    vertex 1 rank=1 gens=b
    vertex 2 rank=1 gens=c
    edge 0 0 1 minus="a" plus="b^2"
    edge 1 1 2 minus="b^3" plus="c"
    """
    g = parse_graph(text)
    reduced, log = reduce_graph(g)
    assert reduced.is_trivial
    assert [s.edge_id for s in log] == [0, 1]
    # step 1 absorbs vertex 0 into vertex 1 (a -> b^2); edge 1 is untouched,
    # step 2 then absorbs vertex 2 into vertex 1 (c -> b^3)
    assert log[0].absorbed_vertex == 0 and log[0].surviving_vertex == 1
    assert log[1].absorbed_vertex == 2 and log[1].surviving_vertex == 1
    assert reduced.vertices[1].rank == 1


def test_contract_rehomes_words():
    # absorbing vertex 1 (x -> a b) must rewrite edge 1's word x^3 to (a b)^3
    text = """
    vertex 0 rank=2 gens=a,b
    vertex 1 rank=1 gens=x
    vertex 2 rank=1 gens=y
    edge 0 0 1 minus="a b" plus="x"
    edge 1 1 2 minus="x^3" plus="y^2"
    """
    g = parse_graph(text)
    reduced, log = reduce_graph(g)
    assert len(log) == 1
    assert log[0].absorbed_vertex == 1 and log[0].surviving_vertex == 0
    e = reduced.edges[1]
    assert e.minus_vertex == 0
    assert e.minus_word == reduced.vertices[0].parse("a b a b a b")
    assert not reduced.reducible_edges()


def test_contract_inverted_bad_letter():
    # bad word a^-1: the generator maps to the inverse of the far word
    text = """
    vertex 0 rank=1 gens=a
    vertex 1 rank=1 gens=b
    edge 0 0 1 minus="a^-1" plus="b^2"
    edge 1 0 1 minus="a^5" plus="b^7"
    """
    g = parse_graph(text)
    reduced, log = reduce_graph(g)
    assert log[0].absorbed_vertex == 0
    assert log[0].image == reduced.vertices[1].parse("b^-2")
    e = reduced.edges[1]
    assert e.is_loop
    assert e.minus_word == reduced.vertices[1].parse("b^-10")


def test_both_ends_bad_keeps_least_vertex():
    text = """
    vertex 3 rank=1 gens=a
    vertex 7 rank=1 gens=b
    edge 0 7 3 minus="b" plus="a^-1"
    """
    g = parse_graph(text)
    reduced, log = reduce_graph(g)
    assert log[0].surviving_vertex == 3
    assert log[0].absorbed_vertex == 7
    assert reduced.is_trivial


def test_contraction_preserves_betti_number():
    text = """
    vertex 0 rank=1 gens=a
    vertex 1 rank=1 gens=b
    edge 0 0 1 minus="a" plus="b^2"
    edge 1 0 1 minus="a^3" plus="b"
    """
    g = parse_graph(text)
    reduced, log = reduce_graph(g)
    assert g.betti_number == reduced.betti_number == 1
    assert len(reduced.edges) == 1 and next(iter(reduced.edges.values())).is_loop


# ----------------------------------------------------------- spanning tree


def test_maximal_tree_deterministic():
    text = """
    vertex 0 rank=1 gens=a
    vertex 1 rank=1 gens=b
    vertex 2 rank=1 gens=c
    edge 0 0 1 minus="a^2" plus="b^2"
    edge 1 1 2 minus="b^3" plus="c^2"
    edge 2 2 0 minus="c^3" plus="a^3"
    edge 3 0 0 minus="a^4" plus="a^5"
    """
    g = parse_graph(text)
    tree = g.tree
    assert tree.root == 0
    assert [(s.edge_id, s.parent, s.child) for s in tree.steps] == [(0, 0, 1), (2, 0, 2)]
    assert tree.non_tree_edge_ids == (1, 3)


def test_maximal_tree_of_tree_has_no_extra_edges():
    tree = parse_graph(TREFOIL).tree
    assert tree.non_tree_edge_ids == ()
    assert [s.edge_id for s in tree.steps] == [0]


# ------------------------------------------------------------- properties


@st.composite
def random_tree_graph(draw):
    """A random tree of rank-one vertices with proper-power inclusion words."""
    n = draw(st.integers(2, 6))
    vertices = [Vertex.make(i, (f"g{i}",)) for i in range(n)]
    edges = []
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        km = draw(st.integers(2, 4)) * draw(st.sampled_from([1, -1]))
        kp = draw(st.integers(2, 4)) * draw(st.sampled_from([1, -1]))
        edges.append(
            Edge(
                child - 1,
                parent,
                child,
                vertices[parent].parse(f"g{parent}^{km}"),
                vertices[child].parse(f"g{child}^{kp}"),
            )
        )
    return GraphOfGroups(vertices, edges)


@given(random_tree_graph())
def test_random_proper_power_trees_are_already_reduced(g):
    reduced, log = reduce_graph(g)
    assert len(log) == 0
    assert reduced is g or reduced.to_text() == g.to_text()


@st.composite
def random_graph_with_bad_ends(draw):
    n = draw(st.integers(2, 5))
    vertices = [Vertex.make(i, (f"g{i}",)) for i in range(n)]
    edges = []
    eid = 0
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        km = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        kp = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        edges.append(
            Edge(
                eid,
                parent,
                child,
                vertices[parent].parse(f"g{parent}^{km}"),
                vertices[child].parse(f"g{child}^{kp}"),
            )
        )
        eid += 1
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        km = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        kp = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        edges.append(
            Edge(eid, a, b, vertices[a].parse(f"g{a}^{km}"), vertices[b].parse(f"g{b}^{kp}"))
        )
        eid += 1
    return GraphOfGroups(vertices, edges)


@given(random_graph_with_bad_ends())
def test_reduction_terminates_and_is_reduced(g):
    reduced, log = reduce_graph(g)
    assert not reduced.reducible_edges()
    assert len(log) <= len(g.vertices) - 1
    assert reduced.betti_number == g.betti_number
    # every surviving vertex existed in the input
    assert set(reduced.vertices) <= set(g.vertices)


def _reference_reduce(graph):
    """Least reducible edge first, rebuilding and validating the graph per step."""
    steps = []
    while graph.reducible_edges():
        edge = graph.reducible_edges()[0]
        minus_bad, plus_bad = graph.is_bad_end(edge, MINUS), graph.is_bad_end(edge, PLUS)
        if minus_bad and plus_bad:
            absorbed_side = MINUS if edge.minus_vertex > edge.plus_vertex else PLUS
        else:
            absorbed_side = MINUS if minus_bad else PLUS
        absorbed, survivor = edge.vertex(absorbed_side), edge.vertex(-absorbed_side)
        eps = edge.word(absorbed_side).letters[0]
        image = edge.word(-absorbed_side) ** (1 if eps > 0 else -1)
        new_edges = []
        for e in graph.edges.values():
            if e.id == edge.id:
                continue
            mv, pv, mw, pw = e.minus_vertex, e.plus_vertex, e.minus_word, e.plus_word
            if mv == absorbed:
                mv, mw = survivor, image ** sum(mw.letters)
            if pv == absorbed:
                pv, pw = survivor, image ** sum(pw.letters)
            new_edges.append(Edge(e.id, mv, pv, mw, pw))
        new_vertices = [v for v in graph.vertices.values() if v.id != absorbed]
        graph = GraphOfGroups(new_vertices, new_edges)
        steps.append(Contraction(edge.id, absorbed, survivor, image))
    return graph, tuple(steps)


@st.composite
def mixed_rank_graph(draw):
    """Rank-1 and rank-2 vertices, loops, parallel edges, both orientations,
    and edge ids out of declaration order."""
    n = draw(st.integers(1, 7))
    vertices = [Vertex.make(i, (f"g{i}", f"h{i}")[: draw(st.integers(1, 2))]) for i in range(n)]

    def word(v):
        g, h = f"g{v.id}", f"h{v.id}"
        k = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        if v.rank == 1:
            return v.parse(f"{g}^{k}")
        return v.parse(draw(st.sampled_from([f"{g}^{k}", h, f"{g} {h}", f"{h}^-1 {g}^{k} {h}"])))

    ends = []
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        ends.append((parent, child) if draw(st.booleans()) else (child, parent))
    for _ in range(draw(st.integers(0, 4))):
        ends.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    ids = draw(st.permutations(range(len(ends))))
    edges = [
        Edge(eid, a, b, word(vertices[a]), word(vertices[b])) for eid, (a, b) in zip(ids, ends)
    ]
    return GraphOfGroups(vertices, edges)


@settings(max_examples=300, deadline=None)
@given(mixed_rank_graph())
def test_reduction_matches_the_step_by_step_rebuild(g):
    reduced, steps = reduce_graph(g)
    expected, expected_steps = _reference_reduce(g)
    assert steps == expected_steps
    assert reduced.to_text() == expected.to_text()
    assert list(reduced.edges) == list(expected.edges)
    if not steps:
        assert reduced is g
