"""Graph parsing, end labels, contraction, spanning trees."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gogz.errors import AlphabetError, DegenerateInputError, ParseError
from gogz.graphs import (
    MINUS,
    PLUS,
    Contraction,
    Edge,
    GraphOfGroups,
    Vertex,
    _EDGE_LINE_RE,
    _VERTEX_LINE_RE,
    _tokenize,
    parse_graph,
    reduce_graph,
)
from gogz.words import Alphabet, FreeWord
from helpers import root, spell
from test_paths_reference import graphs

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
    assert g.edges[0].minus_word == g.vertices[0].alphabet.parse("a b")
    again = parse_graph(g.to_text())
    assert again.to_text() == g.to_text()


def test_parse_comments_and_blank_lines():
    g = parse_graph(BS23)
    assert len(g.edges) == 1
    assert g.edges[0].is_loop


# Characters that str.splitlines takes for line breaks and the format does not
_NOT_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", _NOT_LINE_BREAKS)
def test_only_newline_and_carriage_return_break_lines(char):
    text = f'vertex 0 rank=1 gens=a # page{char} break\nedge 0 0 0 minus="a{char}" plus="a^2"\n'
    assert parse_graph(text).to_text() == V0 + 'edge 0 0 0 minus="a" plus="a^2"\n'
    # a bad edge after such a comment is reported on its own line
    with pytest.raises(ParseError) as err:
        parse_graph(f'vertex 0 rank=1 gens=a # page{char} break\nedge 0 0 0 minus="a" plus="b"\n')
    assert (err.value.message, err.value.line, err.value.col) == ("unknown generator 'b' (vertex '0')", 2, 22)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_bare_cr_files_parse_alike(newline):
    assert parse_graph(THETA.replace("\n", newline)).to_text() == parse_graph(THETA).to_text()
    with pytest.raises(ParseError) as err:
        parse_graph(newline.join([V0.strip(), "", 'edge 0 0 0 minus="a" plus="b"']))
    assert (err.value.line, err.value.col) == (3, 22)
    with pytest.raises(ParseError) as err:
        parse_graph(newline.join(["# one", "# two", ""]))
    assert (err.value.message, err.value.line) == ("no vertices declared", 3)


BIG = "1" * 5000  # more digits than ``int`` converts
V0 = "vertex 0 rank=1 gens=a\n"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("vertex x rank=1 gens=a", "expected a vertex id, got 'x'", 1, 8),
        ("vertex 0 rank=2 gens=a", "rank=2 but 1 generator name(s)", 1, 17),
        ("vertex 0 rank=0 gens=a", "rank=0 but 1 generator name(s)", 1, 17),
        (V0 + "vertex 0 rank=1 gens=b", "duplicate vertex id 0", 2, 8),
        (V0 + "vertex 1 rank=1 gens=a", "generator 'a' already declared at vertex 0", 2, 17),
        ("vertex 0 rank=2 gens=a,a", "generator 'a' already declared at vertex 0", 1, 17),
        (V0 + 'edge 0 0 1 minus="a" plus="a"', "unknown vertex 1 (declare vertices first)", 2, 10),
        (V0 + 'edge 0 0 0 minus="a" plus="b"', "unknown generator 'b' (vertex '0')", 2, 22),
        (V0 + 'edge 0 0 0 minus="a a^-1" plus="a"', "inclusion word must not be the identity", 2, 12),
        (
            V0 + 'edge 0 0 0 minus="a" plus="a^2"\nedge 0 0 0 minus="a^2" plus="a"',
            "duplicate edge id 0", 3, 6,
        ),
        (
            V0 + 'edge 0 0 0 minus="a" plus="a^1000001"',
            "word longer than 1000000 letters at token 'a^1000001' (vertex '0')", 2, 22,
        ),
        (V0 + 'edge 0 0 0 minus="a"', "missing field 'plus'", 2, 1),
        (V0 + 'edge 0 0 0 minus="a plus="a"', "unterminated quote", 2, 12),
        ("widget 0", "unknown directive 'widget'", 1, 1),
        ("", "no vertices declared", 1, 1),
        (f"vertex {BIG} rank=1 gens=a", f"expected a vertex id, got '{BIG}'", 1, 8),
        (f"vertex 0 rank={BIG} gens=a", f"expected an integer rank, got '{BIG}'", 1, 10),
        (V0 + f'edge {BIG} 0 0 minus="a" plus="a^2"', f"expected an edge id, got '{BIG}'", 2, 6),
        (V0 + f'edge 0 0 0 minus="a^{BIG}" plus="a"', f"bad exponent in token 'a^{BIG}'", 2, 12),
        ("vertex", "vertex needs an id", 1, 1),
        (V0 + "edge 0 0", "edge needs an id and two endpoint vertex ids", 2, 1),
        (V0 + "edge 0 0 0 minus=a plus=a stray", "expected a minus/plus field, got 'stray'", 2, 27),
        (V0 + "edge 0 0 0 minus=a plus=a colour=red", "unknown field 'colour'", 2, 27),
        (V0 + "edge 0 0 0 minus=a minus=a plus=a", "repeated field 'minus'", 2, 20),
        ("vertex 0 rank=1 gens=1a", "bad generator name '1a'", 1, 17),
        ("vertex 0 rank=1 gens=a,b", "rank=1 but 2 generator name(s)", 1, 17),
        (V0 + "vertex 1 rank=3 gens=b,c,b", "generator 'b' already declared at vertex 1", 2, 17),
        (V0 + 'edge 0 2 0 minus="a" plus="a"', "unknown vertex 2 (declare vertices first)", 2, 8),
        (V0 + 'edge 0 0 0 minus="a^0" plus="a"', "zero exponent in token 'a^0'", 2, 12),
        (V0 + 'edge 0 0 0 minus="a" plus="a^2 a^-2"', "inclusion word must not be the identity", 2, 22),
    ],
    ids=lambda value: f"{value[:32]}...{len(value)}" if isinstance(value, str) and len(value) > 80 else None,
)
def test_parse_errors_carry_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    # a refused line in the canonical shape is refused alike when rewritten,
    # one column further on
    *before, last = text.split("\n")
    if _VERTEX_LINE_RE.fullmatch(last) or _EDGE_LINE_RE.fullmatch(last):
        rewritten = "\t" + last.replace(" ", "\t") + "  # rewritten"
        with pytest.raises(ParseError) as err:
            parse_graph("\n".join([*before, rewritten]))
        assert (err.value.message, err.value.line, err.value.col) == (message, line, col + 1)


_A = Vertex.make(0, ("a",))
_B = Vertex.make(1, ("b",))
_AB = Vertex.make(0, ("a", "b"))
_LOOP = Edge(0, 0, 0, _A.alphabet.parse("a"), _A.alphabet.parse("a^2"))


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        ([_A, Vertex.make(0, ("b",))], [], DegenerateInputError, "vertex 0: duplicate vertex id 0"),
        ([_A], [_LOOP, _LOOP], DegenerateInputError, "edge 0: duplicate edge id 0"),
        ([], [], DegenerateInputError, "a graph of groups needs at least one vertex"),
        ([Vertex.make(0, ())], [], DegenerateInputError, "vertex 0: rank=0 but 0 generator name(s)"),
        ([_A, Vertex.make(1, ("a",))], [], DegenerateInputError,
         "vertex 1: generator 'a' already declared at vertex 0"),
        ([_A], [Edge(0, 0, 1, _A.alphabet.parse("a"), _B.alphabet.parse("b"))], DegenerateInputError,
         "edge 0: unknown vertex 1 (declare vertices first)"),
        ([_A, _B], [Edge(0, 0, 1, _A.alphabet.parse("a"), _A.alphabet.parse("a"))], AlphabetError,
         "edge 0 plus word is over vertex '0', expected 1"),
        ([_A], [Edge(0, 0, 0, _A.alphabet.parse("a"), _A.alphabet.parse("1"))], DegenerateInputError,
         "edge 0: inclusion word must not be the identity"),
        # an error, not an assert, so that python -O refuses it too
        ([Vertex(3, Alphabet("0", ("a",)))], [], AlphabetError, "vertex 3 has an alphabet tagged '0'"),
        # what no file can declare, the constructor refuses too
        ([Vertex.make(-1, ("a",))], [], DegenerateInputError, "vertex -1: expected a vertex id, got '-1'"),
        ([_A], [_LOOP._replace(id=-1)], DegenerateInputError, "edge -1: expected an edge id, got '-1'"),
        ([Vertex.make(0, ("a b",))], [], DegenerateInputError, "vertex 0: bad generator name 'a b'"),
        ([Vertex.make(0, ("a,b",))], [], DegenerateInputError, "vertex 0: bad generator name 'a,b'"),
        ([Vertex.make(0, ("1",))], [], DegenerateInputError, "vertex 0: bad generator name '1'"),
        ([Vertex.make(0, ("",))], [], DegenerateInputError, "vertex 0: bad generator name ''"),
        # a word that to_text would write and parse_graph refuse
        ([_A], [Edge(0, 0, 0, _A.alphabet.word(((1, 2000000),)), _A.alphabet.parse("a^3"))], DegenerateInputError,
         "edge 0: word longer than 1000000 letters at token 'a^2000000' (vertex '0')"),
        ([_A], [Edge(0, 0, 0, _A.alphabet.parse("a^3"), _A.alphabet.word(((1, -1000001),)))], DegenerateInputError,
         "edge 0: word longer than 1000000 letters at token 'a^-1000001' (vertex '0')"),
        # refused at the token whose letters pass the cap, as the reader refuses it
        ([_AB], [Edge(0, 0, 0, _AB.alphabet.word(((1, 999999), (2, -2), (1, 5))), _AB.alphabet.parse("a"))],
         DegenerateInputError, "edge 0: word longer than 1000000 letters at token 'b^-2' (vertex '0')"),
    ],
)
def test_graph_of_groups_refuses_degenerate_input(vertices, edges, error, message):
    with pytest.raises(error) as err:
        GraphOfGroups(vertices, edges)
    assert str(err.value) == message


def test_graph_of_groups_refuses_a_name_twice_at_one_vertex():
    # an Alphabet takes its names as they come; the checked constructor refuses the repeat
    with pytest.raises(DegenerateInputError) as err:
        GraphOfGroups([Vertex.make(0, ("a", "b", "a"))], [])
    assert str(err.value) == "vertex 0: generator 'a' already declared at vertex 0"


# names no graph file can spell, and one that may repeat a drawn name
_ODD_NAMES = ["a b", "a,b", "1", "", "a"]


@st.composite
def declarations(draw):
    """The records of a drawn graph with its ids shifted, and at times one
    id made negative or 0 (which may repeat another) or one name replaced
    by an odd one."""
    g = draw(graphs())
    shift = draw(st.integers(0, 2))
    vids = {v: v + shift for v in g.vertices}
    eids = {e: e + shift for e in g.edges}
    names = {v: list(vertex.alphabet.names) for v, vertex in g.vertices.items()}
    fault = draw(st.sampled_from([None, None, -1, 0, *_ODD_NAMES]))
    if fault in (-1, 0):
        ids = draw(st.sampled_from([vids, eids]))
        ids[draw(st.sampled_from(sorted(ids)))] = fault
    elif fault is not None:
        v = draw(st.sampled_from(sorted(names)))
        names[v][draw(st.integers(0, len(names[v]) - 1))] = fault
    vertices = {v: Vertex.make(vids[v], names[v]) for v in g.vertices}
    edges = [
        Edge(
            eids[e.id], vids[e.minus_vertex], vids[e.plus_vertex],
            vertices[e.minus_vertex].alphabet.word(e.minus_word.syllables),
            vertices[e.plus_vertex].alphabet.word(e.plus_word.syllables),
        )
        for e in g.edges.values()
    ]
    return list(vertices.values()), edges


@settings(max_examples=200, deadline=None)
@given(declarations())
@example(([Vertex.make(-1, ("a",))], []))
@example(([Vertex.make(0, ("a b",))], []))
def test_every_accepted_graph_reads_back(declared):
    # the constructor refuses what no file can declare, so every graph it
    # accepts writes a file that reads back to the same text
    try:
        g = GraphOfGroups(*declared)
    except (DegenerateInputError, AlphabetError):
        return
    text = g.to_text()
    assert parse_graph(text).to_text() == text


def test_graph_of_groups_keeps_the_callers_records():
    edge = Edge(0, 1, 0, _B.alphabet.parse("b^2"), _A.alphabet.parse("a"))
    g = GraphOfGroups([_B, _A], [edge])
    assert list(g.vertices) == [0, 1] and g.vertices[0] is _A and g.vertices[1] is _B
    assert g.edges == {0: edge} and g.edges[0] is edge


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


def test_tokenize_keeps_a_quoted_hash():
    assert _tokenize('edge 0 0 1 minus="a # b"', 1) == [
        ("edge", 1), ("0", 6), ("0", 8), ("1", 10), ("minus=a # b", 12)
    ]


def test_tokenize_drops_a_trailing_comment():
    assert _tokenize('vertex 0 rank=1 gens=a  # the base\t"', 1) == [
        ("vertex", 1), ("0", 8), ("rank=1", 10), ("gens=a", 17)
    ]
    assert _tokenize("gens=a#b c", 1) == [("gens=a", 1)]


def test_tokenize_places_an_unterminated_quote_at_its_token():
    with pytest.raises(ParseError) as err:
        _tokenize('edge 0 0 0 minus="a" plus="a', 4)
    assert (err.value.message, err.value.line, err.value.col) == ("unterminated quote", 4, 22)
    with pytest.raises(ParseError) as err:
        parse_graph('vertex 0 rank=1 gens=a\n  edge 0 0 0 minus="a plus="a"')
    assert (err.value.line, err.value.col) == (2, 14)


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
    assert e.minus_word == reduced.vertices[0].alphabet.parse("a b a b a b")
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
    assert log[0].image == reduced.vertices[1].alphabet.parse("b^-2")
    e = reduced.edges[1]
    assert e.is_loop
    assert e.minus_word == reduced.vertices[1].alphabet.parse("b^-10")


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
                vertices[parent].alphabet.parse(f"g{parent}^{km}"),
                vertices[child].alphabet.parse(f"g{child}^{kp}"),
            )
        )
    return GraphOfGroups(vertices, edges)


@given(random_tree_graph())
def test_random_proper_power_trees_are_already_reduced(g):
    reduced, log = reduce_graph(g)
    assert len(log) == 0
    assert reduced is g or reduced.to_text() == g.to_text()


@st.composite
def random_graph_with_bad_ends(draw, max_extra_edges=2):
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
                vertices[parent].alphabet.parse(f"g{parent}^{km}"),
                vertices[child].alphabet.parse(f"g{child}^{kp}"),
            )
        )
        eid += 1
    for _ in range(draw(st.integers(0, max_extra_edges))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        km = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        kp = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        edges.append(
            Edge(eid, a, b, vertices[a].alphabet.parse(f"g{a}^{km}"), vertices[b].alphabet.parse(f"g{b}^{kp}"))
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


@given(random_graph_with_bad_ends(max_extra_edges=0))
def test_reduce_graph_builds_without_revalidating(g):
    # contraction keeps ids and names unique and leaves every end a
    # nontrivial word at its own vertex, so reduce_graph never runs the
    # checking constructor, and its graph matches that constructor's
    def refuse(self, vertices, edges):
        raise AssertionError("reduce_graph revalidated its graph")

    with mock.patch.object(GraphOfGroups, "__init__", refuse):
        reduced, _ = reduce_graph(g)
    expected = GraphOfGroups(reduced.vertices.values(), reduced.edges.values())
    assert _declarations(reduced) == _declarations(expected)
    assert list(reduced.vertices) == list(expected.vertices)
    assert list(reduced.edges) == list(expected.edges)
    assert reduced.tree == expected.tree
    assert reduced.to_text() == expected.to_text()


def test_edges_are_values():
    a, b = Vertex.make(0, ("a",)), Vertex.make(1, ("b",))
    edge = Edge(0, 0, 1, a.alphabet.parse("a^2"), b.alphabet.parse("b^3"))
    again = Edge(0, 0, 1, FreeWord(0, ((1, 2),)), FreeWord(1, ((1, 3),)))
    assert edge == again and hash(edge) == hash(again) and edge is not again
    # the same syllables over another vertex make another word, and another edge
    assert Edge(0, 0, 1, a.alphabet.parse("a^2"), FreeWord(0, ((1, 3),))) != edge
    for record, field in ((edge, "id"), (edge, "plus_word")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


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
        eps = spell(edge.word(absorbed_side).syllables)[0]
        image = edge.word(-absorbed_side) ** (1 if eps > 0 else -1)
        new_edges = []
        for e in graph.edges.values():
            if e.id == edge.id:
                continue
            mv, pv, mw, pw = e.minus_vertex, e.plus_vertex, e.minus_word, e.plus_word
            if mv == absorbed:
                mv, mw = survivor, image ** sum(spell(mw.syllables))
            if pv == absorbed:
                pv, pw = survivor, image ** sum(spell(pw.syllables))
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
            return v.alphabet.parse(f"{g}^{k}")
        return v.alphabet.parse(draw(st.sampled_from([f"{g}^{k}", h, f"{g} {h}", f"{h}^-1 {g}^{k} {h}"])))

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


def _rewrite(line, data):
    """An equivalent declaration that the canonical patterns refuse: its
    fields swapped and, as drawn, one whole field token quoted, tab blanks
    and a trailing comment."""
    head, _, rest = line.partition(" ")
    if head == "vertex":
        vid, rank, gens = rest.split(" ")
        ids, fields = [vid], [rank, gens]
    else:
        eid, minus_vertex, plus_vertex, words = rest.split(" ", 3)
        split = words.index(' plus="')
        ids, fields = [eid, minus_vertex, plus_vertex], [words[:split], words[split + 1:]]
    fields.reverse()
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, 1))
        fields[k] = '"' + fields[k].replace('"', "") + '"'
    blank = data.draw(st.sampled_from([" ", "\t", " \t "]))
    comment = data.draw(st.sampled_from(["", "  # rewritten", '\t#"']))
    return blank.join([head, *ids, *fields]) + comment


def _declarations(g):
    return [(v.id, v.alphabet.names) for v in g.vertices.values()], list(g.edges.values())


@settings(max_examples=200, deadline=None)
@given(mixed_rank_graph(), st.data())
def test_canonical_and_rewritten_lines_parse_alike(g, data):
    canonical = g.to_text()
    lines = canonical.splitlines()
    rewritten = [_rewrite(line, data) for line in lines]
    for line in lines:
        assert _VERTEX_LINE_RE.fullmatch(line) or _EDGE_LINE_RE.fullmatch(line)
    for line in rewritten:
        assert not _VERTEX_LINE_RE.fullmatch(line) and not _EDGE_LINE_RE.fullmatch(line)
    mixed = [new if data.draw(st.booleans()) else old for old, new in zip(lines, rewritten)]
    expected = parse_graph(canonical)
    assert expected.to_text() == canonical
    for text in ("\n".join(rewritten), "\n".join(mixed)):
        again = parse_graph(text)
        assert _declarations(again) == _declarations(expected)
        assert again.to_text() == canonical


@settings(max_examples=100, deadline=None)
@given(mixed_rank_graph(), st.randoms())
def test_parse_graph_builds_without_revalidating(g, rng):
    # every declaration was checked as it was read, so parsing never runs
    # the checking constructor, and the graph matches that constructor's
    lines = g.to_text().splitlines()
    edges = [line for line in lines if line.startswith("edge")]
    rng.shuffle(edges)  # id order is restored, whatever the file order
    text = "\n".join([line for line in lines if line.startswith("vertex")] + edges)

    def refuse(self, vertices, edges):
        raise AssertionError("parse_graph revalidated its graph")

    with mock.patch.object(GraphOfGroups, "__init__", refuse):
        parsed = parse_graph(text)
    expected = GraphOfGroups(parsed.vertices.values(), parsed.edges.values())
    assert _declarations(parsed) == _declarations(g)
    assert list(parsed.vertices) == list(expected.vertices)
    assert list(parsed.edges) == list(expected.edges)
    assert parsed.tree == expected.tree and parsed.tree == g.tree
