"""The text grammar of ``gogz.text``: the reader and the printer of items
are inverse to each other.

Items are drawn on the suite graphs (QuickCheck-style round trips: Claessen
and Hughes, ICFP 2000): vertex words with exponents up to the 10^6-letter
cap, stable letters ``t_e^k`` with either sign, the identity, and bare
``t`` on graphs of one edge.  Each item is priced here as the reader
prices it, one token at a time, so the tests also fix where a product past
the cap is refused and with which message.
"""

import pytest
from conftest import SUITE_TEXTS
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gogz.errors import ParseError
from gogz.graphs import parse_graph
from gogz.text import format_items, read_items, read_relation
from gogz.words import MAX_WORD_LETTERS, FreeWord, reduce_letters

GRAPHS = {name: parse_graph(text) for name, text in SUITE_TEXTS.items()}
SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _depths(graph):
    depth = {graph.tree.root: 0}
    for step in graph.tree.steps:
        depth[step.child] = depth[step.parent] + 1
    return depth


def _tokens(graph, items):
    """(token, letters it costs, its refusal as a word) for each token the
    items spell: the file grammar's ``name^k`` per syllable, ``t_e^k`` per
    stable letter and ``1`` for the identity, written here from the
    grammar, not by the printer under test."""
    depth = _depths(graph)
    for item in items:
        if not isinstance(item, FreeWord):
            _, eid, k = item
            edge = graph.edges[eid]
            yield (f"t_{eid}" if k == 1 else f"t_{eid}^{k}"), abs(k) * (
                depth[edge.minus_vertex] + depth[edge.plus_vertex] + 1
            ), None
            continue
        if item.is_identity:
            yield "1", 0, None
        for g, e in item.syllables:
            token = graph.vertices[item.vertex].alphabet.names[g - 1] + ("" if e == 1 else f"^{e}")
            too_long = f"word longer than {MAX_WORD_LETTERS} letters at token {token!r} (vertex '{item.vertex}')"
            yield token, abs(e) + 2 * depth[item.vertex], too_long if abs(e) > MAX_WORD_LETTERS else None


def _joined(items):
    """The items with adjacent words at one vertex joined and the identity
    dropped: what a product reads back as, whose tokens are one item each."""
    out = []
    for item in items:
        if isinstance(item, FreeWord) and out and isinstance(out[-1], FreeWord) and out[-1].vertex == item.vertex:
            item = FreeWord(item.vertex, reduce_letters(out.pop().syllables + item.syllables))
        if not (isinstance(item, FreeWord) and item.is_identity):
            out.append(item)
    return out


_EXPONENTS = st.one_of(st.integers(1, 4), st.integers(1, MAX_WORD_LETTERS), st.just(MAX_WORD_LETTERS + 1))


@st.composite
def products(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    graph = GRAPHS[name]
    items = []
    for _ in range(draw(st.integers(0, 5))):
        sign = draw(st.sampled_from([1, -1]))
        if draw(st.booleans()):
            items.append(("t", draw(st.sampled_from(list(graph.edges))), sign * draw(_EXPONENTS)))
            continue
        vertex = graph.vertices[draw(st.sampled_from(list(graph.vertices)))]
        syllables = [(draw(st.integers(1, vertex.rank)), sign * draw(_EXPONENTS)) for _ in range(draw(st.integers(0, 3)))]
        items.append(vertex.alphabet.word(syllables))  # reduced; maybe the identity
    return name, items


@SETTINGS
@given(products())
@example(("theta_skew", [("t", 1, -1), ("t", 0, 1)]))
@example(("comm_square", [GRAPHS["comm_square"].vertices[0].alphabet.parse("a^3 b^-2 a"), ("t", 0, -4)]))
@example(("bs_2_3", [GRAPHS["bs_2_3"].vertices[0].alphabet.word(((1, MAX_WORD_LETTERS),))]))
@example(("bs_2_3", [GRAPHS["bs_2_3"].vertices[0].alphabet.word(((1, -MAX_WORD_LETTERS - 1),))]))
@example(("chain_2332", [("t", 1, MAX_WORD_LETTERS // 3 + 1)]))
def test_read_items_inverts_format_items(case):
    name, items = case
    graph = GRAPHS[name]
    tokens = list(_tokens(graph, items))
    text = format_items(graph, items)
    assert text == (" ".join(token for token, _, _ in tokens) or "1")
    letters = 0
    for token, cost, too_long in tokens:
        letters += cost
        if letters > MAX_WORD_LETTERS:  # refused at this token, with the cap's message
            with pytest.raises(ParseError) as caught:
                read_items(graph, text)
            assert caught.value.message == (
                too_long or f"relation longer than {MAX_WORD_LETTERS} letters at token {token!r}"
            )
            return
    read, read_letters = read_items(graph, text)
    assert _joined(read) == _joined(items)
    assert read_letters == letters
    assert len(read) == sum(token != "1" for token, _, _ in tokens)  # one item per token


# spellings the printer never writes: explicit and padded exponents, the
# identity, a repeated generator, bare t
@st.composite
def spellings(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    graph = GRAPHS[name]
    names = [n for v in graph.vertices.values() for n in v.alphabet.names]
    letters = [f"t_{eid}" for eid in graph.edges] + (["t", "t_00"] if list(graph.edges) == [0] else [])
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        head = draw(st.sampled_from(names + letters + ["1"]))
        if head != "1" and draw(st.booleans()):
            k = draw(st.integers(-9, 9).filter(bool))
            head += "^" + ("-" if k < 0 else "") + "0" * draw(st.integers(0, 2)) + str(abs(k))
        tokens.append(head)
    return name, " ".join(tokens)


@SETTINGS
@given(spellings())
@example(("bs_1_2", "t^-3 a a^01 1 t_00"))
@example(("trefoil", "1"))
def test_format_items_is_canonical_on_what_read_items_returns(case):
    name, text = case
    graph = GRAPHS[name]
    items, letters = read_items(graph, text)
    canonical = format_items(graph, items)
    assert read_items(graph, canonical) == (items, letters)
    assert format_items(graph, read_items(graph, canonical)[0]) == canonical


@SETTINGS
@given(st.sampled_from(sorted(GRAPHS)), st.integers(MAX_WORD_LETTERS + 1, 10**30), st.sampled_from([1, -1]))
def test_a_token_past_the_cap_gets_the_caps_refusal(name, k, sign):
    graph = GRAPHS[name]
    vertex = graph.vertices[max(graph.vertices)]
    word = f"{vertex.alphabet.names[-1]}^{sign * k}"
    with pytest.raises(ParseError) as caught:
        read_items(graph, f"1 {word}")
    assert caught.value.message == f"word longer than {MAX_WORD_LETTERS} letters at token {word!r} (vertex '{vertex.id}')"
    with pytest.raises(ParseError) as caught:
        read_items(graph, f"t_0^{sign * k}")
    assert caught.value.message == f"relation longer than {MAX_WORD_LETTERS} letters at token 't_0^{sign * k}'"
    with pytest.raises(ParseError) as caught:  # the cap counts both sides of a relation
        read_relation(graph, f"t_0^{MAX_WORD_LETTERS // 2} = t_0^{MAX_WORD_LETTERS // 2} {word}")
    assert caught.value.message.startswith("right side: ")
