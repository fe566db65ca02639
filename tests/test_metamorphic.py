"""Moves that keep the fundamental group must keep its invariants.

Five moves give isomorphic fundamental groups: renumbering the vertices
and edges; reversing an edge (swapping its ends and its words, so that
t_e becomes t_e^-1); conjugating one end's word by an element h of its
vertex group (w becomes h w h^-1, and t_e absorbs h); applying an
automorphism of one vertex group to every word at that vertex (inverting
its first generator, or the Nielsen move a -> a b); and subdividing an
edge through a new rank-one vertex z with words z and z (an elementary
expansion: Forester, *Geom. Topol.* 6, 2002).  So ``analyze`` must answer
alike on the moved graph: balanced, word hyperbolic, acylindrically
hyperbolic (a graph that reduces to one vertex of free rank r counts
exactly when r >= 2), and that free rank.  The check needs no oracle and
no second decider (metamorphic testing: Chen et al., *ACM Computing
Surveys* 51(1), 2018).  The graphs and moves are drawn derandomised, so
every run checks the same ones, and every moved graph is built by the
public constructor.

A tree of free groups with cyclic edge groups has Euler characteristic
``sum_v (1 - rank_v)``, as the edge groups add nothing (Brown, *Cohomology
of Groups*, ch. IX), and a free group of rank r has ``1 - r``; so a tree
that reduces to one vertex must report that free rank.
"""

from hypothesis import example, given, settings, strategies as st

from gogz.graphs import Edge, GraphOfGroups, Vertex, parse_graph
from gogz.verdicts import analyze
from gogz.words import FreeWord
from helpers import conjugated_by, flat_invert, spell, word_of
from test_paths_reference import graphs


def invariants(graph: GraphOfGroups):
    report = analyze(graph)
    tri = report.trichotomy
    acyl = tri.free_rank >= 2 if tri.acyl is None else tri.acyl.acyl_hyperbolic
    return report.balance.balanced, report.hyperbolicity.hyperbolic, acyl, tri.free_rank


def renumbered(graph: GraphOfGroups, vertex_ids, edge_ids) -> GraphOfGroups:
    """The graph with vertex v named ``vertex_ids[v]`` and edge e ``edge_ids[e]``."""
    vertices = {v: Vertex.make(vertex_ids[v], x.alphabet.names) for v, x in graph.vertices.items()}
    edges = [
        Edge(
            edge_ids[e.id], vertex_ids[e.minus_vertex], vertex_ids[e.plus_vertex],
            vertices[e.minus_vertex].alphabet.word(e.minus_word.syllables),
            vertices[e.plus_vertex].alphabet.word(e.plus_word.syllables),
        )
        for e in graph.edges.values()
    ]
    return GraphOfGroups(vertices.values(), edges)


def replaced_edge(graph: GraphOfGroups, edge: Edge) -> GraphOfGroups:
    """The graph with ``edge`` in place of the edge of its id."""
    return GraphOfGroups(graph.vertices.values(), [edge if f.id == edge.id else f for f in graph.edges.values()])


def reversed_edge(graph: GraphOfGroups, eid: int) -> GraphOfGroups:
    """The graph with edge ``eid`` running the other way."""
    e = graph.edges[eid]
    return replaced_edge(graph, Edge(eid, e.plus_vertex, e.minus_vertex, e.plus_word, e.minus_word))


def conjugated_end(graph: GraphOfGroups, eid: int, minus: bool, h: FreeWord) -> GraphOfGroups:
    """The graph with one word w of edge ``eid`` (its minus word when
    ``minus``) replaced by h w h^-1."""
    e = graph.edges[eid]
    if minus:
        return replaced_edge(graph, e._replace(minus_word=conjugated_by(e.minus_word, h)))
    return replaced_edge(graph, e._replace(plus_word=conjugated_by(e.plus_word, h)))


def mapped_vertex(graph: GraphOfGroups, vid: int, images) -> GraphOfGroups:
    """The graph with every word at vertex ``vid`` mapped by the
    automorphism that sends generator i to the flat letters ``images[i]``
    (generators not in ``images`` fixed)."""
    alphabet = graph.vertices[vid].alphabet

    def image(letter):
        return images.get(letter, (letter,)) if letter > 0 else flat_invert(image(-letter))

    def mapped(word):
        if word.vertex != alphabet.vertex:
            return word
        return word_of(alphabet, [x for letter in spell(word.syllables) for x in image(letter)])

    edges = [e._replace(minus_word=mapped(e.minus_word), plus_word=mapped(e.plus_word)) for e in graph.edges.values()]
    return GraphOfGroups(graph.vertices.values(), edges)


def subdivided(graph: GraphOfGroups, eid: int) -> GraphOfGroups:
    """The graph with edge ``eid`` run through a new rank-one vertex z: its
    minus word onto z, then z onto its plus word."""
    e = graph.edges[eid]
    z = Vertex.make(max(graph.vertices) + 1, ["z"])
    zw = z.alphabet.word(((1, 1),))
    halves = [
        e._replace(plus_vertex=z.id, plus_word=zw),
        e._replace(id=max(graph.edges) + 1, minus_vertex=z.id, minus_word=zw),
    ]
    return GraphOfGroups([*graph.vertices.values(), z], [f for f in graph.edges.values() if f.id != eid] + halves)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs(), st.data())
def test_moves_keep_the_group_invariants(graph, data):
    expected = invariants(graph)
    vertex_ids = dict(zip(graph.vertices, data.draw(st.permutations(range(len(graph.vertices))))))
    edge_ids = dict(zip(graph.edges, data.draw(st.permutations(range(len(graph.edges))))))
    assert invariants(renumbered(graph, vertex_ids, edge_ids)) == expected
    eid = data.draw(st.sampled_from(sorted(graph.edges)))
    assert invariants(reversed_edge(graph, eid)) == expected
    e, minus = graph.edges[eid], data.draw(st.booleans())
    alphabet = graph.vertices[e.minus_vertex if minus else e.plus_vertex].alphabet
    letters = [s * g for g in range(1, alphabet.rank + 1) for s in (1, -1)]
    h = word_of(alphabet, data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4)))
    assert invariants(conjugated_end(graph, eid, minus, h)) == expected
    vid = data.draw(st.sampled_from(sorted(graph.vertices)))
    assert invariants(mapped_vertex(graph, vid, {1: (-1,)})) == expected
    if graph.vertices[vid].rank >= 2:
        assert invariants(mapped_vertex(graph, vid, {1: (1, 2)})) == expected
    assert invariants(subdivided(graph, eid)) == expected


# a rank-one vertex contracts into a rank-two one: F_2, and 1 - (-1 + 0) = 2
F2_BY_CONTRACTION = parse_graph('vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\nedge 0 0 1 minus="a" plus="x"')


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs(trees_only=True))
@example(F2_BY_CONTRACTION)
def test_free_rank_is_the_euler_characteristic_of_the_tree(tree):
    free_rank = analyze(tree).trichotomy.free_rank
    if free_rank is not None:
        assert free_rank == 1 - sum(1 - v.rank for v in tree.vertices.values())
