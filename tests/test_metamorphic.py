"""Moves that keep the fundamental group must keep its invariants.

Renumbering the vertices and edges, and reversing an edge (swapping its
ends and its words, so that t_e becomes t_e^-1), give isomorphic
fundamental groups, so ``analyze`` must answer alike on the moved graph:
balanced, word hyperbolic, and acylindrically hyperbolic, where a graph
that reduces to one vertex of free rank r counts as acylindrically
hyperbolic exactly when r >= 2.  The check needs no oracle and no second
decider (metamorphic testing: Chen et al., *ACM Computing Surveys* 51(1),
2018).  The graphs and moves are drawn derandomised, so every run checks
the same ones, and every moved graph is built by the public constructor.

A tree of free groups with cyclic edge groups has Euler characteristic
``sum_v (1 - rank_v)``, as the edge groups add nothing (Brown, *Cohomology
of Groups*, ch. IX), and a free group of rank r has ``1 - r``; so a tree
that reduces to one vertex must report that free rank.
"""

from hypothesis import example, given, settings, strategies as st

from gogz.graphs import Edge, GraphOfGroups, Vertex, parse_graph
from gogz.verdicts import analyze
from test_paths_reference import graphs


def invariants(graph: GraphOfGroups):
    report = analyze(graph)
    tri = report.trichotomy
    acyl = tri.free_rank >= 2 if tri.acyl is None else tri.acyl.acyl_hyperbolic
    return report.balance.balanced, report.hyperbolicity.hyperbolic, acyl


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


def reversed_edge(graph: GraphOfGroups, eid: int) -> GraphOfGroups:
    """The graph with edge ``eid`` running the other way."""
    e = graph.edges[eid]
    flipped = Edge(eid, e.plus_vertex, e.minus_vertex, e.plus_word, e.minus_word)
    return GraphOfGroups(graph.vertices.values(), [flipped if f.id == eid else f for f in graph.edges.values()])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.data())
def test_moves_keep_the_group_invariants(graph, data):
    expected = invariants(graph)
    vertex_ids = dict(zip(graph.vertices, data.draw(st.permutations(range(len(graph.vertices))))))
    edge_ids = dict(zip(graph.edges, data.draw(st.permutations(range(len(graph.edges))))))
    assert invariants(renumbered(graph, vertex_ids, edge_ids)) == expected
    eid = data.draw(st.sampled_from(sorted(graph.edges)))
    assert invariants(reversed_edge(graph, eid)) == expected


# a rank-one vertex contracts into a rank-two one: F_2, and 1 - (-1 + 0) = 2
F2_BY_CONTRACTION = parse_graph('vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\nedge 0 0 1 minus="a" plus="x"')


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs(trees_only=True))
@example(F2_BY_CONTRACTION)
def test_free_rank_is_the_euler_characteristic_of_the_tree(tree):
    free_rank = analyze(tree).trichotomy.free_rank
    if free_rank is not None:
        assert free_rank == 1 - sum(1 - v.rank for v in tree.vertices.values())
