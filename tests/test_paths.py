"""Path enumeration against naive oracles and the normal-form engine."""

from fractions import Fraction
from itertools import product

import pytest

from gogz.engine import Engine
from gogz import paths, words
from gogz.errors import InternalInconsistencyError
from gogz.graphs import MINUS, PLUS, OrientedEdge, parse_graph
from gogz.paths import (
    enumerate_complete_paths,
    enumerate_full_nonmaximal_paths,
    iter_conjugacy_paths,
)
from gogz.words import cyclic_meet, root
from helpers import conjugate, inverse, reversed_step, terminus, word_product

BS23 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^3"')
BS22 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^2"')
BS2M2 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^-2"')
TREFOIL = parse_graph(
    'vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nedge 0 0 1 minus="a^2" plus="b^3"'
)
THETA = parse_graph(
    "vertex 0 rank=2 gens=a,b\n"
    "vertex 1 rank=1 gens=x\n"
    'edge 0 0 1 minus="a b" plus="x^2"\n'
    'edge 1 0 1 minus="b a" plus="x^3"\n'
)
CHAIN3 = parse_graph(
    "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nvertex 2 rank=1 gens=c\n"
    'edge 0 0 1 minus="a^2" plus="b"\nedge 1 1 2 minus="b" plus="c^3"'
)
FXF = parse_graph(
    'vertex 0 rank=2 gens=a,b\nvertex 1 rank=2 gens=x,y\nedge 0 0 1 minus="a" plus="x"'
)
COMM = parse_graph(
    "vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\n"
    'edge 0 0 1 minus="a b a^-1 b^-1" plus="x^2"'
)
SEMI = parse_graph(
    'vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\nedge 0 0 1 minus="a" plus="x^2"'
)
MIXED = parse_graph(
    "vertex 0 rank=1 gens=a\nvertex 1 rank=2 gens=x,y\n"
    'edge 0 0 1 minus="a^2" plus="x"\n'
    'edge 1 0 1 minus="a^3" plus="x^3"\n'
    'edge 2 0 0 minus="a" plus="a^4"\n'
    'edge 3 1 1 minus="y" plus="y^2"\n'
)

ALL_GRAPHS = [BS23, BS22, BS2M2, TREFOIL, THETA, CHAIN3, FXF, COMM, SEMI, MIXED]


def w(graph, vid, text):
    return graph.vertices[vid].parse(text)


def ori(graph, eid, forward=True):
    return OrientedEdge(graph.edges[eid], forward)


def bases(path):
    """Every vertex a closed chain can be based at: each step origin."""
    return tuple(sorted({s.origin for s in path.steps}))


def outer_ends(path):
    """(edge_id, side) of a path's first origin end and last terminus end."""
    first, last = path.steps[0], path.steps[-1]
    return [(first.edge.id, first.origin_side), (last.edge.id, last.terminus_side)]


def verify_in_engine(graph, path, m, n):
    engine = Engine(graph)
    conj = engine.element_of(path.conjugator_items())
    lhs = conjugate(engine, conj, engine.power(engine.embed(path.start), m))
    rhs = engine.power(engine.embed(path.end), n)
    assert lhs == rhs


def path_along(graph, g, g_prime, steps):
    """The chain along ``steps`` that the open search certifies from g to g', or None."""
    return next((p for p in iter_conjugacy_paths(graph, g, g_prime) if p.steps == tuple(steps)), None)


# ----------------------------------------------- conjugacy-path certificates


class TestCheckConjugacyPath:
    """The certificate of one chain, as the open search hands it out."""

    def test_loop_identifying_powers(self):
        g, g_prime = w(BS23, 0, "a^2"), w(BS23, 0, "a^3")
        p = path_along(BS23, g, g_prime, [ori(BS23, 0)])
        assert p is not None
        assert (p.start, p.end) == (g, g_prime)
        assert p.witness_exponents() == (1, 1)
        verify_in_engine(BS23, p, 1, 1)

    def test_amalgam_edge(self):
        p = path_along(TREFOIL, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b"), [ori(TREFOIL, 0)])
        assert p is not None
        assert p.witness_exponents() == (2, 3)
        verify_in_engine(TREFOIL, p, 2, 3)

    def test_unrelated_root_fails(self):
        assert list(iter_conjugacy_paths(FXF, w(FXF, 0, "b"), w(FXF, 1, "x"))) == []

    def test_distorted_endpoint(self):
        g = w(THETA, 0, "b a")  # conjugate of the inclusion word a b
        p = path_along(THETA, g, w(THETA, 1, "x"), [ori(THETA, 0)])
        assert p is not None
        m, n = p.witness_exponents()
        assert (m, n) == (1, 2)
        verify_in_engine(THETA, p, m, n)

    def test_certificates_recompose(self):
        ab = w(THETA, 0, "a b")
        p = path_along(THETA, ab, ab, [ori(THETA, 0), ori(THETA, 1, False)])
        assert p is not None
        for tr in p.transitions:
            k_in, k_out = tr.exps
            theta = tr.transfer_conjugator
            assert word_product(theta, tr.u**k_out, inverse(theta)) == tr.v**k_in


# ------------------------------------------------------------ complete paths


def naive_complete_keys(graph):
    """Generate-and-filter over all oriented edge sequences."""
    oriented = graph.oriented_edges()

    def key(seq):
        return tuple((s.edge.id, 0 if s.forward else 1) for s in seq)

    def canon(seq):
        rev = [reversed_step(s) for s in reversed(seq)]
        rots = [tuple(seq[i:]) + tuple(seq[:i]) for i in range(len(seq))]
        rots += [tuple(rev[i:]) + tuple(rev[:i]) for i in range(len(seq))]
        return min(key(r) for r in rots)

    found = {}
    for n in range(1, len(graph.edges) + 1):
        for seq in product(oriented, repeat=n):
            if any(terminus(a) != b.origin for a, b in zip(seq, seq[1:])):
                continue
            if terminus(seq[-1]) != seq[0].origin:
                continue
            ids = [s.edge.id for s in seq]
            if len(set(ids)) != len(ids):
                continue
            if key(seq) != canon(seq):
                continue  # ratio is orientation-dependent; compute it at the representative
            if any(
                cyclic_meet(seq[i].terminus_word, seq[(i + 1) % n].origin_word) is None
                for i in range(n)
            ):
                continue
            ratio = Fraction(1)
            for i in range(n):
                meet = cyclic_meet(seq[i].terminus_word, seq[(i + 1) % n].origin_word)
                ratio *= Fraction(meet.exps[0], meet.exps[1])
            found[key(seq)] = ratio
    return found


class TestCompletePaths:
    def test_bs23(self):
        chains = enumerate_complete_paths(BS23)
        assert len(chains) == 1
        (p,) = chains
        assert p.ratio() == Fraction(3, 2)
        assert p.witness_exponents() == (2, 3)
        assert p.steps[0].origin == 0 and bases(p) == (0,)
        verify_in_engine(BS23, p, 2, 3)

    def test_bs22_level(self):
        (p,) = enumerate_complete_paths(BS22)
        assert p.ratio() == 1 and p.witness_exponents() == (1, 1)

    def test_bs2_minus2_level_with_sign(self):
        (p,) = enumerate_complete_paths(BS2M2)
        assert p.ratio() == -1
        assert p.witness_exponents() == (1, -1)
        verify_in_engine(BS2M2, p, 1, -1)

    def test_trees_have_none(self):
        assert enumerate_complete_paths(TREFOIL) == []
        assert enumerate_complete_paths(CHAIN3) == []
        assert enumerate_complete_paths(FXF) == []

    def test_theta_cycle_is_complete_and_nonlevel(self):
        chains = enumerate_complete_paths(THETA)
        assert len(chains) == 1
        (p,) = chains
        assert p.ratio() == Fraction(2, 3)
        assert p.witness_exponents() == (3, 2)
        assert p.start == p.end == w(THETA, 0, "a b")
        assert bases(p) == (0, 1)
        verify_in_engine(THETA, p, 3, 2)

    def test_mixed_graph_verdicts_verify(self):
        chains = enumerate_complete_paths(MIXED)
        assert chains  # the two loops at least
        for p in chains:
            assert p.start == p.end == p.steps[0].origin_word
            i, j = p.witness_exponents()
            assert (abs(i) == abs(j)) == (abs(p.ratio()) == 1)
            assert Fraction(j, i) == p.ratio()
            verify_in_engine(MIXED, p, i, j)

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_matches_naive_enumeration(self, graph):
        expected = naive_complete_keys(graph)
        got = {
            tuple((s.edge.id, 0 if s.forward else 1) for s in p.steps): p.ratio()
            for p in enumerate_complete_paths(graph)
        }
        assert got == expected

    def test_reversal_inverts_ratio(self):
        (p,) = enumerate_complete_paths(THETA)
        back = [reversed_step(s) for s in reversed(p.steps)]
        base = back[0].origin_word
        q = path_along(THETA, base, base, back)
        assert q is not None
        assert q.ratio() == 1 / p.ratio()


# -------------------------------------------------------- non-maximal paths


class TestFullNonMaximalPaths:
    def test_single_edge_double_arrow(self):
        paths = enumerate_full_nonmaximal_paths(TREFOIL)
        assert len(paths) == 1
        (p,) = paths
        assert len(p.steps) == 1
        assert set(outer_ends(p)) == {(0, -1), (0, 1)}
        assert all(abs(root(TREFOIL.edges[eid].word(side)).exponent) >= 2 for eid, side in outer_ends(p))
        m, n = p.witness_exponents()
        verify_in_engine(TREFOIL, p, m, n)

    def test_arrow_on_one_end_only(self):
        assert enumerate_full_nonmaximal_paths(COMM) == []

    def test_two_edge_chain(self):
        paths = enumerate_full_nonmaximal_paths(CHAIN3)
        assert len(paths) == 1
        (p,) = paths
        assert [s.edge.id for s in p.steps] == [0, 1]
        assert p.start == w(CHAIN3, 0, "a^2")
        assert p.end == w(CHAIN3, 2, "c^3")
        m, n = p.witness_exponents()
        assert (m, n) == (1, 1)  # a^2 = b = c^3 straight through
        verify_in_engine(CHAIN3, p, m, n)

    def test_middle_arrow_blocks(self):
        g = parse_graph(
            "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nvertex 2 rank=1 gens=c\n"
            'edge 0 0 1 minus="a^2" plus="b^2"\nedge 1 1 2 minus="b" plus="c^3"'
        )
        # arrow at the far end of edge 0 (b^2) disqualifies every multi-edge chain
        paths = enumerate_full_nonmaximal_paths(g)
        assert len(paths) == 1 and len(paths[0].steps) == 1
        assert paths[0].steps[0].edge.id == 0

    def test_no_reversal_duplicates(self):
        for graph in ALL_GRAPHS:
            paths = enumerate_full_nonmaximal_paths(graph)
            keys = [tuple((s.edge.id, s.forward) for s in p.steps) for p in paths]
            rev_keys = [
                tuple((s.edge.id, not s.forward) for s in reversed(p.steps))
                for p in paths
            ]
            for rk in rev_keys:
                assert rk not in keys or (rk,) and keys.count(rk) <= 1


# ---------------------------------------------------------------- open paths


class TestIterConjugacyPaths:
    def test_amalgam_hit(self):
        paths = list(iter_conjugacy_paths(TREFOIL, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b")))
        assert len(paths) == 1
        assert paths[0].witness_exponents() == (2, 3)

    def test_no_path_for_unrelated(self):
        assert list(iter_conjugacy_paths(FXF, w(FXF, 0, "b"), w(FXF, 1, "y"))) == []

    def test_closed_self_paths_included(self):
        a = w(BS23, 0, "a")
        paths = list(iter_conjugacy_paths(BS23, a, a))
        assert {p.witness_exponents() for p in paths} == {(2, 3), (3, 2)}
        for p in paths:
            verify_in_engine(BS23, p, *p.witness_exponents())

    @pytest.mark.parametrize(
        "extra,target",
        [("", "0:b"), ('vertex 1 rank=2 gens=c,d\nedge 8 0 1 minus="b" plus="c"', "1:c")],
        ids=["no-edge-end-in-class", "class-in-another-component"],
    )
    def test_unreachable_target_walks_nothing(self, extra, target, monkeypatch):
        # eight loops a/a^2 give millions of edge-once walks from the class of a
        loops = "\n".join(f'edge {i} 0 0 minus="a" plus="a^2"' for i in range(8))
        graph = parse_graph(f"vertex 0 rank=2 gens=a,b\n{loops}\n{extra}")
        monkeypatch.setattr(paths._ClassGraph, "walks", lambda *args, **kwargs: pytest.fail("walked"))
        vid, word = target.split(":")
        assert list(iter_conjugacy_paths(graph, w(graph, 0, "a"), w(graph, int(vid), word))) == []


@pytest.mark.parametrize(
    "enumerate_",
    [
        lambda: enumerate_complete_paths(BS23),
        lambda: enumerate_full_nonmaximal_paths(TREFOIL),
        lambda: list(iter_conjugacy_paths(TREFOIL, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b"))),
    ],
    ids=["complete", "full", "open"],
)
def test_chain_rejected_by_cyclic_meet_is_an_internal_error(enumerate_, monkeypatch):
    """The class index and cyclic_meet must agree; a disagreement is never skipped."""
    monkeypatch.setattr(paths, "cyclic_meet", lambda u, v: None)
    with pytest.raises(InternalInconsistencyError):
        enumerate_()


def test_open_search_meets_each_junction_once(monkeypatch):
    """cyclic_meet runs once per distinct entry, junction or exit of the class
    graph, not once per junction of each of the 75,972 walks."""
    edges = 6
    loops = "\n".join(f'edge {i} 0 0 minus="a" plus="a^2"' for i in range(edges))
    graph = parse_graph(f"vertex 0 rank=1 gens=a\n{loops}")
    calls = []

    def counting_meet(u, v):
        calls.append((u, v))
        return cyclic_meet(u, v)

    monkeypatch.setattr(paths, "cyclic_meet", counting_meet)
    a = w(graph, 0, "a")
    assert sum(1 for _ in iter_conjugacy_paths(graph, a, a)) == 75_972
    assert len(calls) <= 4 * edges**2 + 4 * edges


def test_class_graph_roots_each_distinct_edge_word_once():
    """Edge words are rooted by their letters alone: a 60-vertex chain whose
    ends spell four letter tuples at different vertices takes four roots."""
    n = 60
    lines = [f"vertex {i} rank=2 gens=a{i},b{i}" for i in range(n)]
    lines += [
        f'edge {i} {i} {i + 1} minus="a{i}^{2 + i % 2}" plus="{"b" if i % 3 else "a"}{i + 1}"'
        for i in range(n - 1)
    ]
    graph = parse_graph("\n".join(lines))
    distinct = {e.word(side).letters for e in graph.edges.values() for side in (MINUS, PLUS)}
    assert len(distinct) == 4
    words._root_cached.cache_clear()
    paths._ClassGraph(graph)
    assert words._root_cached.cache_info().misses == len(distinct)


def test_chains_through_one_junction_share_its_transfer_conjugator():
    """Three loops a -> b a^k b^-1 share one class; every chain that crosses
    edge 0 and then edge 1 forward passes one junction, whose theta is b^-1."""
    graph = parse_graph(
        "vertex 0 rank=2 gens=a,b\n"
        + "\n".join(f'edge {i} 0 0 minus="a" plus="b a^{i + 2} b^-1"' for i in range(3))
    )
    through = [
        p for p in enumerate_complete_paths(graph)
        if [(s.edge.id, s.forward) for s in p.steps[:2]] == [(0, True), (1, True)]
    ]
    assert len(through) >= 2
    first, second = through[:2]
    assert first.transitions[1] is second.transitions[1]
    theta = first.transitions[1].transfer_conjugator
    assert theta == graph.vertices[0].parse("b^-1")
    assert theta is second.transitions[1].transfer_conjugator
    for path in (first, second):
        assert any(item is theta for item in path.conjugator_items())
