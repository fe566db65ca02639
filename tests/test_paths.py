"""Path enumeration against naive oracles and the normal-form engine."""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from gogz.engine import Engine
from gogz import paths, words
from gogz.errors import InternalInconsistencyError
from gogz.graphs import MINUS, PLUS, parse_graph
from gogz.paths import (
    enumerate_complete_paths,
    enumerate_full_nonmaximal_paths,
    iter_conjugacy_paths,
)
from families import loops1, loops2
from helpers import (
    Step,
    conjugate,
    cyclic_meet,
    inverse,
    oriented_edges,
    reversed_step,
    root,
    steps_of,
    terminus,
    word_product,
)
from test_paths_reference import graphs, reference_open

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
    return graph.vertices[vid].alphabet.parse(text)


def ori(graph, eid, forward=True):
    return Step(graph.edges[eid], forward)


def bases(graph, path):
    """Every vertex a closed chain can be based at: each step origin."""
    return tuple(sorted({s.origin for s in steps_of(graph, path)}))


def outer_ends(graph, path):
    """(edge_id, side) of a path's first origin end and last terminus end."""
    steps = steps_of(graph, path)
    first, last = steps[0], steps[-1]
    return [(first.edge.id, first.origin_side), (last.edge.id, last.terminus_side)]


def verify_in_engine(graph, path, m, n):
    engine = Engine(graph)
    conj = engine.element_of(path.conjugator_items)
    lhs = conjugate(engine, conj, engine.power(engine.embed(path.start), m))
    rhs = engine.power(engine.embed(path.end), n)
    assert lhs == rhs


def path_along(graph, g, g_prime, steps):
    """The chain along ``steps`` that the open search certifies from g to g', or None."""
    letters = tuple(s.letter for s in steps)
    return next((p for p in iter_conjugacy_paths(graph, g, g_prime) if p.steps == letters), None)


# ----------------------------------------------- conjugacy-path certificates


class TestCheckConjugacyPath:
    """The certificate of one chain, as the open search hands it out."""

    def test_loop_identifying_powers(self):
        g, g_prime = w(BS23, 0, "a^2"), w(BS23, 0, "a^3")
        p = path_along(BS23, g, g_prime, [ori(BS23, 0)])
        assert p is not None
        assert (p.start, p.end) == (g, g_prime)
        assert p.witness_exponents == (1, 1)
        verify_in_engine(BS23, p, 1, 1)

    def test_amalgam_edge(self):
        p = path_along(TREFOIL, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b"), [ori(TREFOIL, 0)])
        assert p is not None
        assert p.witness_exponents == (2, 3)
        verify_in_engine(TREFOIL, p, 2, 3)

    def test_unrelated_root_fails(self):
        assert list(iter_conjugacy_paths(FXF, w(FXF, 0, "b"), w(FXF, 1, "x"))) == []

    def test_distorted_endpoint(self):
        g = w(THETA, 0, "b a")  # conjugate of the inclusion word a b
        p = path_along(THETA, g, w(THETA, 1, "x"), [ori(THETA, 0)])
        assert p is not None
        m, n = p.witness_exponents
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
    oriented = oriented_edges(graph)

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
        assert p.witness_exponents == (2, 3)
        assert steps_of(BS23, p)[0].origin == 0 and bases(BS23, p) == (0,)
        verify_in_engine(BS23, p, 2, 3)

    def test_bs22_level(self):
        (p,) = enumerate_complete_paths(BS22)
        assert p.ratio() == 1 and p.witness_exponents == (1, 1)

    def test_bs2_minus2_level_with_sign(self):
        (p,) = enumerate_complete_paths(BS2M2)
        assert p.ratio() == -1
        assert p.witness_exponents == (1, -1)
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
        assert p.witness_exponents == (3, 2)
        assert p.start == p.end == w(THETA, 0, "a b")
        assert bases(THETA, p) == (0, 1)
        verify_in_engine(THETA, p, 3, 2)

    def test_mixed_graph_verdicts_verify(self):
        chains = enumerate_complete_paths(MIXED)
        assert chains  # the two loops at least
        for p in chains:
            assert p.start == p.end == steps_of(MIXED, p)[0].origin_word
            i, j = p.witness_exponents
            assert (abs(i) == abs(j)) == (abs(p.ratio()) == 1)
            assert Fraction(j, i) == p.ratio()
            verify_in_engine(MIXED, p, i, j)

    @pytest.mark.parametrize("graph", ALL_GRAPHS)
    def test_matches_naive_enumeration(self, graph):
        expected = naive_complete_keys(graph)
        got = {
            tuple((s.edge.id, 0 if s.forward else 1) for s in steps_of(graph, p)): p.ratio()
            for p in enumerate_complete_paths(graph)
        }
        assert got == expected

    def test_reversal_inverts_ratio(self):
        (p,) = enumerate_complete_paths(THETA)
        back = [reversed_step(s) for s in reversed(steps_of(THETA, p))]
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
        assert set(outer_ends(TREFOIL, p)) == {(0, -1), (0, 1)}
        assert all(abs(root(TREFOIL.edges[eid].word(side)).exponent) >= 2 for eid, side in outer_ends(TREFOIL, p))
        m, n = p.witness_exponents
        verify_in_engine(TREFOIL, p, m, n)

    def test_arrow_on_one_end_only(self):
        assert enumerate_full_nonmaximal_paths(COMM) == []

    def test_two_edge_chain(self):
        paths = enumerate_full_nonmaximal_paths(CHAIN3)
        assert len(paths) == 1
        (p,) = paths
        assert p.steps == (("t", 0, 1), ("t", 1, 1))
        assert p.start == w(CHAIN3, 0, "a^2")
        assert p.end == w(CHAIN3, 2, "c^3")
        m, n = p.witness_exponents
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
        assert paths[0].steps[0] == ("t", 0, 1)

    def test_no_reversal_duplicates(self):
        for graph in ALL_GRAPHS:
            paths = enumerate_full_nonmaximal_paths(graph)
            keys = [tuple((s.edge.id, s.forward) for s in steps_of(graph, p)) for p in paths]
            rev_keys = [
                tuple((s.edge.id, not s.forward) for s in reversed(steps_of(graph, p)))
                for p in paths
            ]
            for rk in rev_keys:
                assert rk not in keys or (rk,) and keys.count(rk) <= 1


# ---------------------------------------------------------------- open paths


class TestIterConjugacyPaths:
    def test_amalgam_hit(self):
        paths = list(iter_conjugacy_paths(TREFOIL, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b")))
        assert len(paths) == 1
        assert paths[0].witness_exponents == (2, 3)

    def test_no_path_for_unrelated(self):
        assert list(iter_conjugacy_paths(FXF, w(FXF, 0, "b"), w(FXF, 1, "y"))) == []

    def test_closed_self_paths_included(self):
        a = w(BS23, 0, "a")
        paths = list(iter_conjugacy_paths(BS23, a, a))
        assert {p.witness_exponents for p in paths} == {(2, 3), (3, 2)}
        for p in paths:
            verify_in_engine(BS23, p, *p.witness_exponents)

    @pytest.mark.parametrize(
        "extra,target",
        [("", "0:b"), ('vertex 1 rank=2 gens=c,d\nedge 8 0 1 minus="b" plus="c"', "1:c")],
        ids=["no-edge-end-in-class", "class-in-another-component"],
    )
    def test_unreachable_target_walks_nothing(self, extra, target, monkeypatch):
        # eight loops a/a^2 give millions of edge-once walks from the class of a;
        # the search folds the root exponents of each step it tries
        graph = parse_graph(loops2(8) + extra)
        monkeypatch.setattr(paths, "_fold", lambda *args: pytest.fail("walked"))
        vid, word = target.split(":")
        assert list(iter_conjugacy_paths(graph, w(graph, 0, "a"), w(graph, int(vid), word))) == []


# a full path e0+ e1+ whose one junction joins two words, b and b^-1
CHAIN_INVERSE = parse_graph(
    "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nvertex 2 rank=1 gens=c\n"
    'edge 0 0 1 minus="a^2" plus="b"\nedge 1 1 2 minus="b^-1" plus="c^3"'
)


@pytest.mark.parametrize(
    "enumerate_,steps",
    [
        (lambda: enumerate_complete_paths(BS23), "e0+"),
        (lambda: enumerate_full_nonmaximal_paths(CHAIN_INVERSE), "e0+ e1+"),
        (lambda: list(iter_conjugacy_paths(TREFOIL, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b"))), "e0+"),
    ],
    ids=["complete", "full", "open"],
)
def test_junction_between_two_classes_is_an_internal_error(enumerate_, steps, monkeypatch):
    """The class walk and the roots that build the transfers must agree: a
    table whose roots put every word in a class of its own, while its walk
    still joins the classes of the edge ends, has a junction between two
    classes in each chain that joins two different words.  That is never
    skipped, and the error names the chain by its steps."""
    build = paths._ClassGraph.__init__

    def split(self, graph):
        build(self, graph)
        self.roots = {word: ((key, word), k, c) for word, (key, k, c) in self.roots.items()}

    monkeypatch.setattr(paths._ClassGraph, "__init__", split)
    with pytest.raises(InternalInconsistencyError, match=rf"two root classes at a junction of {re.escape(steps)}\Z"):
        enumerate_()


def counting_transfers(monkeypatch):
    """The list of word pairs (u, v) that the end tables build a transfer
    for from now on."""
    calls, transfer = [], paths.Transfer

    def counting_transfer(u, v, *rest):
        calls.append((u, v))
        return transfer(u, v, *rest)

    monkeypatch.setattr(paths, "Transfer", counting_transfer)
    return calls


def test_open_search_meets_each_junction_once(monkeypatch):
    """Of the 75,972 walks the reference certifies, the open search yields
    the first of each witness pair, and builds one transfer per ordered
    pair of words in {a, a^2}, not one per junction of each walk."""
    graph = parse_graph(loops1(6))
    a = w(graph, 0, "a")
    walks, pairs = 0, set()
    for path in reference_open(graph, a, a):
        walks += 1
        pairs.add(path.witness_exponents)
    assert walks == 75_972
    calls = counting_transfers(monkeypatch)
    found = [path.witness_exponents for path in iter_conjugacy_paths(graph, a, a)]
    assert len(found) == len(set(found)) and set(found) == pairs
    assert len(calls) == 4


def test_parallel_edges_certify_each_pair_of_words_once(monkeypatch):
    """A transfer depends only on the two words it joins: on four loops
    a/a^2, the closed chains and the open search from a to a each build
    one transfer per ordered pair of words in {a, a^2}, however many edges
    carry them."""
    graph = parse_graph(loops2(4))
    a, a2 = w(graph, 0, "a"), w(graph, 0, "a^2")
    calls = counting_transfers(monkeypatch)
    assert len(enumerate_complete_paths(graph)) == 96
    assert sorted(calls) == sorted(product([a, a2], repeat=2))
    calls.clear()
    assert len(list(iter_conjugacy_paths(graph, a, a))) == 15
    assert sorted(calls) == sorted(product([a, a2], repeat=2))


def test_class_graph_roots_each_distinct_edge_word_once():
    """Edge words are rooted by their syllables alone: a 60-vertex chain whose
    ends spell four syllable tuples at different vertices takes four roots."""
    n = 60
    lines = [f"vertex {i} rank=2 gens=a{i},b{i}" for i in range(n)]
    lines += [
        f'edge {i} {i} {i + 1} minus="a{i}^{2 + i % 2}" plus="{"b" if i % 3 else "a"}{i + 1}"'
        for i in range(n - 1)
    ]
    graph = parse_graph("\n".join(lines))
    distinct = {e.word(side).syllables for e in graph.edges.values() for side in (MINUS, PLUS)}
    assert len(distinct) == 4
    words._root_cached.cache_clear()
    paths._ClassGraph(graph)
    assert words._root_cached.cache_info().misses == len(distinct)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_class_graph_partitions_ends_like_cyclic_meet(graph):
    """The class graph against the reference cyclic_meet and root, end by
    end: two ends at one vertex share a class exactly when their words
    meet, and then the table's transfer is the reference's; ends at two
    vertices never do, each step's exponent is its origin word's root
    exponent, a step ends where its reverse starts, and ``out`` lists the
    steps leaving each class in increasing order."""
    classes = paths._ClassGraph(graph)
    # step 2j leaves the minus end of the j-th edge by id, step 2j + 1 its plus end
    ends = [(e.vertex(side), e.word(side)) for e in graph.edges.values() for side in (MINUS, PLUS)]
    assert len(classes.origin) == len(ends)
    for i, (vid, word) in enumerate(ends):
        assert classes.k_origin[i] == root(word).exponent
        assert classes.terminus[i] == classes.origin[i ^ 1]
        assert classes.k_terminus[i] == classes.k_origin[i ^ 1]
        for j, (other_vid, other) in enumerate(ends):
            meet = cyclic_meet(word, other) if vid == other_vid else None
            assert (classes.origin[i] == classes.origin[j]) == (meet is not None)
            assert classes.transfer(word, other) == meet
    assert sorted(set(classes.origin)) == list(range(len(classes.out)))
    for c, leaving in enumerate(classes.out):
        assert leaving == [i for i, origin in enumerate(classes.origin) if origin == c]


def test_chains_through_one_junction_share_its_transfer_conjugator():
    """Three loops a -> b a^k b^-1 share one class; every chain that crosses
    edge 0 and then edge 1 forward passes one junction, whose theta is b^-1."""
    graph = parse_graph(
        "vertex 0 rank=2 gens=a,b\n"
        + "\n".join(f'edge {i} 0 0 minus="a" plus="b a^{i + 2} b^-1"' for i in range(3))
    )
    through = [
        p for p in enumerate_complete_paths(graph)
        if p.steps[:2] == (("t", 0, 1), ("t", 1, 1))
    ]
    assert len(through) >= 2
    first, second = through[:2]
    assert first.transitions[1] is second.transitions[1]
    theta = first.transitions[1].transfer_conjugator
    assert theta == graph.vertices[0].alphabet.parse("b^-1")
    assert theta is second.transitions[1].transfer_conjugator
    for path in (first, second):
        assert any(item is theta for item in path.conjugator_items)
