"""Verdict deciders: balance, hyperbolicity, acylindricity, trichotomy, conjugacy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogz import paths, verdicts, words
from gogz.engine import Engine
from gogz.errors import DegenerateInputError, InternalInconsistencyError
from gogz.graphs import parse_graph, reduce_graph
from gogz.verdicts import AcylVerdict, CentralWitness, _require, analyze, power_conjugate
from gogz.words import FreeWord
from families import loops1, rand
from helpers import conjugate
from test_engine import draw_items, engine_graphs


def bs(m: int, n: int) -> str:
    return f'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^{m}" plus="a^{n}"'


TREFOIL = """
vertex 0 rank=1 gens=a
vertex 1 rank=1 gens=b
edge 0 0 1 minus="a^2" plus="b^3"
"""

TORUS = """
vertex 0 rank=1 gens=a
vertex 1 rank=1 gens=b
edge 0 0 1 minus="a^2" plus="b^2"
"""

CHAIN = """
vertex 0 rank=1 gens=a
vertex 1 rank=1 gens=b
vertex 2 rank=1 gens=c
edge 0 0 1 minus="a^2" plus="b^3"
edge 1 1 2 minus="b^2" plus="c^3"
"""

THETA = """
vertex 0 rank=2 gens=a,b
vertex 1 rank=1 gens=x
edge 0 0 1 minus="a b" plus="x^2"
edge 1 0 1 minus="b a" plus="x^3"
"""

FXF = """
vertex 0 rank=2 gens=a,b
vertex 1 rank=2 gens=x,y
edge 0 0 1 minus="a" plus="x"
"""

# surface-like: F(a,b) amalgamated with Z over the commutator and a square
COMM_SQUARE = """
vertex 0 rank=2 gens=a,b
vertex 1 rank=1 gens=x
edge 0 0 1 minus="a b a^-1 b^-1" plus="x^2"
"""

# the x side is primitive, so the edge contracts away and a free group remains
COMM_PRIMITIVE = """
vertex 0 rank=2 gens=a,b
vertex 1 rank=1 gens=x
edge 0 0 1 minus="a b a^-1 b^-1" plus="x"
"""

TWO_LOOPS = """
vertex 0 rank=1 gens=a
edge 0 0 0 minus="a^2" plus="a^2"
edge 1 0 0 minus="a^3" plus="a^3"
"""

ROOTS_DISAGREE = """
vertex 0 rank=2 gens=a,b
edge 0 0 0 minus="a^2" plus="a^3"
edge 1 0 0 minus="b^2" plus="b^2"
"""

CONJUGATE_ROOTS = """
vertex 0 rank=2 gens=a,b
edge 0 0 0 minus="a^2" plus="a^2"
edge 1 0 0 minus="b a^2 b^-1" plus="b a^2 b^-1"
"""


# Graphs that reduce_graph contracts to a nontrivial graph, so that the
# trichotomy reads the end table of the reduced graph, not of the input.

# contracting edge 0 makes edge 1 read a^1001000 = y^2, past the reader's cap
CAP_TREE = """
vertex 0 rank=1 gens=a
vertex 1 rank=1 gens=x
vertex 2 rank=1 gens=y
edge 0 0 1 minus="a^1000" plus="x"
edge 1 1 2 minus="x^1001" plus="y^2"
"""

# edge 0 contracts, and BS(2, 3) remains as the loop a^4 = a^6
CONTRACTED_BS23 = """
vertex 0 rank=1 gens=a
vertex 1 rank=1 gens=x
edge 0 0 1 minus="a^2" plus="x"
edge 1 1 1 minus="x^2" plus="x^3"
"""

# edge 0 contracts; the loops a^4 = a^6 and b^2 = b^2 remain, and their roots disagree
CONTRACTED_DISAGREE = """
vertex 0 rank=2 gens=a,b
vertex 1 rank=1 gens=x
edge 0 0 1 minus="a^2" plus="x"
edge 1 1 1 minus="x^2" plus="x^3"
edge 2 0 0 minus="b^2" plus="b^2"
"""


def w(graph, vid, text):
    return graph.vertices[vid].alphabet.parse(text)


def conjugacy_holds(graph, items, x, m, y, n) -> bool:
    """Re-check conjugator * x^m * conjugator^-1 == y^n from scratch."""
    engine = Engine(graph)
    conj = engine.element_of(list(items))
    lhs = conjugate(engine, conj, engine.power(engine.embed(x), m))
    return lhs == engine.power(engine.embed(y), n)


# ------------------------------------------------------------------- balance


class TestBalance:
    @pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
    @pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
    def test_bs_balanced_iff_equal_absolute_exponents(self, m, n):
        verdict = analyze(parse_graph(bs(m, n))).balance
        assert verdict.balanced == (abs(m) == abs(n))

    def test_bs23_witness(self):
        graph = parse_graph(bs(2, 3))
        verdict = analyze(graph).balance
        assert not verdict.balanced
        assert verdict.bs_tag == (2, 3) and verdict.bs_sign == 1
        assert verdict.modulus == (Fraction(3, 2),)
        wtn = verdict.witness
        assert wtn.witness_exponents == (2, 3)
        assert wtn.start == wtn.end == w(graph, 0, "a^2")
        assert conjugacy_holds(graph, wtn.conjugator_items, wtn.start, 2, wtn.start, 3)

    def test_bs_negative_exponent_tag_sign(self):
        verdict = analyze(parse_graph(bs(2, -3))).balance
        assert not verdict.balanced
        assert verdict.bs_tag == (2, 3) and verdict.bs_sign == -1
        assert verdict.modulus == (Fraction(-3, 2),)

    def test_bs_level_negative_is_balanced(self):
        verdict = analyze(parse_graph(bs(2, -2))).balance
        assert verdict.balanced
        assert verdict.bs_tag is None
        assert verdict.modulus == (Fraction(-1),)

    @pytest.mark.parametrize("text", [TREFOIL, CHAIN, FXF, COMM_SQUARE])
    def test_trees_are_balanced(self, text):
        verdict = analyze(parse_graph(text)).balance
        assert verdict.balanced
        assert verdict.witness is None and verdict.modulus == ()

    def test_theta_is_unbalanced(self):
        # the two edges conjugate (a b)^3 to (a b)^2 around the theta cycle
        graph = parse_graph(THETA)
        verdict = analyze(graph).balance
        assert not verdict.balanced
        assert verdict.bs_tag == (3, 2)
        wtn = verdict.witness
        assert wtn.start == wtn.end == w(graph, 0, "a b")
        i, j = wtn.witness_exponents
        assert conjugacy_holds(graph, wtn.conjugator_items, wtn.start, i, wtn.start, j)

    def test_balance_survives_reduction(self):
        # contracting a reducible edge never changes the group
        text = """
        vertex 0 rank=1 gens=a
        vertex 1 rank=1 gens=b
        edge 0 0 1 minus="a^2" plus="b"
        edge 1 1 1 minus="b^2" plus="b^3"
        """
        graph = parse_graph(text)
        assert graph.reducible_edges()
        reduced, _ = reduce_graph(graph)
        before, after = analyze(graph).balance, analyze(reduced).balance
        assert not before.balanced and not after.balanced
        assert before.bs_tag == after.bs_tag == (2, 3)


# ------------------------------------------------------------- hyperbolicity


class TestWordHyperbolicity:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3), (3, 3), (2, -2)])
    def test_bs_is_never_hyperbolic(self, m, n):
        verdict = analyze(parse_graph(bs(m, n))).hyperbolicity
        assert not verdict.hyperbolic
        assert verdict.kind == "complete"
        assert verdict.witness is not None

    def test_trefoil_not_hyperbolic_via_full_path(self):
        graph = parse_graph(TREFOIL)
        verdict = analyze(graph).hyperbolicity
        assert not verdict.hyperbolic
        assert verdict.kind == "full"
        path = verdict.witness
        m, n = path.witness_exponents
        assert (path.start, m, path.end, n) == (w(graph, 0, "a^2"), 1, w(graph, 1, "b^3"), 1)

    def test_torus_relation_not_hyperbolic(self):
        assert not analyze(parse_graph(TORUS)).hyperbolicity.hyperbolic

    @pytest.mark.parametrize("text", [COMM_SQUARE, COMM_PRIMITIVE, FXF])
    def test_hyperbolic_amalgams(self, text):
        verdict = analyze(parse_graph(text)).hyperbolicity
        assert verdict.hyperbolic
        assert verdict.witness is None
        assert verdict.kind is None

    def test_unbalanced_implies_not_hyperbolic(self):
        assert not analyze(parse_graph(THETA)).hyperbolicity.hyperbolic


# -------------------------------------------------------------- acylindrical


class TestAcylHyperbolicity:
    def test_not_applicable_to_a_free_vertex(self):
        tri = analyze(parse_graph("vertex 0 rank=2 gens=a,b")).trichotomy
        assert tri.acyl is None and tri.free_rank == 2

    @pytest.mark.parametrize("text", [bs(2, 3), TREFOIL, TWO_LOOPS, THETA])
    def test_cyclic_fixtures(self, text):
        graph = parse_graph(text)
        verdict = analyze(graph).trichotomy.acyl
        if any(v.rank >= 2 for v in graph.vertices.values()):
            assert verdict.acyl_hyperbolic
        else:
            assert not verdict.acyl_hyperbolic

    def test_snormal_generators_are_common_powers(self):
        graph = parse_graph(TWO_LOOPS)
        verdict = analyze(graph).trichotomy.acyl
        assert not verdict.acyl_hyperbolic
        assert verdict.snormal_generators[0] == w(graph, 0, "a^6")
        graph = parse_graph(TREFOIL)
        gens = analyze(graph).trichotomy.acyl.snormal_generators
        assert gens == {0: w(graph, 0, "a^2"), 1: w(graph, 1, "b^3")}

    def test_rank_two_vertex_gives_acylindricity(self):
        verdict = analyze(parse_graph(FXF)).trichotomy.acyl
        assert verdict.acyl_hyperbolic
        assert verdict.condition == "vertex_not_cyclic" and verdict.vertex == 0

    def test_disagreeing_roots_give_acylindricity(self):
        graph = parse_graph(ROOTS_DISAGREE)
        verdict = analyze(graph).trichotomy.acyl
        assert verdict.acyl_hyperbolic
        assert verdict.condition == "edge_roots_disagree" and verdict.vertex == 0
        assert verdict.evidence == (w(graph, 0, "a^2"), w(graph, 0, "b^2"))

    @pytest.mark.parametrize(
        "text,acyl,central",
        [
            (
                CAP_TREE,
                AcylVerdict(False, None, None, (), {0: FreeWord(0, ((1, 1001000),)), 2: FreeWord(2, ((1, 2),))}),
                CentralWitness(0, FreeWord(0, ((1, 1001000),)), {0: 1001000, 2: 2}),
            ),
            (CONTRACTED_BS23, AcylVerdict(False, None, None, (), {0: FreeWord(0, ((1, 12),))}), None),
            (
                CONTRACTED_DISAGREE,
                AcylVerdict(True, "edge_roots_disagree", 0, (FreeWord(0, ((1, 4),)), FreeWord(0, ((2, 2),))), {}),
                None,
            ),
        ],
        ids=["cap-tree", "contracted-bs23", "contracted-disagree"],
    )
    def test_contracted_graph_is_read_off_its_own_end_table(self, text, acyl, central):
        graph = parse_graph(text)
        report = analyze(graph)
        assert report.reduced is not graph
        assert report.trichotomy.acyl == acyl and report.trichotomy.central == central

    def test_conjugate_roots_are_still_disjoint(self):
        # <a^2> meets <b a^2 b^-1> trivially even though the roots are conjugate
        verdict = analyze(parse_graph(CONJUGATE_ROOTS)).trichotomy.acyl
        assert verdict.acyl_hyperbolic
        assert verdict.condition == "edge_roots_disagree"


class TestRelHypObstruction:
    @pytest.mark.parametrize("text", [bs(2, 3), TREFOIL, TWO_LOOPS])
    def test_all_cyclic_vertices_flagged(self, text):
        assert analyze(parse_graph(text)).rel_hyp_note is not None

    @pytest.mark.parametrize("text", [FXF, THETA, COMM_SQUARE])
    def test_higher_rank_vertex_clears_flag(self, text):
        assert analyze(parse_graph(text)).rel_hyp_note is None


# ---------------------------------------------------------------- trichotomy


class TestTrichotomy:
    def test_acylindrically_hyperbolic_branch(self):
        verdict = analyze(parse_graph(FXF)).trichotomy
        assert verdict.branch == "acylindrically_hyperbolic"
        assert verdict.acyl is not None and verdict.acyl.acyl_hyperbolic

    def test_surjection_branch_lists_non_tree_edges(self):
        verdict = analyze(parse_graph(bs(2, 3))).trichotomy
        assert verdict.branch == "surjects_Z"
        assert verdict.surjection_edges == (0,)

    def test_trefoil_central_witness(self):
        graph = parse_graph(TREFOIL)
        verdict = analyze(graph).trichotomy
        assert verdict.branch == "cyclic_normal_subgroup"
        witness = verdict.central
        assert witness.element == w(graph, 0, "a^2")
        assert witness.exponents == {0: 2, 1: 3}
        # commutes with the generator of the *other* vertex group too
        engine = Engine(graph)
        g = engine.embed(witness.element)
        b = engine.embed(w(graph, 1, "b"))
        assert engine.mul(g, b) == engine.mul(b, g)

    def test_chain_central_witness_needs_denominator_chasing(self):
        verdict = analyze(parse_graph(CHAIN)).trichotomy
        assert verdict.branch == "cyclic_normal_subgroup"
        assert verdict.central.exponents == {0: 4, 1: 6, 2: 9}

    def test_trivial_reduction_reports_free_rank(self):
        verdict = analyze(parse_graph(COMM_PRIMITIVE)).trichotomy
        assert verdict.branch == "surjects_Z"
        assert verdict.free_rank == 2

    def test_reduces_internally(self):
        text = 'vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nedge 0 0 1 minus="a^2" plus="b"'
        verdict = analyze(parse_graph(text)).trichotomy  # collapses to a single Z
        assert verdict.branch == "surjects_Z" and verdict.free_rank == 1


# ------------------------------------------------------------ power conjugacy


class TestPowerConjugate:
    def test_trefoil_edge_relation(self):
        graph = parse_graph(TREFOIL)
        answer = power_conjugate(graph, w(graph, 0, "a"), w(graph, 1, "b"))
        assert answer.exists and answer.exponents == (2, 3)
        assert answer.route == "path"
        assert conjugacy_holds(
            graph, answer.conjugator, w(graph, 0, "a"), 2, w(graph, 1, "b"), 3
        )

    def test_same_vertex_is_reflexive(self):
        graph = parse_graph(TREFOIL)
        answer = power_conjugate(graph, w(graph, 0, "a"), w(graph, 0, "a"))
        assert answer.exists and answer.exponents == (1, 1)
        assert answer.route == "same_vertex" and answer.conjugator == ()

    def test_bs23_defining_relation_beats_vertex_candidate(self):
        # inside the vertex group (a^2)^3 = (a^3)^2, but the stable letter
        # does it with first powers
        graph = parse_graph(bs(2, 3))
        answer = power_conjugate(graph, w(graph, 0, "a^2"), w(graph, 0, "a^3"))
        assert answer.exponents == (1, 1) and answer.route == "path"
        assert conjugacy_holds(
            graph, answer.conjugator, w(graph, 0, "a^2"), 1, w(graph, 0, "a^3"), 1
        )

    def test_inverse_generator(self):
        graph = parse_graph(bs(2, 3))
        answer = power_conjugate(graph, w(graph, 0, "a"), w(graph, 0, "a^-1"))
        assert answer.exists and answer.exponents == (1, -1)

    def test_additional_relations_follow_the_answer(self):
        # a ~ a by the vertex group; the loop adds t a^2 t^-1 = a^3 and its inverse
        graph = parse_graph(bs(2, 3))
        a = w(graph, 0, "a")
        answer = power_conjugate(graph, a, a)
        assert answer.exponents == (1, 1) and answer.route == "same_vertex"
        pairs = [p.witness_exponents for p in answer.additional]
        assert pairs == [(2, 3), (3, 2)]
        for path in answer.additional:
            m, n = path.witness_exponents
            assert conjugacy_holds(graph, path.conjugator_items, a, m, a, n)

    def test_unrelated_elements_refuted(self):
        graph = parse_graph(FXF)
        answer = power_conjugate(graph, w(graph, 0, "b"), w(graph, 1, "y"))
        assert not answer.exists
        assert answer.exponents is None and answer.conjugator == ()

    def test_rejects_trivial_elements(self):
        graph = parse_graph(TREFOIL)
        with pytest.raises(DegenerateInputError):
            power_conjugate(graph, w(graph, 0, "a"), w(graph, 1, "1"))

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(-4, 4).filter(bool), q=st.integers(-4, 4).filter(bool))
    def test_bs23_powers_always_related(self, p, q):
        graph = parse_graph(bs(2, 3))
        x, y = w(graph, 0, f"a^{p}"), w(graph, 0, f"a^{q}")
        answer = power_conjugate(graph, x, y)
        assert answer.exists
        m, n = answer.exponents
        assert conjugacy_holds(graph, answer.conjugator, x, m, y, n)


# -------------------------------------------------------------------- replay


@st.composite
def relations(draw):
    """A conjugator w, elements x and y and exponents on one graph; half the
    time y is w x w^-1 and n = m, so that the relation holds."""
    graph = draw(engine_graphs())
    items, x_items, y_items = (draw_items(draw, graph, limit) for limit in (6, 3, 3))
    m, n = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return graph, items, x_items, y_items, m, n, draw(st.booleans())


def replays(engine, items, x, m, y, n) -> bool:
    try:
        _require(engine, items, engine.power(x, m), engine.power(y, n), "drawn relation")
    except InternalInconsistencyError:
        return False
    return True


@settings(deadline=None, max_examples=200)
@given(relations())
def test_two_sided_check_agrees_with_conjugation(case):
    # w x^m = y^n w holds exactly when w x^m w^-1 = y^n does
    graph, items, x_items, y_items, m, n, holds = case
    engine = Engine(graph)
    w_elem, x = engine.element_of(items), engine.element_of(x_items)
    if holds:
        y, n = conjugate(engine, w_elem, x), m
    else:
        y = engine.element_of(y_items)
    expected = conjugate(engine, w_elem, engine.power(x, m)) == engine.power(y, n)
    assert replays(engine, items, x, m, y, n) == expected
    if holds:
        assert expected


def test_empty_conjugator_compares_the_powers_only(monkeypatch):
    graph = parse_graph(bs(2, 3))
    engine = Engine(graph)
    a2, a3 = engine.embed(w(graph, 0, "a^2")), engine.embed(w(graph, 0, "a^3"))

    def refuse(*args):
        raise AssertionError("an empty conjugator builds no product")

    monkeypatch.setattr(Engine, "element_of", refuse)
    monkeypatch.setattr(Engine, "mul", refuse)
    _require(engine, [], engine.power(a2, 3), engine.power(a3, 2), "(a^2)^3 = (a^3)^2")
    with pytest.raises(InternalInconsistencyError, match="witness failed engine verification"):
        _require(engine, [], a2, a3, "a^2 = a^3")


@st.composite
def rank_one_trees(draw):
    """A tree of at most six rank-1 vertices, edge words x^k with 1 <= |k| <= 4."""
    n = draw(st.integers(2, 6))
    exps = st.sampled_from([k for k in range(-4, 5) if k])
    lines = [f"vertex {i} rank=1 gens=x{i}" for i in range(n)]
    for child in range(1, n):
        ends = [draw(st.integers(0, child - 1)), child]
        if draw(st.booleans()):
            ends.reverse()
        minus, plus = ends
        words = f'minus="x{minus}^{draw(exps)}" plus="x{plus}^{draw(exps)}"'
        lines.append(f"edge {child} {minus} {plus} {words}")
    return "\n".join(lines)


@settings(deadline=None, max_examples=150)
@given(rank_one_trees())
def test_central_witness_holds_in_the_whole_graph(text):
    # the whole-graph replay that the per-edge checks replace, kept as an oracle
    report = analyze(parse_graph(text))
    central = report.trichotomy.central
    if report.trichotomy.branch != "cyclic_normal_subgroup":
        assert central is None and report.reduced.is_trivial
        return
    reduced = report.reduced
    assert set(central.exponents) == set(reduced.vertices)
    engine = Engine(reduced)
    g = engine.embed(central.element)
    for vid, x in central.exponents.items():
        gen = engine.embed(reduced.vertices[vid].alphabet.word(((1, 1),)))
        assert g == engine.power(gen, x)
        assert engine.mul(gen, g) == engine.mul(g, gen)


# -------------------------------------------------------------------- report


ALL_TEXTS = [bs(2, 3), bs(3, 3), bs(1, 2), TREFOIL, TORUS, CHAIN, THETA, FXF,
             COMM_SQUARE, COMM_PRIMITIVE, TWO_LOOPS, ROOTS_DISAGREE, CONJUGATE_ROOTS,
             CAP_TREE, CONTRACTED_BS23, CONTRACTED_DISAGREE]


class TestAnalyze:
    def test_bs23_report(self):
        report = analyze(parse_graph(bs(2, 3)))
        assert not report.balance.balanced
        assert not report.hyperbolicity.hyperbolic
        assert report.trichotomy.acyl is not None and not report.trichotomy.acyl.acyl_hyperbolic
        assert report.trichotomy.branch == "surjects_Z"
        assert report.rel_hyp_note is not None
        assert report.trichotomy.free_rank is None and report.notes == ()

    def test_ascending_loop_note(self):
        report = analyze(parse_graph(bs(1, 2)))
        assert len(report.notes) == 1 and "bad loop" in report.notes[0]

    def test_trivial_reduction_report(self):
        report = analyze(parse_graph(COMM_PRIMITIVE))
        assert report.reduced.is_trivial and report.trichotomy.free_rank == 2
        assert report.trichotomy.acyl is None and report.rel_hyp_note is None
        assert report.balance.balanced and report.hyperbolicity.hyperbolic
        assert len(report.contractions) == 1

    def test_theta_report_is_consistent(self):
        report = analyze(parse_graph(THETA))
        assert not report.balance.balanced
        assert not report.hyperbolicity.hyperbolic
        assert report.trichotomy.acyl.acyl_hyperbolic
        assert report.trichotomy.branch == "acylindrically_hyperbolic"

    @pytest.mark.parametrize("text", ALL_TEXTS)
    def test_shared_steps_run_once(self, text, monkeypatch):
        graph = parse_graph(text)
        calls = {}
        for name in ("decide_chains", "reduce_graph", "_acyl"):
            original = getattr(verdicts, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(verdicts, name, counted)
        builds = []
        original_init = paths._ClassGraph.__init__

        def built(self, g):
            builds.append(g)
            original_init(self, g)

        monkeypatch.setattr(paths._ClassGraph, "__init__", built)
        for name in ("enumerate_complete_paths", "enumerate_full_nonmaximal_paths"):
            monkeypatch.setattr(paths, name, lambda *args, _name=name: pytest.fail(f"{_name} ran"))
        report = analyze(graph)
        assert calls["decide_chains"] == 1 and calls["reduce_graph"] == 1
        # one end table per analysed graph: the input, and the reduced graph if it differs
        assert builds == ([graph] if report.reduced is graph else [graph, report.reduced])
        assert calls.get("_acyl", 0) == (0 if report.reduced.is_trivial else 1)

    @pytest.mark.parametrize(
        "text", [rand(200), CAP_TREE, CONTRACTED_BS23, CONTRACTED_DISAGREE],
        ids=["rand-200", "cap-tree", "contracted-bs23", "contracted-disagree"],
    )
    def test_each_edge_end_is_rooted_once_per_analysed_graph(self, text):
        """The end tables are where analyze roots edge ends: once per end of
        the input graph, and once per end of the reduced graph when that is
        another graph.  Every witness is built from those roots, so nothing
        else is rooted."""
        graph = parse_graph(text)
        words._root_cached.cache_clear()
        report = analyze(graph)
        calls = words._root_cached.cache_info()
        analysed = [graph] if report.reduced is graph else [graph, report.reduced]
        assert calls.hits + calls.misses == sum(2 * len(g.edges) for g in analysed)

    def test_conj_roots_each_edge_end_and_each_query_word_once(self):
        """power_conjugate builds one end table, and it roots the two query
        words once each for the vertex chain, the search and every transfer
        (neither is an edge end's word here)."""
        graph = parse_graph(loops1(4))
        x, y = w(graph, 0, "a^3"), w(graph, 0, "a^5")
        words._root_cached.cache_clear()
        answer = power_conjugate(graph, x, y)
        calls = words._root_cached.cache_info()
        assert answer.exists and answer.additional
        assert calls.hits + calls.misses == 2 * len(graph.edges) + 2

    @pytest.mark.parametrize(
        "text,builds",
        [
            (bs(2, 3), 1),
            # one engine on the input, one on the reduced tree's single edge
            (TREFOIL, 2),
            # edge 0 contracts to BS(2, 3), whose trichotomy builds no engine
            (
                'vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\n'
                'edge 0 0 1 minus="a^2" plus="b"\nedge 1 1 1 minus="b^2" plus="b^3"',
                1,
            ),
            (CHAIN, 3),
        ],
        ids=["bs23", "trefoil", "contracted", "chain"],
    )
    def test_one_engine_per_graph(self, text, builds, monkeypatch):
        graph = parse_graph(text)
        graphs = []
        original = Engine.__init__

        def counted(self, g):
            graphs.append(g)
            original(self, g)

        monkeypatch.setattr(Engine, "__init__", counted)
        report = analyze(graph)
        assert len(graphs) == builds
        assert graphs[0] is graph
        for g in graphs[1:]:  # each on a single edge of the reduced tree
            (edge,) = g.edges.values()
            assert report.reduced.edges[edge.id] is edge
            assert set(g.vertices) == {edge.minus_vertex, edge.plus_vertex}
        assert len(graphs) - 1 == (len(report.reduced.edges) if report.trichotomy.central else 0)

    @pytest.mark.parametrize(
        "text,replays",
        [
            (bs(2, 3), 1),  # the complete witness is the non-level one
            (bs(2, 2), 1),
            (TREFOIL, 1),
            ('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^2"\n'
             'edge 1 0 0 minus="a^2" plus="a^3"', 2),
        ],
        ids=["bs23", "bs22", "trefoil", "level-and-skew-loops"],
    )
    def test_each_chain_witness_replays_once(self, text, replays, monkeypatch):
        replayed = []
        original = verdicts._require_path

        def counted(engine, powers, path, claim):
            replayed.append(path)
            original(engine, powers, path, claim)

        monkeypatch.setattr(verdicts, "_require_path", counted)
        report = analyze(parse_graph(text))
        assert len(replayed) == replays
        witnesses = {id(w) for w in (report.balance.witness, report.hyperbolicity.witness) if w}
        assert {id(p) for p in replayed} == witnesses

    @pytest.mark.parametrize("text", ALL_TEXTS)
    def test_verdicts_are_mutually_consistent(self, text):
        report = analyze(parse_graph(text))  # internal gates raise on trouble
        if not report.balance.balanced:
            assert not report.hyperbolicity.hyperbolic
        tri = report.trichotomy
        if report.hyperbolicity.hyperbolic and tri.acyl is not None:
            assert tri.acyl.acyl_hyperbolic
        if report.reduced.is_trivial:
            assert tri.free_rank is not None and tri.acyl is None
        else:
            assert tri.free_rank is None and tri.acyl is not None
