"""Engine arithmetic against hand-computed normal-form facts."""

import pytest
from hypothesis import given, settings, strategies as st

import gogz.engine
from gogz import words
from gogz.engine import IDENTITY, Engine, brute_force_power_conjugacy, iter_power_conjugacies
from gogz.errors import DegenerateInputError
from gogz.graphs import parse_graph
from gogz.words import FreeWord
from helpers import atoms, conjugate, run_capped, validate_element, word_of
from test_paths_reference import graphs as random_graphs

BS23 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^3"')
TREFOIL = parse_graph(
    'vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\nedge 0 0 1 minus="a^2" plus="b^3"'
)
THETA = parse_graph(
    "vertex 0 rank=2 gens=a,b\n"
    "vertex 1 rank=1 gens=x\n"
    'edge 0 0 1 minus="a b" plus="x^2"\n'
    'edge 1 0 1 minus="b a" plus="x^3"\n'
)
FREE = parse_graph("vertex 0 rank=2 gens=a,b")


def w(graph, vid, text):
    return graph.vertices[vid].alphabet.parse(text)


@pytest.mark.parametrize("graph", [BS23, TREFOIL, THETA, FREE])
def test_engine_shares_the_graph_spanning_tree(graph):
    # the graph builds its spanning tree once; an engine does not search again
    assert Engine(graph).tree is graph.tree


# ------------------------------------------------------------------- BS(2,3)


class TestBS23:
    engine = Engine(BS23)

    def test_defining_relation(self):
        e = self.engine
        t = e.element_of([("t", 0, 1)])
        a2 = e.embed(w(BS23, 0, "a^2"))
        a3 = e.embed(w(BS23, 0, "a^3"))
        assert conjugate(e, t, a2) == a3

    def test_relation_powers(self):
        e = self.engine
        t = e.element_of([("t", 0, 1)])
        for k in (-3, -1, 2, 5):
            lhs = conjugate(e, t, e.embed(w(BS23, 0, f"a^{2 * k}")))
            assert lhs == e.embed(w(BS23, 0, f"a^{3 * k}"))

    def test_britton_no_collapse(self):
        e = self.engine
        t = e.element_of([("t", 0, 1)])
        g = conjugate(e, t, e.embed(w(BS23, 0, "a")))
        # t a t^-1 is not in the vertex group: two stable letters survive
        assert e.top_length(g) == 2
        assert (g,) and g != e.element_of([])
        # but its square collapses to a^3
        assert e.mul(g, g) == e.embed(w(BS23, 0, "a^3"))

    def test_stable_letter_inverse(self):
        e = self.engine
        t = e.element_of([("t", 0, 1)])
        t_inv = e.element_of([("t", 0, -1)])
        assert e.mul(t, t_inv) == e.element_of([])
        assert e.inv(t) == t_inv

    def test_element_of_mixed_product(self):
        e = self.engine
        g = e.element_of([w(BS23, 0, "a"), ("t", 0, 1), w(BS23, 0, "a^2"), ("t", 0, -1)])
        expected = e.mul(e.embed(w(BS23, 0, "a")), e.embed(w(BS23, 0, "a^3")))
        assert g == expected

    def test_top_length_is_tree_distance(self):
        # t^k moves the base vertex k edges; the relation t a^2 t^-1 = a^3 fixes it
        e = self.engine
        for k in (-3, -1, 1, 4):
            assert e.top_length(e.element_of([("t", 0, k)])) == abs(k)
        assert e.top_length(e.embed(w(BS23, 0, "a^5"))) == 0
        assert e.top_length(conjugate(e, e.element_of([("t", 0, 1)]), e.embed(w(BS23, 0, "a^2")))) == 0

    def test_atoms_spell_the_normal_form(self):
        e = self.engine
        assert atoms(e, e.element_of([("t", 0, 2)])) == [("t", 0, 1), ("t", 0, 1)]
        assert atoms(e, e.element_of([("t", 0, -1)])) == [("t", 0, -1)]
        g = e.element_of([w(BS23, 0, "a"), ("t", 0, 1), w(BS23, 0, "a")])
        a = w(BS23, 0, "a")
        assert atoms(e, g) == [a, ("t", 0, 1), a]
        assert e.element_of(atoms(e, g)) == g


# ------------------------------------------------------------------- trefoil


class TestTrefoil:
    engine = Engine(TREFOIL)

    def test_edge_words_identified(self):
        e = self.engine
        assert e.embed(w(TREFOIL, 0, "a^2")) == e.embed(w(TREFOIL, 1, "b^3"))
        assert e.embed(w(TREFOIL, 0, "a^3")) != e.embed(w(TREFOIL, 1, "b^2"))

    def test_center(self):
        e = self.engine
        z = e.embed(w(TREFOIL, 0, "a^2"))
        for word in (w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b"), w(TREFOIL, 1, "b^-2")):
            g = e.embed(word)
            assert e.mul(z, g) == e.mul(g, z)

    def test_factors_do_not_commute(self):
        e = self.engine
        a = e.embed(w(TREFOIL, 0, "a"))
        b = e.embed(w(TREFOIL, 1, "b"))
        assert e.mul(a, b) != e.mul(b, a)

    def test_tree_stable_letter_is_trivial(self):
        assert self.engine.element_of([("t", 0, 1)]) == self.engine.element_of([])


# -------------------------------------------------------------------- theta


class TestTheta:
    engine = Engine(THETA)

    def test_tree_edge_identified_hnn_edge_not(self):
        e = self.engine
        # edge 0 is the tree edge: a b = x^2 on the nose
        assert e.embed(w(THETA, 0, "a b")) == e.embed(w(THETA, 1, "x^2"))
        # edge 1 needs its stable letter: t (b a) t^-1 = x^3
        t = e.element_of([("t", 1, 1)])
        lhs = conjugate(e, t, e.embed(w(THETA, 0, "b a")))
        assert e.embed(w(THETA, 0, "b a")) != e.embed(w(THETA, 1, "x^3"))
        assert lhs == e.embed(w(THETA, 1, "x^3"))

    def test_rank_two_vertex_words(self):
        e = self.engine
        g = e.embed(w(THETA, 0, "a b a^-1 b^-1"))
        assert g != e.element_of([])
        assert e.mul(g, e.inv(g)) == e.element_of([])


def test_engine_takes_no_roots(monkeypatch):
    # the referee must not share root's canonical choice with the deciders
    def refuse(letters):
        raise AssertionError("the engine called root")

    assert "_root_cached" not in vars(gogz.engine)
    monkeypatch.setattr(words, "_root_cached", refuse)
    words._coset_canonical_cached.cache_clear()
    e = Engine(BS23)
    t = e.element_of([("t", 0, 1)])
    assert conjugate(e, t, e.embed(w(BS23, 0, "a^2"))) == e.embed(w(BS23, 0, "a^3"))


# ---------------------------------------------------------------- long chain


def test_long_chain_arithmetic_does_not_recurse():
    # 2000 vertices in a row, a_i^2 = a_(i+1)^3: a far word crosses the whole tree
    n = 2000
    lines = [f"vertex {i} rank=1 gens=a{i}" for i in range(n)]
    lines += [f'edge {i} {i} {i + 1} minus="a{i}^2" plus="a{i + 1}^3"' for i in range(n - 1)]
    chain = parse_graph("\n".join(lines))
    e = Engine(chain)
    far, near = e.embed(w(chain, n - 1, f"a{n - 1}")), e.embed(w(chain, n - 2, f"a{n - 2}"))
    assert e.power(near, 2) == e.power(far, 3)
    assert e.mul(near, far) != e.mul(far, near)
    g = e.mul(near, far, e.inv(near))
    validate_element(e, g)
    assert e.top_length(g) == 2 * (n - 1)
    assert e.mul(g, e.inv(g)) == e.element_of([])
    assert e.element_of(atoms(e, g)) == g


# ------------------------------------------------------------- free fallback


def test_single_vertex_engine_is_plain_free_group():
    e = Engine(FREE)
    ab = e.embed(w(FREE, 0, "a b"))
    ba = e.embed(w(FREE, 0, "b a"))
    assert ab != ba
    assert conjugate(e, e.embed(w(FREE, 0, "a^-1")), ab) == ba


# ---------------------------------------------------------------- properties

GRAPHS = [BS23, TREFOIL, THETA, FREE]
ENGINES = [Engine(g) for g in GRAPHS]

WORDS = {
    0: ["a", "a^-1", "a^2"],
    1: ["a", "b", "a b", "b^-1 a"],
    2: ["a", "b", "x", "a b", "x^-2"],
    3: ["a", "b", "a b a", "b^-1"],
}
T_LETTERS = {0: [("t", 0, 1), ("t", 0, -1)], 1: [], 2: [("t", 1, 1), ("t", 1, -1)], 3: []}


def build_item(graph_idx, choice):
    graph = GRAPHS[graph_idx]
    words = WORDS[graph_idx]
    ts = T_LETTERS[graph_idx]
    options = []
    for text in words:
        vertex_ids = sorted(graph.vertices)
        for vid in vertex_ids:
            try:
                options.append(graph.vertices[vid].alphabet.parse(text))
                break
            except Exception:
                continue
    options.extend(ts)
    return options[choice % len(options)]


items_st = st.lists(st.integers(0, 10), min_size=0, max_size=6)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3), items_st, items_st, items_st)
def test_group_axioms(graph_idx, i1, i2, i3):
    e = ENGINES[graph_idx]
    g, h, k = (e.element_of([build_item(graph_idx, c) for c in seq]) for seq in (i1, i2, i3))
    assert e.mul(e.mul(g, h), k) == e.mul(g, e.mul(h, k))
    assert e.mul(g, e.inv(g)) == e.element_of([])
    assert e.inv(e.mul(g, h)) == e.mul(e.inv(h), e.inv(g))
    for elem in (g, h, k, e.mul(g, h)):
        validate_element(e, elem)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3), items_st, st.integers(-20, 20))
def test_powers_match_repeated_multiplication(graph_idx, seq, k):
    # power squares; the reference multiplies |k| times
    e = ENGINES[graph_idx]
    g = e.element_of([build_item(graph_idx, c) for c in seq])
    assert e.power(g, 0) == e.element_of([])
    expected = e.element_of([])
    step = g if k >= 0 else e.inv(g)
    for _ in range(abs(k)):
        expected = e.mul(expected, step)
    assert e.power(g, k) == expected


def counting_passes(monkeypatch):
    """Count the engine's normal-form passes from now on."""
    passes = []
    normal_form = Engine._normal_form

    def counted(self, path, onto=IDENTITY):
        passes.append(path)
        return normal_form(self, path, onto)

    monkeypatch.setattr(Engine, "_normal_form", counted)
    return passes


@pytest.mark.parametrize("graph,vid,text", [(THETA, 0, "a b^-1 a"), (FREE, 0, "b a b^-1"), (BS23, 0, "a^-2")])
def test_a_power_without_steps_is_one_word_power(graph, vid, text, monkeypatch):
    e = Engine(graph)
    g = e.embed(w(graph, vid, text))
    assert not g[1]
    expected = {0: e.element_of([])}
    for k in range(1, 8):
        expected[k] = e.mul(expected[k - 1], g)
        expected[-k] = e.mul(expected[-k + 1], e.inv(g))
    a = Engine(BS23).embed(w(BS23, 0, "a"))
    passes = counting_passes(monkeypatch)
    for k in range(-7, 8):
        assert e.power(g, k) == expected[k]
    assert Engine(BS23).power(a, 2**64) == (((1, 2**64),), ())
    assert passes == []


def test_a_power_with_steps_is_squared(monkeypatch):
    e = Engine(BS23)
    g = e.element_of([w(BS23, 0, "a"), ("t", 0, 1)])
    assert g[1]
    expected = e.element_of([])
    for _ in range(8):
        expected = e.mul(expected, g)
    passes = counting_passes(monkeypatch)
    assert e.power(g, 8) == expected
    assert len(passes) == 3  # g^2, g^4, g^8


# g^20 for g = a t^2 a^2 on BS(2,3) holds a power of a with more than 3 * 10^7
# letters; compared against 20 products, in a child capped at 512 MiB
_BOUNDED_POWER = """
from gogz.engine import IDENTITY, Engine
from gogz.graphs import parse_graph

e = Engine(parse_graph('vertex 0 rank=1 gens=a\\nedge 0 0 0 minus="a^2" plus="a^3"'))
a = e.graph.vertices[0].alphabet
g = e.element_of([a.parse("a"), ("t", 0, 2), a.parse("a^2")])
expected = IDENTITY
for _ in range(20):
    expected = e.mul(expected, g)
power = e.power(g, 20)
print(power == expected, max(abs(x) for _, x in power[0]) > 3 * 10**7)
"""


def test_a_fast_growing_power_fits_in_bounded_memory():
    child = run_capped(["-c", _BOUNDED_POWER])
    assert (child.returncode, child.stdout) == (0, "True True\n"), child.stderr


@settings(deadline=None, max_examples=40)
@given(items_st, st.integers(-5, 5))
def test_hnn_relation_invariance(seq, k):
    # conjugating minus^k by t must equal plus^k, even multiplied into context
    e = ENGINES[0]
    if k == 0:
        return
    t = e.element_of([("t", 0, 1)])
    context = e.element_of([build_item(0, c) for c in seq])
    lhs = e.mul(context, conjugate(e, t, e.embed(w(BS23, 0, f"a^{2 * k}"))))
    rhs = e.mul(context, e.embed(w(BS23, 0, f"a^{3 * k}")))
    assert lhs == rhs


# ------------------------------------------------------ one pass per product


def fold_element_of(e, items):
    """The per-item fold ``element_of`` replaced: one normal-form pass per
    vertex word and one per copy of ``t``, each onto the product so far."""
    out = IDENTITY
    for item in reversed(items):
        if isinstance(item, FreeWord):
            out = e._normal_form(e._word_path(item), out)
        else:
            _, eid, exp = item
            one = ((), e._stable_path(eid, 1 if exp > 0 else -1))
            for _ in range(abs(exp)):
                out = e._normal_form(one, out)
    return out


def draw_items(draw, graph, max_items=8):
    """Vertex words at any vertex and stable letters of any edge, mixed."""
    items = []
    for _ in range(draw(st.integers(0, max_items))):
        if draw(st.booleans()):
            vertex = graph.vertices[draw(st.sampled_from(sorted(graph.vertices)))]
            letters = draw(st.lists(st.integers(-vertex.rank, vertex.rank).filter(bool), max_size=5))
            items.append(word_of(vertex.alphabet, letters))
        else:
            items.append(("t", draw(st.sampled_from(sorted(graph.edges))), draw(st.integers(-6, 6))))
    return items


def engine_graphs():
    return st.one_of(st.sampled_from([BS23, TREFOIL, THETA]), random_graphs())


@st.composite
def graphs_and_items(draw):
    graph = draw(engine_graphs())
    return graph, draw_items(draw, graph)


@settings(deadline=None, max_examples=200)
@given(graphs_and_items())
def test_element_of_matches_the_per_item_fold(case):
    # tree and non-tree stable letters, words at every vertex, seams that cancel
    graph, items = case
    e = Engine(graph)
    g = e.element_of(items)
    assert g == fold_element_of(e, items)
    validate_element(e, g)


def test_element_of_normalises_once(monkeypatch):
    e = Engine(THETA)
    items = [w(THETA, 0, "a b"), ("t", 1, 3), w(THETA, 1, "x^-2"), ("t", 0, -2), ("t", 1, -1)] * 10
    expected = fold_element_of(e, items)
    passes = counting_passes(monkeypatch)
    assert len(items) == 50 and e.element_of(items) == expected
    assert len(passes) == 1


def test_unknown_stable_letter_is_refused():
    with pytest.raises(DegenerateInputError, match="unknown edge 7"):
        Engine(BS23).element_of([w(BS23, 0, "a"), ("t", 7, 1)])


def test_an_item_that_is_no_stable_letter_is_refused():
    # an error, not an assert, so that python -O refuses it too
    with pytest.raises(DegenerateInputError) as err:
        Engine(BS23).element_of([w(BS23, 0, "a"), ("s", 0, 1)])
    assert str(err.value) == "('s', 0, 1) is neither a vertex word nor a stable letter"


# ----------------------------------------------------- faithful-model checks
#
# Two classical faithful linear/affine models give fully independent equality
# oracles: the amalgam <a, b | a^2 = b^3> is the braid group B_3 (a = s1 s2 s1,
# b = s1 s2), whose reduced Burau representation over Z[t, t^-1] is faithful;
# and <a, t | t a t^-1 = a^2> acts faithfully by affine maps x -> 2^k x + beta.


def _lp_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n

    def dot(p, q, r, s):
        out = dict(_lp_mul(p, q))
        for k, v in _lp_mul(r, s).items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    return (
        (dot(a, e, b, g), dot(a, f, b, h)),
        (dot(c, e, d, g), dot(c, f, d, h)),
    )


_ONE, _ZERO, _T = {0: 1}, {}, {1: 1}
_BURAU = {
    1: (({1: -1}, _ONE), (_ZERO, _ONE)),
    -1: (({-1: -1}, {-1: 1}), (_ZERO, _ONE)),
    2: ((_ONE, _ZERO), (_T, {1: -1})),
    -2: ((_ONE, _ZERO), (_ONE, {-1: -1})),
}
_ID_MAT = ((_ONE, _ZERO), (_ZERO, _ONE))


def _burau(braid_letters):
    m = _ID_MAT
    for letter in braid_letters:
        m = _mat_mul(m, _BURAU[letter])
    return m


# trefoil generators as braids: a = s1 s2 s1, b = s1 s2
_AS_BRAID = {"a": (1, 2, 1), "a^-1": (-1, -2, -1), "b": (1, 2), "b^-1": (-2, -1)}

trefoil_word_st = st.lists(st.sampled_from(["a", "a^-1", "b", "b^-1"]), min_size=0, max_size=8)


@settings(deadline=None, max_examples=120)
@given(trefoil_word_st, trefoil_word_st)
def test_trefoil_equality_matches_burau_representation(syll1, syll2):
    e = ENGINES[1]

    def build(sylls):
        items = [
            w(TREFOIL, 0 if s.startswith("a") else 1, s) for s in sylls
        ]
        braid = []
        for s in sylls:
            braid.extend(_AS_BRAID[s])
        return e.element_of(items), _burau(braid)

    g1, m1 = build(syll1)
    g2, m2 = build(syll2)
    assert (g1 == g2) == (m1 == m2)


def _affine(items):
    from fractions import Fraction

    alpha, beta = Fraction(1), Fraction(0)
    for kind, k in items:
        if kind == "a":
            a2, b2 = Fraction(1), Fraction(k)
        else:
            a2, b2 = Fraction(2) ** k, Fraction(0)
        alpha, beta = alpha * a2, alpha * b2 + beta
    return alpha, beta


BS12 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a" plus="a^2"')

bs12_item_st = st.tuples(st.sampled_from(["a", "t"]), st.integers(-2, 2).filter(bool))
bs12_word_st = st.lists(bs12_item_st, min_size=0, max_size=8)


@settings(deadline=None, max_examples=120)
@given(bs12_word_st, bs12_word_st)
def test_bs12_equality_matches_affine_action(items1, items2):
    e = Engine(BS12)

    def build(items):
        parts = [
            w(BS12, 0, f"a^{k}") if kind == "a" else ("t", 0, k) for kind, k in items
        ]
        return e.element_of(parts), _affine(items)

    g1, m1 = build(items1)
    g2, m2 = build(items2)
    assert (g1 == g2) == (m1 == m2)


# -------------------------------------------------------------- brute force


class TestBruteForce:
    def test_bs23_first_hit_is_minimal(self):
        e = Engine(BS23)
        a = w(BS23, 0, "a")
        hit = brute_force_power_conjugacy(e, a, a, max_syllables=2, max_letters=4, max_exp=4)
        assert hit is not None
        assert hit.conjugator == () and (hit.m, hit.n) == (1, 1)

    def test_bs23_finds_stable_letter_relation(self):
        e = Engine(BS23)
        a = w(BS23, 0, "a")
        hits = []
        for hit in iter_power_conjugacies(e, a, a, max_syllables=1, max_letters=2, max_exp=4):
            hits.append((hit.conjugator, hit.m, hit.n))
        assert ((("t", 0, 1),), 2, 3) in hits
        assert ((("t", 0, -1),), 3, 2) in hits

    def test_trefoil_power_identification(self):
        e = Engine(TREFOIL)
        hit = brute_force_power_conjugacy(
            e, w(TREFOIL, 0, "a"), w(TREFOIL, 1, "b"), max_syllables=1, max_letters=2, max_exp=4
        )
        assert hit is not None
        assert hit.conjugator == () and (hit.m, hit.n) == (2, 3)

    def test_no_relation_in_free_group(self):
        e = Engine(FREE)
        hit = brute_force_power_conjugacy(
            e, w(FREE, 0, "a"), w(FREE, 0, "b"), max_syllables=2, max_letters=4, max_exp=3
        )
        assert hit is None

    def test_every_hit_verifies(self):
        e = Engine(THETA)
        x, y = w(THETA, 1, "x"), w(THETA, 0, "a b")
        count = 0
        for hit in iter_power_conjugacies(e, x, y, max_syllables=2, max_letters=4, max_exp=3):
            wit = e.element_of(list(hit.conjugator))
            lhs = conjugate(e, wit, e.power(e.embed(x), hit.m))
            assert lhs == e.power(e.embed(y), hit.n)
            count += 1
            if count >= 20:
                break
        assert count > 0  # x^2 = a b up to the tree identification
