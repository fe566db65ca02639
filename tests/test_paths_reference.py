"""The class-indexed walker against a brute-force copy of the walk it
replaced, and the class-graph deciders against the walker.

The reference walkers below rescan every oriented edge at each step, test
junctions with ``cyclic_meet`` directly, canonicalise closed chains by
comparing all rotations and reversals, and certify each chain they find
with ``check_conjugacy_path``, which runs ``cyclic_meet`` on every
transition of that one chain instead of going through the class graph.
On random graphs whose edge words are powers of a few shared primitives
(so that chains exist), the enumerations must agree exactly: the same
lists in the same order for the closed and full chains, and the same
sequence in yield order for the open search, which ``power_conjugate``
and the ``conj`` command depend on.
``decide_chains`` must then give the verdicts and witnesses that the
enumerations imply, and the streaming ``power_conjugate`` the answer of
the materialising copy it replaced.
"""

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import List, Optional

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gogz.engine import Engine
from gogz.graphs import Edge, GraphOfGroups, OrientedEdge, Vertex, parse_graph
from gogz.paths import (
    ConjugacyPath,
    _ClassGraph,
    _closed_chains,
    decide_chains,
    enumerate_complete_paths,
    enumerate_full_nonmaximal_paths,
    iter_conjugacy_paths,
)
from gogz.verdicts import ConjugacyAnswer, _same_vertex_candidate, power_conjugate
from gogz.words import cyclic_meet, root

# ------------------------------------------------------------ reference walk


def _path_key(steps):
    return tuple((s.edge.id, 0 if s.forward else 1) for s in steps)


def _reversed_path(steps):
    return [s.reversed() for s in reversed(steps)]


def _is_canonical_cycle(steps) -> bool:
    key = _path_key(steps)
    n = len(steps)
    candidates = [tuple(steps[i:]) + tuple(steps[:i]) for i in range(n)]
    rev = _reversed_path(steps)
    candidates += [tuple(rev[i:]) + tuple(rev[:i]) for i in range(n)]
    return key == min(_path_key(c) for c in candidates)


def _junction_holds(a: OrientedEdge, b: OrientedEdge) -> bool:
    return cyclic_meet(a.terminus_word, b.origin_word) is not None


def check_conjugacy_path(g, g_prime, steps) -> Optional[ConjugacyPath]:
    """Certify the connected edge chain ``steps`` as a conjugacy path from g
    to g', or None when some overlap along it fails."""
    words = [g]
    for step in steps:
        words += [step.origin_word, step.terminus_word]
    words.append(g_prime)
    meets = [cyclic_meet(u, v) for u, v in zip(words[::2], words[1::2])]
    return None if any(m is None for m in meets) else ConjugacyPath(tuple(steps), tuple(meets))


def reference_complete(graph: GraphOfGroups) -> List[ConjugacyPath]:
    oriented = graph.oriented_edges()
    cycles = []

    def extend(path, used):
        here = path[-1].terminus
        if here == path[0].origin and _is_canonical_cycle(path):
            cycles.append(tuple(path))
        for step in oriented:
            if step.edge.id in used or step.origin != here:
                continue
            path.append(step)
            used.add(step.edge.id)
            extend(path, used)
            used.discard(step.edge.id)
            path.pop()

    for start in oriented:
        extend([start], {start.edge.id})

    chains = []
    for steps in cycles:
        base_word = steps[0].origin_word
        path = check_conjugacy_path(base_word, base_word, steps)
        if path is not None:
            chains.append(path)
    chains.sort(key=lambda p: (len(p.steps), _path_key(p.steps)))
    return chains


def reference_full(graph: GraphOfGroups) -> List[ConjugacyPath]:
    oriented = graph.oriented_edges()
    found = []

    # an arrow: the inclusion word at that end is a proper power
    def arrow_at_origin(step):
        return abs(root(step.origin_word).exponent) >= 2

    def arrow_at_terminus(step):
        return abs(root(step.terminus_word).exponent) >= 2

    def emit(steps):
        if _path_key(steps) <= _path_key(_reversed_path(steps)):
            path = check_conjugacy_path(steps[0].origin_word, steps[-1].terminus_word, steps)
            assert path is not None
            found.append(path)

    def extend(path, used):
        for step in oriented:
            if step.edge.id in used or step.origin != path[-1].terminus:
                continue
            if arrow_at_origin(step) or not _junction_holds(path[-1], step):
                continue
            path.append(step)
            used.add(step.edge.id)
            if arrow_at_terminus(step):
                emit(tuple(path))
            else:
                extend(path, used)
            used.discard(step.edge.id)
            path.pop()

    for start in oriented:
        if not arrow_at_origin(start):
            continue
        if arrow_at_terminus(start):
            emit((start,))
        else:
            extend([start], {start.edge.id})

    found.sort(key=lambda p: (len(p.steps), _path_key(p.steps)))
    return found


def reference_open(graph: GraphOfGroups, g, g_prime):
    oriented = graph.oriented_edges()
    start_vid, end_vid = int(g.vertex), int(g_prime.vertex)

    def extend(path, used):
        if path[-1].terminus == end_vid:
            certified = check_conjugacy_path(g, g_prime, path)
            if certified is not None:
                yield certified
        for step in oriented:
            if step.edge.id in used or step.origin != path[-1].terminus:
                continue
            if not _junction_holds(path[-1], step):
                continue
            path.append(step)
            used.add(step.edge.id)
            yield from extend(path, used)
            used.discard(step.edge.id)
            path.pop()

    for start in oriented:
        if start.origin != start_vid or cyclic_meet(g, start.origin_word) is None:
            continue
        yield from extend([start], {start.edge.id})


def _holds(engine, items, x, m, y, n) -> bool:
    lhs = engine.power(engine.embed(x), m)
    if items:
        lhs = engine.conjugate(engine.element_of(items), lhs)
    return lhs == engine.power(engine.embed(y), n)


def reference_power_conjugate(graph: GraphOfGroups, x, y):
    """``power_conjugate`` as it was before it streamed: every path in a
    list, all candidates sorted, the answer retried divided by its gcd, and
    a second scan for the additional relations.  Returns the answer and
    whether the gcd retry succeeded."""
    candidates = []
    if x.vertex == y.vertex:
        same = _same_vertex_candidate(x, y)
        if same is not None:
            m, n, items = same
            candidates.append(((m, abs(n), 0), m, n, items, "same_vertex", None))
    paths = list(iter_conjugacy_paths(graph, x, y))
    for path in paths:
        m, n = path.witness_exponents()
        candidates.append(((m, abs(n), 1), m, n, path.conjugator_items(), "path", path))
    if not candidates:
        return ConjugacyAnswer(False, None, (), None, None), False

    candidates.sort(key=lambda c: c[0])
    _, m, n, items, route, path = candidates[0]
    engine = Engine(graph)
    assert _holds(engine, items, x, m, y, n)
    d = gcd(m, abs(n))
    retried = d > 1 and _holds(engine, items, x, m // d, y, n // d)
    if retried:
        m, n = m // d, n // d

    additional = []
    seen = {(m, n)}
    for other in paths:
        m2, n2 = other.witness_exponents()
        if (m2, n2) not in seen:
            seen.add((m2, n2))
            assert _holds(engine, other.conjugator_items(), x, m2, y, n2)
            additional.append(other)
    return ConjugacyAnswer(True, (m, n), tuple(items), route, path, tuple(additional)), retried


# ------------------------------------------------------------ random graphs

# Primitive words per rank, as letters; conjugates of one primitive share
# its class but need a nontrivial transfer conjugator.
PRIMITIVES = {
    1: [(1,)],
    2: [(1,), (2,), (1, 2), (2, 1, -2), (1, -2)],
}


@st.composite
def word_specs(draw, rank):
    base = draw(st.sampled_from(PRIMITIVES[rank]))
    exponent = draw(st.sampled_from([1, -1, 2, -2, 3]))
    return base, exponent


def _word(vertex: Vertex, spec):
    base, exponent = spec
    return vertex.alphabet.word(base) ** exponent


@st.composite
def graphs(draw, trees_only=False):
    n = draw(st.integers(1, 8 if trees_only else 4))
    ranks = [draw(st.sampled_from([1, 1, 2])) for _ in range(n)]
    names = iter("abcdefghijklmnop")
    vertices = [Vertex.make(v, [next(names) for _ in range(ranks[v])]) for v in range(n)]
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # spanning tree
    extra = 0 if trees_only else draw(st.integers(1 if n == 1 else 0, 6 - len(ends)))
    ends += [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(extra)]
    # each loop doubles the reference walk's work; six loops take seconds
    assume(sum(minus == plus for minus, plus in ends) <= 4)
    edges = []
    for eid, (minus, plus) in enumerate(draw(st.permutations(ends))):
        edges.append(
            Edge(
                eid,
                minus,
                plus,
                _word(vertices[minus], draw(word_specs(ranks[minus]))),
                _word(vertices[plus], draw(word_specs(ranks[plus]))),
            )
        )
    return GraphOfGroups(vertices, edges)


@st.composite
def rank_one_multigraphs(draw):
    """Rank-one vertices joined by parallel edges, no loops: all ends at a
    vertex share its class, so shortest cycles often tie on length."""
    n = draw(st.integers(2, 5))
    vertices = [Vertex.make(v, ["abcde"[v]]) for v in range(n)]
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 7 - len(ends)))):
        minus = draw(st.integers(0, n - 1))
        plus = draw(st.integers(0, n - 2))
        ends.append((minus, plus + (plus >= minus)))
    edges = [
        Edge(eid, minus, plus, _word(vertices[minus], draw(word_specs(1))), _word(vertices[plus], draw(word_specs(1))))
        for eid, (minus, plus) in enumerate(draw(st.permutations(ends)))
    ]
    return GraphOfGroups(vertices, edges)


def _rank_one_graph(n, edges):
    lines = [f"vertex {v} rank=1 gens=x{v}" for v in range(n)]
    lines += [f'edge {eid} {m} {p} minus="x{m}^{i}" plus="x{p}^{j}"' for eid, (m, p, i, j) in enumerate(edges)]
    return parse_graph("\n".join(lines))


# two 2-cycles with the same length and different least edges
TIED_CYCLES = _rank_one_graph(3, [(0, 1, 1, 1), (0, 1, 1, 2), (1, 2, 1, 1), (1, 2, 3, 1)])
# a star of arrow-free edges with a one-arrow edge at each tip: the full
# paths from the first tip reach the two others at the same length
TIED_FULL_PATHS = _rank_one_graph(
    7, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 4, 1, 2), (2, 5, 1, 2), (3, 6, 1, 2)]
)


@st.composite
def graphs_with_endpoints(draw):
    graph = draw(graphs())
    ends = []
    for _ in range(2):
        vertex = graph.vertices[draw(st.sampled_from(sorted(graph.vertices)))]
        ends.append(_word(vertex, draw(word_specs(vertex.rank))))
    return graph, ends[0], ends[1]


# -------------------------------------------------------------------- tests

OPEN_PREFIX = 300


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_complete_paths_match_reference(graph):
    assert enumerate_complete_paths(graph) == reference_complete(graph)


@settings(max_examples=100, deadline=None)
@given(graphs(trees_only=True))
def test_trees_have_no_closed_chains(tree):
    # enumerate_complete_paths returns [] on trees without walking; the
    # walker and the reference agree that there is nothing to find
    assert tree.betti_number == 0
    assert enumerate_complete_paths(tree) == []
    assert list(_closed_chains(_ClassGraph(tree))) == [] == reference_complete(tree)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_full_nonmaximal_paths_match_reference(graph):
    assert enumerate_full_nonmaximal_paths(graph) == reference_full(graph)


@settings(max_examples=150, deadline=None)
@given(graphs_with_endpoints())
def test_open_search_matches_reference_in_yield_order(case):
    graph, g, g_prime = case
    # a prefix fixes the order; the full stream can run to tens of thousands
    new = list(islice(iter_conjugacy_paths(graph, g, g_prime), OPEN_PREFIX))
    assert new == list(islice(reference_open(graph, g, g_prime), OPEN_PREFIX))


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(), graphs(trees_only=True), rank_one_multigraphs()))
@example(TIED_CYCLES)
@example(TIED_FULL_PATHS)
def test_class_graph_decisions_match_the_enumerations(graph):
    decision = decide_chains(graph)
    complete = enumerate_complete_paths(graph)
    # a complete chain exists iff the class graph has a cycle, and the
    # witness is the first chain listed: the lex-least shortest one
    assert decision.complete == (complete[0] if complete else None)

    nonlevel = [p for p in complete if abs(p.ratio()) != 1]
    assert (decision.nonlevel is None) == (not nonlevel)
    assert all(abs(r) == 1 for r in decision.modulus) == (not nonlevel)
    if nonlevel:
        assert decision.nonlevel in nonlevel
        assert len(decision.nonlevel.steps) == len(nonlevel[0].steps)
        if abs(complete[0].ratio()) != 1:
            assert decision.nonlevel == complete[0]
    assert set(decision.modulus) <= {p.ratio() for p in complete}
    assert list(decision.modulus) == sorted(set(decision.modulus), key=lambda r: (abs(r), r))

    if complete:
        assert decision.full is None
    else:
        full = enumerate_full_nonmaximal_paths(graph)
        assert decision.full == (full[0] if full else None)


def fraction_witness_exponents(path: ConjugacyPath):
    """``witness_exponents`` as it was computed with Fractions: m is the lcm
    of the denominators of the running products of the transfer ratios."""
    partials, q = [], Fraction(1)
    for tr in path.transitions:
        q *= Fraction(*tr.exps)
        partials.append(q)
    m = lcm(*(q.denominator for q in partials))
    n = m * partials[-1]
    assert n.denominator == 1
    return m, int(n)


# a loop whose two root exponents have opposite signs, and a^-1 as the target
BS2M3 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^-3"')


@settings(max_examples=150, deadline=None)
@given(graphs_with_endpoints())
@example((BS2M3, BS2M3.vertices[0].parse("a^2"), BS2M3.vertices[0].parse("a^-1")))
def test_integer_witness_exponents_match_fractions(case):
    graph, g, g_prime = case
    chains = enumerate_complete_paths(graph) + enumerate_full_nonmaximal_paths(graph)
    chains += islice(iter_conjugacy_paths(graph, g, g_prime), OPEN_PREFIX)
    for path in chains:
        m, n = fraction_witness_exponents(path)
        assert path.witness_exponents() == (m, n)
        assert path.ratio() == Fraction(n, m)


BS23 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^3"')
# a^2 = b^2 answers (2, 2) for a and b, so the reference tries (1, 1)
TORUS = _rank_one_graph(2, [(0, 1, 2, 2)])


@settings(max_examples=200, deadline=None)
@given(graphs_with_endpoints())
@example((BS23, BS23.vertices[0].parse("a^9"), BS23.vertices[0].parse("a^4")))
@example((BS23, BS23.vertices[0].parse("a^2"), BS23.vertices[0].parse("a^3")))
@example((TORUS, TORUS.vertices[0].parse("x0"), TORUS.vertices[1].parse("x1")))
def test_streaming_power_conjugate_matches_the_reference(case):
    graph, x, y = case
    expected, retried = reference_power_conjugate(graph, x, y)
    # the least m of a path already makes every transfer integral, and the
    # vertex candidate's exponents are coprime, so dividing never verifies
    assert not retried
    answer = power_conjugate(graph, x, y)
    assert (answer.exists, answer.exponents, answer.conjugator, answer.route) == (
        expected.exists, expected.exponents, expected.conjugator, expected.route
    )
    assert answer.path == expected.path
    assert answer.additional == expected.additional
