"""The class-indexed walker against a brute-force copy of the walk it
replaced, and the class-graph deciders against the walker.

The reference walkers below rescan every oriented edge at each step, test
junctions with ``cyclic_meet`` directly, canonicalise closed chains by
comparing all rotations and reversals, and certify each chain they find
with ``check_conjugacy_path``, which runs ``cyclic_meet`` on every
transition of that one chain instead of going through the class graph
and finds its witness exponents and its conjugator by loops of its own,
so that ``==`` checks them too.
On random graphs whose edge words are powers of a few shared primitives
(so that chains exist), the enumerations must agree exactly: the same
lists in the same order for the closed and full chains, and the same
sequence in yield order for the open search, once the reference's walks
are cut to the first of each witness pair, which ``power_conjugate`` and
the ``conj`` command depend on.
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
from gogz.graphs import Edge, GraphOfGroups, Vertex, parse_graph
from gogz.paths import (
    ConjugacyPath,
    _ClassGraph,
    _closed_chains,
    decide_chains,
    enumerate_complete_paths,
    enumerate_full_nonmaximal_paths,
    iter_conjugacy_paths,
)
from gogz.verdicts import ConjugacyAnswer, power_conjugate
from helpers import Step, conjugate, cyclic_meet, oriented_edges, reversed_step, root, terminus, word_of

# ------------------------------------------------------------ reference walk


def _path_key(steps):
    return tuple((s.edge.id, 0 if s.forward else 1) for s in steps)


def _reversed_path(steps):
    return [reversed_step(s) for s in reversed(steps)]


def _is_canonical_cycle(steps) -> bool:
    key = _path_key(steps)
    n = len(steps)
    candidates = [tuple(steps[i:]) + tuple(steps[:i]) for i in range(n)]
    rev = _reversed_path(steps)
    candidates += [tuple(rev[i:]) + tuple(rev[:i]) for i in range(n)]
    return key == min(_path_key(c) for c in candidates)


def _junction_holds(a: Step, b: Step) -> bool:
    return cyclic_meet(a.terminus_word, b.origin_word) is not None


def check_conjugacy_path(g, g_prime, steps) -> Optional[ConjugacyPath]:
    """Certify the connected edge chain ``steps`` as a conjugacy path from g
    to g', or None when some overlap along it fails."""
    words = [g]
    for step in steps:
        words += [step.origin_word, step.terminus_word]
    words.append(g_prime)
    meets = [cyclic_meet(u, v) for u, v in zip(words[::2], words[1::2])]
    if any(m is None for m in meets):
        return None
    letters = tuple(step.letter for step in steps)
    return ConjugacyPath(letters, tuple(meets), _least_exponents(meets), _conjugator(letters, meets))


def _least_exponents(meets):
    """The least m and its n: start from m = 1 and, at each transfer whose
    exponent is not integral, scale m by the least factor that makes it so."""
    m = x = 1  # x is the exponent start^m has reached
    for meet in meets:
        k_in, k_out = meet.exps
        f = abs(k_out) // gcd(x * k_in, k_out)
        m, x = m * f, x * f * k_in // k_out
    return m, x


def _conjugator(letters, meets):
    """The chain's conjugator, left to right (the rightmost acts first):
    the entry's theta, then per step its stable letter and the next
    transition's theta, each put in front of the factors that act before
    it; identity words are dropped."""
    items = []
    for i, meet in enumerate(meets):
        if i:
            items.insert(0, letters[i - 1])
        if not meet.transfer_conjugator.is_identity:
            items.insert(0, meet.transfer_conjugator)
    return tuple(items)


def reference_complete(graph: GraphOfGroups) -> List[ConjugacyPath]:
    oriented = oriented_edges(graph)
    cycles = []

    def extend(path, used):
        here = terminus(path[-1])
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
    for steps in sorted(cycles, key=lambda c: (len(c), _path_key(c))):
        base_word = steps[0].origin_word
        path = check_conjugacy_path(base_word, base_word, steps)
        if path is not None:
            chains.append(path)
    return chains


def reference_full(graph: GraphOfGroups) -> List[ConjugacyPath]:
    oriented = oriented_edges(graph)
    found = []

    # an arrow: the inclusion word at that end is a proper power
    def arrow_at_origin(step):
        return abs(root(step.origin_word).exponent) >= 2

    def arrow_at_terminus(step):
        return abs(root(step.terminus_word).exponent) >= 2

    def emit(steps):
        if _path_key(steps) <= _path_key(_reversed_path(steps)):
            found.append(steps)

    def extend(path, used):
        for step in oriented:
            if step.edge.id in used or step.origin != terminus(path[-1]):
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

    found.sort(key=lambda steps: (len(steps), _path_key(steps)))
    chains = [check_conjugacy_path(steps[0].origin_word, steps[-1].terminus_word, steps) for steps in found]
    assert None not in chains
    return chains


def reference_open(graph: GraphOfGroups, g, g_prime):
    oriented = oriented_edges(graph)
    start_vid, end_vid = g.vertex, g_prime.vertex

    def extend(path, used):
        if terminus(path[-1]) == end_vid:
            certified = check_conjugacy_path(g, g_prime, path)
            if certified is not None:
                yield certified
        for step in oriented:
            if step.edge.id in used or step.origin != terminus(path[-1]):
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
        lhs = conjugate(engine, engine.element_of(items), lhs)
    return lhs == engine.power(engine.embed(y), n)


def reference_power_conjugate(graph: GraphOfGroups, x, y):
    """``power_conjugate`` as it was before it streamed: every path of the
    reference walk in a list, all candidates sorted, the answer retried
    divided by its gcd, and a second scan for the additional relations.
    The vertex candidate is the transfer of the one meet of x and y, with
    its exponents divided by their gcd.  Returns the answer and whether the
    gcd retry succeeded."""
    candidates = []
    meet = cyclic_meet(x, y) if x.vertex == y.vertex else None
    if meet is not None:
        k_x, k_y = meet.exps
        d = gcd(k_x, k_y)
        m, n = abs(k_y) // d, k_x // d * (1 if k_y > 0 else -1)
        theta = meet.transfer_conjugator
        items = () if theta.is_identity else (theta,)
        candidates.append(((m, abs(n), 0), m, n, items, "same_vertex", None))
    paths = list(reference_open(graph, x, y))
    for path in paths:
        m, n = path.witness_exponents
        candidates.append(((m, abs(n), 1), m, n, path.conjugator_items, "path", path))
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
        m2, n2 = other.witness_exponents
        if (m2, n2) not in seen:
            seen.add((m2, n2))
            assert _holds(engine, other.conjugator_items, x, m2, y, n2)
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
    return word_of(vertex.alphabet, base) ** exponent


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

# shortest_nonlevel_cycle skips a component it found level (the BFS from
# the class of a meets no non-level edge, so the class of c is skipped) ...
LEVEL_COMPONENT = parse_graph(
    "vertex 0 rank=2 gens=a,b\nvertex 1 rank=2 gens=c,d\n"
    'edge 0 1 1 minus="d" plus="d"\nedge 1 0 1 minus="a" plus="c"\n'
    'edge 2 0 1 minus="a" plus="c"\nedge 3 0 0 minus="b" plus="b^2"'
)
# ... and a non-level edge whose tree cycle does not pass through the root
OFF_ROOT_CYCLE = parse_graph(
    "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=b\n"
    'edge 0 0 1 minus="a^-1" plus="b^-2"\nedge 1 0 0 minus="a" plus="a^-1"\n'
    'edge 2 1 0 minus="b^-2" plus="a"\nedge 3 1 1 minus="b" plus="b^3"'
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


def first_of_each_pair(chains):
    """The chains whose witness pair no earlier chain has, in order."""
    seen = set()
    for path in chains:
        if path.witness_exponents not in seen:
            seen.add(path.witness_exponents)
            yield path


@settings(max_examples=150, deadline=None)
@given(graphs_with_endpoints())
def test_open_search_matches_reference_in_yield_order(case):
    graph, g, g_prime = case
    # a prefix of the reference fixes the order; its full stream can run to
    # tens of thousands of walks, while the product yields one per pair
    expected = list(first_of_each_pair(islice(reference_open(graph, g, g_prime), OPEN_PREFIX)))
    assert list(islice(iter_conjugacy_paths(graph, g, g_prime), len(expected))) == expected


@st.composite
def parallel_edge_cases(draw):
    """A graph of at most five edges that come in parallel copies, each
    copy with its original's words and so its signature, and two words at
    its vertices: the shape on which the open search's states merge."""
    n = draw(st.integers(1, 3))
    vertices = [Vertex.make(v, "ab"[: draw(st.sampled_from([1, 1, 2]))] if v == 0 else [f"c{v}"]) for v in range(n)]
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ends += [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(draw(st.integers(n == 1, 2)))]
    kinds = [(m, p, *(_word(vertices[v], draw(word_specs(vertices[v].rank))) for v in (m, p))) for m, p in ends]
    copies = [kind for kind in kinds for _ in range(draw(st.integers(1, 3)))]
    assume(len(copies) <= 5)
    graph = GraphOfGroups(vertices, [Edge(eid, *kind) for eid, kind in enumerate(draw(st.permutations(copies)))])
    ends = [vertices[draw(st.integers(0, n - 1))] for _ in range(2)]
    return (graph, *(_word(vertex, draw(word_specs(vertex.rank))) for vertex in ends))


# Walks e0+ e3- and e1- e2+ from c1^-1 reach the class of c1 with one
# length, exponent and fold, but have used different edges: two loops, or
# the two edges to a, which change the ratio differently afterwards.
USED_EDGES_DIFFER = parse_graph(
    "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=c1\n"
    'edge 0 1 1 minus="c1^2" plus="c1^3"\nedge 1 0 1 minus="a^2" plus="c1^2"\n'
    'edge 2 0 1 minus="a^2" plus="c1^2"\nedge 3 1 1 minus="c1^2" plus="c1^3"'
)
# Walks e0- e1+ and e1- e0+ from c1^3 use one edge of each signature and end
# on c1^-1 with one exponent, but their folds, and so their pairs, differ.
FOLDS_DIFFER = parse_graph(
    "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=c1\n"
    'edge 0 0 1 minus="a^-1" plus="c1^-1"\nedge 1 0 1 minus="a^-2" plus="c1^-1"'
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(parallel_edge_cases())
@example((USED_EDGES_DIFFER, *map(USED_EDGES_DIFFER.vertices[1].alphabet.parse, ("c1^-1", "c1"))))
@example((FOLDS_DIFFER, *map(FOLDS_DIFFER.vertices[1].alphabet.parse, ("c1^3", "c1^-1"))))
def test_open_search_yields_every_first_of_the_reference(case):
    """The whole yield list, not a prefix: the open search skips a walk
    whose state an earlier walk reached, and must still yield the first
    walk of every pair of the reference's complete stream, in its order."""
    graph, g, g_prime = case
    expected = list(first_of_each_pair(reference_open(graph, g, g_prime)))
    assert list(iter_conjugacy_paths(graph, g, g_prime)) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(), graphs(trees_only=True), rank_one_multigraphs()))
@example(TIED_CYCLES)
@example(TIED_FULL_PATHS)
@example(LEVEL_COMPONENT)
@example(OFF_ROOT_CYCLE)
def test_class_graph_decisions_match_the_enumerations(graph):
    decision = decide_chains(_ClassGraph(graph))
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
@example((BS2M3, BS2M3.vertices[0].alphabet.parse("a^2"), BS2M3.vertices[0].alphabet.parse("a^-1")))
def test_integer_witness_exponents_match_fractions(case):
    graph, g, g_prime = case
    chains = enumerate_complete_paths(graph) + enumerate_full_nonmaximal_paths(graph)
    chains += islice(iter_conjugacy_paths(graph, g, g_prime), OPEN_PREFIX)
    for path in chains:
        m, n = fraction_witness_exponents(path)
        assert path.witness_exponents == (m, n)
        assert path.ratio() == Fraction(n, m)


BS23 = parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^3"')
# a^2 = b^2 answers (2, 2) for a and b, so the reference tries (1, 1)
TORUS = _rank_one_graph(2, [(0, 1, 2, 2)])


@settings(max_examples=200, deadline=None)
@given(graphs_with_endpoints())
@example((BS23, BS23.vertices[0].alphabet.parse("a^9"), BS23.vertices[0].alphabet.parse("a^4")))
@example((BS23, BS23.vertices[0].alphabet.parse("a^2"), BS23.vertices[0].alphabet.parse("a^3")))
# the vertex answers (2, -1); the paths add (4, -3) and (3, -1)
@example((BS23, BS23.vertices[0].alphabet.parse("a^2"), BS23.vertices[0].alphabet.parse("a^-4")))
@example((TORUS, TORUS.vertices[0].alphabet.parse("x0"), TORUS.vertices[1].alphabet.parse("x1")))
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
