"""Acceptance checks: one test per criterion, exact arithmetic, pinned budgets.

Every criterion gets one pass/fail line from pytest; each test also prints a
summary with its measured time against the budget it must stay under.  All
comparisons are exact (integers and fractions) — there is no tolerance knob.
"""

import itertools
import random
import time
from fractions import Fraction

from gogz.engine import Engine, brute_force_power_conjugacy
from gogz.graphs import parse_graph, reduce_graph
from gogz.paths import enumerate_complete_paths, enumerate_full_nonmaximal_paths
from gogz.verdicts import analyze, power_conjugate
from gogz.words import cyclic_meet, maximal_root, root
from helpers import atoms, conjugate, reversed_step, terminus, validate_element


def _finish(name: str, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"{name}: PASS — {detail} in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget:.0f}s"


# ----------------------------------------------------------- random builders


def _random_word_text(rng, names, max_len):
    """Token text for a random freely reduced nontrivial word."""
    length = rng.randint(1, max_len)
    letters = []
    while len(letters) < length:
        i = rng.randrange(len(names))
        sign = rng.choice((1, -1))
        if letters and letters[-1] == (i, -sign):
            continue
        letters.append((i, sign))
    return " ".join(n if s > 0 else f"{n}^-1" for n, s in ((names[i], s) for i, s in letters))


def _random_power_text(rng, names, exponent):
    """A short cyclically reduced base repeated ``exponent`` times.

    Bases of length <= 2 with no adjacent inverse pair are automatically
    cyclically reduced, so the repetition never cancels across the seam.
    """
    base = _random_word_text(rng, names, 2).split()
    return " ".join(base * exponent)


def _vertex_names(tag, vid, rank):
    return [f"{tag}v{vid}g{j}" for j in range(rank)]


# -------------------------------------------------------------- criterion 1


def test_criterion_1_bs_truth_table():
    started = time.monotonic()
    exponents = [k for k in range(-4, 5) if k]
    cases = 0
    for m in exponents:
        for n in exponents:
            graph = parse_graph(
                f'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^{m}" plus="a^{n}"'
            )
            report = analyze(graph)
            assert report.balance.balanced == (abs(m) == abs(n)), (m, n)
            assert not report.hyperbolicity.hyperbolic, (m, n)
            acyl = report.trichotomy.acyl
            assert acyl is not None and not acyl.acyl_hyperbolic, (m, n)
            assert report.trichotomy.branch == "surjects_Z", (m, n)
            cases += 1
    assert cases == 64
    _finish("criterion 1 (one-loop truth table)", started, 5.0, "64/64 classified")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_random_trees_are_balanced():
    started = time.monotonic()
    rng = random.Random(23817)
    for trial in range(100):
        n = rng.randint(2, 5)
        lines = []
        names = {}
        for v in range(n):
            rank = rng.randint(1, 3)
            names[v] = _vertex_names(f"t{trial}", v, rank)
            lines.append(f"vertex {v} rank={rank} gens={','.join(names[v])}")
        for v in range(1, n):
            parent = rng.randrange(v)
            minus = _random_word_text(rng, names[parent], 6)
            plus = _random_word_text(rng, names[v], 6)
            lines.append(f'edge {v - 1} {parent} {v} minus="{minus}" plus="{plus}"')
        verdict = analyze(parse_graph("\n".join(lines))).balance
        assert verdict.balanced, "\n".join(lines)
    _finish("criterion 2 (random trees balanced)", started, 30.0, "100/100 balanced")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_complete_path_witness_soundness(suite_graphs):
    started = time.monotonic()
    checked = 0
    for name, graph in suite_graphs.items():
        engine = Engine(graph)
        for path in enumerate_complete_paths(graph):
            i, j = path.witness_exponents()
            base = engine.embed(path.start)
            conj = engine.element_of(path.conjugator_items())
            lhs = conjugate(engine, conj, engine.power(base, i))
            assert lhs == engine.power(base, j), (name, (i, j))
            checked += 1
    assert checked >= 6  # the loops and both thetas all contribute
    _finish(
        "criterion 3 (witness soundness)",
        started,
        60.0,
        f"{checked} closed-chain witnesses verified, 0 failures",
    )


# -------------------------------------------------------------- criterion 4

_ORACLE_PAIRS = {
    "bs_2_3": [("0:a", "0:a"), ("0:a^2", "0:a^3")],
    "bs_3_3": [("0:a", "0:a^2")],
    "bs_1_2": [("0:a", "0:a^2")],
    "bs_2_m2": [("0:a", "0:a^-1")],
    "trefoil": [("0:a", "1:b"), ("0:a^2", "1:b^2")],
    "torus_2_2": [("0:a", "1:b")],
    "chain_2332": [("0:a", "1:b"), ("1:b", "2:c")],
    "chain_2233": [("0:a", "2:c")],
    "theta_level": [("0:a", "1:b")],
    "theta_skew": [("0:a", "1:b"), ("0:a", "0:a")],
    "comm_square": [("0:a b a^-1 b^-1", "1:x"), ("0:a", "1:x")],
    "ab_square": [("0:p q", "1:z"), ("0:p", "1:z")],
}


def _parse_pair(graph, spec):
    vid, _, text = spec.partition(":")
    return graph.vertices[int(vid)].parse(text)


def test_criterion_4_oracle_agreement(suite_graphs):
    started = time.monotonic()
    positives = refutations = 0
    for name, pairs in _ORACLE_PAIRS.items():
        graph = suite_graphs[name]
        engine = Engine(graph)
        for x_spec, y_spec in pairs:
            x, y = _parse_pair(graph, x_spec), _parse_pair(graph, y_spec)
            answer = power_conjugate(graph, x, y)
            hit = brute_force_power_conjugacy(
                engine, x, y, max_syllables=4, max_letters=6, max_exp=6
            )
            if hit is not None:
                # every bounded positive must be reproduced by the decider
                assert answer.exists, (name, x_spec, y_spec, hit)
                conj = engine.element_of(list(hit.conjugator))
                lhs = conjugate(engine, conj, engine.power(engine.embed(x), hit.m))
                assert lhs == engine.power(engine.embed(y), hit.n)
                positives += 1
            if not answer.exists:
                # a not-exists verdict must never be contradicted in bounds
                assert hit is None, (name, x_spec, y_spec, hit)
                refutations += 1
    _finish(
        "criterion 4 (oracle agreement)",
        started,
        600.0,
        f"{positives} positives reproduced, {refutations} refutations unchallenged",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_single_edge_hyperbolicity_agreement():
    started = time.monotonic()
    rng = random.Random(1001)
    loops = amalgams = 0
    for trial in range(50):
        tag = f"s{trial}"
        as_loop = rng.random() < 0.5
        if as_loop:
            rank = rng.randint(1, 2)
            names = _vertex_names(tag, 0, rank)
            minus = _random_power_text(rng, names, rng.randint(1, 3))
            plus = _random_power_text(rng, names, rng.randint(1, 3))
            graph = parse_graph(
                f"vertex 0 rank={rank} gens={','.join(names)}\n"
                f'edge 0 0 0 minus="{minus}" plus="{plus}"'
            )
            loops += 1
        else:
            ranks = (rng.randint(1, 2), rng.randint(1, 2))
            names = [_vertex_names(tag, v, ranks[v]) for v in (0, 1)]
            minus = _random_power_text(rng, names[0], rng.randint(1, 3))
            plus = _random_power_text(rng, names[1], rng.randint(1, 3))
            graph = parse_graph(
                f"vertex 0 rank={ranks[0]} gens={','.join(names[0])}\n"
                f"vertex 1 rank={ranks[1]} gens={','.join(names[1])}\n"
                f'edge 0 0 1 minus="{minus}" plus="{plus}"'
            )
            amalgams += 1
        edge = graph.edges[0]
        arrow_minus = abs(root(edge.minus_word).exponent) >= 2
        arrow_plus = abs(root(edge.plus_word).exponent) >= 2
        if as_loop:
            # one stable letter: hyperbolic iff the two cyclic subgroups are
            # independent and at least one inclusion is maximal
            expected = (
                cyclic_meet(edge.minus_word, edge.plus_word) is None
                and not (arrow_minus and arrow_plus)
            )
        else:
            # amalgam: hyperbolic iff the edge word is maximal on some side
            expected = not (arrow_minus and arrow_plus)
        assert analyze(graph).hyperbolicity.hyperbolic == expected, graph.to_text()
    _finish(
        "criterion 5 (single-edge agreement)",
        started,
        30.0,
        f"50/50 agree ({loops} loops, {amalgams} amalgams)",
    )


# -------------------------------------------------------------- criterion 6


def _cycle_key(seq):
    return tuple((s.edge.id, s.forward) for s in seq)


def _cycle_class(steps, ratio):
    """Canonical (key, ratio) for a closed chain up to rotation and reversal.

    Reversing a chain inverts its ratio, so the ratio is normalised to the
    direction of the chosen representative.  Self-reverse classes force a
    ratio of +-1, where both normalisations agree.
    """
    seq = tuple(steps)
    reverse = tuple(reversed_step(s) for s in reversed(seq))
    self_keys = {_cycle_key(seq[i:] + seq[:i]) for i in range(len(seq))}
    rev_keys = {_cycle_key(reverse[i:] + reverse[:i]) for i in range(len(seq))}
    best = min(self_keys | rev_keys)
    return best, (ratio if best in self_keys else 1 / ratio)


def _chain_class(steps):
    """Canonical key for an open chain up to reversal."""
    seq = tuple(steps)
    reverse = tuple(reversed_step(s) for s in reversed(seq))
    return min(_cycle_key(seq), _cycle_key(reverse))


def _naive_complete(graph):
    found = {}
    oriented = graph.oriented_edges()
    for n in range(1, len(graph.edges) + 1):
        for seq in itertools.product(oriented, repeat=n):
            if len({s.edge.id for s in seq}) != n:
                continue
            if any(terminus(a) != b.origin for a, b in zip(seq, seq[1:])):
                continue
            if terminus(seq[-1]) != seq[0].origin:
                continue
            meets = [
                cyclic_meet(a.terminus_word, b.origin_word)
                for a, b in zip(seq, seq[1:])
            ]
            meets.append(cyclic_meet(seq[-1].terminus_word, seq[0].origin_word))
            if any(m is None for m in meets):
                continue
            ratio = Fraction(1)
            for m in meets:
                ratio *= Fraction(m.exps[0], m.exps[1])
            key, ratio = _cycle_class(seq, ratio)
            assert found.setdefault(key, ratio) == ratio  # class invariant
    return found


def _has_arrow(word):
    """A proper power: the edge group is not maximal cyclic at this end."""
    return abs(root(word).exponent) >= 2


def _naive_full(graph):
    found = set()
    oriented = graph.oriented_edges()
    for n in range(1, len(graph.edges) + 1):
        for seq in itertools.product(oriented, repeat=n):
            if len({s.edge.id for s in seq}) != n:
                continue
            if any(terminus(a) != b.origin for a, b in zip(seq, seq[1:])):
                continue
            if not _has_arrow(seq[0].origin_word):
                continue
            if not _has_arrow(seq[-1].terminus_word):
                continue
            if any(_has_arrow(s.origin_word) for s in seq[1:]):
                continue
            if any(_has_arrow(s.terminus_word) for s in seq[:-1]):
                continue
            if any(
                cyclic_meet(a.terminus_word, b.origin_word) is None
                for a, b in zip(seq, seq[1:])
            ):
                continue
            found.add(_chain_class(seq))
    return found


def test_criterion_6_path_enumeration_completeness(suite_graphs):
    started = time.monotonic()
    graphs = 0
    for name, graph in suite_graphs.items():
        if len(graph.edges) > 4:
            continue
        complete = {}
        for path in enumerate_complete_paths(graph):
            key, ratio = _cycle_class(path.steps, path.ratio())
            assert key not in complete, (name, key)  # one verdict per class
            complete[key] = ratio
        assert complete == _naive_complete(graph), name
        full = {_chain_class(p.steps) for p in enumerate_full_nonmaximal_paths(graph)}
        assert full == _naive_full(graph), name
        graphs += 1
    assert graphs == len(suite_graphs)
    _finish(
        "criterion 6 (enumeration completeness)",
        started,
        60.0,
        f"{graphs} graphs match the generate-and-filter oracle",
    )


# -------------------------------------------------------------- criterion 7


def _random_reducible_graph(rng, trial):
    tag = f"r{trial}"
    n = rng.randint(1, 3)
    lines = []
    names = {}
    for v in range(n):
        rank = rng.randint(1, 2)
        names[v] = _vertex_names(tag, v, rank)
        lines.append(f"vertex {v} rank={rank} gens={','.join(names[v])}")
    eid = 0
    for v in range(1, n):
        parent = rng.randrange(v)
        minus = _random_power_text(rng, names[parent], rng.randint(1, 3))
        plus = _random_power_text(rng, names[v], rng.randint(1, 3))
        lines.append(f'edge {eid} {parent} {v} minus="{minus}" plus="{plus}"')
        eid += 1
    if rng.random() < 0.5:  # sometimes a loop, so both branches of betti occur
        v = rng.randrange(n)
        minus = _random_power_text(rng, names[v], rng.randint(1, 3))
        plus = _random_power_text(rng, names[v], rng.randint(1, 3))
        lines.append(f'edge {eid} {v} {v} minus="{minus}" plus="{plus}"')
        eid += 1
    # the guaranteed reducible part: a dangling rank-1 vertex whose inclusion
    # word generates its whole group
    names[n] = _vertex_names(tag, n, 1)
    lines.insert(n, f"vertex {n} rank=1 gens={names[n][0]}")
    anchor = rng.randrange(n)
    minus = _random_power_text(rng, names[anchor], rng.randint(1, 3))
    sign = rng.choice(("", "^-1"))
    lines.append(f'edge {eid} {anchor} {n} minus="{minus}" plus="{names[n][0]}{sign}"')
    return parse_graph("\n".join(lines))


def test_criterion_7_reduction_invariance():
    started = time.monotonic()
    rng = random.Random(77)
    for trial in range(50):
        graph = _random_reducible_graph(rng, trial)
        assert graph.reducible_edges()
        reduced, _ = reduce_graph(graph)
        before, after = analyze(graph), analyze(reduced)
        assert before.balance.balanced == after.balance.balanced
        assert before.hyperbolicity.hyperbolic == after.hyperbolicity.hyperbolic
        acyl_of = lambda r: None if r.trichotomy.acyl is None else r.trichotomy.acyl.acyl_hyperbolic
        assert acyl_of(before) == acyl_of(after)
        assert before.trichotomy.branch == after.trichotomy.branch
        assert before.trichotomy.free_rank == after.trichotomy.free_rank
    _finish(
        "criterion 7 (reduction invariance)",
        started,
        60.0,
        "50/50 graphs keep all four verdicts",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_normal_form_axioms(suite_graphs):
    started = time.monotonic()
    rng = random.Random(888)
    triples = 0
    for name, graph in suite_graphs.items():
        engine = Engine(graph)
        non_tree = list(engine.tree.non_tree_edge_ids)

        def random_element():
            items = []
            for _ in range(rng.randint(1, 3)):
                if non_tree and rng.random() < 0.3:
                    items.append(("t", rng.choice(non_tree), rng.choice((1, -1))))
                else:
                    vid = rng.choice(sorted(graph.vertices))
                    text = _random_word_text(rng, graph.vertices[vid].alphabet.names, 4)
                    items.append(graph.vertices[vid].parse(text))
            return engine.element_of(items)

        for _ in range(500):
            g, h, k = random_element(), random_element(), random_element()
            gh = engine.mul(g, h)
            assert engine.mul(gh, k) == engine.mul(g, engine.mul(h, k))
            assert engine.mul(g, engine.inv(g)) == engine.element_of([])
            validate_element(engine, gh)
            triples += 1

        # stable-letter relations hold, and nothing else pinches
        for eid in non_tree:
            edge = graph.edges[eid]
            t = engine.element_of([("t", eid, 1)])
            for k in (1, 2, -1):
                lhs = conjugate(engine, t, engine.power(engine.embed(edge.minus_word), k))
                assert lhs == engine.power(engine.embed(edge.plus_word), k)
            anchor = maximal_root(edge.minus_word)
            for _ in range(10):
                vid = edge.minus_vertex
                text = _random_word_text(rng, graph.vertices[vid].alphabet.names, 4)
                word = graph.vertices[vid].parse(text)
                if maximal_root(word) == anchor:
                    continue  # a power of the edge word would legally pinch
                conjugated = conjugate(engine, t, engine.embed(word))
                # stable letters are the ('t', edge_id, +-1) items
                assert any(isinstance(a, tuple) for a in atoms(engine, conjugated)), (name, text)
    assert triples == 500 * len(suite_graphs)
    _finish(
        "criterion 8 (normal-form axioms)",
        started,
        120.0,
        f"{triples} random triples, Britton checks on every loop edge",
    )
