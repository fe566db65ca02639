"""Seeded graph families for the benchmark, each with the answers it plants.

A generator draws a graph from ``random.Random`` and records, next to the
graph text, the facts that follow from how the graph was built.  The
checker compares `gogz` output with those facts only, so it never asks the
code under test what the right answer is.

Planted facts (Button, arXiv:1509.05688, and the shape of each family):

* a tree is balanced (no closed chain exists);
* if every edge joins ``u^p`` to ``v^q`` with ``|p| = |q|``, every closed
  chain has ratio +-1, so the group is balanced;
* a loop ``u^p`` / ``u^q`` on one primitive ``u`` is a closed chain of
  ratio ``q/p``: the group contains BS(p, q), so it is not hyperbolic, and
  it is unbalanced when ``|p| != |q|``;
* BS(m, n) is balanced iff ``|m| = |n|`` and never hyperbolic;
* ``ring-n`` (``x_i ~ x_{i+1}^2`` around a cycle) is unbalanced;
* in a ladder whose rungs identify powers of ``a_i`` and ``a_{i+1}``,
  powers of ``a_0`` and ``a_j`` are conjugate and powers of ``a_0`` and
  ``b_j`` are not (``b_j`` is not conjugate into any edge group);
* unbalanced implies not hyperbolic, on every graph.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Bases that are not proper powers, as (generator index, exponent) syllables.
_BASES = {
    1: [((0, 1),)],
    2: [((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((0, 1), (1, -1)), ((0, 2), (1, 1))],
    3: [
        ((0, 1),),
        ((1, 1),),
        ((2, 1),),
        ((0, 1), (2, 1)),
        ((1, 1), (2, -1)),
        ((0, 1), (1, 1), (2, 1)),
    ],
}


@dataclass(frozen=True)
class EdgeSpec:
    """``minus = base(minus_base)^p`` at ``minus``, ``plus = base(plus_base)^q`` at ``plus``."""

    minus: int
    plus: int
    minus_base: int
    p: int
    plus_base: int
    q: int

    @property
    def level(self) -> bool:
        return abs(self.p) == abs(self.q)

    @property
    def same_primitive_loop(self) -> bool:
        return self.minus == self.plus and self.minus_base == self.plus_base


@dataclass(frozen=True)
class Query:
    """One ``gogz conj`` call and its planted answer."""

    source: str
    target: str
    exists: bool


@dataclass(frozen=True)
class Case:
    """One generated graph file and the ops run on it.

    ``planted`` maps ``balanced`` / ``hyperbolic`` to the value the family
    forces, or leaves the key out when the family forces nothing.
    """

    family: str
    ranks: Tuple[int, ...]
    edges: Tuple[EdgeSpec, ...]
    planted: Dict[str, bool] = field(default_factory=dict)
    queries: Tuple[Query, ...] = ()

    def gens(self, vertex: int) -> List[str]:
        return [f"{'abc'[i]}{vertex}" for i in range(self.ranks[vertex])]

    def word(self, vertex: int, base: int, exponent: int) -> str:
        names = self.gens(vertex)
        syllables = _BASES[self.ranks[vertex]][base]
        if exponent < 0:
            syllables = tuple((g, -e) for g, e in reversed(syllables))
        if len(syllables) == 1:
            (g, e), = syllables
            return _syllable(names[g], e * abs(exponent))
        return " ".join(_syllable(names[g], e) for g, e in syllables * abs(exponent))

    def text(self) -> str:
        lines = [f"# {self.family}"]
        for v, rank in enumerate(self.ranks):
            lines.append(f"vertex {v} rank={rank} gens={','.join(self.gens(v))}")
        for i, e in enumerate(self.edges):
            lines.append(
                f'edge {i} {e.minus} {e.plus} minus="{self.word(e.minus, e.minus_base, e.p)}" '
                f'plus="{self.word(e.plus, e.plus_base, e.q)}"'
            )
        return "\n".join(lines) + "\n"

    def argvs(self, path: str) -> List[Tuple[List[str], Optional[Query]]]:
        """The CLI calls made on this case's file, each with its query."""
        if not self.queries:
            return [(["check", path], None)]
        return [(["conj", path, "--from", q.source, "--to", q.target], q) for q in self.queries]


def _syllable(name: str, exponent: int) -> str:
    return name if exponent == 1 else f"{name}^{exponent}"


def _plant(ranks: Sequence[int], edges: Sequence[EdgeSpec], family: str, **forced) -> Case:
    """Apply the generic rules; ``forced`` adds family facts."""
    planted: Dict[str, bool] = {}
    is_tree = len(edges) == len(ranks) - 1
    if is_tree or all(e.level for e in edges):
        planted["balanced"] = True
    if any(e.same_primitive_loop for e in edges):
        planted["hyperbolic"] = False
        if any(e.same_primitive_loop and not e.level for e in edges):
            planted["balanced"] = False
    planted.update(forced)
    return Case(family, tuple(ranks), tuple(edges), planted)


def _exponent(rng: random.Random) -> int:
    return rng.choice((1, -1)) * rng.randint(1, 3)


def _random_edge(rng, ranks, minus, plus, *, level: bool) -> EdgeSpec:
    p = _exponent(rng)
    q = rng.choice((1, -1)) * abs(p) if level else _exponent(rng)
    return EdgeSpec(
        minus,
        plus,
        rng.randrange(len(_BASES[ranks[minus]])),
        p,
        rng.randrange(len(_BASES[ranks[plus]])),
        q,
    )


def _tree_edges(rng, ranks, *, level: bool) -> List[EdgeSpec]:
    edges = []
    for child in range(1, len(ranks)):
        parent = rng.randrange(child)
        ends = (parent, child) if rng.random() < 0.5 else (child, parent)
        edges.append(_random_edge(rng, ranks, *ends, level=level))
    return edges


def _bad_loop(rng, vertex: int, base: int) -> EdgeSpec:
    """A loop ``u^p`` / ``u^q`` on one primitive with ``|p| != |q|``."""
    p = _exponent(rng)
    q = rng.choice([k for k in (1, 2, 3) if k != abs(p)]) * rng.choice((1, -1))
    return EdgeSpec(vertex, vertex, base, p, base, q)


# ---------------------------------------------------------------- families


def small_case(rng: random.Random, index: int) -> Case:
    """1-4 vertices, ranks 1-3, at most 5 edges, short planted powers.

    ``index % 4`` picks the shape, so every prefix of a pool has the same mix:
    a tree, a level graph, a level graph plus an unbalanced loop, or a random
    graph with a loop on one primitive.
    """
    shape = index % 4
    n = rng.randint(2, 4) if shape == 0 else rng.randint(1, 4)
    ranks = [rng.randint(1, 3) for _ in range(n)]
    if shape == 0:
        return _plant(ranks, _tree_edges(rng, ranks, level=False), "small-tree")
    level = shape in (1, 2)
    edges = _tree_edges(rng, ranks, level=level)
    room = 5 - len(edges) - (shape >= 2)
    for _ in range(rng.randint(0 if n > 1 else 1, min(room, 2))):
        edges.append(_random_edge(rng, ranks, rng.randrange(n), rng.randrange(n), level=level))
    if shape == 2:
        v = rng.randrange(n)
        edges.append(_bad_loop(rng, v, rng.randrange(len(_BASES[ranks[v]]))))
    elif shape == 3:
        v = rng.randrange(n)
        base = rng.randrange(len(_BASES[ranks[v]]))
        edges.append(EdgeSpec(v, v, base, _exponent(rng), base, _exponent(rng)))
    rng.shuffle(edges)
    family = ("small-level", "small-unbalanced", "small-loop")[shape - 1]
    return _plant(ranks, edges, family)


# Which of the two shared primitives each loop end uses.  A fixed pattern
# fixes which junctions meet, and so the enumeration's cost per case.
LOOP_PATTERN = ((0, 0), (0, 1), (1, 1), (1, 0), (0, 0))
# 30..60 in a stride order, so that every stretch of the cycle spreads over
# the range and the op-time quantiles move smoothly with the number of ops.
CHAIN_LENGTHS = tuple(30 + 13 * k % 31 for k in range(31))


def chains_case(rng: random.Random, index: int) -> Case:
    """One in three: a rank-2 vertex with five loops on two shared
    primitives (``loops-5``), every other one with an unbalanced loop; the
    rest: a path of rank-2 vertices (``chain-n``), lengths cycling through
    ``CHAIN_LENGTHS``.  A loops case costs about four chain cases."""
    if index % 3 == 0:
        shared = rng.sample(range(len(_BASES[2])), 2)
        edges = []
        for minus, plus in LOOP_PATTERN:
            p = _exponent(rng)
            edges.append(EdgeSpec(0, 0, shared[minus], p, shared[plus], rng.choice((1, -1)) * p))
        if index % 6 == 3:
            edges[0] = _bad_loop(rng, 0, shared[0])
        return _plant([2], edges, f"loops-{len(edges)}")
    n = CHAIN_LENGTHS[(index // 3 * 2 + index % 3 - 1) % len(CHAIN_LENGTHS)]
    ranks = [2] * n
    edges = [_random_edge(rng, ranks, i, i + 1, level=False) for i in range(n - 1)]
    return _plant(ranks, edges, f"chain-{n}")


RING_SIZES = (3, 4, 5)


def exponents_case(rng: random.Random, index: int) -> Case:
    """Three of every four are BS(m, n) with ``|m|, |n|`` in 15..45; the
    fourth is ``ring-n``.

    The cost of a BS case turns on which end has the larger exponent and on
    how close m/n is to 1, so ``|m|`` and ``|n|`` walk through the range in
    fixed strides (one case in eight with ``|m| = |n|``) and the seed picks
    only the signs.  The op times then spread evenly, and their quantiles
    move smoothly with the number of ops a run completes.
    """
    if index % 4 == 3:
        n = RING_SIZES[(index // 4) % len(RING_SIZES)]
        ranks = [2] * n
        edges = [EdgeSpec(i, (i + 1) % n, 0, 1, 0, 2) for i in range(n)]
        return _plant(ranks, edges, f"ring-{n}", balanced=False, hyperbolic=False)
    b = index // 4 * 3 + index % 4
    m = 15 + 7 * b % 31
    n = m if b % 8 == 0 else 15 + 11 * b % 31
    m *= rng.choice((1, -1))
    n *= rng.choice((1, -1))
    edge = EdgeSpec(0, 0, 0, m, 0, n)
    return _plant([1], [edge], "bs", balanced=abs(m) == abs(n), hyperbolic=False)


LADDER_SIZES = (4, 5)
# The two parallel edges (p, q) of each rung.  Every ladder of one size uses
# the same rungs; the seed orders them.  The mix of ratios sets how many
# distinct relations a query replays, and so most of its cost.
RUNGS = (((1, 2), (2, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 1), (1, 1)))


def ladder_case(rng: random.Random, index: int) -> Case:
    """Rank-2 vertices ``a_i, b_i`` in a row; each rung is two parallel
    edges ``a_i^p ~ a_{i+1}^q`` with p, q in {1, 2}, taken from ``RUNGS``.
    Queries ask for ``0:a0 -> j:a_j`` (exists) and ``0:a0 -> j:b_j`` (does
    not)."""
    k = LADDER_SIZES[index % len(LADDER_SIZES)]
    ranks = [2] * k
    rungs = list(RUNGS[: k - 1])
    rng.shuffle(rungs)
    edges = []
    for i, rung in enumerate(rungs):
        for p, q in rng.sample(rung, 2):
            edges.append(EdgeSpec(i, i + 1, 0, p, 0, q))
    queries = []
    for j in range(1, k):
        queries.append(Query("0:a0", f"{j}:a{j}", True))
        queries.append(Query("0:a0", f"{j}:b{j}", False))
    return Case(f"ladder-{k}", tuple(ranks), tuple(edges), {}, tuple(queries))


FAMILIES = {
    "check-small": small_case,
    "check-chains": chains_case,
    "check-exponents": exponents_case,
    "conj-ladder": ladder_case,
}

# Cases per pool: enough that one worker rarely runs through its pool.
POOL_SIZES = {"check-small": 240, "check-chains": 42, "check-exponents": 144, "conj-ladder": 72}


# Worker k starts WORKER_SHIFT * k cases into its family's cycle of shapes and
# sizes, so that the cases the workers reach in their time budget together
# cover the cycle evenly.
WORKER_SHIFT = 6


def pool(workload: str, seed: int, worker: int) -> List[Case]:
    """The cases of one worker; the same arguments give the same cases."""
    rng = random.Random(f"{workload}/{seed}/{worker}")
    make = FAMILIES[workload]
    return [make(rng, i + WORKER_SHIFT * worker) for i in range(POOL_SIZES[workload])]


def write_pool(workload: str, seed: int, worker: int, directory: Path) -> List[Tuple[List[str], Case, Optional[Query]]]:
    """Write one worker's graph files; return its ops as (argv, case, query)."""
    ops = []
    for i, case in enumerate(pool(workload, seed, worker)):
        path = directory / f"g{i:03d}.gog"
        path.write_text(case.text())
        ops.extend((argv, case, query) for argv, query in case.argvs(str(path)))
    return ops


# ----------------------------------------------------------------- checking


def _verified(witness: Optional[dict]) -> bool:
    return witness is not None and witness.get("verified") is True


def check_output(case: Case, query: Optional[Query], code: int, stdout: str) -> Optional[str]:
    """Why the op's answer is wrong, or None when it matches the plant."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if query is not None:
        answer = doc.get("answer", {})
        if answer.get("exists") is not query.exists:
            return f"exists={answer.get('exists')!r}, planted {query.exists}"
        if query.exists and not _verified(answer):
            return "positive answer not verified"
        if not all(_verified(extra) for extra in doc.get("additional_relations", [])):
            return "additional relation not verified"
        return None
    verdicts = doc.get("verdicts", {})
    witnesses = doc.get("witnesses", {})
    balanced, hyperbolic = verdicts.get("balanced"), verdicts.get("word_hyperbolic")
    for key, value in (("balanced", balanced), ("hyperbolic", hyperbolic)):
        if key in case.planted and value is not case.planted[key]:
            return f"{key}={value!r}, planted {case.planted[key]}"
    if balanced is False and hyperbolic is not False:
        return "unbalanced but reported hyperbolic"
    if balanced is False and not _verified(witnesses.get("balance")):
        return "balance witness not verified"
    if hyperbolic is False and not _verified(witnesses.get("hyperbolicity")):
        return "hyperbolicity witness not verified"
    if verdicts.get("acyl_hyperbolic") is False and not _verified(witnesses.get("acyl")):
        return "acylindricity witness not verified"
    central = witnesses.get("trichotomy", {})
    if "central_element" in central and not _verified(central):
        return "central element not verified"
    return None
