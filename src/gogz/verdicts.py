"""Group-level verdicts read off a graph of groups, each with a checked witness.

Every decider of :func:`analyze` reduces a question about the fundamental
group to polynomially many graph or root computations, and every positive
claim is re-verified before it is returned: a conjugation witness in the
normal-form engine, and a relation inside one vertex group or one edge in
that group alone, which embeds (Serre, *Trees*, §I.4–5).  A failure is a
bug in the decision layer, never a property of the input, so it raises
:class:`~gogz.errors.InternalInconsistencyError`.

Verdicts decided here, all by :func:`analyze` except the last:

* balance — no closed chain multiplies exponents by a ratio other than ±1,
  read off the fundamental cycles of the class gain graph; an offending
  chain exhibits conjugate distinct powers ``g^i ~ g^j`` and pins down the
  Baumslag-Solitar subgroup BS(m, n) they generate.
* word hyperbolicity — the class gain graph has no cycle (no complete
  closed chain) and no full non-maximal path; a witness of either kind
  embeds a Baumslag-Solitar subgroup (Z^2 counts as BS(1, 1)).
* acylindrical hyperbolicity — on the reduced graph, it fails exactly when
  every vertex group is infinite cyclic; the common power of the incident
  inclusion words then generates an s-normal subgroup.
* the splitting trichotomy — acylindrically hyperbolic, or surjecting onto
  the integers, or carrying an infinite cyclic normal (here central)
  subgroup.
* power conjugacy — :func:`power_conjugate` decides whether powers of two
  vertex elements are conjugate, returning a certified witness.  It is the
  one decider that still searches edge-once paths (when the answer is
  yes), visiting each search state once and keeping one path per pair.

Chain witnesses are :class:`~gogz.paths.ConjugacyPath` records, and every
replay is one relation ``w x^m w^-1 = y^n`` checked by ``_require``, of a
chain by ``_require_path``.  ``analyze`` shares one end table (the
:class:`~gogz.paths._ClassGraph` that builds every chain, read by
:func:`~gogz.paths.decide_chains`, the acylindricity verdict and the
central witness; a reduction that contracts gets a second, on the reduced
graph), the reduction, the acylindricity verdict and one engine on the
input graph between verdicts; the trichotomy builds engines only on
single edges of the reduced tree.  Only the reported witnesses are built
and replayed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import Elem, Engine
from .errors import DegenerateInputError, InternalInconsistencyError, ResourceLimitError
from .graphs import MINUS, PLUS, Contraction, GraphOfGroups, reduce_graph
from .paths import (
    ChainDecision,
    ConjugacyPath,
    _ClassGraph,
    _UNIT,
    _fold,
    decide_chains,
    enumerate_complete_paths,  # unused here; bench/spans traces this binding
    iter_conjugacy_paths,
)
from .text import Item
from .words import MAX_REPLAY_SYLLABLES, FreeWord, invert_letters, join_reduced, power_letters, power_syllables

Powers = Dict[Tuple[FreeWord, int], Elem]  # word^k in one engine; k = 1 is the word's embedding


def _require(engine: Engine, items: Sequence[Item], lhs: Elem, rhs: Elem, claim: str) -> None:
    """Replay ``w x^m w^-1 = y^n`` for the engine elements ``lhs = x^m``
    and ``rhs = y^n`` and the product w of ``items``, checked as
    ``w x^m = y^n w``.

    Normal forms are unique, so the two sides agree exactly when the
    relation holds; this way needs no ``w^-1`` and one pass per side.
    """
    if items:  # an empty conjugator compares the powers directly
        w = engine.element_of(items)
        lhs, rhs = engine.mul(w, lhs), engine.mul(rhs, w)
    if lhs != rhs:
        raise InternalInconsistencyError(f"witness failed engine verification: {claim}")


def _require_path(engine: Engine, powers: Powers, path: ConjugacyPath, claim: str) -> None:
    """Replay a chain's ``c start^m c^-1 = end^n`` with ``powers``, the
    command's memo of embeddings and powers; a power past
    :data:`~gogz.words.MAX_REPLAY_SYLLABLES` syllables is refused unbuilt."""
    m, n = path.witness_exponents
    claim = f"{claim} ({m}, {n})"
    for word, k in ((path.start, m), (path.end, n)):
        if (word, k) not in powers:
            size = power_syllables(word.syllables, k)
            if size > MAX_REPLAY_SYLLABLES:
                raise ResourceLimitError(
                    f"replaying the {claim} would build a power of {size} syllables, "
                    f"past the limit of {MAX_REPLAY_SYLLABLES} syllables"
                )
            if (word, 1) not in powers:
                powers[word, 1] = engine.embed(word)
            powers[word, k] = engine.power(powers[word, 1], k)
    _require(engine, path.conjugator_items, powers[path.start, m], powers[path.end, n], claim)


# ------------------------------------------------------------------- balance


class BalanceVerdict(NamedTuple):
    """``balanced`` with, when false, the offending closed chain.

    ``bs_tag = (m, n)`` names the Baumslag-Solitar subgroup BS(m, n)
    generated by the witness relation (``bs_sign`` carries the sign of the
    transfer ratio).  ``modulus`` lists the distinct exponent-transfer
    ratios of the fundamental cycles of the class gain graph (see
    :class:`~gogz.paths.ChainDecision`): they generate the ratio of every
    complete closed chain, so all are ±1 exactly when balanced.
    """

    balanced: bool
    witness: Optional[ConjugacyPath]
    bs_tag: Optional[Tuple[int, int]]
    bs_sign: int
    modulus: Tuple[Fraction, ...]


def _balance(engine: Engine, powers: Powers, chains: ChainDecision) -> BalanceVerdict:
    """A non-level complete closed chain is exactly an unbalanced element."""
    witness = chains.nonlevel
    if witness is None:
        return BalanceVerdict(True, None, None, 1, chains.modulus)
    _require_path(engine, powers, witness, "non-level closed chain")
    inverse_ratio = 1 / witness.ratio()
    tag = (abs(inverse_ratio.numerator), abs(inverse_ratio.denominator))
    return BalanceVerdict(False, witness, tag, 1 if inverse_ratio > 0 else -1, chains.modulus)


# -------------------------------------------------------------- hyperbolicity


class HyperbolicityVerdict(NamedTuple):
    """``hyperbolic`` with the refuting path when false.

    ``kind`` names the refutation: ``"complete"`` (the lex-least shortest
    complete closed chain) or, only when no closed chain exists, ``"full"``
    (the lex-least shortest full non-maximal path).  Either kind forces a
    Baumslag-Solitar subgroup (a full non-maximal path of level ratio
    yields Z^2 = BS(1, 1)).
    """

    hyperbolic: bool
    witness: Optional[ConjugacyPath]
    kind: Optional[str]


def _hyperbolicity(engine: Engine, powers: Powers, chains: ChainDecision) -> HyperbolicityVerdict:
    """A complete chain refutes; a full path is looked for only without one.
    A witness that is also the balance witness was replayed by ``_balance``."""
    kind, witness = ("complete", chains.complete) if chains.complete else ("full", chains.full)
    if witness is None:
        return HyperbolicityVerdict(True, None, None)
    if witness is not chains.nonlevel:
        _require_path(engine, powers, witness, f"{kind} path")
    return HyperbolicityVerdict(False, witness, kind)


# --------------------------------------------------------------- acylindrical


class AcylVerdict(NamedTuple):
    """Acylindrical hyperbolicity of the fundamental group of a reduced graph.

    When acylindrically hyperbolic, ``condition`` names the failed clause:
    ``"edge_roots_disagree"`` (two incident inclusion words at ``vertex``
    generate cyclic subgroups with trivial intersection — ``evidence`` holds
    the pair) or ``"vertex_not_cyclic"`` (``vertex`` has rank at least two,
    so no cyclic subgroup is s-normal in it).  Otherwise every vertex group
    is infinite cyclic and ``snormal_generators`` maps each vertex to a
    generator of the intersection of its incident edge subgroups.
    """

    acyl_hyperbolic: bool
    condition: Optional[str]
    vertex: Optional[int]
    evidence: Tuple[FreeWord, ...]
    snormal_generators: Dict[int, FreeWord]


def _acyl(graph: GraphOfGroups, classes: _ClassGraph) -> AcylVerdict:
    """Acylindrical hyperbolicity of a reduced, nontrivial graph, read off
    its end table ``classes``.  Two ends share their maximal root exactly
    when they share their class and their root conjugator.  Each s-normal
    relation lies in one vertex group, which embeds in the fundamental
    group, so it is checked in that free group."""
    origin, conjugator, k, words = classes.origin, classes.conjugator, classes.k_origin, classes.words
    # a class lies at one vertex, so each vertex has one maximal root exactly when there
    # are as many (class, conjugator) pairs as vertices; with no conjugator, as classes
    pairs = len(set(zip(origin, conjugator))) if any(conjugator) else len(classes.out)
    if pairs > len(graph.vertices):  # report the least such vertex, at its first end unlike its first
        at = [w.vertex for w in words]  # the vertex of each end
        first = dict(zip(reversed(at), range(len(at) - 1, -1, -1)))  # the first end at each vertex
        vid, i = min(
            (v, i) for i, v in enumerate(at)
            if origin[i] != origin[first[v]] or conjugator[i] != conjugator[first[v]]
        )
        u, v = words[first[vid]], words[i]
        # in a free group, <u> and <v> meet nontrivially iff u and v commute
        if join_reduced(u.syllables, v.syllables) == join_reduced(v.syllables, u.syllables):
            raise InternalInconsistencyError(f"edge roots at vertex {vid} commute")
        return AcylVerdict(True, "edge_roots_disagree", vid, (u, v), {})
    for vid, vertex in graph.vertices.items():
        if vertex.rank >= 2:
            return AcylVerdict(True, "vertex_not_cyclic", vid, (), {})

    # each class is now the ends at its vertex, all with one conjugator c
    generators: Dict[int, FreeWord] = {}
    failed = []
    for (vid, primitive), here in zip(classes.node, classes.out):
        common, c = lcm(*(k[i] for i in here)), conjugator[here[0]]
        g = join_reduced(join_reduced(c, power_letters(primitive, common)), invert_letters(c))
        if any(power_letters(words[i].syllables, common // k[i]) != g for i in here):
            failed.append(vid)
        generators[vid] = FreeWord(vid, g)
    if failed:
        raise InternalInconsistencyError(f"s-normal generator fails in vertex group {min(failed)}")
    return AcylVerdict(False, None, None, (), dict(sorted(generators.items())))


# ----------------------------------------------------------------- trichotomy


class CentralWitness(NamedTuple):
    """An element written as a power of every vertex generator at once.

    ``element`` is the chosen expression at ``root_vertex``;
    ``exponents[v]`` rewrites it as (generator of v) ** exponents[v].
    A power of every generator commutes with each, so in a tree of cyclic
    groups it is central and spans an infinite cyclic normal subgroup.
    """

    root_vertex: int
    element: FreeWord
    exponents: Dict[int, int]


class TrichotomyVerdict(NamedTuple):
    """One of three mutually non-exclusive outcomes, checked in this order:
    acylindrically hyperbolic; surjects onto the integers; has an infinite
    cyclic normal subgroup."""

    branch: str  # "acylindrically_hyperbolic" | "surjects_Z" | "cyclic_normal_subgroup"
    acyl: Optional[AcylVerdict]
    surjection_edges: Tuple[int, ...]
    central: Optional[CentralWitness]
    free_rank: Optional[int]  # set when the graph reduces to a single vertex


def _central_witness(graph: GraphOfGroups, classes: _ClassGraph) -> CentralWitness:
    """Common power of all vertex generators in a reduced tree of cyclic groups.

    ``gen_v^(x_v)`` is one element iff ``gen_p^(x_p) = gen_c^(x_c)`` across
    each tree edge (p, c).  The exponents fold the root exponents of the
    end table ``classes`` down the tree as a chain folds its transfers
    (:func:`~gogz.paths._fold`), scaled by the lcm of the denominators
    met.  The group of each tree edge embeds in the fundamental group, so
    an engine on that edge replays its relation.
    """
    tree = graph.tree
    if tree.non_tree_edge_ids:
        raise InternalInconsistencyError(
            f"central witness at vertex {tree.root} needs a tree, but edges "
            f"{list(tree.non_tree_edge_ids)} close cycles"
        )
    k = classes.k_origin
    minus_end = {edge_id: 2 * j for j, edge_id in enumerate(classes.edge_ids)}  # 2j + 1 is the plus end
    folds = {tree.root: _UNIT}
    for step in tree.steps:
        parent_end = minus_end[step.edge_id] + (graph.edges[step.edge_id].minus_vertex != step.parent)
        folds[step.child] = _fold(_fold(folds[step.parent], 1, k[parent_end]), k[parent_end ^ 1], 1)
    scale = lcm(*(m for _, _, m in folds.values()))
    exponents = {vid: scale // den * num for vid, (num, den, _) in folds.items()}
    for step in tree.steps:
        p, c = step.parent, step.child
        # declarations of a checked graph, whose reduced words may pass the reader's cap
        edge = {step.edge_id: graph.edges[step.edge_id]}
        engine = Engine(GraphOfGroups._from_checked({p: graph.vertices[p], c: graph.vertices[c]}, edge))
        gen_p, gen_c = (engine.embed(graph.vertices[v].alphabet.word(((1, 1),))) for v in (p, c))
        x_p, x_c = exponents[p], exponents[c]
        claim = f"central witness is generator^{x_p} at vertex {p} and generator^{x_c} at vertex {c}"
        _require(engine, [], engine.power(gen_p, x_p), engine.power(gen_c, x_c), claim)
    element = graph.vertices[tree.root].alphabet.word(((1, exponents[tree.root]),))
    return CentralWitness(tree.root, element, exponents)


def _trichotomy(reduced: GraphOfGroups, classes: _ClassGraph) -> TrichotomyVerdict:
    """Acylindrically hyperbolic / surjects Z / central cyclic, on the
    already reduced graph and its end table, with no whole-graph engine.

    A non-tree reduced graph surjects onto the integers by sending one
    stable letter to 1 and every vertex group to 0; a reduced tree that is
    not acylindrically hyperbolic has all vertex groups cyclic and carries
    the common central power built by ``_central_witness``.
    """
    if reduced.is_trivial:
        (vertex,) = reduced.vertices.values()
        return TrichotomyVerdict("surjects_Z", None, (), None, vertex.rank)
    acyl = _acyl(reduced, classes)
    if acyl.acyl_hyperbolic:
        return TrichotomyVerdict("acylindrically_hyperbolic", acyl, (), None, None)
    if reduced.betti_number > 0:
        non_tree = reduced.tree.non_tree_edge_ids
        return TrichotomyVerdict("surjects_Z", acyl, non_tree, None, None)
    return TrichotomyVerdict("cyclic_normal_subgroup", acyl, (), _central_witness(reduced, classes), None)


# ------------------------------------------------------------ power conjugacy


class ConjugacyAnswer(NamedTuple):
    """Whether some powers of x and y are conjugate, with a checked witness.

    When ``exists``, the engine has verified conjugator * x^m * conjugator^-1
    = y^n for ``exponents = (m, n)``: the ``conjugator_items`` of the chosen
    chain.  ``route`` is "same_vertex" when that chain has no steps (the
    vertex group already provides the conjugation), else "path"; ``path``
    carries the certified chain in the latter case.  ``additional`` lists,
    in search order, the first searched path of each witness pair other
    than ``exponents``, each verified in the engine too.  The search that
    fills it visits each search state of its walks once and keeps one path
    per distinct pair (:func:`~gogz.paths.iter_conjugacy_paths`).
    """

    exists: bool
    exponents: Optional[Tuple[int, int]]
    conjugator: Tuple[Item, ...]
    route: Optional[str]
    path: Optional[ConjugacyPath]
    additional: Tuple[ConjugacyPath, ...] = ()


def _size(path: ConjugacyPath) -> Tuple[int, int]:
    m, n = path.witness_exponents
    return m, abs(n)


def power_conjugate(graph: GraphOfGroups, x: FreeWord, y: FreeWord) -> ConjugacyAnswer:
    """A certified witness that x^m is conjugate to y^n, if any.

    Every candidate is a chain of one end table, which roots x and y once:
    when x and y have one root class, the chain with no steps; then the
    first edge-once conjugacy path of each distinct witness pair between
    their vertices.  The answer minimises (m, |n|); the vertex chain wins
    a tie, then the earliest path.  A "no" takes one BFS over the class
    graph; a "yes" visits every search state from x's class once
    (:func:`~gogz.paths.iter_conjugacy_paths`): parallel edges of one
    signature share their states, but edges of many signatures at one
    class still make their number exponential.  A step costs one integer
    fold of root exponents; only the first walk of each pair is certified,
    and no pair of words gets two transfers.  ``_require_path`` replays the
    answer and every additional relation with one memo, so x and y are
    embedded once and each power x^m or y^n is built once.  Walks that
    repeat an edge are not searched, so a relation with smaller exponents
    may exist: in BS(2, 3) the answer for a^9 and a^4 is (2, 3), while
    t^-2 a^9 t^2 = a^4 already holds.
    """
    if x.is_identity or y.is_identity:
        raise DegenerateInputError("power conjugacy is asked of nontrivial elements")
    classes = _ClassGraph(graph)
    local = classes.certified((), x, y) if classes.transfer(x, y) else None  # the chain with no steps
    first = {path.witness_exponents: path for path in iter_conjugacy_paths(graph, x, y, classes)}
    best = min(filter(None, [local, *first.values()]), key=_size, default=None)  # the earliest of the least
    if best is None:
        return ConjugacyAnswer(False, None, (), None, None)

    engine, powers = Engine(graph), {}
    _require_path(engine, powers, best, "power conjugacy")
    additional = tuple(other for pair, other in first.items() if pair != best.witness_exponents)
    for other in additional:
        _require_path(engine, powers, other, "path relation")
    route, path = ("path", best) if best.steps else ("same_vertex", None)
    return ConjugacyAnswer(True, best.witness_exponents, best.conjugator_items, route, path, additional)


# -------------------------------------------------------------------- report


class AnalysisReport(NamedTuple):
    """All verdicts for one graph, plus the reduction that was applied.

    The acylindricity verdict is ``trichotomy.acyl``; it is None when the
    graph reduces to a single vertex, whose free rank is then
    ``trichotomy.free_rank``.  ``rel_hyp_note`` is set when no relative
    hyperbolicity is available: a reduced graph with an edge and only
    infinite cyclic vertex groups presents a generalised Baumslag-Solitar
    group other than Z, not hyperbolic relative to any proper subgroups.
    ``notes`` collects shape caveats (currently: a reduced single vertex with
    a single bad loop).
    """

    graph: GraphOfGroups
    reduced: GraphOfGroups
    contractions: Tuple[Contraction, ...]
    balance: BalanceVerdict
    hyperbolicity: HyperbolicityVerdict
    trichotomy: TrichotomyVerdict
    rel_hyp_note: Optional[str]
    notes: Tuple[str, ...]


def analyze(graph: GraphOfGroups) -> AnalysisReport:
    """Run every decider and cross-check the verdicts against each other."""
    reduced, contractions = reduce_graph(graph)
    classes = _ClassGraph(graph)
    engine, powers = Engine(graph), {}
    chains = decide_chains(classes)
    balance = _balance(engine, powers, chains)
    hyper = _hyperbolicity(engine, powers, chains)
    tri = _trichotomy(reduced, classes if reduced is graph else _ClassGraph(reduced))

    rel_hyp_note = None
    if not reduced.is_trivial and all(v.rank == 1 for v in reduced.vertices.values()):
        rel_hyp_note = (
            "all vertex groups are infinite cyclic (generalised Baumslag-Solitar "
            "group): not hyperbolic relative to any proper subgroups"
        )
    notes: List[str] = []
    if len(reduced.vertices) == 1 and len(reduced.edges) == 1:
        edge = next(iter(reduced.edges.values()))
        if reduced.is_bad_end(edge, MINUS) or reduced.is_bad_end(edge, PLUS):
            notes.append(
                "reduced shape is a single vertex with a single bad loop "
                "(an ascending HNN extension of the vertex group)"
            )

    acyl = tri.acyl
    if not balance.balanced and hyper.hyperbolic:
        raise InternalInconsistencyError("unbalanced group reported word hyperbolic")
    if reduced.is_trivial and not (balance.balanced and hyper.hyperbolic):
        raise InternalInconsistencyError("free fundamental group misclassified")
    if acyl is not None and hyper.hyperbolic and not acyl.acyl_hyperbolic:
        raise InternalInconsistencyError(
            "word hyperbolic fundamental group reported not acylindrically hyperbolic"
        )
    return AnalysisReport(
        graph, reduced, contractions, balance, hyper, tri, rel_hyp_note, tuple(notes)
    )
