"""Path criteria over a graph of groups.

A conjugacy path threads a power of a vertex element through a chain of
edges: at each vertex along the way the exponent is transferred between
two cyclic subgroups of the free vertex group (their overlap certified by
:func:`gogz.words.cyclic_meet`), and crossing an edge swaps one inclusion
word for the other at the cost of a stable letter.  Multiplying the exact
rational transfer ratios along the chain tells us which powers of the two
endpoint elements become conjugate in the fundamental group, and composing
the per-vertex conjugators with the stable letters yields an explicit
conjugator that the normal-form engine can check.

Three enumerations are built on this, all edge-once (each unoriented edge
at most once per chain):

* closed chains that certify a self-conjugacy ``w g^i w^-1 = g^j`` (the
  *complete* closed paths; the chain is *level* when ``|i| = |j|``),
* *full non-maximal* paths, whose endpoint inclusion words are proper
  powers at both ends while every other inclusion along the way is
  maximal — the shape that produces a Z^2 or Baumslag-Solitar subgroup,
* open conjugacy paths between two given vertex elements.

Each returns :class:`ConjugacyPath` records, the one chain record of the
package: its ratio, witness exponents, base vertex (``steps[0].origin``)
and arrowed ends (the two outer ends of a full path) are all read off it.

All three walk the same index.  Two edge ends at a vertex overlap exactly
when their inclusion words have the same canonical primitive root, so each
edge end falls in a *class* (vertex, primitive) and a chain's junctions all
hold exactly when every step leaves from the class the previous step
arrived in.  The walk therefore only ever extends along class adjacency,
and its cost is proportional to the number of edge-once walks in that
adjacency (not to all edge sequences of the graph).  That number can still
grow exponentially when many edges share a class.  Every emitted chain is
rebuilt from :func:`~gogz.words.cyclic_meet` by :func:`check_conjugacy_path`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import DegenerateInputError, InternalInconsistencyError
from .graphs import MINUS, PLUS, Edge, GraphOfGroups, OrientedEdge
from .words import CyclicMeet, FreeWord, Letters, cyclic_meet, root

TLetter = Tuple[str, int, int]
ConjugatorItem = Union[FreeWord, TLetter]
EndClass = Tuple[int, Letters]


@dataclass(frozen=True)
class Transition:
    """One exponent transfer inside the vertex group at ``vertex_id``.

    ``meet`` certifies that a conjugate of <incoming> overlaps <outgoing>;
    ``conjugator()`` maps incoming^x to outgoing^(x * ratio) whenever the
    target exponent is an integer.
    """

    vertex_id: int
    incoming: FreeWord
    outgoing: FreeWord
    meet: CyclicMeet

    @property
    def ratio(self) -> Fraction:
        k_in, k_out = self.meet.exps
        return Fraction(k_in, k_out)

    def conjugator(self) -> FreeWord:
        return self.meet.transfer_conjugator()


def _t_letter(step: OrientedEdge) -> TLetter:
    return ("t", step.edge.id, 1 if step.forward else -1)


@dataclass(frozen=True)
class ConjugacyPath:
    """A certified chain carrying powers of ``start`` onto powers of ``end``.

    ``entry`` transfers ``start`` onto the first inclusion word, each of
    ``junctions[i]`` bridges steps[i] -> steps[i+1] inside a vertex group,
    and ``exit`` lands on ``end``.  Crossing an edge preserves the exponent
    (stable letters conjugate one inclusion word to the other).
    """

    steps: Tuple[OrientedEdge, ...]
    start: FreeWord
    end: FreeWord
    entry: Transition
    junctions: Tuple[Transition, ...]
    exit: Transition

    def transitions(self) -> Tuple[Transition, ...]:
        return (self.entry, *self.junctions, self.exit)

    def ratio(self) -> Fraction:
        out = Fraction(1)
        for tr in self.transitions():
            out *= tr.ratio
        return out

    def _partials(self) -> List[Fraction]:
        out = []
        q = Fraction(1)
        for tr in self.transitions():
            q *= tr.ratio
            out.append(q)
        return out

    def witness_exponents(self) -> Tuple[int, int]:
        """Minimal (m, n) with conjugator() * start^m * conjugator()^-1 = end^n.

        m is the least positive exponent whose transfer stays integral at
        every stage of the chain.
        """
        partials = self._partials()
        m = lcm(*(q.denominator for q in partials))
        n = m * partials[-1]
        assert n.denominator == 1
        return m, int(n)

    def conjugator_items(self) -> List[ConjugatorItem]:
        """The conjugator as a product of vertex words and stable letters.

        Items are listed left to right; the rightmost acts first.  Identity
        vertex words are dropped; stable letters of spanning-tree edges are
        kept (the engine treats them as the identity).
        """
        items: List[ConjugatorItem] = [self.exit.conjugator()]
        for step, junction in zip(reversed(self.steps[1:]), reversed(self.junctions)):
            items.append(_t_letter(step))
            items.append(junction.conjugator())
        items.append(_t_letter(self.steps[0]))
        items.append(self.entry.conjugator())
        return [w for w in items if not (isinstance(w, FreeWord) and w.is_identity)]


def check_conjugacy_path(
    graph: GraphOfGroups,
    g: FreeWord,
    g_prime: FreeWord,
    steps: Sequence[OrientedEdge],
) -> Optional[ConjugacyPath]:
    """Certify the edge chain ``steps`` as a conjugacy path from g to g'.

    Returns None when some overlap along the chain fails; raises on a
    malformed query (trivial endpoints, vertex mismatch, broken chain).
    """
    steps = tuple(steps)
    if not steps:
        raise DegenerateInputError("a conjugacy path needs at least one edge")
    if g.is_identity or g_prime.is_identity:
        raise DegenerateInputError("conjugacy paths connect nontrivial elements")
    if g.vertex != str(steps[0].origin):
        raise DegenerateInputError(
            f"g lives at vertex {g.vertex!r} but the path starts at {steps[0].origin}"
        )
    if g_prime.vertex != str(steps[-1].terminus):
        raise DegenerateInputError(
            f"g' lives at vertex {g_prime.vertex!r} but the path ends at {steps[-1].terminus}"
        )
    for a, b in zip(steps, steps[1:]):
        if a.terminus != b.origin:
            raise DegenerateInputError(f"broken chain: {a!r} does not meet {b!r}")

    entry_meet = cyclic_meet(g, steps[0].origin_word)
    if entry_meet is None:
        return None
    entry = Transition(steps[0].origin, g, steps[0].origin_word, entry_meet)

    junctions = []
    for a, b in zip(steps, steps[1:]):
        meet = cyclic_meet(a.terminus_word, b.origin_word)
        if meet is None:
            return None
        junctions.append(Transition(a.terminus, a.terminus_word, b.origin_word, meet))

    exit_meet = cyclic_meet(steps[-1].terminus_word, g_prime)
    if exit_meet is None:
        return None
    exit_ = Transition(steps[-1].terminus, steps[-1].terminus_word, g_prime, exit_meet)

    return ConjugacyPath(steps, g, g_prime, entry, tuple(junctions), exit_)



def _certify(
    graph: GraphOfGroups, g: FreeWord, g_prime: FreeWord, steps: Sequence[OrientedEdge]
) -> ConjugacyPath:
    """check_conjugacy_path for a chain the class walk already accepted."""
    path = check_conjugacy_path(graph, g, g_prime, steps)
    if path is None:
        raise InternalInconsistencyError(
            "class walk accepted a chain that cyclic_meet rejects: "
            + " ".join(repr(s) for s in steps)
        )
    return path


# ---------------------------------------------------------------- class walk


def _end_class(edge: Edge, side: int) -> Tuple[EndClass, bool]:
    """The class of an edge end, and whether it carries an arrow."""
    r = root(edge.word(side))
    return (edge.vertex(side), r.primitive.letters), abs(r.exponent) >= 2


def _word_class(vid: int, word: FreeWord) -> EndClass:
    return (vid, root(word).primitive.letters)


class _ClassIndex:
    """The oriented edges of a graph, keyed by the classes of their ends.

    Position ``i`` describes ``steps[i]`` (``graph.oriented_edges()``
    order): the class it leaves from and arrives in, and whether its origin
    or terminus end carries an arrow.  ``out`` lists, per class, the steps
    leaving from it in that same order; :func:`cyclic_meet` holds between
    two ends exactly when their classes are equal, because it compares the
    same canonical primitives.
    """

    def __init__(self, graph: GraphOfGroups):
        ends = {
            (e.id, side): _end_class(e, side) for e in graph.edges.values() for side in (MINUS, PLUS)
        }
        self.steps = graph.oriented_edges()
        self.edge_id = [s.edge.id for s in self.steps]
        self.origin: List[EndClass] = []
        self.terminus: List[EndClass] = []
        self.arrow_origin: List[bool] = []
        self.arrow_terminus: List[bool] = []
        self.out: Dict[EndClass, List[int]] = {}
        for i, s in enumerate(self.steps):
            origin, arrow_origin = ends[s.edge.id, s.origin_side]
            terminus, arrow_terminus = ends[s.edge.id, s.terminus_side]
            self.origin.append(origin)
            self.terminus.append(terminus)
            self.arrow_origin.append(arrow_origin)
            self.arrow_terminus.append(arrow_terminus)
            self.out.setdefault(origin, []).append(i)

    def walks(
        self,
        start: int,
        admits: Callable[[int], bool] = lambda i: True,
        halts: Callable[[int], bool] = lambda i: False,
    ) -> Iterator[List[int]]:
        """Every edge-once walk from step ``start`` along class adjacency.

        Walks come in depth-first preorder, children in ``out`` order; each
        is the live list of step indices, so copy it to keep it.  A step
        joins only when ``admits`` accepts it, and a walk whose last step
        ``halts`` is not extended.
        """
        walk, used = [start], {self.edge_id[start]}
        yield walk
        frames = [self._next_steps(start, halts)]
        while frames:  # frames[k] holds the untried steps after walk[k]
            for i in frames[-1]:
                if self.edge_id[i] not in used and admits(i):
                    break
            else:
                frames.pop()
                used.discard(self.edge_id[walk.pop()])
                continue
            walk.append(i)
            used.add(self.edge_id[i])
            yield walk
            frames.append(self._next_steps(i, halts))

    def _next_steps(self, i: int, halts: Callable[[int], bool]) -> Iterator[int]:
        return iter(() if halts(i) else self.out.get(self.terminus[i], ()))

    def chain(self, walk: Sequence[int]) -> Tuple[OrientedEdge, ...]:
        return tuple(self.steps[i] for i in walk)


# ------------------------------------------------------------- closed paths


def _step_key(step: OrientedEdge) -> Tuple[int, int]:
    return (step.edge.id, 0 if step.forward else 1)


def _path_key(steps: Sequence[OrientedEdge]) -> Tuple[Tuple[int, int], ...]:
    return tuple(_step_key(s) for s in steps)


def _reversed_path(steps: Sequence[OrientedEdge]) -> List[OrientedEdge]:
    return [s.reversed() for s in reversed(steps)]


def _closed_chains(index: _ClassIndex) -> Iterator[Tuple[OrientedEdge, ...]]:
    """All closed edge-once chains, one representative per rotation/reversal class.

    The representative is the lex-least rotation of the chain and of its
    reverse under ``_path_key``: the one that starts with the forward
    traversal of its least edge id.  So each walk starts forward on an edge
    and admits only larger ids after it.
    """
    for start, step in enumerate(index.steps):
        if not step.forward:
            continue
        least, home = index.edge_id[start], index.origin[start]
        for walk in index.walks(start, admits=lambda i: index.edge_id[i] > least):
            if index.terminus[walk[-1]] == home:
                yield index.chain(walk)


def enumerate_complete_paths(graph: GraphOfGroups) -> List[ConjugacyPath]:
    """All complete closed chains, deduplicated under rotation and reversal.

    Each chain starts and ends at the base word ``steps[0].origin_word`` of
    the canonical rotation; the closing overlap is part of the certificate,
    so the witness covers the full loop including the return to the base
    word.  A chain is *level* when ``|ratio()| = 1``; a non-level chain
    exhibits an unbalanced element.  A tree (Betti number 0) has no closed
    edge-once walk, so it returns ``[]`` without walking.
    """
    if graph.betti_number == 0:
        return []
    chains = []
    for steps in _closed_chains(_ClassIndex(graph)):
        base_word = steps[0].origin_word
        chains.append(_certify(graph, base_word, base_word, steps))
    chains.sort(key=lambda p: (len(p.steps), _path_key(p.steps)))
    return chains


# -------------------------------------------------------- non-maximal paths


def enumerate_full_nonmaximal_paths(graph: GraphOfGroups) -> List[ConjugacyPath]:
    """All edge-once chains with arrows exactly at their two outer ends.

    An *arrow* sits at an edge end whose inclusion word is a proper power.
    The initial inclusion word (a proper power, by its arrow) travels the
    chain through maximal inclusions only and lands on another proper
    power, so the fundamental group gains a Baumslag-Solitar subgroup.
    Each path runs from ``steps[0].origin_word`` to
    ``steps[-1].terminus_word``, the two arrowed ends.  A single edge with
    arrows at both ends is the one-step case.  Results are deduplicated
    under reversal.
    """
    index = _ClassIndex(graph)
    found = []
    for start in range(len(index.steps)):
        if not index.arrow_origin[start]:
            continue
        # an arrowed end cannot be passed through, only start or end a path
        for walk in index.walks(
            start,
            admits=lambda i: not index.arrow_origin[i],
            halts=lambda i: index.arrow_terminus[i],
        ):
            if not index.arrow_terminus[walk[-1]]:
                continue
            steps = index.chain(walk)
            if _path_key(steps) <= _path_key(_reversed_path(steps)):
                found.append(_certify(graph, steps[0].origin_word, steps[-1].terminus_word, steps))

    found.sort(key=lambda p: (len(p.steps), _path_key(p.steps)))
    return found


# --------------------------------------------------------------- open search


def iter_conjugacy_paths(
    graph: GraphOfGroups, g: FreeWord, g_prime: FreeWord
) -> Iterator[ConjugacyPath]:
    """All edge-once conjugacy paths from g to g', in canonical walk order.

    The order is depth-first over ``graph.oriented_edges()``; a chain is
    yielded before its extensions.  Closed chains returning to the start
    vertex appear too.
    """
    if g.is_identity or g_prime.is_identity:
        raise DegenerateInputError("conjugacy paths connect nontrivial elements")
    homes = {str(vid): vid for vid in graph.vertices}
    if g.vertex not in homes or g_prime.vertex not in homes:
        raise DegenerateInputError("endpoints must live at vertices of the graph")

    index = _ClassIndex(graph)
    target = _word_class(homes[g_prime.vertex], g_prime)
    for start in index.out.get(_word_class(homes[g.vertex], g), ()):
        for walk in index.walks(start):
            if index.terminus[walk[-1]] == target:
                yield _certify(graph, g, g_prime, index.chain(walk))
