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

Two edge ends at a vertex overlap exactly when their inclusion words have
the same canonical primitive root, so each edge end falls in a *class*
(vertex, primitive), and a chain's junctions all hold exactly when every
step leaves from the class the previous step arrived in.  The *class gain
graph* has the classes as nodes and one edge per graph edge, carrying the
gain ``k_terminus / k_origin`` of its root exponents and whether each end
is a proper power (an *arrow*); a chain's ratio is the product of the
gains of its steps.  Everything here reads that one graph:

* :func:`decide_chains` gives the verdicts' answers in polynomial time: a
  complete closed chain (``w g^i w^-1 = g^j``, *level* when ``|i| = |j|``)
  exists iff the class graph has a cycle, and the ratios of the
  fundamental cycles decide balance (a gain graph is balanced iff its
  gains admit a potential: Zaslavsky, *Biased graphs I*, JCTB 1989).  Its
  witnesses are the lex-least shortest closed chain, a shortest non-level
  one, and the lex-least shortest *full non-maximal* path (proper powers at
  both ends, maximal inclusions in between: the shape that produces a Z^2
  or Baumslag-Solitar subgroup).
* :func:`enumerate_complete_paths` and
  :func:`enumerate_full_nonmaximal_paths` list every edge-once chain of
  those two kinds, and :func:`iter_conjugacy_paths` every edge-once
  conjugacy path between two given vertex elements.  They walk class
  adjacency, so their cost follows the number of edge-once walks there,
  which grows exponentially when many edges share a class.  The open
  search walks only when one BFS over the class graph reaches the class of
  its target, so a query with no path at all costs that BFS.

Chains are :class:`ConjugacyPath` records, the one chain record of the
package: its ratio, witness exponents, base vertex (``steps[0].origin``)
and arrowed ends (the two outer ends of a full path) are all read off it.
Its transitions are the :class:`~gogz.words.CyclicMeet` records that
:func:`~gogz.words.cyclic_meet` returns, and the class graph is the only
place that builds a chain: it certifies each entry, junction and exit
once, keyed by its pair of steps, and assembles every chain handed out
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import DegenerateInputError, InternalInconsistencyError
from .graphs import MINUS, PLUS, Edge, GraphOfGroups, OrientedEdge
from .words import CyclicMeet, FreeWord, Letters, _root_cached, cyclic_meet

TLetter = Tuple[str, int, int]
ConjugatorItem = Union[FreeWord, TLetter]
EndClass = Tuple[int, Letters]

# In a memo key of ``_ClassGraph.transition``, the query's start or end word.
QUERY = -1


def _t_letter(step: OrientedEdge) -> TLetter:
    return ("t", step.edge.id, 1 if step.forward else -1)


@dataclass(frozen=True)
class ConjugacyPath:
    """A certified chain carrying powers of ``start`` onto powers of ``end``.

    ``transitions`` are the exponent transfers inside vertex groups, each a
    :class:`~gogz.words.CyclicMeet` from its ``u`` onto its ``v``: the entry
    from ``start`` onto the first inclusion word, one junction from each
    step's terminus word onto the next step's origin word, and the exit
    onto ``end``.  Crossing an edge preserves the exponent (stable letters
    conjugate one inclusion word to the other).  The witness exponents and
    the conjugator are computed once per path, on first use, and shared by
    every caller.
    """

    steps: Tuple[OrientedEdge, ...]
    transitions: Tuple[CyclicMeet, ...]

    @property
    def start(self) -> FreeWord:
        return self.transitions[0].u

    @property
    def end(self) -> FreeWord:
        return self.transitions[-1].v

    def ratio(self) -> Fraction:
        m, n = self.witness_exponents()
        return Fraction(n, m)

    def witness_exponents(self) -> Tuple[int, int]:
        """Minimal (m, n) with c * start^m * c^-1 = end^n, where c is the
        product of :meth:`conjugator_items`.

        m is the least positive exponent whose transfer stays integral at
        every stage of the chain: the lcm of the reduced denominators of
        the running products of the transfer ratios.  No smaller m works
        with this conjugator: at the first stage where the transfer of
        start^m is not integral, the element is a power of the stage's root
        outside the cyclic subgroup of the outgoing word.  Before an edge,
        the crossing then cannot cancel, so by the normal form theorem for
        graphs of groups (Britton's lemma) the product is not in the vertex
        group of ``end``; at the exit it is a power of the root of ``end``
        but not of ``end``.
        """
        return self._exponents

    @cached_property
    def _exponents(self) -> Tuple[int, int]:
        num = den = m = 1  # num / den is the running product, reduced
        for tr in self.transitions:
            k_in, k_out = tr.exps
            num, den = num * k_in, den * k_out
            d = gcd(num, den)
            num, den = num // d, den // d
            m = lcm(m, den)
        return m, m // den * num

    def conjugator_items(self) -> Tuple[ConjugatorItem, ...]:
        """The conjugator as a product of vertex words and stable letters.

        Items are listed left to right; the rightmost acts first.  Identity
        vertex words are dropped; stable letters of spanning-tree edges are
        kept (the engine treats them as the identity).
        """
        return self._conjugator

    @cached_property
    def _conjugator(self) -> Tuple[ConjugatorItem, ...]:
        # transitions[i] precedes steps[i]; the exit follows the last step
        items: List[ConjugatorItem] = [self.transitions[-1].transfer_conjugator]
        for step, tr in zip(reversed(self.steps), reversed(self.transitions[:-1])):
            items += [_t_letter(step), tr.transfer_conjugator]
        return tuple(w for w in items if not (isinstance(w, FreeWord) and w.is_identity))


# --------------------------------------------------------------- class graph


class _ClassGraph:
    """The class gain graph of a graph of groups.

    Two edge ends at a vertex overlap exactly when their inclusion words
    have the same canonical primitive root (that is what
    :func:`cyclic_meet` compares), so each end falls in a *class* (vertex,
    primitive).  The nodes are the classes; each edge joins the classes of
    its two ends.  Crossing a step from its origin end to its terminus end
    multiplies the exponent by the *gain* ``k_terminus / k_origin`` of the
    signed root exponents, so the ratio of a chain is the product of the
    gains of its steps, and an end *carries an arrow* when ``|k| >= 2``.

    Position ``i`` describes ``steps[i]`` (``graph.oriented_edges()``
    order): steps ``2j`` and ``2j + 1`` cross the j-th edge by id forward
    and backward, so ``i ^ 1`` is the reverse of step ``i`` and ``i >> 1``
    orders steps by edge id.  Comparing two lists of step indices compares
    the chains step by step by (edge id, forward first): that *step order*
    is the lex order used throughout, and chains are listed shortest first,
    then lex.  ``out`` lists, per class, the steps leaving it in step order.
    Building it takes one :func:`root` per distinct edge word.

    ``transitions`` memoises the certified transfer of each pair of steps
    (plus the ``query`` endpoints of an open search), so every chain built
    here runs :func:`cyclic_meet` once per distinct entry, junction and exit
    of the class graph: at most ``4E^2 + 4E`` times for E edges.
    """

    def __init__(self, graph: GraphOfGroups, query: Optional[Tuple[FreeWord, FreeWord]] = None):
        self.query = query
        self.transitions: Dict[Tuple[int, int], CyclicMeet] = {}
        self.steps = graph.oriented_edges()
        self.node: Dict[EndClass, int] = {}
        self.out: List[List[int]] = []
        self.origin: List[int] = []
        self.terminus: List[int] = []
        self.k_origin: List[int] = []
        self.k_terminus: List[int] = []
        for forward in self.steps[::2]:
            minus, plus = (self._end(forward.edge, side) for side in (MINUS, PLUS))
            for (origin, k_origin), (terminus, k_terminus) in ((minus, plus), (plus, minus)):
                self.out[origin].append(len(self.origin))
                self.origin.append(origin)
                self.terminus.append(terminus)
                self.k_origin.append(k_origin)
                self.k_terminus.append(k_terminus)
        self.arrow_origin = [abs(k) >= 2 for k in self.k_origin]
        self.arrow_terminus = [abs(k) >= 2 for k in self.k_terminus]

    def _end(self, edge: Edge, side: int) -> Tuple[int, int]:
        _, primitive, exponent = _root_cached(edge.word(side).letters)
        key = (edge.vertex(side), primitive)
        if key not in self.node:
            self.node[key] = len(self.out)
            self.out.append([])
        return self.node[key], exponent

    def word_class(self, vid: int, word: FreeWord) -> Optional[int]:
        """The class of a nontrivial ``word`` at vertex ``vid``, or None if no edge end has it."""
        return self.node.get((vid, _root_cached(word.letters)[1]))

    def chain(self, walk: Sequence[int]) -> Tuple[OrientedEdge, ...]:
        return tuple(self.steps[i] for i in walk)

    def transition(self, a: int, b: int, walk: Sequence[int]) -> CyclicMeet:
        """The transfer from the terminus word of step ``a`` onto the origin
        word of step ``b`` (the query's start word when ``a`` is QUERY, its
        end word when ``b`` is), certified once per pair; ``walk`` is the
        chain named when cyclic_meet rejects what the class walk accepted."""
        tr = self.transitions.get((a, b))
        if tr is None:
            incoming = self.query[0] if a == QUERY else self.steps[a].terminus_word
            outgoing = self.query[1] if b == QUERY else self.steps[b].origin_word
            tr = cyclic_meet(incoming, outgoing)
            if tr is None:
                raise InternalInconsistencyError(
                    "class walk accepted a chain that cyclic_meet rejects: "
                    + " ".join(repr(s) for s in self.chain(walk))
                )
            self.transitions[a, b] = tr
        return tr

    def certified(self, walk: Sequence[int], first: int, last: int) -> ConjugacyPath:
        """The chain of ``walk`` from the terminus word of step ``first`` to
        the origin word of step ``last``, both QUERY in an open search.

        A closed chain runs from its first origin word to itself (``first``
        is the reverse of its first step, ``last`` that step itself), a full
        path to its last terminus word (``last`` the reverse of its last step).
        """
        pairs = zip([first, *walk], [*walk, last])
        return ConjugacyPath(self.chain(walk), tuple(self.transition(a, b, walk) for a, b in pairs))

    # ------------------------------------------------------------ walks

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
        walk, used = [start], {start >> 1}
        yield walk
        frames = [self._next_steps(start, halts)]
        while frames:  # frames[k] holds the untried steps after walk[k]
            for i in frames[-1]:
                if i >> 1 not in used and admits(i):
                    break
            else:
                frames.pop()
                used.discard(walk.pop() >> 1)
                continue
            walk.append(i)
            used.add(i >> 1)
            yield walk
            frames.append(self._next_steps(i, halts))

    def _next_steps(self, i: int, halts: Callable[[int], bool]) -> Iterator[int]:
        return iter(() if halts(i) else self.out[self.terminus[i]])

    # -------------------------------------------------------- decisions

    def ratio(self, walk: Sequence[int]) -> Fraction:
        num = den = 1
        for i in walk:
            num *= self.k_terminus[i]
            den *= self.k_origin[i]
        return Fraction(num, den)

    def spanning_forest(self) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
        """Union-find over the edges in id order.

        Returns ``up`` (the tree step into each class, -1 at the root of its
        tree), ``depth``, and the forward steps of the edges that close a
        cycle: each one's tree path uses only smaller edge ids.
        """
        leader = list(range(len(self.out)))

        def find(x: int) -> int:
            while leader[x] != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        in_tree = [False] * (len(self.steps) // 2)
        closing = []
        for i in range(0, len(self.steps), 2):
            a, b = find(self.origin[i]), find(self.terminus[i])
            if a == b:
                closing.append(i)
            else:
                leader[a] = b
                in_tree[i >> 1] = True
        up: Dict[int, int] = {}
        depth: Dict[int, int] = {}
        for top in range(len(self.out)):
            if top not in depth:
                tree_up, tree_depth, _ = self._bfs(top, lambda s: in_tree[s >> 1])
                up.update(tree_up)
                depth.update(tree_depth)
        return up, depth, closing

    def tree_cycle(self, i: int, up, depth) -> List[int]:
        """Step ``i``, then the tree path from its terminus back to its origin."""
        x, y = self.origin[i], self.terminus[i]
        rise, fall = [], []
        while x != y:
            if depth[y] >= depth[x]:
                rise.append(up[y] ^ 1)
                y = self.origin[up[y]]
            else:
                fall.append(up[x])
                x = self.origin[up[x]]
        return [i] + rise + fall[::-1]

    @staticmethod
    def canonical(cycle: List[int]) -> List[int]:
        """The rotation of the cycle, or of its reverse, that starts forward
        on its least edge id: the representative ``enumerate_complete_paths``
        lists."""
        j = min(range(len(cycle)), key=lambda k: cycle[k] >> 1)
        if cycle[j] & 1:
            cycle = [s ^ 1 for s in reversed(cycle)]
            j = len(cycle) - 1 - j
        return cycle[j:] + cycle[:j]

    def _bfs(
        self, top: int, usable: Callable[[int], bool], limit: Optional[int] = None
    ) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
        """BFS from class ``top`` along usable steps, to depth ``limit``.

        Returns ``up`` (the tree step into each class reached, -1 at
        ``top``), ``depth``, and the classes in BFS order, which is the lex
        order of their tree paths.
        """
        up, depth, order = {top: -1}, {top: 0}, [top]
        for u in order:
            if limit is not None and depth[u] >= limit:
                break
            for s in self.out[u]:
                v = self.terminus[s]
                if v not in depth and usable(s):
                    up[v], depth[v] = s, depth[u] + 1
                    order.append(v)
        return up, depth, order

    def shortest_cycle(self, on_cycle: List[bool]) -> Optional[List[int]]:
        """The lex-least shortest closed chain, in canonical form.

        Its canonical form starts forward on its least edge e and then uses
        only larger ids, so per e (in id order) a BFS over the larger ids
        gives the shortest way back, and a greedy descent by step order the
        lex-least one.  ``on_cycle`` marks the edges that lie on some cycle;
        the others cannot.
        """
        best: Optional[List[int]] = None
        for i in range(0, len(self.steps), 2):
            if not on_cycle[i >> 1]:
                continue
            usable = lambda s, least=i >> 1: s >> 1 > least and on_cycle[s >> 1]
            _, dist, _ = self._bfs(self.origin[i], usable, None if best is None else len(best) - 2)
            u = self.terminus[i]
            if u not in dist:
                continue
            best = [i]
            while dist[u]:
                s = next(s for s in self.out[u] if usable(s) and dist.get(self.terminus[s]) == dist[u] - 1)
                best.append(s)
                u = self.terminus[s]
            if len(best) == 1:
                break
        return best

    def shortest_nonlevel_cycle(self, on_cycle: List[bool]) -> Optional[List[int]]:
        """A shortest closed chain with ``|ratio| != 1``, canonicalised.

        From each root class r, a BFS tree over the edges on cycles gives
        every class a potential (the absolute gain of its tree path); an
        edge whose gain does not match its ends' potentials closes a
        non-level cycle with the two tree paths.  For a shortest non-level
        cycle C and r on C, C's gain is the product of those of its edges'
        tree cycles, each at most as long as C and passing through r, so
        one of them is a shortest non-level cycle (the shortest-odd-cycle
        argument).  The result is the lex-least shortest one among the
        cycles through their root found that way; no tree path of one is
        longer than half of it, which bounds each BFS.  An unbounded BFS that
        meets no non-level edge marks its whole component level.
        """
        best: Optional[List[int]] = None
        level = [False] * len(self.out)
        for top in range(len(self.out)):
            if level[top]:
                continue
            limit = None if best is None else len(best) // 2
            up, depth, order = self._bfs(top, lambda s: on_cycle[s >> 1], limit)
            potential = {top: (1, 1)}
            for v in order[1:]:
                s = up[v]
                num, den = potential[self.origin[s]]
                potential[v] = (num * abs(self.k_terminus[s]), den * abs(self.k_origin[s]))
            nonlevel = False
            for u in order:
                for i in self.out[u]:
                    v = self.terminus[i]
                    if i & 1 or not on_cycle[i >> 1] or v not in depth:
                        continue
                    (num_u, den_u), (num_v, den_v) = potential[u], potential[v]
                    if num_u * abs(self.k_terminus[i]) * den_v == num_v * abs(self.k_origin[i]) * den_u:
                        continue
                    nonlevel = True
                    length = depth[u] + depth[v] + 1
                    if best is not None and length > len(best):
                        continue
                    cycle = self.tree_cycle(i, up, depth)
                    if len(cycle) < length:  # not through the root: found from its own classes
                        continue
                    cycle = self.canonical(cycle)
                    if best is None or (len(cycle), cycle) < (len(best), best):
                        best = cycle
            if limit is None and not nonlevel:
                for u in order:
                    level[u] = True
        return best

    def shortest_full_path(self) -> Optional[List[int]]:
        """The lex-least shortest full non-maximal path, on a class graph
        without cycles, in its lex-lesser orientation.

        An edge with arrows at both ends is one.  Otherwise a full path
        leaves a one-arrow edge f from its arrowed end, crosses arrow-free
        edges and ends on another one-arrow edge l at its arrowed end; the
        preferred orientation starts on the smaller id.  So per f (in id
        order) a BFS over arrow-free edges finds the nearest classes that
        such an l of larger id leaves from; without cycles the path to each
        is unique.
        """
        for i in range(0, len(self.steps), 2):
            if self.arrow_origin[i] and self.arrow_terminus[i]:
                return [i]
        firsts: List[int] = []
        lasts: Dict[int, List[int]] = {}
        for s in range(len(self.steps)):
            if self.arrow_origin[s] and not self.arrow_terminus[s]:
                firsts.append(s)
            elif self.arrow_terminus[s] and not self.arrow_origin[s]:
                lasts.setdefault(self.origin[s], []).append(s)
        best: Optional[List[int]] = None
        for f in firsts:
            if best is not None and len(best) == 2:
                break
            up, depth, order = self._bfs(
                self.terminus[f],
                lambda s: not (self.arrow_origin[s] or self.arrow_terminus[s]),
                None if best is None else len(best) - 3,
            )
            found: List[List[int]] = []
            for v in order:
                if found and depth[v] + 2 > len(found[0]):
                    break
                l = next((l for l in lasts.get(v, ()) if l >> 1 > f >> 1), None)
                if l is not None:
                    found.append([f] + self._tree_path(v, up) + [l])
            if found:
                best = min(found)
        return best

    def _tree_path(self, v: int, up) -> List[int]:
        """The tree steps from the root of ``up`` down to ``v``."""
        path = []
        while up[v] != -1:
            path.append(up[v])
            v = self.origin[up[v]]
        return path[::-1]


# ------------------------------------------------------------- closed paths


def _closed_chains(index: _ClassGraph) -> Iterator[List[int]]:
    """All closed edge-once chains, one representative per rotation/reversal class.

    The representative is the lex-least rotation of the chain and of its
    reverse in step order: the one that starts with the forward
    traversal of its least edge id.  So each walk starts forward on an edge
    and admits only larger ids after it.
    """
    for start in range(0, len(index.steps), 2):
        home = index.origin[start]
        for walk in index.walks(start, admits=lambda i, least=start >> 1: i >> 1 > least):
            if index.terminus[walk[-1]] == home:
                yield walk


def enumerate_complete_paths(graph: GraphOfGroups) -> List[ConjugacyPath]:
    """All complete closed chains, deduplicated under rotation and reversal.

    Each chain starts and ends at the base word ``steps[0].origin_word`` of
    the canonical rotation; the closing overlap is part of the certificate,
    so the witness covers the full loop including the return to the base
    word.  A chain is *level* when ``|ratio()| = 1``; a non-level chain
    exhibits an unbalanced element.  A tree (Betti number 0) has no closed
    edge-once walk, so it returns ``[]`` without walking.  The walk is
    exponential when many edges share a class; :func:`decide_chains`
    answers the verdicts' questions without it.
    """
    if graph.betti_number == 0:
        return []
    index = _ClassGraph(graph)
    walks = sorted((list(walk) for walk in _closed_chains(index)), key=lambda w: (len(w), w))
    return [index.certified(walk, walk[0] ^ 1, walk[0]) for walk in walks]


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
    index = _ClassGraph(graph)
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
            if index.arrow_terminus[walk[-1]] and walk <= [i ^ 1 for i in reversed(walk)]:
                found.append(list(walk))
    found.sort(key=lambda w: (len(w), w))
    return [index.certified(walk, walk[0] ^ 1, walk[-1] ^ 1) for walk in found]


# ----------------------------------------------------------------- decisions


@dataclass(frozen=True)
class ChainDecision:
    """What the class gain graph decides about closed and full chains.

    ``modulus`` holds the distinct ratios of the fundamental cycles of the
    spanning forest that union-find builds over the edges in id order, each
    read on its canonical chain (forward on its least edge id), sorted by
    ``(|r|, r)``.  They generate the ratios of all closed chains, so the
    group is balanced exactly when every entry is ±1.  ``complete`` is the
    lex-least shortest complete closed chain, None when the class graph has
    no cycle.  ``nonlevel`` is a shortest closed chain with ``|ratio| != 1``
    (``complete`` itself when that one is non-level), None exactly when
    balanced.  ``full`` is the lex-least shortest full non-maximal path,
    looked for only when ``complete`` is None.  Each witness is certified by
    :func:`cyclic_meet`, through the class graph's transitions; no other
    chain is built.
    """

    modulus: Tuple[Fraction, ...]
    complete: Optional[ConjugacyPath]
    nonlevel: Optional[ConjugacyPath]
    full: Optional[ConjugacyPath]


def _found(walk: Optional[List[int]], what: str) -> List[int]:
    if walk is None:
        raise InternalInconsistencyError(f"the class graph has {what} that its search did not find")
    return walk


def decide_chains(graph: GraphOfGroups) -> ChainDecision:
    """Closed-chain and full-path verdicts from one class gain graph.

    A complete closed chain exists iff the class graph has a cycle (loops
    and parallel edges count).  Without one, a full non-maximal path exists
    iff some edge has arrows at both ends, or the non-arrowed ends of two
    one-arrow edges are joined by arrow-free edges.  Time is polynomial:
    union-find and one walk per fundamental cycle, one bounded BFS per edge
    for the shortest cycle, and a BFS per class for the shortest non-level
    one only when the group is unbalanced.
    """
    classes = _ClassGraph(graph)
    up, depth, closing = classes.spanning_forest()
    on_cycle = [False] * len(graph.edges)
    ratios = set()
    for i in closing:
        cycle = classes.canonical(classes.tree_cycle(i, up, depth))
        ratios.add(classes.ratio(cycle))
        for s in cycle:
            on_cycle[s >> 1] = True
    modulus = tuple(sorted(ratios, key=lambda r: (abs(r), r)))
    if not closing:
        full = classes.shortest_full_path()
        if full is None:
            return ChainDecision(modulus, None, None, None)
        return ChainDecision(modulus, None, None, classes.certified(full, full[0] ^ 1, full[-1] ^ 1))

    cycle = _found(classes.shortest_cycle(on_cycle), "a cycle")
    complete = classes.certified(cycle, cycle[0] ^ 1, cycle[0])
    nonlevel = None
    if any(abs(r) != 1 for r in modulus):
        nonlevel = complete
        if abs(complete.ratio()) == 1:
            cycle = _found(classes.shortest_nonlevel_cycle(on_cycle), "a non-level cycle")
            nonlevel = classes.certified(cycle, cycle[0] ^ 1, cycle[0])
    return ChainDecision(modulus, complete, nonlevel, None)


# --------------------------------------------------------------- open search


def iter_conjugacy_paths(
    graph: GraphOfGroups, g: FreeWord, g_prime: FreeWord
) -> Iterator[ConjugacyPath]:
    """All edge-once conjugacy paths from g to g', in canonical walk order.

    The order is depth-first over ``graph.oriented_edges()``; a chain is
    yielded before its extensions.  Closed chains returning to the start
    vertex appear too.  When no edge end has the class of g', or one BFS
    from the class of g does not reach it, nothing is walked.
    """
    if g.is_identity or g_prime.is_identity:
        raise DegenerateInputError("conjugacy paths connect nontrivial elements")
    homes = {str(vid): vid for vid in graph.vertices}
    if g.vertex not in homes or g_prime.vertex not in homes:
        raise DegenerateInputError("endpoints must live at vertices of the graph")

    index = _ClassGraph(graph, (g, g_prime))
    source = index.word_class(homes[g.vertex], g)
    target = index.word_class(homes[g_prime.vertex], g_prime)
    if source is None or target not in index._bfs(source, lambda s: True)[1]:
        return
    for start in index.out[source]:
        for walk in index.walks(start):
            if index.terminus[walk[-1]] == target:
                yield index.certified(walk, QUERY, QUERY)
