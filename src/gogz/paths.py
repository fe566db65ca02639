"""Path criteria over a graph of groups.

A conjugacy path threads a power of a vertex element through a chain of
edges: at each vertex along the way the exponent is transferred between
two cyclic subgroups of the free vertex group (which meet exactly when
their words have one primitive root), and crossing an edge swaps one
inclusion word for the other at the cost of a stable letter.  Multiplying the exact
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
gains of its steps.  That graph is the end table :class:`_ClassGraph`,
which roots each edge end once, and each query word of the open search;
everything here, and every decider of :mod:`gogz.verdicts`, reads it:

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
  those two kinds by walking class adjacency, so their cost follows the
  number of edge-once walks there, which grows exponentially when many
  edges share a class.  :func:`iter_conjugacy_paths` gives the first
  edge-once conjugacy path of each witness pair between two vertex
  elements.  It visits search states, one for all the walks through
  parallel edges of one signature, reads each pair off the root exponents
  in integers, and searches only when one BFS over the class graph reaches
  the class of its target, so a query with no path at all costs that BFS.

Chains are :class:`ConjugacyPath` records, the one chain record of the
package.  A step is its stable letter ``('t', edge_id, ±1)``, +1 crossing
the edge from its minus end to its plus end: the chain's ratio, witness
exponents, base vertex (the vertex of ``start``) and arrowed ends (the
sides the signs of a full path's first and last letters leave and enter)
are all read off it.  Its transitions are :class:`Transfer` records,
each with its transfer conjugator theta, and :func:`_chain` builds every
chain, filling in its witness exponents and its conjugator (the thetas
interleaved with the steps) once.  The end table builds every chain, the
conjugacy solver's relation inside one vertex group (the chain with no
steps) too, and every transfer: a transfer depends only on the two words
it joins, so it builds each once per pair, from the roots it holds.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DegenerateInputError, InternalInconsistencyError
from .graphs import GraphOfGroups
from .text import Item, TLetter, step_names
from .words import FreeWord, Syllables, _root_cached, invert_letters, join_reduced

EndClass = Tuple[int, Syllables]


class Transfer(NamedTuple):
    """Witness that some conjugate of <u> meets <v>: two words at one vertex
    with one canonical primitive root, which folds in inversion, so no sign
    is left to record.  exps are the signed root exponents (k_u, k_v), and
    theta = ``transfer_conjugator`` = conj_v * conj_u^-1 satisfies theta *
    u^x * theta^-1 = v^(x * k_u / k_v) whenever that is integral."""

    u: FreeWord
    v: FreeWord
    exps: Tuple[int, int]
    transfer_conjugator: FreeWord


class ConjugacyPath(NamedTuple):
    """A certified chain carrying powers of ``start`` onto powers of ``end``.

    ``steps`` are the edges crossed, in order, each as its stable letter
    ``('t', edge_id, ±1)``: +1 crosses from the minus end to the plus end,
    -1 back.  ``transitions`` are the exponent transfers inside vertex
    groups, each a :class:`Transfer` from its ``u`` onto its ``v``: the
    entry from ``start`` onto the first inclusion word, one
    junction from each step's terminus word onto the next step's origin
    word, and the exit onto ``end``.  Crossing an edge preserves the
    exponent (stable letters conjugate one inclusion word to the other).
    A chain with no steps has one transition, a relation inside one vertex
    group.

    ``witness_exponents`` is the minimal (m, n) of
    :func:`_witness_exponents`, and ``conjugator_items`` the conjugator c
    with c * start^m * c^-1 = end^n, as a product of vertex words and
    stable letters listed left to right (the rightmost acts first): the
    steps in reverse, interleaved with the transfer conjugators.  Identity
    vertex words are dropped; stable letters of spanning-tree edges are
    kept (the engine treats them as the identity).  Both are filled in by
    :func:`_chain`, where the chain is built.
    """

    steps: Tuple[TLetter, ...]
    transitions: Tuple[Transfer, ...]
    witness_exponents: Tuple[int, int]
    conjugator_items: Tuple[Item, ...]

    @property
    def start(self) -> FreeWord:
        return self.transitions[0].u

    @property
    def end(self) -> FreeWord:
        return self.transitions[-1].v

    def ratio(self) -> Fraction:
        m, n = self.witness_exponents
        return Fraction(n, m)


_UNIT = (1, 1, 1)  # the fold of no transfer


def _fold(fold: Tuple[int, int, int], k_in: int, k_out: int) -> Tuple[int, int, int]:
    """``(num, den, m)`` after one more transfer, from root exponent k_in
    onto k_out: num / den is the running product of the transfer ratios,
    reduced, and m the lcm of its denominators so far."""
    num, den, m = fold
    num, den = num * k_in, den * k_out
    d = gcd(num, den)
    num, den = num // d, den // d
    return num, den, lcm(m, den)


def _witness_exponents(transitions: Sequence[Transfer]) -> Tuple[int, int]:
    """Minimal (m, n) with c * start^m * c^-1 = end^n along ``transitions``,
    where c is the chain's ``conjugator_items``.

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
    fold = _UNIT
    for tr in transitions:
        fold = _fold(fold, *tr.exps)
    num, den, m = fold
    return m, m // den * num


def _chain(steps: Tuple[TLetter, ...], transitions: Tuple[Transfer, ...]) -> ConjugacyPath:
    """The chain record of ``steps`` through ``transitions``: the one place
    a chain's witness exponents and conjugator are computed."""
    # transitions[i] precedes steps[i]; the exit follows the last step
    theta = transitions[-1].transfer_conjugator
    items: List[Item] = [theta] if theta.syllables else []
    for letter, tr in zip(reversed(steps), reversed(transitions[:-1])):
        items.append(letter)
        if tr.transfer_conjugator.syllables:
            items.append(tr.transfer_conjugator)
    return ConjugacyPath(steps, transitions, _witness_exponents(transitions), tuple(items))


# --------------------------------------------------------------- class graph


class _ClassGraph:
    """The end table of a graph of groups, and its class gain graph.

    One loop over the edge ends roots each end once and keeps its class,
    signed root exponent and root conjugator; every decider reads them
    here.  Two ends at a vertex overlap exactly when their words have the
    same canonical primitive root, so each end falls in a *class* (vertex
    id, primitive), and two ends share their maximal root exactly when
    they share class and conjugator.  The
    classes are the nodes; each edge joins the classes of its two ends.
    Crossing a step from its origin end to its terminus end multiplies the
    exponent by the *gain* ``k_terminus / k_origin`` of the root exponents,
    so the ratio of a chain is the product of the gains of its steps, and
    an end *carries an arrow* when ``|k| >= 2``.

    Position ``i`` describes step ``i`` and the end it leaves: steps ``2j``
    and ``2j + 1`` cross the j-th edge by id forward and backward, from its
    minus and its plus end, so ``i ^ 1`` is the reverse of step ``i`` and
    ``i >> 1`` orders steps by edge id.  Comparing two lists of step
    indices compares the chains step by step by (edge id, forward first):
    that *step order* is the lex order used throughout, and chains are
    listed shortest first, then lex.  ``node`` maps each class to its id,
    in id order, and ``out`` lists, per class, the steps leaving it in step
    order.  A step ends where its reverse starts, so its terminus word is
    ``words[i ^ 1]``.  A step's stable letter ``('t', id, ±1)`` is built
    by :meth:`letter` when a chain crosses it.

    ``roots`` holds the root of every edge end's word and of each query
    word rooted since, and ``transfers`` the transfer between each ordered
    pair of words that a chain built here joins.
    """

    def __init__(self, graph: GraphOfGroups):
        self.transfers: Dict[Tuple[FreeWord, FreeWord], Transfer] = {}
        self.roots: Dict[FreeWord, Tuple[EndClass, int, Syllables]] = {}  # (class key, exponent, conjugator)
        node: Dict[EndClass, int] = {}
        out: List[List[int]] = []
        origin: List[int] = []
        k_origin: List[int] = []
        conjugators: List[Syllables] = []
        words: List[FreeWord] = []
        for *_, minus_word, plus_word in graph.edges.values():
            # the minus end is the origin of step 2j, the plus end of 2j + 1
            for word in (minus_word, plus_word):
                conjugator, primitive, exponent = _root_cached(word.syllables)
                key = (word.vertex, primitive)
                self.roots[word] = (key, exponent, conjugator)
                c = node.setdefault(key, len(out))
                if c == len(out):
                    out.append([])
                out[c].append(len(origin))
                origin.append(c)
                k_origin.append(exponent)
                conjugators.append(conjugator)
                words.append(word)
        self.node, self.out, self.origin, self.k_origin, self.words = node, out, origin, k_origin, words
        self.conjugator = conjugators
        self.edge_ids = list(graph.edges)  # the j-th edge by id, crossed by steps 2j and 2j + 1
        # a step ends where its reverse i ^ 1 starts
        steps = range(len(origin))
        self.terminus = [origin[i ^ 1] for i in steps]
        self.k_terminus = [k_origin[i ^ 1] for i in steps]
        self.arrow_origin = [abs(k) >= 2 for k in k_origin]
        self.arrow_terminus = [self.arrow_origin[i ^ 1] for i in steps]

    def root(self, word: FreeWord) -> Tuple[EndClass, int, Syllables]:
        """The root of a nontrivial ``word``, rooted unless the table has it."""
        root = self.roots.get(word)
        if root is None:
            conjugator, primitive, exponent = _root_cached(word.syllables)
            root = self.roots[word] = ((word.vertex, primitive), exponent, conjugator)
        return root

    def transfer(self, u: FreeWord, v: FreeWord) -> Optional[Transfer]:
        """The transfer from the word ``u`` onto the word ``v``, or None when
        their roots differ; built once per ordered pair, from their roots."""
        tr = self.transfers.get((u, v))
        if tr is None:
            (key_u, k_u, conj_u), (key_v, k_v, conj_v) = self.root(u), self.root(v)
            if key_u != key_v:
                return None
            theta = FreeWord(u.vertex, join_reduced(conj_v, invert_letters(conj_u)))
            tr = self.transfers[u, v] = Transfer(u, v, (k_u, k_v), theta)
        return tr

    def certified(self, walk: Sequence[int], start: FreeWord, end: FreeWord) -> ConjugacyPath:
        """The chain of ``walk`` from the word ``start`` to the word ``end``.

        A closed chain starts and ends on its first origin word, a full path
        runs from there to its last terminus word, and the chain with no
        steps joins two words at one vertex.  A junction whose words the
        roots put in two classes names ``walk``.
        """
        words, transfers, transitions = self.words, self.transfers, []
        for pair in zip([start, *(words[i ^ 1] for i in walk)], [*(words[i] for i in walk), end]):
            tr = transfers.get(pair) or self.transfer(*pair)
            if tr is None:
                steps = " ".join(step_names(map(self.letter, walk)))
                raise InternalInconsistencyError(f"class walk joins two root classes at a junction of {steps}")
            transitions.append(tr)
        return _chain(tuple(map(self.letter, walk)), tuple(transitions))

    def letter(self, i: int) -> TLetter:
        """The stable letter of step ``i``: +1 forward, -1 backward."""
        return ("t", self.edge_ids[i >> 1], -1 if i & 1 else 1)

    # ------------------------------------------------------------ walks

    def walks(
        self,
        start: int,
        admits: Callable[[int], bool],
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

        in_tree = [False] * (len(self.origin) // 2)
        closing = []
        for i in range(0, len(self.origin), 2):
            a, b = find(self.origin[i]), find(self.terminus[i])
            if a == b:
                closing.append(i)
            else:
                leader[a] = b
                in_tree[i >> 1] = True
        up: Dict[int, int] = {}
        if not closing:  # only the tree paths of closing edges read up and depth
            return up, {}, closing
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
        for i in range(0, len(self.origin), 2):
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
        for i in range(0, len(self.origin), 2):
            if self.arrow_origin[i] and self.arrow_terminus[i]:
                return [i]
        firsts: List[int] = []
        lasts: Dict[int, List[int]] = {}
        for s in range(len(self.origin)):
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
    for start in range(0, len(index.origin), 2):
        home = index.origin[start]
        for walk in index.walks(start, admits=lambda i, least=start >> 1: i >> 1 > least):
            if index.terminus[walk[-1]] == home:
                yield walk


def enumerate_complete_paths(graph: GraphOfGroups) -> List[ConjugacyPath]:
    """All complete closed chains, deduplicated under rotation and reversal.

    Each chain starts and ends at its base word ``start``, the origin word
    of the first step of the canonical rotation; the closing overlap is
    part of the certificate, so the witness covers the full loop including
    the return to the base word.  A chain is *level* when
    ``|ratio()| = 1``; a non-level chain exhibits an unbalanced element.
    A tree (Betti number 0) has no closed edge-once walk, so it returns
    ``[]`` without walking.  The walk is exponential when many edges share
    a class; :func:`decide_chains` answers the verdicts' questions without
    it.
    """
    if graph.betti_number == 0:
        return []
    index = _ClassGraph(graph)
    walks = sorted((list(walk) for walk in _closed_chains(index)), key=lambda w: (len(w), w))
    return [index.certified(walk, index.words[walk[0]], index.words[walk[0]]) for walk in walks]


# -------------------------------------------------------- non-maximal paths


def enumerate_full_nonmaximal_paths(graph: GraphOfGroups) -> List[ConjugacyPath]:
    """All edge-once chains with arrows exactly at their two outer ends.

    An *arrow* sits at an edge end whose inclusion word is a proper power.
    The initial inclusion word (a proper power, by its arrow) travels the
    chain through maximal inclusions only and lands on another proper
    power, so the fundamental group gains a Baumslag-Solitar subgroup.
    Each path runs from the origin word of its first step to the terminus
    word of its last, the two arrowed ends.  A single edge with
    arrows at both ends is the one-step case.  Results are deduplicated
    under reversal.
    """
    index = _ClassGraph(graph)
    found = []
    for start in range(len(index.origin)):
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
    return [index.certified(walk, index.words[walk[0]], index.words[walk[-1] ^ 1]) for walk in found]


# ----------------------------------------------------------------- decisions


class ChainDecision(NamedTuple):
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
    looked for only when ``complete`` is None.  Each witness is built from
    the class graph's transfers; no other chain is built.
    """

    modulus: Tuple[Fraction, ...]
    complete: Optional[ConjugacyPath]
    nonlevel: Optional[ConjugacyPath]
    full: Optional[ConjugacyPath]


def _found(walk: Optional[List[int]], what: str) -> List[int]:
    if walk is None:
        raise InternalInconsistencyError(f"the class graph has {what} that its search did not find")
    return walk


def decide_chains(classes: _ClassGraph) -> ChainDecision:
    """Closed-chain and full-path verdicts from the end table of a graph,
    read as its class gain graph.

    A complete closed chain exists iff the class graph has a cycle (loops
    and parallel edges count).  Without one, a full non-maximal path exists
    iff some edge has arrows at both ends, or the non-arrowed ends of two
    one-arrow edges are joined by arrow-free edges.  Time is polynomial:
    union-find and one walk per fundamental cycle, one bounded BFS per edge
    for the shortest cycle, and a BFS per class for the shortest non-level
    one only when the group is unbalanced.
    """
    up, depth, closing = classes.spanning_forest()
    on_cycle = [False] * len(classes.edge_ids)
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
        path = classes.certified(full, classes.words[full[0]], classes.words[full[-1] ^ 1])
        return ChainDecision(modulus, None, None, path)

    cycle = _found(classes.shortest_cycle(on_cycle), "a cycle")
    complete = classes.certified(cycle, classes.words[cycle[0]], classes.words[cycle[0]])
    nonlevel = None
    if any(abs(r) != 1 for r in modulus):
        nonlevel = complete
        if abs(complete.ratio()) == 1:
            cycle = _found(classes.shortest_nonlevel_cycle(on_cycle), "a non-level cycle")
            nonlevel = classes.certified(cycle, classes.words[cycle[0]], classes.words[cycle[0]])
    return ChainDecision(modulus, complete, nonlevel, None)


# --------------------------------------------------------------- open search


def iter_conjugacy_paths(
    graph: GraphOfGroups, g: FreeWord, g_prime: FreeWord, classes: Optional[_ClassGraph] = None
) -> Iterator[ConjugacyPath]:
    """The first edge-once conjugacy path from g to g' of each witness
    pair, in canonical walk order: depth-first over the steps (edges by id,
    each forward and then backward), a chain before its extensions, closed
    chains back to the start vertex too.  When no edge end has the class of
    g', or one BFS from the class of g does not reach it, nothing is walked.

    A walk's *state* is its terminus class, its terminus root exponent, its
    fold through the last junction (:func:`_fold`), and how many edges of
    each *signature* it has used, the (origin class, terminus class,
    k_origin, k_terminus) of an edge's forward step.  A walk that reaches
    the state of an earlier walk is neither certified nor extended, and no
    first walk of a pair is lost.  Equal counts mean equal lengths, so in
    depth-first preorder the earlier walk's extensions are all done.  Edges
    of one signature are interchangeable in every fold, so each extension
    of the later walk maps, edge for edge, onto one of the earlier walk
    with the same pair, as the walk itself does.  So the chains yielded,
    and their order, are those of the walk over every edge-once path.  The
    memo holds one key per state visited: where few walks merge, one per
    walk, where that walk held only the current one.

    Each step tried costs one integer fold of root exponents, and a walk
    that reaches the target one more for its pair; only a walk with a new
    pair is certified.  ``classes`` is the end table of ``graph`` when the
    caller holds one.
    """
    if g.is_identity or g_prime.is_identity:
        raise DegenerateInputError("conjugacy paths connect nontrivial elements")
    if g.vertex not in graph.vertices or g_prime.vertex not in graph.vertices:
        raise DegenerateInputError("endpoints must live at vertices of the graph")

    index = _ClassGraph(graph) if classes is None else classes
    (key_start, k_start, _), (key_end, k_end, _) = index.root(g), index.root(g_prime)
    source, target = index.node.get(key_start), index.node.get(key_end)
    if source is None or target not in index._bfs(source, lambda s: True)[1]:
        return
    k_origin, k_terminus, terminus = index.k_origin, index.k_terminus, index.terminus
    # a walk's used edges counted by signature, as one integer: a field of bits per signature
    signatures = list(zip(index.origin[::2], terminus[::2], k_origin[::2], k_terminus[::2]))
    place, width = {}, 0
    for signature, total in Counter(signatures).items():
        place[signature], width = 1 << width, width + total.bit_length()
    weight = [place[signature] for signature in signatures]
    used = [False] * len(weight)
    walk: List[int] = []
    # per prefix of walk: its untried next steps, and its state but for its class
    frames = [(iter(index.out[source]), k_start, _UNIT, 0)]
    states, pairs = set(), set()
    while frames:
        steps, k_in, fold, counts = frames[-1]
        for i in steps:
            if not used[i >> 1]:
                state = (terminus[i], k_terminus[i], _fold(fold, k_in, k_origin[i]), counts + weight[i >> 1])
                if state not in states:
                    break
        else:
            frames.pop()
            if walk:
                used[walk.pop() >> 1] = False
            continue
        states.add(state)
        walk.append(i)
        used[i >> 1] = True
        here, k_in, fold, counts = state
        if here == target:
            num, den, m = _fold(fold, k_in, k_end)
            pair = (m, m // den * num)
            if pair not in pairs:
                pairs.add(pair)
                yield index.certified(walk, g, g_prime)
        frames.append((iter(index.out[here]), k_in, fold, counts))
