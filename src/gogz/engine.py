"""Normal-form arithmetic in the fundamental group of a graph of groups.

Elements are closed paths at the base vertex ``v0``, the root of the
graph's spanning tree ``graph.tree``, kept in Serre's normal form (*Trees*
§I.5)::

    g0 s1 r1 s2 r2 ... sn rn

``g0`` is a reduced word at ``v0``.  Each step ``s = (edge_id, forward)``
crosses one edge (forward runs from the minus end to the plus end); with
``a`` the inclusion word at the end it leaves and ``b`` the word at the end
it reaches, crossing obeys ``a^k s = s b^k``.  Each ``r`` is the canonical
representative of the right coset ``<b> r`` in the vertex group the step
reaches, and no step is followed by its reverse across an empty ``r``.
Every element has exactly one such form, so two elements are equal iff
their tuples ``(g0, ((s1, r1), ..., (sn, rn)))`` are equal.

A vertex word ``w`` at ``v`` is the path ``p w p^-1``, with ``p`` the tree
path from ``v0`` to ``v``.  The stable letter ``t`` of a non-tree edge, with
``t minus t^-1 = plus``, is the tree path to the plus end, the edge crossed
backwards, and the tree path from the minus end back to ``v0``; a tree edge's
stable letter is trivial.  One loop brings any path of words and steps into
normal form, prepending from the right: it splits the word after each step
as ``b^j r``, moves ``a^j`` across the step and cancels a step against its
reverse when ``r`` is empty.  Nothing recurses, whatever the graph's size.

Words are tuples of syllables (:mod:`gogz.words`), so a power of one
generator is one syllable whatever its exponent.  Each pass of that loop
costs time linear in the syllables of the words it touches: products of
reduced words cancel or merge only at their seam
(:func:`~gogz.words.join_reduced`), ``a^j`` is built as ``c core^j c^-1``
(:func:`~gogz.words.power_letters`), one syllable when ``a`` is a power of
one generator, and the coset split
(:func:`~gogz.words._coset_canonical_cached`) returns ``r`` together with
its exponent, so the engine takes no roots.  The split of a power of one
generator is closed-form; any other ``b`` takes the best of a few
candidates.  A multi-generator ``core^j`` still spells out j copies of the
core.  :meth:`Engine.element_of` joins its items into one path for one
pass, and walks each stable letter's closed path once per engine.
:meth:`Engine.power` of an element with no steps is one word power, with
no pass at all; any other ``g^k`` is squared, in O(log |k|) products.

This module is deliberately independent of the path machinery: it never
reads chains or balance criteria, and its brute-force conjugacy search
(:func:`iter_power_conjugacies`) only multiplies.  That makes it a referee —
every certificate produced elsewhere is replayed here before it is reported.
A relation ``w x^m w^-1 = y^n`` is replayed as ``w x^m = y^n w``: normal
forms are unique, so the two sides agree exactly when the relation holds,
and no ``w^-1`` is built.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DegenerateInputError
from .graphs import GraphOfGroups
from .text import Item
from .words import (
    FreeWord,
    Syllables,
    _coset_canonical_cached,
    invert_letters,
    join_reduced,
    letters_sort_key,
    power_letters,
)

Step = Tuple[int, bool]  # (edge_id, forward)
Elem = Tuple  # (g0, ((step, rep), ...)), see the module docstring
RawPath = Tuple  # (g0, ((step, word), ...)) with any words: a closed path

IDENTITY: Elem = ((), ())


def _reverse(step: Step) -> Step:
    return (step[0], not step[1])


# ------------------------------------------------------------------- engine


class Engine:
    """Exact arithmetic for the fundamental group of one graph of groups.

    Elements are opaque tuples; obtain them from :meth:`embed` or
    :meth:`element_of` (``element_of([])`` is the identity) and combine them
    with :meth:`mul`, :meth:`inv` and :meth:`power`.
    Equality of elements is equality of the group elements they denote.
    """

    def __init__(self, graph: GraphOfGroups):
        self.graph = graph
        self.tree = graph.tree
        self._non_tree = frozenset(self.tree.non_tree_edge_ids)
        # step -> (origin vertex, origin word a, terminus vertex, terminus word b),
        # both directions of an edge recorded by _cross when a path first crosses it
        self._ends: Dict[Step, Tuple[int, Syllables, int, Syllables]] = {}
        # vertex -> (parent, tree step from the parent)
        self._parent: Dict[int, Tuple[int, Step]] = {
            s.child: (s.parent, (s.edge_id, graph.edges[s.edge_id].minus_vertex == s.parent))
            for s in self.tree.steps
        }
        # (edge_id, exp < 0) -> the closed path of t^+-1, walked on first use
        self._stable_paths: Dict[Step, Tuple[Tuple[Step, Syllables], ...]] = {}

    # ------------------------------------------------------------ raw paths

    def _cross(self, step: Step) -> Step:
        """``step``, its edge's ends recorded for :meth:`_normal_form`."""
        if step not in self._ends:
            e = self.graph.edges[step[0]]
            minus, plus = e.minus_word.syllables, e.plus_word.syllables
            self._ends[(e.id, True)] = (e.minus_vertex, minus, e.plus_vertex, plus)
            self._ends[(e.id, False)] = (e.plus_vertex, plus, e.minus_vertex, minus)
        return step

    def _tree_path(self, vid: int) -> List[Step]:
        steps = []
        while vid != self.tree.root:
            vid, step = self._parent[vid]
            steps.append(self._cross(step))
        steps.reverse()
        return steps

    def _word_path(self, word: FreeWord) -> RawPath:
        """p w p^-1 for the tree path p from the root to the word's vertex."""
        vid = word.vertex
        if vid not in self.graph.vertices:
            raise DegenerateInputError(f"word over unknown vertex {vid!r}")
        p = self._tree_path(vid)
        if not p:
            return word.syllables, ()
        pairs = [(s, ()) for s in p]
        pairs[-1] = (p[-1], word.syllables)
        pairs += [(_reverse(s), ()) for s in reversed(p)]
        return (), pairs

    def _stable_path(self, edge_id: int, exp: int) -> Tuple[Tuple[Step, Syllables], ...]:
        """The steps of t^exp: t crosses the edge backwards; a tree edge's is trivial."""
        if edge_id not in self.graph.edges:
            raise DegenerateInputError(f"unknown edge {edge_id}")
        if edge_id not in self._non_tree:
            return ()
        step = (edge_id, exp < 0)
        once = self._stable_paths.get(step)
        if once is None:
            there, _, back, _ = self._ends[self._cross(step)]
            home = [_reverse(s) for s in reversed(self._tree_path(back))]
            once = tuple((s, ()) for s in self._tree_path(there) + [step] + home)
            self._stable_paths[step] = once
        return once * abs(exp)

    # ----------------------------------------------------------- normaliser

    def _normal_form(self, path: RawPath, onto: Elem = IDENTITY) -> Elem:
        """path * onto in normal form, for a closed path and a normal form."""
        g0, pairs = path
        head, tail = onto
        stack = list(reversed(tail))  # stack[-1] is the leftmost (step, rep)
        for step, word in reversed(pairs):
            head = join_reduced(word, head)
            _, a, _, b = self._ends[step]
            k, r = _coset_canonical_cached(b, head) if head else (0, ())
            head = power_letters(a, -k)  # r = b^k head, so s head = s b^-k r = a^-k s r
            if not r and stack and stack[-1][0] == _reverse(step):
                head = join_reduced(head, stack.pop()[1])
            else:
                stack.append((step, r))
        return join_reduced(g0, head), tuple(reversed(stack))

    # ------------------------------------------------------------ public ops

    def embed(self, word: FreeWord) -> Elem:
        """A vertex-group word as a group element."""
        return self._normal_form(self._word_path(word))

    def element_of(self, items: Sequence[Item]) -> Elem:
        """Evaluate a product of vertex words and ('t', edge_id, exp) letters
        in one normal-form pass over the items' closed paths, joined."""
        pairs: List = [(None, ())]  # pairs[0] holds g0; every path is closed
        word: List = []  # the last pair's syllables, grown in place
        for item in items:
            if isinstance(item, FreeWord):
                h0, more = self._word_path(item)
            elif item[0] == "t":
                h0, more = (), self._stable_path(item[1], item[2])
            else:
                raise DegenerateInputError(f"{item!r} is neither a vertex word nor a stable letter")
            cut = max(0, len(word) - len(h0) - 1)  # h0 cancels at most |h0| syllables, then merges one
            word[cut:] = join_reduced(tuple(word[cut:]), h0)
            if more:
                pairs[-1], word = (pairs[-1][0], tuple(word)), list(more[-1][1])
                pairs += more
        pairs[-1] = (pairs[-1][0], tuple(word))
        return self._normal_form((pairs[0][1], pairs[1:]))

    def mul(self, *elems: Elem) -> Elem:
        out = elems[-1] if elems else IDENTITY
        for g in reversed(elems[:-1]):
            out = self._normal_form(g, out)
        return out

    def inv(self, g: Elem) -> Elem:
        g0, tail = g
        if not tail:
            return invert_letters(g0), ()
        steps = [_reverse(s) for s, _ in reversed(tail)]
        words = [invert_letters(r) for _, r in reversed(tail[:-1])] + [invert_letters(g0)]
        return self._normal_form((invert_letters(tail[-1][1]), list(zip(steps, words))))

    def power(self, g: Elem, k: int) -> Elem:
        """g^k.  An element with no steps is a word at the base vertex, so
        its power is one word power; otherwise repeated squaring takes
        O(log |k|) products, none for g^1."""
        g0, tail = g
        if not tail:
            return power_letters(g0, k), ()
        if k < 0:
            g, k = self.inv(g), -k
        out = None
        while k:
            if k & 1:
                out = g if out is None else self._normal_form(g, out)
            k >>= 1
            if k:
                g = self._normal_form(g, g)
        return IDENTITY if out is None else out

    def top_length(self, g: Elem) -> int:
        """The number of steps in g's normal form.

        That is the distance g moves the base vertex in the Bass–Serre tree;
        see :func:`iter_power_conjugacies` for how it bounds the search.
        """
        return len(g[1])


# ------------------------------------------------------------- brute force


class PowerConjugacy(NamedTuple):
    """A verified relation  w x^m w^-1 = y^n  found by exhaustive search;
    ``conjugator`` is w, a product of items (``('t', edge_id, +-1)`` or words)."""

    conjugator: Tuple[Item, ...]
    m: int
    n: int


def _atom_key(atom: Item) -> Tuple:
    if isinstance(atom, FreeWord):
        return (0, atom.vertex, letters_sort_key(atom.syllables))
    return (1, atom[1], 0 if atom[2] > 0 else 1)


def _atom_pool(engine: Engine, max_letters: int) -> List[Tuple[Item, int]]:
    """All candidate atoms with their letter costs, in canonical order.

    Vertex words of each length up to ``max_letters`` (ordered by vertex,
    then (length, lex)), then stable letters of non-tree edges (by edge id,
    positive sign first).  A stable letter costs one letter.
    """
    pool: List[Tuple[Item, int]] = []
    for vertex in engine.graph.vertices.values():
        alphabet = vertex.alphabet
        frontier: List[Syllables] = [()]
        for length in range(1, max_letters + 1):
            extended = []
            for stem in frontier:
                for g in range(1, alphabet.rank + 1):
                    for sign in (1, -1):
                        if not stem or stem[-1][0] != g:
                            extended.append(stem + ((g, sign),))
                        elif (stem[-1][1] > 0) == (sign > 0):  # a longer run; else it cancels
                            extended.append(stem[:-1] + ((g, stem[-1][1] + sign),))
            pool.extend((FreeWord(alphabet.vertex, w), length) for w in extended)
            frontier = extended
    for eid in engine.tree.non_tree_edge_ids:
        pool.append((("t", eid, 1), 1))
        pool.append((("t", eid, -1), 1))
    pool.sort(key=lambda entry: _atom_key(entry[0]))
    return pool


def _compatible(atom: Item, first: Optional[Item]) -> bool:
    if first is None:
        return True
    if isinstance(atom, FreeWord) and isinstance(first, FreeWord):
        return atom.vertex != first.vertex  # else they merge into one shorter word
    if isinstance(atom, FreeWord) or isinstance(first, FreeWord):
        return True
    return not (atom[1] == first[1] and atom[2] == -first[2])  # t t^-1


def _conjugates(engine: Engine, pool, x: Elem, count: int, budget: int) -> Iterator[Tuple[Tuple[Item, ...], Elem]]:
    """Each w x w^-1 of :func:`iter_power_conjugacies` with ``count`` atoms in
    ``budget`` letters; not nested there, as a nested function calling itself is a cycle."""
    if count == 0:
        yield (), x
        return
    for atom, cost, a_elem, a_inv in pool:
        if cost > budget - (count - 1):  # every later slot needs >= 1 letter
            continue
        for seq, c in _conjugates(engine, pool, x, count - 1, budget - cost):
            if not _compatible(atom, seq[0] if seq else None):
                continue
            yield (atom,) + seq, engine.mul(a_elem, c, a_inv)


def iter_power_conjugacies(
    engine: Engine,
    x: FreeWord,
    y: FreeWord,
    max_syllables: int = 3,
    max_letters: int = 6,
    max_exp: int = 6,
) -> Iterator[PowerConjugacy]:
    """Yield every in-bounds relation w x^m w^-1 = y^n, smallest w first.

    Conjugator candidates are products of at most ``max_syllables`` atoms
    (vertex words and stable letters) with at most ``max_letters`` letters in
    total, enumerated by syllable count and then slot by slot in the order of
    :func:`_atom_pool`.  Every atom costs at least one letter, so counts past
    ``max_letters`` are never tried, however large ``max_syllables``.
    Exponents satisfy 1 <= m <= max_exp and 1 <= |n| <= max_exp, with n tried
    in the order 1, -1, 2, -2, ...

    The m-loop stops early once the powers provably outgrow every target.
    :meth:`Engine.top_length` is the distance d(x, c x) that c moves the base
    vertex x in the Bass–Serre tree.  An elliptic c has d(x, c^2 x) <=
    d(x, c x), so d(x, c^2 x) > d(x, c x) means c is hyperbolic, and then
    d(x, c^m x) grows strictly and linearly in m; once it exceeds every
    target's length no later power can equal a target.  Searching m > 0
    only loses nothing: inverting n covers negative m.
    """
    if x.is_identity or y.is_identity:
        raise DegenerateInputError("power conjugacy needs nontrivial words")
    x_elem = engine.embed(x)
    y_elem = engine.embed(y)
    targets: Dict[Elem, int] = {}
    for k in range(1, max_exp + 1):
        for n in (k, -k):
            targets.setdefault(engine.power(y_elem, n), n)
    max_top = max(engine.top_length(t) for t in targets)
    pool = []
    for atom, cost in _atom_pool(engine, max_letters):
        a_elem = engine.element_of([atom])
        pool.append((atom, cost, a_elem, engine.inv(a_elem)))

    for count in range(0, min(max_syllables, max_letters) + 1):
        for seq, c in _conjugates(engine, pool, x_elem, count, max_letters):
            p = c
            length_one = engine.top_length(c)
            tau = None
            for m in range(1, max_exp + 1):
                n = targets.get(p)
                if n is not None:
                    yield PowerConjugacy(seq, m, n)
                if m == max_exp:
                    break
                p = engine.mul(p, c)
                if m == 1:
                    tau = engine.top_length(p) - length_one
                if tau is not None and tau > 0 and engine.top_length(p) > max_top:
                    break


def brute_force_power_conjugacy(
    engine: Engine,
    x: FreeWord,
    y: FreeWord,
    max_syllables: int = 3,
    max_letters: int = 6,
    max_exp: int = 6,
) -> Optional[PowerConjugacy]:
    """The first in-bounds relation w x^m w^-1 = y^n, or None."""
    return next(iter_power_conjugacies(engine, x, y, max_syllables, max_letters, max_exp), None)
