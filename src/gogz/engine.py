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

Each pass of that loop costs time linear in the lengths of the words it
touches: products of reduced words cancel only at their seam
(:func:`~gogz.words.join_reduced`), ``a^j`` is built as ``c core^j c^-1``
(:func:`~gogz.words.power_letters`), and the coset representative is the
best of a few candidates (:func:`~gogz.words.coset_canonical`).
:meth:`Engine.element_of` joins its items into one path for one pass, and
walks each stable letter's closed path once per engine; :meth:`Engine.power`
squares, so ``g^k`` takes O(log |k|) products.

This module is deliberately independent of the path machinery: it never
reads chains or balance criteria, and its brute-force conjugacy search
(:func:`iter_power_conjugacies`) only multiplies.  That makes it a referee —
every certificate produced elsewhere is replayed here before it is reported.
A relation ``w x^m w^-1 = y^n`` is replayed as ``w x^m = y^n w``: normal
forms are unique, so the two sides agree exactly when the relation holds,
and no ``w^-1`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import DegenerateInputError
from .graphs import GraphOfGroups
from .words import (
    FreeWord,
    Letters,
    _coset_canonical_cached,
    _root_cached,
    invert_letters,
    join_reduced,
    letter_key,
    power_letters,
    reduce_letters,
)

Item = Union[FreeWord, Tuple[str, int, int]]  # a vertex word or ('t', edge_id, exp)
Step = Tuple[int, bool]  # (edge_id, forward)
Elem = Tuple  # (g0, ((step, rep), ...)), see the module docstring
RawPath = Tuple  # (g0, ((step, word), ...)) with any words: a closed path

IDENTITY: Elem = ((), ())


def _exponent_of(u: Letters, y: Letters) -> Optional[int]:
    """The j with y = u^j in the free vertex group, or None."""
    if not y:
        return 0
    cu, pu, ku = _root_cached(u)
    cy, py, ky = _root_cached(y)
    if pu != py or cu != cy or ky % ku:
        return None
    return ky // ku


def _reverse(step: Step) -> Step:
    return (step[0], not step[1])


# ------------------------------------------------------------------- engine


class Engine:
    """Exact arithmetic for the fundamental group of one graph of groups.

    Elements are opaque tuples; obtain them from :meth:`embed` or
    :meth:`element_of` (``element_of([])`` is the identity) and combine them
    with :meth:`mul`, :meth:`inv`, :meth:`power`, :meth:`conjugate`.
    Equality of elements is equality of the group elements they denote.
    """

    def __init__(self, graph: GraphOfGroups):
        self.graph = graph
        self.tree = graph.tree
        self._tags = {vid: v.alphabet.vertex for vid, v in graph.vertices.items()}
        self._non_tree = frozenset(self.tree.non_tree_edge_ids)
        # step -> (origin vertex, origin word a, terminus vertex, terminus word b)
        self._ends: Dict[Step, Tuple[int, Letters, int, Letters]] = {}
        for e in graph.edges.values():
            minus, plus = e.minus_word.letters, e.plus_word.letters
            self._ends[(e.id, True)] = (e.minus_vertex, minus, e.plus_vertex, plus)
            self._ends[(e.id, False)] = (e.plus_vertex, plus, e.minus_vertex, minus)
        # vertex -> (parent, tree step from the parent)
        self._parent: Dict[int, Tuple[int, Step]] = {
            s.child: (s.parent, (s.edge_id, graph.edges[s.edge_id].minus_vertex == s.parent))
            for s in self.tree.steps
        }
        # (edge_id, exp < 0) -> the closed path of t^+-1, walked on first use
        self._stable_paths: Dict[Step, Tuple[Tuple[Step, Letters], ...]] = {}

    # ------------------------------------------------------------ raw paths

    def _tree_path(self, vid: int) -> List[Step]:
        steps = []
        while vid != self.tree.root:
            vid, step = self._parent[vid]
            steps.append(step)
        steps.reverse()
        return steps

    def _word_path(self, word: FreeWord) -> RawPath:
        """p w p^-1 for the tree path p from the root to the word's vertex."""
        vid = int(word.vertex)
        if vid not in self.graph.vertices:
            raise DegenerateInputError(f"word over unknown vertex {word.vertex!r}")
        p = self._tree_path(vid)
        if not p:
            return word.letters, ()
        pairs = [(s, ()) for s in p]
        pairs[-1] = (p[-1], word.letters)
        pairs += [(_reverse(s), ()) for s in reversed(p)]
        return (), pairs

    def _stable_path(self, edge_id: int, exp: int) -> Tuple[Tuple[Step, Letters], ...]:
        """The steps of t^exp: t crosses the edge backwards; a tree edge's is trivial."""
        if edge_id not in self.graph.edges:
            raise DegenerateInputError(f"unknown edge {edge_id}")
        if edge_id not in self._non_tree:
            return ()
        step = (edge_id, exp < 0)
        once = self._stable_paths.get(step)
        if once is None:
            there, _, back, _ = self._ends[step]
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
        for step, letters in reversed(pairs):
            head = join_reduced(letters, head)
            _, a, _, b = self._ends[step]
            r = _coset_canonical_cached(b, head) if head else ()
            j = 0 if r == head else _exponent_of(b, join_reduced(head, invert_letters(r)))
            assert j is not None, "coset representative differs by a power"
            head = power_letters(a, j)  # s b^j r = a^j s r
            if not r and stack and stack[-1][0] == _reverse(step):
                head = join_reduced(head, stack.pop()[1])
            else:
                stack.append((step, r))
        return join_reduced(g0, head), tuple(reversed(stack))

    # ------------------------------------------------------------ public ops

    def atoms(self, g: Elem) -> List[Item]:
        """g as :meth:`element_of` items, left to right: vertex words and
        stable letters ``('t', edge_id, +-1)``."""
        g0, tail = g
        out: List[Item] = [FreeWord(self._tags[self.tree.root], g0)] if g0 else []
        for step, rep in tail:
            if step[0] in self._non_tree:
                out.append(("t", step[0], -1 if step[1] else 1))
            if rep:
                out.append(FreeWord(self._tags[self._ends[step][2]], rep))
        return out

    def embed(self, word: FreeWord) -> Elem:
        """A vertex-group word as a group element."""
        return self._normal_form(self._word_path(word))

    def element_of(self, items: Sequence[Item]) -> Elem:
        """Evaluate a product of vertex words and ('t', edge_id, exp) letters
        in one normal-form pass over the items' closed paths, joined."""
        pairs: List = [(None, ())]  # pairs[0] holds g0; every path is closed
        word: List[int] = []  # the last pair's word, grown in place
        for item in items:
            if isinstance(item, FreeWord):
                h0, more = self._word_path(item)
            else:
                assert item[0] == "t"
                h0, more = (), self._stable_path(item[1], item[2])
            cut = max(0, len(word) - len(h0))  # h0 cancels at most |h0| letters
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
        """g^k by repeated squaring: O(log |k|) products, none for g^1."""
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

    def conjugate(self, h: Elem, g: Elem) -> Elem:
        """h g h^-1."""
        return self.mul(h, g, self.inv(h))

    def top_length(self, g: Elem) -> int:
        """The number of steps in g's normal form.

        That is the distance g moves the base vertex in the Bass–Serre tree;
        see :func:`iter_power_conjugacies` for how it bounds the search.
        """
        return len(g[1])

    # ------------------------------------------------------------ validation

    def validate_element(self, g: Elem):
        """Assert the structural normal-form invariants."""
        g0, tail = g
        here = self.tree.root
        self._validate_word(here, g0)
        for i, (step, rep) in enumerate(tail):
            origin, _, terminus, b = self._ends[step]
            assert origin == here, "steps form a path"
            here = terminus
            self._validate_word(here, rep)
            assert _coset_canonical_cached(b, rep) == rep, "reps are canonical"
            if not rep and i + 1 < len(tail):
                assert tail[i + 1][0] != _reverse(step), "no pinches"
        assert here == self.tree.root, "the path is closed"

    def _validate_word(self, vid: int, letters: Letters):
        assert isinstance(letters, tuple)
        assert reduce_letters(letters) == letters
        rank = self.graph.vertices[vid].rank
        assert all(1 <= abs(l) <= rank for l in letters)


# ------------------------------------------------------------- brute force


@dataclass(frozen=True)
class PowerConjugacy:
    """A verified relation  w x^m w^-1 = y^n  found by exhaustive search.

    ``conjugator`` is the product expression for w: a tuple whose entries are
    vertex words (FreeWord) and stable letters ('t', edge_id, +-1).
    """

    conjugator: Tuple
    m: int
    n: int


def _atom_key(atom: Item) -> Tuple:
    if isinstance(atom, FreeWord):
        return (0, int(atom.vertex), len(atom.letters), tuple(letter_key(l) for l in atom.letters))
    return (1, atom[1], 0 if atom[2] > 0 else 1)


def _atom_pool(engine: Engine, max_letters: int) -> List[Tuple[Item, int]]:
    """All candidate atoms with their letter costs, in canonical order.

    Vertex words of each length up to ``max_letters`` (ordered by vertex,
    then (length, lex)), then stable letters of non-tree edges (by edge id,
    positive sign first).  A stable letter costs one letter.
    """
    pool: List[Tuple[Item, int]] = []
    for vid in sorted(engine.graph.vertices):
        alphabet = engine.graph.vertices[vid].alphabet
        frontier: List[Letters] = [()]
        for _ in range(max_letters):
            extended = []
            for stem in frontier:
                for i in range(1, alphabet.rank + 1):
                    for letter in (i, -i):
                        if stem and stem[-1] == -letter:
                            continue
                        extended.append(stem + (letter,))
            extended.sort(key=lambda w: tuple(letter_key(l) for l in w))
            pool.extend((FreeWord(alphabet.vertex, w), len(w)) for w in extended)
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
    :func:`_atom_pool`; exponents satisfy 1 <= m <= max_exp and
    1 <= |n| <= max_exp, with n tried in the order 1, -1, 2, -2, ...

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

    def conjugates(count: int, budget: int) -> Iterator[Tuple[Tuple[Item, ...], Elem]]:
        if count == 0:
            yield (), x_elem
            return
        for atom, cost, a_elem, a_inv in pool:
            if cost > budget - (count - 1):  # every later slot needs >= 1 letter
                continue
            for seq, c in conjugates(count - 1, budget - cost):
                if not _compatible(atom, seq[0] if seq else None):
                    continue
                yield (atom,) + seq, engine.mul(a_elem, c, a_inv)

    for count in range(0, max_syllables + 1):
        for seq, c in conjugates(count, max_letters):
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
    for hit in iter_power_conjugacies(engine, x, y, max_syllables, max_letters, max_exp):
        return hit
    return None
