"""The flat normal-form engine against a copy of the engine tower it replaced.

The reference below is the previous ``gogz.engine.Engine``: one amalgam node
per spanning-tree edge and one HNN node per remaining edge, nested around a
leaf per vertex, each with its own element shape.  On random graphs whose
edge words are powers of a few shared primitives, products of vertex words
and stable letters must compare the same way in both engines, including
products that differ only by a spliced-in defining relation; and every
element must rebuild from its own atoms.
"""

import itertools
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from hypothesis import given, settings
from hypothesis import strategies as st

from gogz.engine import Engine, _item
from gogz.errors import DegenerateInputError, InternalInconsistencyError
from gogz.graphs import GraphOfGroups, SpanningTree, maximal_tree
from gogz.words import (
    FreeWord,
    Letters,
    _coset_canonical_cached,
    _root_cached,
    invert_letters,
    reduce_letters,
)
from test_paths_reference import _word, graphs, word_specs

# ------------------------------------------------------------ reference tower

Atom = Tuple  # ('w', vertex_id, letters) or ('t', edge_id, +-1)
Elem = Tuple  # nested normal form, shaped by the owning node


# ------------------------------------------------------------------- nodes


class _Leaf:
    def __init__(self, index: int, vertex_id: int, tag: str, rank: int):
        self.index = index
        self.vertex_id = vertex_id
        self.tag = tag
        self.rank = rank
        self.leaf_vids = frozenset([vertex_id])
        self.t_ids = frozenset()


class _Amalgam:
    """left *_<u> right, with u embedded as u_left in left and u_right in right."""

    def __init__(self, index, left, right, edge_id, u_left, left_origin, right_origin):
        self.index = index
        self.left = left
        self.right = right
        self.edge_id = edge_id
        self.u_left = u_left  # element of `left`
        self.left_origin = left_origin  # (vertex_id, letters) generating u in left
        self.right_origin = right_origin  # (vertex_id, letters): u as a word at the right leaf
        self.leaf_vids = left.leaf_vids | right.leaf_vids
        self.t_ids = left.t_ids


class _HNN:
    """inner extended by a stable letter: t * minus^k * t^-1 = plus^k."""

    def __init__(self, index, inner, edge_id, minus, plus, minus_origin, plus_origin):
        self.index = index
        self.inner = inner
        self.edge_id = edge_id
        self.minus = minus  # element of `inner`
        self.plus = plus
        self.minus_origin = minus_origin  # (vertex_id, letters)
        self.plus_origin = plus_origin
        self.leaf_vids = inner.leaf_vids
        self.t_ids = inner.t_ids | frozenset([edge_id])


def _word_power(letters: Letters, k: int) -> Letters:
    if k >= 0:
        return reduce_letters(letters * k)
    return reduce_letters(invert_letters(letters) * (-k))


def _leaf_cyclic_power(tag: str, u: Letters, y: Letters) -> Optional[int]:
    if not y:
        return 0
    cu, pu, ku = _root_cached(tag, u)
    cy, py, ky = _root_cached(tag, y)
    if pu != py or cu != cy or ky % ku:
        return None
    return ky // ku


# ------------------------------------------------------------------- engine


class TowerEngine:
    """Exact arithmetic for the fundamental group of one graph of groups.

    Elements are opaque nested tuples; obtain them from :meth:`embed`,
    :meth:`stable_letter` or :meth:`element_of` and combine them with
    :meth:`mul`, :meth:`inv`, :meth:`power`, :meth:`conjugate`.  Equality of
    elements is equality of the group elements they denote.
    """

    def __init__(self, graph: GraphOfGroups, tree: Optional[SpanningTree] = None):
        self.graph = graph
        self.tree = tree if tree is not None else maximal_tree(graph)
        self._decomp_cache: Dict[int, Dict] = {}
        self._u_power_cache: Dict[Tuple[int, int, int], Elem] = {}
        self._leaves: Dict[int, _Leaf] = {}
        counter = itertools.count()

        def make_leaf(vid: int) -> _Leaf:
            v = graph.vertices[vid]
            leaf = _Leaf(next(counter), vid, v.alphabet.vertex, v.rank)
            self._leaves[vid] = leaf
            return leaf

        node = make_leaf(self.tree.root)
        for step in self.tree.steps:
            edge = graph.edges[step.edge_id]
            if edge.minus_vertex == step.parent:
                parent_word, child_word = edge.minus_word, edge.plus_word
            else:
                parent_word, child_word = edge.plus_word, edge.minus_word
            child_leaf = make_leaf(step.child)
            u_left = self._embed(node, step.parent, parent_word.letters)
            node = _Amalgam(
                next(counter),
                node,
                child_leaf,
                edge.id,
                u_left,
                (step.parent, parent_word.letters),
                (step.child, child_word.letters),
            )
        for eid in self.tree.non_tree_edge_ids:
            edge = graph.edges[eid]
            minus = self._embed(node, edge.minus_vertex, edge.minus_word.letters)
            plus = self._embed(node, edge.plus_vertex, edge.plus_word.letters)
            node = _HNN(
                next(counter),
                node,
                eid,
                minus,
                plus,
                (edge.minus_vertex, edge.minus_word.letters),
                (edge.plus_vertex, edge.plus_word.letters),
            )
        self.root = node

    # ------------------------------------------------------------- identity

    def _identity(self, node) -> Elem:
        if isinstance(node, _Leaf):
            return ()
        if isinstance(node, _Amalgam):
            return (0, ())
        return (self._identity(node.inner), ())

    def _is_identity(self, node, g: Elem) -> bool:
        return g == self._identity(node)

    # ------------------------------------------------------------ factoring

    def _factor(self, node: _Amalgam, side: int):
        return node.left if side == 0 else node.right

    def _u_elem(self, node: _Amalgam, side: int) -> Elem:
        return node.u_left if side == 0 else node.right_origin[1]

    def _u_power(self, node: _Amalgam, side: int, k: int) -> Elem:
        """u^k as an element of the side's factor."""
        key = (node.index, side, k)
        cached = self._u_power_cache.get(key)
        if cached is None:
            vid, letters = node.left_origin if side == 0 else node.right_origin
            powered = _word_power(letters, k)
            cached = powered if side == 1 else self._embed(node.left, vid, powered)
            self._u_power_cache[key] = cached
        return cached

    def _sub_power(self, node: _HNN, positive: bool, k: int) -> Elem:
        """minus^k (positive=True) or plus^k as an element of the inner node."""
        key = (node.index, 2 if positive else 3, k)
        cached = self._u_power_cache.get(key)
        if cached is None:
            vid, letters = node.minus_origin if positive else node.plus_origin
            cached = self._embed(node.inner, vid, _word_power(letters, k))
            self._u_power_cache[key] = cached
        return cached

    # ------------------------------------------------------------ embedding

    def _embed(self, node, vid: int, letters: Letters) -> Elem:
        if isinstance(node, _Leaf):
            assert node.vertex_id == vid
            return letters
        if isinstance(node, _HNN):
            return (self._embed(node.inner, vid, letters), ())
        if vid == node.right.vertex_id:
            side, factor, y = 1, node.right, letters
        else:
            assert vid in node.left.leaf_vids
            side, factor, y = 0, node.left, self._embed(node.left, vid, letters)
        j, r = self._decomp(factor, self._u_elem(node, side), y)
        if self._is_identity(factor, r):
            return (j, ())
        return (j, ((side, r),))

    # --------------------------------------------------- coset decomposition

    def _decomp(self, node, w: Elem, x: Elem) -> Tuple[int, Elem]:
        """x = w^j * r with r the canonical representative of <w> x.

        The representative depends only on the coset, and the representative
        of <w> itself is the identity.  ``w`` must be an embedded edge word:
        at every level it is either a power of the identified element or
        lies in a single factor.
        """
        if isinstance(node, _Leaf):
            r = _coset_canonical_cached(node.tag, w, x)
            j = _leaf_cyclic_power(node.tag, w, reduce_letters(x + invert_letters(r)))
            assert j is not None, "coset representative differs by a power"
            return j, r
        cache = self._decomp_cache.setdefault(node.index, {})
        key = (w, x)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if isinstance(node, _Amalgam):
            out = self._decomp_amalgam(node, w, x)
        else:
            out = self._decomp_hnn(node, w, x)
        cache[key] = out
        return out

    def _decomp_amalgam(self, node: _Amalgam, w: Elem, x: Elem) -> Tuple[int, Elem]:
        kw, sw = w
        kx, sx = x
        if not sw:
            # w = u^kw: only the central power of x moves
            assert kw != 0, "decomposition against the identity"
            m = kx % abs(kw)
            return (kx - m) // kw, (m, sx)
        if len(sw) == 1:
            # w lies in one factor: it acts on the leading part of that side
            side, rep = sw[0]
            factor = self._factor(node, side)
            wf = self._mul(factor, self._u_power(node, side, kw), rep)
            if sx and sx[0][0] == side:
                f = self._mul(factor, self._u_power(node, side, kx), sx[0][1])
                tail = sx[1:]
            else:
                f = self._u_power(node, side, kx)
                tail = sx
            jf, rf = self._decomp(factor, wf, f)
            kr, rr = self._decomp(factor, self._u_elem(node, side), rf)
            if self._is_identity(factor, rr):
                return jf, (kr, tail)
            return jf, (kr, ((side, rr),) + tail)
        raise InternalInconsistencyError("edge subgroup generator is not factor-shaped")

    def _decomp_hnn(self, node: _HNN, w: Elem, x: Elem) -> Tuple[int, Elem]:
        h0w, tw = w
        if tw:
            raise InternalInconsistencyError("edge subgroup generator is not factor-shaped")
        h0x, tx = x
        j, r0 = self._decomp(node.inner, h0w, h0x)
        return j, (r0, tx)

    # ------------------------------------------------------------- atomizing

    def _atoms(self, node, g: Elem, out: List[Atom]):
        if isinstance(node, _Leaf):
            if g:
                out.append(("w", node.vertex_id, g))
            return
        if isinstance(node, _Amalgam):
            k, syls = g
            if k:
                vid, letters = node.left_origin
                out.append(("w", vid, _word_power(letters, k)))
            for side, rep in syls:
                self._atoms(self._factor(node, side), rep, out)
            return
        h0, tail = g
        self._atoms(node.inner, h0, out)
        for eps, rep in tail:
            out.append(("t", node.edge_id, eps))
            self._atoms(node.inner, rep, out)

    def atoms(self, g: Elem) -> List[Atom]:
        """g as a product of vertex words and stable letters, left to right."""
        out: List[Atom] = []
        self._atoms(self.root, g, out)
        return out

    @staticmethod
    def _inv_atom(atom: Atom) -> Atom:
        kind, idx, payload = atom
        if kind == "w":
            return ("w", idx, invert_letters(payload))
        return ("t", idx, -payload)

    # ------------------------------------------------------------ prepending

    def _prepend_atom(self, node, atom: Atom, g: Elem) -> Elem:
        if isinstance(node, _Leaf):
            assert atom[0] == "w" and atom[1] == node.vertex_id
            return reduce_letters(atom[2] + g)
        if isinstance(node, _HNN):
            if atom[0] == "t" and atom[1] == node.edge_id:
                return self._prepend_t(node, atom[2], g)
            h0, tail = g
            return (self._prepend_atom(node.inner, atom, h0), tail)
        if atom[0] == "w" and atom[1] == node.right.vertex_id:
            side = 1
            a: Elem = atom[2]
        else:
            side = 0
            a = self._elem_from_atom(node.left, atom)
        return self._prepend_syllable(node, side, a, g)

    def _prepend_syllable(self, node: _Amalgam, side: int, a: Elem, g: Elem) -> Elem:
        k, syls = g
        factor = self._factor(node, side)
        if syls and syls[0][0] == side:
            merged = self._mul(factor, a, self._mul(factor, self._u_power(node, side, k), syls[0][1]))
            rest = syls[1:]
        else:
            merged = self._mul(factor, a, self._u_power(node, side, k))
            rest = syls
        j, r = self._decomp(factor, self._u_elem(node, side), merged)
        if self._is_identity(factor, r):
            return (j, rest)
        return (j, ((side, r),) + rest)

    def _prepend_t(self, node: _HNN, eps: int, g: Elem) -> Elem:
        h0, tail = g
        sub = node.minus if eps > 0 else node.plus
        j, r = self._decomp(node.inner, sub, h0)
        emitted = self._sub_power(node, eps < 0, j)  # t^e sub^j = out^j t^e
        if self._is_identity(node.inner, r) and tail and tail[0][0] == -eps:
            merged = self._mul(node.inner, emitted, tail[0][1])
            return (merged, tail[1:])
        return (emitted, ((eps, r),) + tail)

    def _elem_from_atom(self, node, atom: Atom) -> Elem:
        if atom[0] == "w":
            return self._embed(node, atom[1], atom[2])
        return self._prepend_atom(node, atom, self._identity(node))

    # ------------------------------------------------------------ public ops

    def _mul(self, node, g: Elem, h: Elem) -> Elem:
        out: List[Atom] = []
        self._atoms(node, g, out)
        for atom in reversed(out):
            h = self._prepend_atom(node, atom, h)
        return h

    def _inv(self, node, g: Elem) -> Elem:
        out = self._identity(node)
        atoms: List[Atom] = []
        self._atoms(node, g, atoms)
        for atom in atoms:
            out = self._prepend_atom(node, self._inv_atom(atom), out)
        return out

    @property
    def identity_elem(self) -> Elem:
        return self._identity(self.root)

    def embed(self, word: FreeWord) -> Elem:
        """A vertex-group word as a group element."""
        vid = int(word.vertex)
        if vid not in self.graph.vertices:
            raise DegenerateInputError(f"word over unknown vertex {word.vertex!r}")
        return self._embed(self.root, vid, word.letters)

    def stable_letter(self, edge_id: int, exp: int = 1) -> Elem:
        """t_e^exp; tree edges have trivial stable letter."""
        if edge_id not in self.graph.edges:
            raise DegenerateInputError(f"unknown edge {edge_id}")
        out = self.identity_elem
        if edge_id not in self.root.t_ids:
            return out
        atom = ("t", edge_id, 1 if exp > 0 else -1)
        for _ in range(abs(exp)):
            out = self._prepend_atom(self.root, atom, out)
        return out

    def element_of(self, items: Sequence[Union[FreeWord, Tuple[str, int, int]]]) -> Elem:
        """Evaluate a product of vertex words and ('t', edge_id, exp) letters."""
        out = self.identity_elem
        for item in reversed(items):
            if isinstance(item, FreeWord):
                out = self._mul(self.root, self.embed(item), out)
            else:
                kind, eid, exp = item
                assert kind == "t"
                out = self._mul(self.root, self.stable_letter(eid, exp), out)
        return out

    def mul(self, *elems: Elem) -> Elem:
        out = self.identity_elem
        for g in reversed(elems):
            out = self._mul(self.root, g, out)
        return out

    def inv(self, g: Elem) -> Elem:
        return self._inv(self.root, g)

    def equal(self, g: Elem, h: Elem) -> bool:
        return g == h

    def is_identity(self, g: Elem) -> bool:
        return g == self.identity_elem


# -------------------------------------------------------------------- tests


@st.composite
def products(draw, graph):
    """A product as element_of items: vertex words and stable letters."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        if graph.edges and draw(st.integers(0, 3)) == 0:
            items.append(("t", draw(st.sampled_from(sorted(graph.edges))), draw(st.sampled_from([1, -1]))))
        else:
            vertex = graph.vertices[draw(st.sampled_from(sorted(graph.vertices)))]
            word = _word(vertex, draw(word_specs(vertex.rank)))
            if draw(st.booleans()):
                letters = draw(st.lists(st.sampled_from([1, -1, vertex.rank, -vertex.rank]), max_size=3))
                word = word * vertex.alphabet.word(letters)
            items.append(word)
    return items


@st.composite
def cases(draw):
    graph = draw(graphs())
    first = draw(products(graph))
    if graph.edges and draw(st.booleans()):
        # splice in t minus^k t^-1 plus^-k, the identity by the edge's relation
        edge = graph.edges[draw(st.sampled_from(sorted(graph.edges)))]
        k = draw(st.sampled_from([1, -1, 2]))
        relator = [("t", edge.id, 1), edge.minus_word ** k, ("t", edge.id, -1), edge.plus_word ** -k]
        at = draw(st.integers(0, len(first)))
        second = first[:at] + relator + first[at:]
    else:
        second = draw(products(graph))
    return graph, first, second


def test_equality_agrees_with_tower_reference():
    outcomes = Counter()

    @settings(max_examples=300, deadline=None)
    @given(cases())
    def agrees(case):
        graph, first, second = case
        flat, tower = Engine(graph), TowerEngine(graph)
        g, h = flat.element_of(first), flat.element_of(second)
        g_ref, h_ref = tower.element_of(first), tower.element_of(second)
        equal = flat.equal(g, h)
        assert equal == tower.equal(g_ref, h_ref)
        quotient = flat.mul(g, flat.inv(h))
        assert flat.is_identity(quotient) == tower.is_identity(tower.mul(g_ref, tower.inv(h_ref)))
        assert flat.is_identity(quotient) == equal
        for elem in (g, h, quotient):
            flat.validate_element(elem)
            assert flat.element_of([_item(a) for a in flat.atoms(elem)]) == elem
        outcomes[equal] += 1

    agrees()
    # both verdicts must occur, or the agreement says nothing
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes
