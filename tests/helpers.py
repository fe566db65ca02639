"""Plain helpers that only the tests need: word and engine arithmetic the
product has no use for, and the engine's normal-form validator.

``gogz`` keeps only what a command runs (``test_product_reach.py`` checks
that), so the conveniences the tests build their expectations from live
here, written against the public records and the engine's tables.
"""

from typing import List

from gogz.engine import Elem, Engine, Item, _reverse
from gogz.graphs import OrientedEdge
from gogz.words import FreeWord, Letters, _coset_canonical_cached, invert_letters, join_reduced, reduce_letters

# --------------------------------------------------------------------- words


def word_product(*words: FreeWord) -> FreeWord:
    """The reduced product of words over one vertex alphabet, left to right."""
    out = words[0]
    for w in words[1:]:
        out._check(w)
        out = FreeWord(out.vertex, join_reduced(out.letters, w.letters))
    return out


def inverse(w: FreeWord) -> FreeWord:
    return FreeWord(w.vertex, invert_letters(w.letters))


# --------------------------------------------------------------------- steps


def reversed_step(step: OrientedEdge) -> OrientedEdge:
    return OrientedEdge(step.edge, not step.forward)


def terminus(step: OrientedEdge) -> int:
    return step.edge.vertex(step.terminus_side)


# -------------------------------------------------------------------- engine


def conjugate(engine: Engine, h: Elem, g: Elem) -> Elem:
    """h g h^-1."""
    return engine.mul(h, g, engine.inv(h))


def atoms(engine: Engine, g: Elem) -> List[Item]:
    """g as :meth:`Engine.element_of` items, left to right: vertex words and
    stable letters ``('t', edge_id, +-1)``."""
    g0, tail = g
    out: List[Item] = [FreeWord(str(engine.tree.root), g0)] if g0 else []
    for step, rep in tail:
        if step[0] in engine.tree.non_tree_edge_ids:
            out.append(("t", step[0], -1 if step[1] else 1))
        if rep:
            out.append(FreeWord(str(engine._ends[step][2]), rep))
    return out


def validate_element(engine: Engine, g: Elem):
    """Assert the structural normal-form invariants."""
    g0, tail = g
    here = engine.tree.root
    _validate_word(engine, here, g0)
    for i, (step, rep) in enumerate(tail):
        origin, _, terminus, b = engine._ends[step]
        assert origin == here, "steps form a path"
        here = terminus
        _validate_word(engine, here, rep)
        assert _coset_canonical_cached(b, rep) == (0, rep), "reps are canonical"
        if not rep and i + 1 < len(tail):
            assert tail[i + 1][0] != _reverse(step), "no pinches"
    assert here == engine.tree.root, "the path is closed"


def _validate_word(engine: Engine, vid: int, letters: Letters):
    assert isinstance(letters, tuple)
    assert reduce_letters(letters) == letters
    rank = engine.graph.vertices[vid].rank
    assert all(1 <= abs(l) <= rank for l in letters)
