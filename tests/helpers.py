"""Plain helpers that only the tests need: word and engine arithmetic the
product has no use for, the engine's normal-form validator, and the
flat-letter word functions the syllable primitives are checked against.

``gogz`` keeps only what a command runs (``test_product_reach.py`` checks
that), so the conveniences the tests build their expectations from live
here, written against the public records and the engine's tables.
"""

import os
import resource
import subprocess
import sys
from itertools import groupby
from operator import neg
from typing import List, NamedTuple, Optional, Tuple

from gogz.engine import Elem, Engine, Item, _reverse
from gogz.errors import AlphabetError, DegenerateInputError
from gogz.graphs import MINUS, PLUS, Edge, GraphOfGroups
from gogz.paths import Transfer
from gogz.words import (
    Alphabet,
    FreeWord,
    Letters,
    Syllables,
    _coset_canonical_cached,
    _root_cached,
    invert_letters,
    join_reduced,
    reduce_letters,
)

# --------------------------------------------------------------------- words


def word_product(*words: FreeWord) -> FreeWord:
    """The reduced product of words over one vertex alphabet, left to right."""
    out = words[0]
    for w in words[1:]:
        if w.vertex != out.vertex:
            raise AlphabetError(f"mixed alphabets: {out.vertex!r} vs {w.vertex!r}")
        out = FreeWord(out.vertex, join_reduced(out.syllables, w.syllables))
    return out


def inverse(w: FreeWord) -> FreeWord:
    return FreeWord(w.vertex, invert_letters(w.syllables))


def conjugated_by(w: FreeWord, h: FreeWord) -> FreeWord:
    """h w h^-1."""
    return word_product(h, w, inverse(h))


def word_of(alphabet: Alphabet, letters) -> FreeWord:
    """The reduced word that flat letters spell at an alphabet's vertex."""
    return alphabet.word(syllables_of(letters))


class RootDecomposition(NamedTuple):
    """w = conjugator * primitive^exponent * conjugator^-1, exponent != 0,
    with the canonical primitive of :func:`gogz.words._root_cached`."""

    conjugator: FreeWord
    primitive: FreeWord
    exponent: int


def root(w: FreeWord) -> RootDecomposition:
    """Primitive root decomposition of a nontrivial word."""
    if w.is_identity:
        raise DegenerateInputError("root of the identity is undefined")
    conj, p, k = _root_cached(w.syllables)
    return RootDecomposition(FreeWord(w.vertex, conj), FreeWord(w.vertex, p), k)


def maximal_root(w: FreeWord) -> FreeWord:
    """The generator of the maximal cyclic subgroup containing w.

    Two nontrivial words have nontrivially intersecting cyclic subgroups
    (literally, not up to conjugacy) iff their maximal roots coincide; with
    the canonical primitive the inverse case cannot occur.
    """
    r = root(w)
    return conjugated_by(r.primitive, r.conjugator)


def cyclic_meet(u: FreeWord, v: FreeWord) -> Optional[Transfer]:
    """The transfer from u onto v read off their roots directly, or None
    when their canonical primitive roots differ: the reference that the
    end table's transfers are checked against.

    Some conjugate of <u> meets <v> nontrivially exactly when the
    primitives agree, and theta = conj_v conj_u^-1 carries u^(k_v) onto
    v^(k_u) for the root exponents (k_u, k_v).
    """
    ru, rv = root(u), root(v)
    if ru.primitive != rv.primitive:
        return None
    return Transfer(u, v, (ru.exponent, rv.exponent), word_product(rv.conjugator, inverse(ru.conjugator)))


# ---------------------------------------------------------- flat-letter oracles
#
# Words spelled out letter by letter, +i for the i-th generator and -i for
# its inverse.  Each is the plain definition, or a letter-level search that
# a syllable primitive must agree with.


def spell(word: Syllables) -> Letters:
    """The letters of a syllable word."""
    return tuple(l for g, e in word for l in [g if e > 0 else -g] * abs(e))


def syllables_of(letters) -> Syllables:
    """The syllables of the free reduction of flat letters."""
    return tuple((abs(l), len(list(run)) * (1 if l > 0 else -1)) for l, run in groupby(flat_reduce(letters)))


def flat_reduce(letters) -> Letters:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def flat_invert(letters: Letters) -> Letters:
    return tuple(map(neg, reversed(letters)))


def flat_power(letters: Letters, k: int) -> Letters:
    return flat_reduce(letters * k if k >= 0 else flat_invert(letters) * -k)


def flat_cyclic_split(letters: Letters):
    """(c, core) with letters = c core c^-1 and core cyclically reduced."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[:i], letters[i:j]


def letter_key(letter: int):
    """Declaration order first, the inverse after the positive letter."""
    return (abs(letter), 0 if letter > 0 else 1)


def flat_sort_key(letters: Letters):
    """(length, lex) key, letter by letter."""
    return (len(letters), tuple(letter_key(l) for l in letters))


def flat_root(letters: Letters):
    """(conjugator, primitive, exponent) of a nonempty reduced word by the
    search the syllable root replaced: the smallest period by trial
    division, then the least n-slice, starting at a least letter, of the
    doubled keys of the period and of its inverse."""
    c, core = flat_cyclic_split(letters)
    n = next(d for d in range(1, len(core) + 1) if len(core) % d == 0 and core == core[:d] * (len(core) // d))
    q = core[:n]
    bases = (q, flat_invert(q))
    doubled = [tuple(2 * abs(l) + (l < 0) for l in base) * 2 for base in bases]
    least = min(map(min, doubled))
    starts = ((d[i : i + n], s, i) for s, d in enumerate(doubled) for i in range(n) if d[i] == least)
    _, inverted, i = min(starts)
    base = bases[inverted]
    return flat_reduce(c + base[:i]), base[i:] + base[:i], len(core) // n * (-1 if inverted else 1)


def flat_coset_canonical(u: Letters, x: Letters) -> Letters:
    """The least word of the coset <u> x by a window search: every u^k x
    that could be no longer than x, |k| |core| <= 2|x| + |core|, each
    reduced in full."""
    _, core = flat_cyclic_split(u)
    bound = 2 * len(x) // len(core) + 1
    best, best_key = x, flat_sort_key(x)
    for k in range(-bound, bound + 1):
        cand = flat_reduce(flat_power(u, k) + x)
        if flat_sort_key(cand) < best_key:
            best, best_key = cand, flat_sort_key(cand)
    return best


# --------------------------------------------------------------------- steps


class Step(NamedTuple):
    """An edge together with a direction of travel (forward = minus to
    plus): the record the reference walks step along, where the product
    keeps only the step's stable letter."""

    edge: Edge
    forward: bool = True

    @property
    def origin_side(self) -> int:
        return MINUS if self.forward else PLUS

    @property
    def terminus_side(self) -> int:
        return PLUS if self.forward else MINUS

    @property
    def origin(self) -> int:
        return self.edge.vertex(self.origin_side)

    @property
    def origin_word(self) -> FreeWord:
        return self.edge.word(self.origin_side)

    @property
    def terminus_word(self) -> FreeWord:
        return self.edge.word(self.terminus_side)

    @property
    def letter(self) -> Tuple[str, int, int]:
        """The step as a :class:`~gogz.paths.ConjugacyPath` lists it: its
        stable letter ``('t', edge_id, ±1)``."""
        return ("t", self.edge.id, 1 if self.forward else -1)


def oriented_edges(graph: GraphOfGroups) -> List[Step]:
    """Every step of the graph, in the class graph's step order: the edges
    by id, each forward and then backward."""
    return [Step(e, fwd) for e in graph.edges.values() for fwd in (True, False)]


def steps_of(graph: GraphOfGroups, path) -> Tuple[Step, ...]:
    """The steps of a chain, read back off its stable letters."""
    return tuple(Step(graph.edges[eid], sign == 1) for _, eid, sign in path.steps)


def reversed_step(step: Step) -> Step:
    return Step(step.edge, not step.forward)


def terminus(step: Step) -> int:
    return step.edge.vertex(step.terminus_side)


# -------------------------------------------------------------------- engine


def conjugate(engine: Engine, h: Elem, g: Elem) -> Elem:
    """h g h^-1."""
    return engine.mul(h, g, engine.inv(h))


def atoms(engine: Engine, g: Elem) -> List[Item]:
    """g as :meth:`Engine.element_of` items, left to right: vertex words and
    stable letters ``('t', edge_id, +-1)``."""
    g0, tail = g
    out: List[Item] = [FreeWord(engine.tree.root, g0)] if g0 else []
    for step, rep in tail:
        if step[0] in engine.tree.non_tree_edge_ids:
            out.append(("t", step[0], -1 if step[1] else 1))
        if rep:
            out.append(FreeWord(engine._ends[step][2], rep))
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


def _validate_word(engine: Engine, vid: int, word: Syllables):
    assert isinstance(word, tuple)
    assert reduce_letters(word) == word and all(e for _, e in word)
    rank = engine.graph.vertices[vid].rank
    assert all(1 <= g <= rank for g, _ in word)


# ----------------------------------------------------------------- children


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def run_capped(args: List[str], timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` in a child whose address space is capped at 512 MiB,
    importing ``gogz`` from where this interpreter does."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=timeout, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
