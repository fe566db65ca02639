"""Free-group words over a vertex alphabet.

Words are stored freely reduced, as tuples of nonzero ints: letter ``+i``
is the i-th generator of the alphabet (1-based), ``-i`` its inverse.  The
letter order used everywhere for lexicographic comparisons is declaration
order, with the inverse of a generator sorting directly after the generator
itself (a < a^-1 < b < b^-1 ...).

The cyclic-subgroup operations (root, cyclic_meet) are the primitives the
deciders are built on: in a free group every question about intersections
and conjugates of cyclic subgroups reduces to comparing primitive roots.
The normal-form engine takes no roots.  Its one primitive is the coset
split, which writes a word x as u^-k r with r the least word of the right
coset <u> x; it builds r and k together by free reduction alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from operator import eq, neg
from typing import Optional, Tuple

from .errors import AlphabetError, DegenerateInputError, InternalInconsistencyError, ParseError

Letters = Tuple[int, ...]

# The longest word a graph file or a command-line word may expand to.  A
# token ``a^k`` costs k letters, so a short file could otherwise ask for
# unbounded memory.
MAX_WORD_LETTERS = 10**6


def parse_int(text: str, signed: bool = False) -> int:
    """The integer ``[0-9]+`` spells, or ``-?[0-9]+`` when ``signed``.

    Unlike ``int``, this refuses blanks, ``+``, ``_`` and non-ASCII digits;
    like it, it raises ValueError.
    """
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Alphabet:
    """The ordered generator list of one vertex group."""

    def __init__(self, vertex: str, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate generator name in vertex {vertex!r}")
        self.vertex = vertex
        self.names = names
        self._index = {n: i + 1 for i, n in enumerate(names)}

    @property
    def rank(self) -> int:
        return len(self.names)

    def word(self, letters) -> "FreeWord":
        return FreeWord(self.vertex, reduce_letters(tuple(letters)))

    def parse(self, text: str) -> "FreeWord":
        """Parse whitespace-separated tokens: ``name``, ``name^-1``, ``name^k``.

        A word whose tokens expand to more than :data:`MAX_WORD_LETTERS`
        letters is refused before it is expanded.
        """
        letters = []
        for tok in text.split():
            if tok == "1":
                continue
            name, caret, exp = tok.partition("^")
            if name not in self._index:
                raise ParseError(f"unknown generator {name!r} (vertex {self.vertex!r})")
            k = 1
            if caret:
                try:
                    k = parse_int(exp, signed=True)
                except ValueError:
                    raise ParseError(f"bad exponent in token {tok!r}") from None
                if k == 0:
                    raise ParseError(f"zero exponent in token {tok!r}")
            if len(letters) + abs(k) > MAX_WORD_LETTERS:
                raise ParseError(
                    f"word longer than {MAX_WORD_LETTERS} letters at token {tok!r} (vertex {self.vertex!r})"
                )
            letter = self._index[name] if k > 0 else -self._index[name]
            letters.extend([letter] * abs(k))
        return FreeWord(self.vertex, reduce_letters(tuple(letters)))

    def format(self, word: "FreeWord") -> str:
        """Inverse of parse, with run-length shorthand (a a a -> ``a^3``)."""
        if word.vertex != self.vertex:
            raise AlphabetError(f"word over {word.vertex!r} formatted with alphabet {self.vertex!r}")
        if not word.letters:
            return "1"
        out = []
        for letter, run in groupby(word.letters):
            name = self.names[abs(letter) - 1]
            k = len(list(run)) if letter > 0 else -len(list(run))
            out.append(name if k == 1 else f"{name}^{k}")
        return " ".join(out)

    def __repr__(self):
        return f"Alphabet({self.vertex!r}, {self.names!r})"


def reduce_letters(letters) -> Letters:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def invert_letters(letters: Letters) -> Letters:
    return tuple(map(neg, reversed(letters)))


def _common_prefix(p: Letters, q: Letters) -> int:
    """The length of the longest common prefix of p and q.

    Bisects on slice comparisons, so the letters are compared in C and only
    O(log) steps run in Python.
    """
    lo, hi = 0, min(len(p), len(q))
    if p[:hi] == q[:hi]:
        return hi
    while hi - lo > 1:  # p[:lo] == q[:lo] and p[:hi] != q[:hi]
        mid = (lo + hi) // 2
        if p[lo:mid] == q[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def join_reduced(a: Letters, b: Letters) -> Letters:
    """``reduce_letters(a + b)`` for reduced a and b: only the seam cancels."""
    if not a or not b or a[-1] != -b[0]:
        return a + b
    m = min(len(a), len(b))
    k = _common_prefix(invert_letters(a[len(a) - m :]), b)
    return a[: len(a) - k] + b[k:]


def power_letters(letters: Letters, k: int) -> Letters:
    """The reduced word w^k of a reduced word w, built as c core^k c^-1."""
    if not k or not letters:
        return ()
    c, core = cyclic_split(letters)
    if k < 0:
        core, k = invert_letters(core), -k
    return c + core * k + invert_letters(c)


def letter_key(letter: int) -> Tuple[int, int]:
    # declaration order first, inverse after the positive letter
    return (abs(letter), 0 if letter > 0 else 1)


def letters_sort_key(letters: Letters):
    """(length, lex) key; the total order used for all canonical choices."""
    return (len(letters), tuple(letter_key(l) for l in letters))


@dataclass(frozen=True, slots=True)
class FreeWord:
    """A freely reduced word in one vertex group."""

    vertex: str
    letters: Letters

    def __post_init__(self):
        letters = self.letters
        assert not any(map(eq, letters[1:], map(neg, letters))), "FreeWord must be reduced"

    def __len__(self):
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def _check(self, other: "FreeWord"):
        if self.vertex != other.vertex:
            raise AlphabetError(f"mixed alphabets: {self.vertex!r} vs {other.vertex!r}")

    def __pow__(self, k: int) -> "FreeWord":
        return FreeWord(self.vertex, power_letters(self.letters, k))

    def conjugated_by(self, h: "FreeWord") -> "FreeWord":
        """h * self * h^-1."""
        self._check(h)
        left = join_reduced(h.letters, self.letters)
        return FreeWord(self.vertex, join_reduced(left, invert_letters(h.letters)))


def cyclic_split(letters: Letters) -> Tuple[Letters, Letters]:
    """Split a reduced word as c * core * c^-1 with core cyclically reduced.

    A reduced nonempty word always has a nonempty core.
    """
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[:i], letters[i:j]


def _smallest_period(core: Letters) -> Letters:
    n = len(core)
    for d in range(1, n + 1):
        if n % d == 0 and core == core[:d] * (n // d):
            return core[:d]
    raise AssertionError("unreachable")


@dataclass(frozen=True, slots=True)
class RootDecomposition:
    """w = conjugator * primitive^exponent * conjugator^-1, exponent != 0.

    The primitive is canonical: (length, lex)-least among all cyclic
    permutations of itself and of its inverse.  This folds inversion into the
    choice, so commensurable cyclic subgroups always share the same primitive.
    """

    conjugator: FreeWord
    primitive: FreeWord
    exponent: int


@lru_cache(maxsize=65536)
def _root_cached(letters: Letters) -> Tuple[Letters, Letters, int]:
    """(conjugator, primitive, exponent) of a nonempty reduced word, checked
    to recompose to it; see :class:`RootDecomposition`."""
    c, core = cyclic_split(letters)
    q = _smallest_period(core)
    n, bases = len(q), (q, invert_letters(q))
    # 2|l| + (l < 0) orders letters like letter_key, so the least rotation of
    # q or q^-1 is the least n-slice of these doubled keys, compared in C; it
    # starts at a least key
    doubled = [tuple(2 * abs(l) + (l < 0) for l in base) * 2 for base in bases]
    least = min(map(min, doubled))
    starts = ((d[i : i + n], s, i) for s, d in enumerate(doubled) for i in range(n) if d[i] == least)
    _, inverted, i = min(starts)
    base, k = bases[inverted], len(core) // n * (-1 if inverted else 1)
    conj, p = reduce_letters(c + base[:i]), base[i:] + base[:i]
    recomposed = join_reduced(join_reduced(conj, power_letters(p, k)), invert_letters(conj))
    if recomposed != letters:
        raise InternalInconsistencyError(f"root decomposition of {letters} does not recompose")
    return conj, p, k


def root(w: FreeWord) -> RootDecomposition:
    """Primitive root decomposition of a nontrivial word."""
    if w.is_identity:
        raise DegenerateInputError("root of the identity is undefined")
    return _checked_root(w)


# _root_cached roots and checks each distinct letter tuple once, and holds
# int tuples, which the garbage collector stops tracking.  Every
# decomposition cached here stays tracked, so tens of thousands of distinct
# words would slow every later collection; the bound keeps that cost fixed.
# The class graph reads _root_cached directly, so one op of the benchmark
# pools builds at most 14 decompositions here.
@lru_cache(maxsize=4096)
def _checked_root(w: FreeWord) -> RootDecomposition:
    conj, p, k = _root_cached(w.letters)
    return RootDecomposition(FreeWord(w.vertex, conj), FreeWord(w.vertex, p), k)


def maximal_root(w: FreeWord) -> FreeWord:
    """The generator of the maximal cyclic subgroup containing w.

    Two nontrivial words have nontrivially intersecting cyclic subgroups
    (literally, not up to conjugacy) iff their maximal roots coincide; with
    the canonical primitive the inverse case cannot occur.
    """
    r = root(w)
    return r.primitive.conjugated_by(r.conjugator)


@dataclass(frozen=True)
class CyclicMeet:
    """Witness that some conjugate of <u> meets <v> nontrivially.

    Both roots share one canonical primitive p (the inversion-folding choice
    leaves no sign to record: no element of a free group is conjugate to its
    own inverse).  exps are the signed root exponents (k_u, k_v).  The
    transfer conjugator theta is built once per meet, on first use, so every
    chain that passes the same memoised transition shares one word.
    """

    u: FreeWord
    v: FreeWord
    exps: Tuple[int, int]
    u_root: RootDecomposition
    v_root: RootDecomposition

    @cached_property
    def transfer_conjugator(self) -> FreeWord:
        """theta with theta * u^x * theta^-1 = v^(x * k_u / k_v) whenever integral."""
        return FreeWord(
            self.u_root.conjugator.vertex,
            reduce_letters(
                self.v_root.conjugator.letters + invert_letters(self.u_root.conjugator.letters)
            ),
        )


def cyclic_meet(u: FreeWord, v: FreeWord) -> Optional[CyclicMeet]:
    """Decide whether some conjugate of <u> intersects <v> nontrivially.

    Equivalently (free groups): the primitive roots are conjugate up to
    inversion.  Also decides "some power of u is conjugate into <v>".
    """
    u._check(v)
    if u.is_identity or v.is_identity:
        raise DegenerateInputError("cyclic_meet requires nontrivial words")
    ru, rv = root(u), root(v)
    if ru.primitive.letters != rv.primitive.letters:
        return None
    return CyclicMeet(u, v, (ru.exponent, rv.exponent), ru, rv)


@lru_cache(maxsize=65536)
def _coset_canonical_cached(u: Letters, x: Letters) -> Tuple[int, Letters]:
    """(k, r) with r = u^k x the (length, lex)-least word of the right coset
    <u> x, for a nonempty u; checked to recompose, in time O(|u| + |x|)."""
    # Write u = c core c^-1 and y = c^-1 x, so that u^k x = c core^k y.  In
    # the Cayley tree |u^k x| is the distance from core^-k c^-1 to y.  The
    # points core^-k lie on the axis of core, |core| apart, and each c^-1
    # hair leaves the axis at once; y runs ``run`` letters along the axis and
    # then leaves it.  So |u^k x| is |c| + |y| - run plus the distance from
    # core^-k to the exit, except at an exit point itself, where the two
    # hairs may share letters.  So only the two points nearest the exit, and
    # k = 0 (x itself), can give the least word; along the direction y runs
    # they are k = +-j for j = run // |core| and j + 1.
    c, core = cyclic_split(u)
    y = join_reduced(invert_letters(c), x)
    n = len(core)
    k, best = 0, x
    for sign, base in ((1, core), (-1, invert_letters(core))):
        # base^j y cancels min(run, j n) letters at its seam
        run = _common_prefix(y, invert_letters(base) * (len(y) // n + 1))
        for j in range(max(1, run // n), run // n + 2):
            cut = min(run, j * n)
            cand = join_reduced(c, (base * j)[: j * n - cut] + y[cut:])
            if len(cand) < len(best) or (
                len(cand) == len(best) and letters_sort_key(cand) < letters_sort_key(best)
            ):
                k, best = sign * j, cand
    if join_reduced(power_letters(u, k), x) != best:
        raise InternalInconsistencyError(f"coset split of {x} by {u} does not recompose")
    return k, best
