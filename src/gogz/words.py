"""Free-group words over a vertex alphabet.

Words are stored freely reduced, as tuples of syllables ``(g, e)``: the
g-th generator of the alphabet (1-based) raised to a nonzero exponent e,
with adjacent syllables over different generators.  That form is
canonical, so tuple equality is word equality, and any power of one
generator is a single syllable: the operations here cost time in the
number of syllables, and an exponent costs its bits, not its value.
Words are reduced where they are made, not checked at run time: they enter
through :meth:`Alphabet.parse` and :meth:`Alphabet.word`, which reduce, and
every other builder keeps them reduced.  ``tests/test_product_reach.py``
checks every word the golden commands build.  :meth:`Alphabet.parse` and
:meth:`Alphabet.format` are the word grammar; :mod:`gogz.text` builds the
rest of the text grammar on them.

A word's letters are its syllables spelled out: ``(1, 3)`` is a a a and
``(1, -2)`` is a^-1 a^-1, and ``len`` counts letters.  The letter order
used everywhere for lexicographic comparisons is declaration order, with
the inverse of a generator sorting directly after the generator itself
(a < a^-1 < b < b^-1 ...); :func:`letters_sort_key` compares words letter
by letter without spelling them out.

The root decomposition ``_root_cached`` is the primitive the deciders are
built on: in a free group every question about intersections and conjugates
of cyclic subgroups reduces to comparing primitive roots.  Only the end table
of :mod:`gogz.paths` takes roots, once per edge end and query word, and it
builds every transfer between two words from them.  A root takes linear
time: the smallest period q of the
cyclically reduced core (the KMP failure function), then the least
rotation of q and of q^-1, each one Duval loop over one lex item per
syllable.
The normal-form engine takes no roots.  Its one primitive is the coset
split, which writes a word x as u^-k r with r the least word of the right
coset <u> x; it builds r and k together by free reduction alone.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, cycle
from operator import itemgetter
from typing import Tuple

from .errors import AlphabetError, InternalInconsistencyError, ParseError

Syllables = Tuple[Tuple[int, int], ...]  # a reduced word, see the module docstring
Letters = Tuple[int, ...]  # a word spelled out, +i / -i for the i-th generator / its inverse

# The longest word a graph file or a command-line word may spell out, counted
# token by token as the sum of the tokens' |k|.  Words are stored as
# syllables, so this bounds the size of the input, not the memory of the
# words built from it.
MAX_WORD_LETTERS = 10**6
# The most syllables a replayed power x^m may have: a floor on what a replay
# builds, as a power over several generators is spelled out, (a b)^k in 2k.
MAX_REPLAY_SYLLABLES = 4 * 10**6


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
    """The generator list of one vertex group, tagged with its vertex id; graphs check both."""

    def __init__(self, vertex, names):
        self.vertex = vertex
        self.names = tuple(names)
        self._index = {n: i + 1 for i, n in enumerate(self.names)}

    @property
    def rank(self) -> int:
        return len(self.names)

    def word(self, syllables) -> "FreeWord":
        return FreeWord(self.vertex, reduce_letters(syllables))

    def parse(self, text: str) -> "FreeWord":
        """Parse whitespace-separated tokens: ``name``, ``name^-1``, ``name^k``.

        Each token is one syllable, merged with the one before as it is
        read; ``k`` is read as :func:`parse_int` reads it.  A word whose
        tokens spell more than :data:`MAX_WORD_LETTERS` letters is refused.
        """
        index, out, letters = self._index, [], 0
        for tok in text.split():
            if tok == "1":
                continue
            name, caret, exp = tok.partition("^")
            g = index.get(name)
            if g is None:
                raise ParseError(f"unknown generator {name!r} (vertex '{self.vertex}')")
            k = 1
            if caret:
                digits = exp[1:] if exp[:1] == "-" else exp
                try:  # int refuses more digits than its limit
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError
                    k = int(exp)
                except ValueError:
                    raise ParseError(f"bad exponent in token {tok!r}") from None
                if k == 0:
                    raise ParseError(f"zero exponent in token {tok!r}")
            letters += abs(k)
            if letters > MAX_WORD_LETTERS:
                raise ParseError(
                    f"word longer than {MAX_WORD_LETTERS} letters at token {tok!r} (vertex '{self.vertex}')"
                )
            if out and out[-1][0] == g:
                k += out.pop()[1]
                if not k:
                    continue
            out.append((g, k))
        return FreeWord(self.vertex, tuple(out))

    def format(self, word: "FreeWord") -> str:
        """Inverse of parse, one token per syllable (a a a -> ``a^3``)."""
        if word.vertex != self.vertex:
            raise AlphabetError(f"word over '{word.vertex}' formatted with alphabet '{self.vertex}'")
        names = self.names
        return " ".join(names[g - 1] if e == 1 else f"{names[g - 1]}^{e}" for g, e in word.syllables) or "1"

    def __repr__(self):
        return f"Alphabet({self.vertex!r}, {self.names!r})"


def reduce_letters(syllables) -> Syllables:
    """Free reduction of syllables ``(g, e)``, e != 0: neighbours over one
    generator merge, and drop out when their exponents cancel."""
    out = []
    for g, e in syllables:
        if out and out[-1][0] == g:
            e += out.pop()[1]
            if not e:
                continue
        out.append((g, e))
    return tuple(out)


def invert_letters(word: Syllables) -> Syllables:
    """The inverse word: the syllables reversed, their exponents negated."""
    return tuple([(g, -e) for g, e in reversed(word)])


def _length(word: Syllables) -> int:
    """The number of letters of a word."""
    return sum(abs(e) for _, e in word)


def join_reduced(a: Syllables, b: Syllables) -> Syllables:
    """``reduce_letters(a + b)`` for reduced a and b: only the seam cancels.

    Syllables over one generator meet at the seam; the pairs that cancel
    are dropped until one pair merges or the generators differ.
    """
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    i, j = len(a) - 1, 0
    while True:  # a[i] and b[j] are over one generator
        g, e = a[i]
        e += b[j][1]
        if e:
            return a[:i] + ((g, e),) + b[j + 1 :]
        i -= 1
        j += 1
        if i < 0 or j == len(b) or a[i][0] != b[j][0]:
            return a[: i + 1] + b[j:]


def _repeat(core: Syllables, k: int) -> Syllables:
    """core^k for a cyclically reduced core and k >= 1: the copies merge at
    their seams when the core starts and ends over one generator."""
    (g, first), (h, last) = core[0], core[-1]
    if len(core) == 1:
        return ((g, first * k),)
    if g != h:
        return core * k
    return core[:-1] + (((g, last + first),) + core[1:-1]) * (k - 1) + core[-1:]


def power_letters(word: Syllables, k: int) -> Syllables:
    """The reduced word w^k of a reduced word w, built as c core^k c^-1."""
    if not k or not word:
        return ()
    if len(word) == 1:
        return ((word[0][0], word[0][1] * k),)
    c, core = cyclic_split(word)
    if k < 0:
        core, k = invert_letters(core), -k
    if not c:
        return _repeat(core, k)
    return join_reduced(join_reduced(c, _repeat(core, k)), invert_letters(c))


def power_syllables(word: Syllables, k: int) -> int:
    """The syllables of ``power_letters(word, k)``, counted without building
    it: each copy of the core after the first adds its own, less a merged seam."""
    if not k or not word:
        return 0
    _, core = cyclic_split(word)
    per_copy = 0 if len(core) == 1 else len(core) - (core[0][0] == core[-1][0])
    return len(word) + (abs(k) - 1) * per_copy


def _lex_items(word: Syllables, wrap: bool = False) -> list:
    """One item per syllable of a reduced word, such that comparing the
    items of two words compares their letters.

    Letter l of generator g has the key ``2g`` and its inverse ``2g + 1``.
    A run of r letters l followed by a letter that sorts below l, or by the
    end of the word, is ``(2 key(l), r)``: the longer run is the larger
    word.  Followed by a larger letter it is ``(2 key(l) + 1, -r)``.  The
    next syllable is over another generator, so only the generators decide
    which; the end of the word counts as generator 0.  With ``wrap`` the
    last run is followed by the first letter.
    """
    after = word[1:] + (word[:1] if wrap else ((0, 0),))
    return [
        (4 * g + (2 if e < 0 else 0), abs(e)) if h < g else (4 * g + (3 if e < 0 else 1), -abs(e))
        for (g, e), (h, _) in zip(word, after)
    ]


def letters_sort_key(word: Syllables):
    """(length, lex) key; the total order used for all canonical choices."""
    return (_length(word), _lex_items(word))


class FreeWord(tuple):
    """A freely reduced word in one vertex group, the pair (its alphabet's
    tag, syllables), which the caller reduces (see the module docstring).  Not a
    named tuple: ``len`` counts letters, which ``_make`` would misread."""

    __slots__ = ()
    vertex = property(itemgetter(0))
    syllables = property(itemgetter(1))

    def __new__(cls, vertex, syllables: Syllables):
        return tuple.__new__(cls, (vertex, syllables))

    def __getnewargs__(self):  # what copy and pickle pass to __new__
        return self[0], self[1]

    def __len__(self):
        return _length(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __pow__(self, k: int) -> "FreeWord":
        return FreeWord(self.vertex, power_letters(self.syllables, k))


def cyclic_split(word: Syllables) -> Tuple[Syllables, Syllables]:
    """Split a reduced word as c * core * c^-1 with core cyclically reduced.

    Whole end syllables cancel first; then end syllables over one generator
    with opposite signs cancel in part, and the shorter one drops out.  A
    reduced nonempty word always has a nonempty core.
    """
    i, j = 0, len(word)
    while j - i >= 2 and word[i][0] == word[j - 1][0] and word[i][1] == -word[j - 1][1]:
        i += 1
        j -= 1
    if j - i >= 2 and word[i][0] == word[j - 1][0] and (word[i][1] > 0) != (word[j - 1][1] > 0):
        (g, e), (_, f) = word[i], word[j - 1]
        t = min(abs(e), abs(f)) * (1 if e > 0 else -1)  # the part that cancels, signed like e
        head = ((g, e - t),) if e != t else ()
        tail = ((g, f + t),) if f != -t else ()
        return word[:i] + ((g, t),), head + word[i + 1 : j - 1] + tail
    return word[:i], word[i:j]


def _smallest_period(core: Syllables) -> Syllables:
    """The shortest q with core = q^m, read off the KMP failure function.

    The core must start and end over different generators, so that every
    period of its letters starts at a syllable.
    """
    fail = [0] * len(core)
    k = 0
    for i in range(1, len(core)):
        while k and core[i] != core[k]:
            k = fail[k - 1]
        if core[i] == core[k]:
            k += 1
        fail[i] = k
    d = len(core) - fail[-1]
    return core[:d] if len(core) % d == 0 else core


def _least_rotation(items: list) -> int:
    """Where the least rotation of a primitive ``items`` starts: where the
    last run of equal Lyndon factors of ``items + items`` to begin before
    position n begins (Duval's factorisation, stopped there; linear time)."""
    n = len(items)
    s = items + items
    i = 0
    while True:
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:  # s[start:j] repeats a Lyndon word of length j - k
            i += j - k
        if i >= n:
            return start


@lru_cache(maxsize=65536)
def _root_cached(word: Syllables) -> Tuple[Syllables, Syllables, int]:
    """The root decomposition (conjugator, primitive, exponent) of a
    nonempty reduced word: word = conjugator primitive^exponent
    conjugator^-1, exponent != 0, checked to recompose.

    The primitive is canonical: (length, lex)-least among all cyclic
    permutations of itself and of its inverse.  This folds inversion into
    the choice, so commensurable cyclic subgroups always share the same
    primitive, and two words generate the same maximal cyclic subgroup
    exactly when their (conjugator, primitive) pairs agree.  Linear time:
    the primitive is the lesser of the least rotations of the smallest
    period q and of q^-1, compared by their lex items."""
    c, core = cyclic_split(word)
    if len(core) == 1:  # a power of one generator
        ((g, e),) = core
        conj, p, k = c, ((g, 1),), e
    else:
        moved = core[0][0] == core[-1][0]
        if moved:
            # conjugate the last syllable round to the front, so that the
            # core starts and ends over different generators
            g, e = core[-1]
            c, core = join_reduced(c, ((g, -e),)), ((g, e + core[0][1]),) + core[1:-1]
        q = _smallest_period(core)
        # a least rotation starts at a syllable: it starts with the least
        # letter, and a run of it is followed by a larger letter
        inverse = invert_letters(q)
        items, inverse_items = _lex_items(q, wrap=True), _lex_items(inverse, wrap=True)
        i, j = _least_rotation(items), _least_rotation(inverse_items)
        sign, base = 1, q
        if inverse_items[j:] + inverse_items[:j] < items[i:] + items[:i]:
            sign, base, i = -1, inverse, j
        if moved and sign == 1 and i == 0:
            # the conjugator is c times a proper prefix of the word's own
            # period: here all of q but the moved syllable, not its inverse
            i = len(base)
        conj, p, k = join_reduced(c, base[:i]), base[i:] + base[:i], sign * (len(core) // len(q))
    recomposed = join_reduced(join_reduced(conj, power_letters(p, k)), invert_letters(conj))
    if recomposed != word:
        raise InternalInconsistencyError(f"root decomposition of {word} does not recompose")
    return conj, p, k


def _shared_run(y: Syllables, period: Syllables) -> int:
    """How many letters y shares with period^infinity, for a cyclically
    reduced period: the syllables agree up to one that differs, of which
    the common part still counts."""
    g, e = period[0]
    if len(period) == 1:  # one infinite run of g
        return abs(y[0][1]) if y and y[0][0] == g and (y[0][1] > 0) == (e > 0) else 0
    if period[-1][0] == g:  # the copies merge at their seams
        copies = chain(period[:1], cycle(period[1:-1] + ((g, period[-1][1] + e),)))
    else:
        copies = cycle(period)
    run = 0
    for (h, f), (h2, f2) in zip(y, copies):
        if h != h2 or (f > 0) != (f2 > 0):
            break
        run += min(abs(f), abs(f2))
        if f != f2:
            break
    return run


@lru_cache(maxsize=65536)
def _coset_canonical_cached(u: Syllables, x: Syllables) -> Tuple[int, Syllables]:
    """(k, r) with r = u^k x the (length, lex)-least word of the right coset
    <u> x, for a nonempty u; checked to recompose, in time linear in the
    syllables of u and x."""
    # A power of one generator, u = g^q, changes only a leading g-syllable
    # g^e of x, to g^(e + qk), so no search is needed: the least word takes
    # e to its residue mod |q| of least absolute value, and on a tie keeps
    # g^+, which sorts before g^-1.  Any other u takes the candidate search.
    if len(u) == 1:
        g, q = u[0]
        k, best = 0, x
        if x and x[0][0] == g:
            e, n = x[0][1], abs(q)
            r = e % n
            if 2 * r > n:
                r -= n
            k, best = (r - e) // q, ((g, r),) + x[1:] if r else x[1:]
    else:
        k, best = _coset_search(u, x)
    if join_reduced(power_letters(u, k), x) != best:
        raise InternalInconsistencyError(f"coset split of {x} by {u} does not recompose")
    return k, best


def _coset_search(u: Syllables, x: Syllables) -> Tuple[int, Syllables]:
    """The least word of <u> x and its k, among the few candidates that
    can be least."""
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
    y = join_reduced(invert_letters(c), x) if c else x
    n = _length(core)
    inverse = invert_letters(core)
    k, best, best_length = 0, x, _length(x)
    for sign, base, back in ((1, core, inverse), (-1, inverse, core)):
        run = _shared_run(y, back)  # base^j y cancels min(run, j n) letters at its seam
        for j in range(max(1, run // n), run // n + 2):
            cand = join_reduced(c, join_reduced(_repeat(base, j), y))
            length = _length(cand)
            if length < best_length or (
                length == best_length and letters_sort_key(cand) < letters_sort_key(best)
            ):
                k, best, best_length = sign * j, cand, length
    return k, best
