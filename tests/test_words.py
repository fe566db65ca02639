"""Word algebra: frozen examples first, then hypothesis properties."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from gogz import words
from gogz.errors import AlphabetError, DegenerateInputError, InternalInconsistencyError, ParseError
from gogz.words import (
    MAX_WORD_LETTERS,
    Alphabet,
    FreeWord,
    _coset_canonical_cached,
    cyclic_meet,
    cyclic_split,
    invert_letters,
    join_reduced,
    letter_key,
    letters_sort_key,
    maximal_root,
    parse_int,
    power_letters,
    reduce_letters,
    root,
)
from helpers import inverse, word_product

AB = Alphabet("v", ("a", "b"))
Z = Alphabet("z", ("x",))


def w(text):
    return AB.parse(text)


def recompose(dec):
    """conjugator * primitive^exponent * conjugator^-1 of a root decomposition."""
    return (dec.primitive ** dec.exponent).conjugated_by(dec.conjugator)


# ---------------------------------------------------------------- reduction


def test_reduce_cancels_pairs():
    assert reduce_letters((1, -1)) == ()
    assert reduce_letters((1, 2, -2, -1)) == ()
    assert reduce_letters((1, 2, -2, 1)) == (1, 1)


def test_parse_format_round_trip():
    cases = {
        "a^2 b^-1 a": (1, 1, -2, 1),
        "a^1980": (1,) * 1980,
        "a^-1980": (-1,) * 1980,
        "a^2 b^-3 a b^4 a^-1": (1, 1, -2, -2, -2, 1, 2, 2, 2, 2, -1),
        "b^-1 a^-2 b": (-2, -1, -1, 2),
    }
    for text, letters in cases.items():
        word = w(text)
        assert word.letters == letters
        assert AB.format(word) == text
    assert AB.format(FreeWord("v", ())) == "1"


def test_mul_inverse_pow():
    u = w("a b")
    assert word_product(u, inverse(u)).is_identity
    assert u ** 3 == w("a b a b a b")
    assert u ** -2 == inverse(u) ** 2


def test_parse_refuses_words_past_the_cap():
    # the cap counts expanded letters, across tokens, before expanding
    assert MAX_WORD_LETTERS == 10**6
    with pytest.raises(ParseError, match="longer than"):
        AB.parse(f"a^{MAX_WORD_LETTERS + 1}")
    with pytest.raises(ParseError, match="longer than"):
        AB.parse(f"b a^-{MAX_WORD_LETTERS}")


def test_mixed_alphabets_rejected():
    with pytest.raises(AlphabetError):
        w("a").conjugated_by(Z.parse("x"))


# ---------------------------------------------------------------- root

# Oracle for the frozen example: recomposition plus direct inspection.


def test_root_of_conjugated_power():
    dec = root(w("b a^2 b^-1"))
    assert dec.conjugator == w("b")
    assert dec.primitive == w("a")
    assert dec.exponent == 2
    assert recompose(dec) == w("b a^2 b^-1")


def test_root_identity_is_error():
    with pytest.raises(DegenerateInputError):
        root(FreeWord("v", ()))


def test_root_folds_inversion():
    # canonical primitive of a^-3 is still a, with a negative exponent
    dec = root(w("a^-3"))
    assert dec.primitive == w("a")
    assert dec.exponent == -3


def test_root_picks_lex_least_rotation():
    # cyclic core b a: rotations {ba, ab}, inverses {a^-1 b^-1, b^-1 a^-1};
    # letter order a < a^-1 < b < b^-1 makes ab the canonical primitive.
    dec = root(w("b a b a"))
    assert dec.primitive == w("a b")
    assert dec.exponent == 2
    assert recompose(dec) == w("b a b a")


def test_root_checks_that_its_decomposition_recomposes(monkeypatch):
    # a wrong smallest period gives p = a, k = 2 for "a b": the check must fire
    # (an lru_cache keeps no result of a call that raised)
    monkeypatch.setattr(words, "_smallest_period", lambda core: core[:1])
    words._root_cached.cache_clear()
    words._checked_root.cache_clear()
    try:
        with pytest.raises(InternalInconsistencyError, match="recompose"):
            root(w("a b"))
    finally:
        words._root_cached.cache_clear()
        words._checked_root.cache_clear()


def test_root_is_cached_per_letter_tuple():
    # the vertex does not enter the root, so one tuple is rooted once
    words._root_cached.cache_clear()
    word = w("b a^2 b^-1")
    for vertex in ("0", "1", "2"):
        dec = root(FreeWord(vertex, word.letters))
        assert dec.primitive == FreeWord(vertex, (1,)) and dec.exponent == 2
    assert words._root_cached.cache_info().misses == 1


# ---------------------------------------------------------------- conjugacy


def conjugator(u, v):
    """Some h with h u h^-1 = v for nontrivial u, v, or None.

    In a free group u ~ v iff their roots share primitive and exponent; the
    transfer conjugator of the meet then carries u onto v.
    """
    m = cyclic_meet(u, v)
    if m is None or m.exps[0] != m.exps[1]:
        return None
    return m.transfer_conjugator


def cores_rotate(u, v):
    # oracle: u ~ v iff their cyclic cores are rotations of each other
    cu, cv = cyclic_split(u.letters)[1], cyclic_split(v.letters)[1]
    return len(cu) == len(cv) and any(cu[i:] + cu[:i] == cv for i in range(len(cu)))


def test_conjugate_in_free_example():
    h = conjugator(w("a b"), w("b a"))
    assert h == w("b")
    assert w("a b").conjugated_by(h) == w("b a")


def test_conjugate_in_free_absent():
    # ab and a^-1 b^-1 have no common cyclic rotation: the subgroups meet, but
    # only with opposite exponents, so ab is conjugate to the inverse instead
    u, v = w("a b"), w("a^-1 b^-1")
    assert not cores_rotate(u, v)
    m = cyclic_meet(u, v)
    assert m is not None and m.exps == (1, -1)
    assert conjugator(u, v) is None
    assert inverse(u).conjugated_by(m.transfer_conjugator) == v


def test_conjugate_identity_cases():
    # the identity is conjugate only to itself and has no root to compare
    assert FreeWord("v", ()).conjugated_by(w("a b")) == FreeWord("v", ())
    with pytest.raises(DegenerateInputError):
        cyclic_meet(FreeWord("v", ()), FreeWord("v", ()))
    with pytest.raises(DegenerateInputError):
        cyclic_meet(w("a"), FreeWord("v", ()))
    with pytest.raises(DegenerateInputError):
        root(FreeWord("v", ()))


# ---------------------------------------------------------------- cyclic_meet


def test_cyclic_meet_example():
    # u = (ab)^2, v = b (ba)^3 b^-1; primitives both ab, exponents (2, 3)
    u = w("a b a b")
    v = word_product(w("b"), w("b a") ** 3, w("b^-1"))
    m = cyclic_meet(u, v)
    assert m is not None
    assert m.exps == (2, 3)
    # the canonical primitives coincide on the nose
    assert m.u_root.primitive == m.v_root.primitive
    # transfer conjugator carries u-powers onto v-powers: theta u^3 theta^-1 = v^2
    theta = m.transfer_conjugator
    assert (u ** 3).conjugated_by(theta) == v ** 2


def test_cyclic_meet_absent():
    assert cyclic_meet(w("a"), w("b")) is None
    assert cyclic_meet(w("a b"), w("a b^-1")) is None


def test_cyclic_meet_identity_error():
    with pytest.raises(DegenerateInputError):
        cyclic_meet(FreeWord("v", ()), w("a"))


# ---------------------------------------------------------------- cosets


def test_coset_canonical_example():
    # <a^2> a^5 b: scanning k in [-4, 4] confirms ab is the (length, lex) least
    u, x = w("a^2"), w("a^5 b")
    best = min((word_product(u ** k, x) for k in range(-4, 5)), key=lambda c: letters_sort_key(c.letters))
    assert best == w("a b")
    assert _coset_canonical_cached(u.letters, x.letters)[1] == w("a b").letters


def test_coset_canonical_distorted_conjugator():
    # u = c a c^-1 shape: the minimizer k sits far beyond |x|/|u| + 1
    conj = w("b a b a b")
    u = w("a").conjugated_by(conj)
    x = (w("a") ** -10).conjugated_by(conj)
    assert _coset_canonical_cached(u.letters, x.letters)[1] == ()


def test_coset_decompose_recomposes():
    # the engine's split of a word after a step: r = u^k x, r canonical
    u, x = w("a b"), w("a b a b a^-1")
    k, r = _coset_canonical_cached(u.letters, x.letters)
    assert (k, r) == (-2, w("a^-1").letters)
    assert word_product(u ** k, x).letters == r


def test_coset_canonical_is_cached_per_letter_pair():
    # the split reads letters only, so equal words at any vertices are split once
    words._coset_canonical_cached.cache_clear()
    u, x = w("a b").letters, w("a b a b a^-1").letters
    assert _coset_canonical_cached(u, x)[1] == _coset_canonical_cached(u, x)[1] == (-1,)
    assert words._coset_canonical_cached.cache_info().misses == 1


def test_maximal_root():
    assert maximal_root(w("b a^4 b^-1")) == w("b a b^-1")
    assert maximal_root(w("b a^-4 b^-1")) == w("b a b^-1")


# ---------------------------------------------------------------- properties

letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


def coset_canonical_reference(u, x):
    """The window search the coset split replaced: every u^k x that could be
    no longer than x, |k| |core| <= 2|x| + |core|, each reduced in full."""
    _, core = cyclic_split(u)
    bound = 2 * len(x) // len(core) + 1
    best, best_key = x, letters_sort_key(x)
    for k in range(-bound, bound + 1):
        if k == 0:
            continue
        cand = reduce_letters((u * k if k > 0 else invert_letters(u) * -k) + x)
        key = letters_sort_key(cand)
        if key < best_key:
            best, best_key = cand, key
    return best


short_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6)


@st.composite
def coset_cases(draw):
    """(u, x) with u = c core^e c^-1, often not cyclically reduced and often a
    proper power, and x close to the coset's interesting points: u^k times
    short words, or x starting with c^-1 (where u^k x cancels into c)."""
    c = reduce_letters(tuple(draw(short_st)))
    core = cyclic_split(reduce_letters(tuple(draw(short_st))))[1]
    assume(core)
    u = reduce_letters(c + core * draw(st.integers(1, 3)) + invert_letters(c))
    k = draw(st.integers(-8, 8))
    pre = draw(st.sampled_from([(), c, invert_letters(c), reduce_letters(tuple(draw(short_st)))]))
    post = reduce_letters(tuple(draw(short_st)))
    x = reduce_letters(pre + (u * k if k >= 0 else invert_letters(u) * -k) + post)
    return u, x


@settings(max_examples=500, deadline=None)
@given(coset_cases())
def test_coset_canonical_matches_window_search(case):
    u, x = case
    assert _coset_canonical_cached(u, x)[1] == coset_canonical_reference(u, x)


@given(letters_st, letters_st, st.integers(0, 12))
def test_join_reduced_is_reduction_of_concatenation(la, lb, overlap):
    a = reduce_letters(tuple(la))
    # b often starts by undoing a's tail, so the seam cancels deeply
    b = reduce_letters(invert_letters(a)[:overlap] + tuple(lb))
    assert join_reduced(a, b) == reduce_letters(a + b)


@given(letters_st, st.integers(-6, 6))
def test_power_letters_is_reduced_repetition(letters, k):
    word = reduce_letters(tuple(letters))
    expected = reduce_letters(word * k if k >= 0 else invert_letters(word) * -k)
    assert power_letters(word, k) == expected

def reduced(letters):
    return FreeWord("v", reduce_letters(tuple(letters)))


@given(letters_st, st.integers(0, 10))
def test_reduce_invariant_under_inverse_pair_insertion(letters, pos):
    base = list(letters)
    pos = min(pos, len(base))
    with_pair = base[:pos] + [1, -1] + base[pos:]
    assert reduce_letters(tuple(with_pair)) == reduce_letters(tuple(base))


@given(letters_st)
def test_reduce_idempotent(letters):
    once = reduce_letters(tuple(letters))
    assert reduce_letters(once) == once


@given(letters_st)
def test_format_then_parse_is_identity(letters):
    word = reduced(letters)
    assert AB.parse(AB.format(word)) == word


@given(letters_st)
def test_root_recomposes_and_is_primitive(letters):
    word = reduced(letters)
    if word.is_identity:
        return
    dec = root(word)
    assert abs(dec.exponent) >= 1
    assert recompose(dec) == word
    inner = root(dec.primitive)
    assert inner.primitive == dec.primitive and inner.exponent == 1


@settings(deadline=None)
@given(letters_st, letters_st, st.integers(-5, 5))
def test_coset_canonical_is_coset_invariant(lu, lx, k):
    u, x = reduced(lu), reduced(lx)
    if u.is_identity:
        return
    shifted = word_product(u ** k, x)
    j, r = _coset_canonical_cached(u.letters, x.letters)
    assert _coset_canonical_cached(u.letters, shifted.letters) == (j - k, r)


@given(letters_st, letters_st)
def test_conjugacy_witness_and_symmetry(lu, lv):
    u, v = reduced(lu), reduced(lv)
    if u.is_identity or v.is_identity:
        return
    h = conjugator(u, v)
    assert (h is not None) == cores_rotate(u, v)
    if h is not None:
        assert u.conjugated_by(h) == v
    back = conjugator(v, u)
    assert (h is None) == (back is None)


@given(letters_st, letters_st)
def test_conjugacy_detects_actual_conjugates(lu, lh):
    u, h = reduced(lu), reduced(lh)
    if u.is_identity:
        return
    v = u.conjugated_by(h)
    found = conjugator(u, v)
    assert found is not None
    assert u.conjugated_by(found) == v


@settings(deadline=None)
@given(letters_st, letters_st)
def test_coset_split_recomposes(lu, lx):
    u, x = reduced(lu), reduced(lx)
    if u.is_identity:
        return
    k, r = _coset_canonical_cached(u.letters, x.letters)
    assert word_product(u ** k, x).letters == r


@given(letters_st, letters_st)
def test_cyclic_meet_symmetric_and_certified(lu, lv):
    u, v = reduced(lu), reduced(lv)
    if u.is_identity or v.is_identity:
        return
    m = cyclic_meet(u, v)
    back = cyclic_meet(v, u)
    assert (m is None) == (back is None)
    if m is not None:
        ku, kv = m.exps
        theta = m.transfer_conjugator
        assert (u ** kv).conjugated_by(theta) == v ** ku


def root_reference(letters):
    """The rotation search _root_cached replaced: a letter_key tuple per
    rotation of the primitive q and of q^-1, the first least one kept."""
    c, core = cyclic_split(letters)
    q = next(core[:d] for d in range(1, len(core) + 1) if core == core[:d] * (len(core) // d))
    m = len(core) // len(q)
    best = None
    for source, base in ((1, q), (-1, invert_letters(q))):
        for i in range(len(base)):
            cand = base[i:] + base[:i]
            key = tuple(letter_key(l) for l in cand)
            if best is None or key < best[0]:
                best = (key, cand, source, i)
    _, p, source, i = best
    base = q if source == 1 else invert_letters(q)
    return reduce_letters(c + base[:i]), p, m if source == 1 else -m


@st.composite
def rootable_words(draw):
    """Reduced words c q^k c^-1 over ranks 1-3 from random q and c: proper
    powers when |k| > 1 or q is one, conjugates when c is not empty."""
    letters = st.sampled_from([l for g in range(1, draw(st.integers(1, 3)) + 1) for l in (g, -g)])
    q = reduce_letters(tuple(draw(st.lists(letters, min_size=1, max_size=8))))
    k = draw(st.integers(-4, 4).filter(bool))
    c = reduce_letters(tuple(draw(st.lists(letters, max_size=5))))
    word = join_reduced(join_reduced(c, power_letters(q, k)), invert_letters(c))
    assume(word)
    return word


@settings(max_examples=500)
@given(rootable_words())
def test_root_matches_the_rotation_key_search(letters):
    assert words._root_cached(letters) == root_reference(letters)


def test_parse_int_takes_ascii_digits_only():
    assert parse_int("0") == 0 and parse_int("017") == 17
    assert parse_int("-3", signed=True) == -3
    for text in ("", "-1", "+2", "1_0", " 1", "\u0663", "-"):
        with pytest.raises(ValueError):
            parse_int(text)
    for text in ("+2", "--2", "1_0", "-", "-\u0663"):
        with pytest.raises(ValueError):
            parse_int(text, signed=True)
    with pytest.raises(ParseError, match="bad exponent"):
        w("a^1_0")
