"""Word algebra: frozen examples first, then hypothesis properties."""

import copy
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from gogz import words
from gogz.errors import AlphabetError, DegenerateInputError, InternalInconsistencyError, ParseError
from gogz.graphs import parse_graph
from gogz.paths import enumerate_complete_paths
from gogz.words import (
    MAX_WORD_LETTERS,
    Alphabet,
    FreeWord,
    _coset_canonical_cached,
    cyclic_split,
    invert_letters,
    join_reduced,
    letters_sort_key,
    parse_int,
    power_letters,
    reduce_letters,
)
from helpers import (
    flat_coset_canonical,
    flat_cyclic_split,
    flat_invert,
    flat_power,
    flat_reduce,
    flat_root,
    flat_sort_key,
    conjugated_by,
    cyclic_meet,
    inverse,
    maximal_root,
    root,
    spell,
    syllables_of,
    word_product,
)

AB = Alphabet("v", ("a", "b"))
Z = Alphabet("z", ("x",))


def w(text):
    return AB.parse(text)


def recompose(dec):
    """conjugator * primitive^exponent * conjugator^-1 of a root decomposition."""
    return conjugated_by(dec.primitive ** dec.exponent, dec.conjugator)


# ---------------------------------------------------------------- reduction


def test_reduce_cancels_pairs():
    # syllables over one generator merge, and drop out when they cancel
    assert reduce_letters(((1, 1), (1, -1))) == ()
    assert reduce_letters(((1, 1), (2, 1), (2, -1), (1, -1))) == ()
    assert reduce_letters(((1, 1), (2, 1), (2, -1), (1, 1))) == ((1, 2),)
    assert reduce_letters(((1, 3), (2, 2), (2, -2), (1, -1))) == ((1, 2),)


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
        assert spell(word.syllables) == letters
        assert len(word) == len(letters)
        assert AB.format(word) == text
    assert w("a^1980").syllables == ((1, 1980),)
    assert w("a^2 a^-3 b b").syllables == ((1, -1), (2, 2))
    assert AB.format(FreeWord("v", ())) == "1"


def test_mul_inverse_pow():
    u = w("a b")
    assert word_product(u, inverse(u)).is_identity
    assert u ** 3 == w("a b a b a b")
    assert u ** -2 == inverse(u) ** 2


def test_parse_refuses_words_past_the_cap():
    # the cap counts the letters tokens spell, across tokens, before reducing
    assert MAX_WORD_LETTERS == 10**6
    assert len(AB.parse(f"a^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    assert len(AB.parse(f"a^{MAX_WORD_LETTERS - 1} b")) == MAX_WORD_LETTERS
    assert AB.parse(f"1 a^{MAX_WORD_LETTERS // 2} a^-{MAX_WORD_LETTERS // 2}").is_identity
    with pytest.raises(ParseError, match="longer than"):
        AB.parse(f"a^{MAX_WORD_LETTERS + 1}")
    with pytest.raises(ParseError, match="longer than"):
        AB.parse(f"b a^-{MAX_WORD_LETTERS}")


ABC = Alphabet("r", ("a", "b", "c"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("a d^2", "unknown generator 'd' (vertex 'r')"),
        ("a^", "bad exponent in token 'a^'"),
        ("a^+2", "bad exponent in token 'a^+2'"),
        ("a^\u0662", "bad exponent in token 'a^\u0662'"),
        ("b a^0", "zero exponent in token 'a^0'"),
        ("a^-0", "zero exponent in token 'a^-0'"),
        # the first refusal wins, in token order
        ("a^0 d", "zero exponent in token 'a^0'"),
        # one letter past the cap, counted before the tokens cancel
        (f"a^{MAX_WORD_LETTERS - 1} a^-1 b", "word longer than 1000000 letters at token 'b' (vertex 'r')"),
        ("c^-1000001", "word longer than 1000000 letters at token 'c^-1000001' (vertex 'r')"),
    ],
)
def test_parse_refusals(text, message):
    with pytest.raises(ParseError) as err:
        ABC.parse(text)
    assert err.value.message == message


@st.composite
def token_texts(draw):
    """Token text over ABC and the letters it spells: runs of one
    generator, signed exponents, the identity token and cancelling
    neighbours, joined by assorted blanks."""
    tokens, letters = [], []
    for _ in range(draw(st.integers(0, 10))):
        g = draw(st.integers(1, 3))
        name = "abc"[g - 1]
        kind = draw(st.sampled_from(["letter", "power", "one", "run", "cancel"]))
        if kind == "one":
            tokens.append("1")
        elif kind == "letter":
            tokens.append(name)
            letters.append(g)
        else:
            k = draw(st.integers(-4, 4).filter(bool))
            count = draw(st.integers(2, 3)) if kind == "run" else 1
            tokens += [f"{name}^{k}"] * count
            letters += [g if k > 0 else -g] * (abs(k) * count)
            if kind == "cancel":
                tokens.append(f"{name}^{-k}")
                letters += [-g if k > 0 else g] * abs(k)
    blank = draw(st.sampled_from([" ", "  ", "\t", " \n "]))
    return blank.join(tokens), letters


@settings(max_examples=300)
@given(token_texts())
def test_parse_reduces_as_it_reads(case):
    text, letters = case
    assert ABC.parse(text) == FreeWord("r", syllables_of(flat_reduce(letters)))


def test_words_are_values():
    u, again = w("a b^2"), FreeWord("v", ((1, 1), (2, 2)))
    assert u == again and hash(u) == hash(again) and u is not again
    # the same syllables over another vertex make another word
    assert FreeWord("z", u.syllables) != u
    assert len({u, again, FreeWord("z", u.syllables)}) == 2
    meet, meet_again = (cyclic_meet(w("a^2"), w("b a^3 b^-1")) for _ in range(2))
    assert meet == meet_again and hash(meet) == hash(meet_again) and meet is not meet_again
    assert meet != cyclic_meet(w("a^2"), w("b a^-3 b^-1"))
    # a chain record holds its derived values as fields
    (path,) = enumerate_complete_paths(parse_graph('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^3"'))
    fields = ((u, "vertex"), (u, "syllables"), (meet, "exps"), (path, "witness_exponents"))
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        del meet.u
    for value in (u, meet, path):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)


def test_mixed_alphabets_rejected():
    with pytest.raises(AlphabetError):
        Z.format(w("a"))


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
    try:
        with pytest.raises(InternalInconsistencyError, match="recompose"):
            root(w("a b"))
    finally:
        words._root_cached.cache_clear()


def test_root_is_cached_per_letter_tuple():
    # the vertex does not enter the root, so one syllable tuple is rooted once
    words._root_cached.cache_clear()
    word = w("b a^2 b^-1")
    for vertex in ("0", "1", "2"):
        dec = root(FreeWord(vertex, word.syllables))
        assert dec.primitive == FreeWord(vertex, ((1, 1),)) and dec.exponent == 2
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
    cu, cv = flat_cyclic_split(spell(u.syllables))[1], flat_cyclic_split(spell(v.syllables))[1]
    return len(cu) == len(cv) and any(cu[i:] + cu[:i] == cv for i in range(len(cu)))


def test_conjugate_in_free_example():
    h = conjugator(w("a b"), w("b a"))
    assert h == w("b")
    assert conjugated_by(w("a b"), h) == w("b a")


def test_conjugate_in_free_absent():
    # ab and a^-1 b^-1 have no common cyclic rotation: the subgroups meet, but
    # only with opposite exponents, so ab is conjugate to the inverse instead
    u, v = w("a b"), w("a^-1 b^-1")
    assert not cores_rotate(u, v)
    m = cyclic_meet(u, v)
    assert m is not None and m.exps == (1, -1)
    assert conjugator(u, v) is None
    assert conjugated_by(inverse(u), m.transfer_conjugator) == v


def test_conjugate_identity_cases():
    # the identity is conjugate only to itself and has no root to compare
    assert conjugated_by(FreeWord("v", ()), w("a b")) == FreeWord("v", ())
    with pytest.raises(DegenerateInputError):
        cyclic_meet(FreeWord("v", ()), FreeWord("v", ()))
    with pytest.raises(DegenerateInputError):
        cyclic_meet(w("a"), FreeWord("v", ()))
    with pytest.raises(DegenerateInputError):
        root(FreeWord("v", ()))


# ------------------------------------------------- cyclic_meet (the reference)


def test_cyclic_meet_example():
    # u = (ab)^2, v = b (ba)^3 b^-1; primitives both ab, exponents (2, 3)
    u = w("a b a b")
    v = word_product(w("b"), w("b a") ** 3, w("b^-1"))
    m = cyclic_meet(u, v)
    assert m is not None
    assert m.exps == (2, 3)
    # the canonical primitives coincide on the nose
    assert root(u).primitive == root(v).primitive
    # transfer conjugator carries u-powers onto v-powers: theta u^3 theta^-1 = v^2
    theta = m.transfer_conjugator
    assert conjugated_by(u ** 3, theta) == v ** 2


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
    best = min((word_product(u ** k, x) for k in range(-4, 5)), key=lambda c: letters_sort_key(c.syllables))
    assert best == w("a b")
    assert _coset_canonical_cached(u.syllables, x.syllables)[1] == w("a b").syllables


def test_coset_canonical_distorted_conjugator():
    # u = c a c^-1 shape: the minimizer k sits far beyond |x|/|u| + 1
    conj = w("b a b a b")
    u = conjugated_by(w("a"), conj)
    x = conjugated_by(w("a") ** -10, conj)
    assert _coset_canonical_cached(u.syllables, x.syllables)[1] == ()


def test_coset_decompose_recomposes():
    # the engine's split of a word after a step: r = u^k x, r canonical
    u, x = w("a b"), w("a b a b a^-1")
    k, r = _coset_canonical_cached(u.syllables, x.syllables)
    assert (k, r) == (-2, w("a^-1").syllables)
    assert word_product(u ** k, x).syllables == r


def test_coset_canonical_is_cached_per_letter_pair():
    # the split reads syllables only, so equal words at any vertices are split once
    words._coset_canonical_cached.cache_clear()
    u, x = w("a b").syllables, w("a b a b a^-1").syllables
    assert _coset_canonical_cached(u, x)[1] == _coset_canonical_cached(u, x)[1] == ((1, -1),)
    assert words._coset_canonical_cached.cache_info().misses == 1


def test_maximal_root():
    assert maximal_root(w("b a^4 b^-1")) == w("b a b^-1")
    assert maximal_root(w("b a^-4 b^-1")) == w("b a b^-1")


# ---------------------------------------------------------------- properties
#
# Words are drawn as flat letters and checked against the flat-letter
# oracles in ``helpers``; ``syllables_of`` turns them into stored words.

letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


@st.composite
def run_letters(draw, rank=3, max_runs=6, max_run=12):
    """Reduced flat letters drawn as runs of one letter, often long, so that
    neighbouring runs of one generator cancel in part."""
    letters = []
    for _ in range(draw(st.integers(0, max_runs))):
        g = draw(st.integers(1, rank)) * draw(st.sampled_from([1, -1]))
        letters += [g] * draw(st.one_of(st.integers(1, 3), st.integers(1, max_run)))
    return flat_reduce(letters)


short_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6)


@st.composite
def coset_cases(draw):
    """(u, x) with u = c core^e c^-1, often not cyclically reduced and often a
    proper power, and x close to the coset's interesting points: u^k times
    short words, or x starting with c^-1 (where u^k x cancels into c).  Runs
    make cores of one syllable and hairs that cancel in part."""
    words = st.one_of(short_st.map(flat_reduce), run_letters(max_runs=3, max_run=6))
    c = draw(words)
    core = flat_cyclic_split(draw(words))[1]
    assume(core)
    u = flat_reduce(c + core * draw(st.integers(1, 3)) + flat_invert(c))
    k = draw(st.integers(-8, 8))
    pre = draw(st.sampled_from([(), c, flat_invert(c), draw(words)]))
    x = flat_reduce(pre + flat_power(u, k) + draw(words))
    return u, x


@st.composite
def one_syllable_cosets(draw):
    """(u, x) with u = g^q, 1 <= |q| <= 6 (an even q ties two residues),
    and x led by a g-run of either sign, often far longer than |q|, by
    another letter (a run of 0), or empty."""
    g = draw(st.integers(1, 3))
    q = draw(st.integers(-6, 6).filter(bool))
    run = draw(st.one_of(st.integers(-6, 6), st.integers(-60, 60)))
    rest = draw(st.one_of(st.just([]), run_letters()))
    x = flat_reduce((g if run > 0 else -g,) * abs(run) + tuple(rest))
    return (g if q > 0 else -g,) * abs(q), x


@settings(max_examples=1000, deadline=None)
@given(st.one_of(coset_cases(), one_syllable_cosets()))
def test_coset_canonical_matches_window_search(case):
    # one-syllable u takes the closed form, any other u the candidate search
    u, x = case
    k, r = _coset_canonical_cached(syllables_of(u), syllables_of(x))
    assert spell(r) == flat_coset_canonical(u, x)
    assert r == syllables_of(flat_power(u, k) + x)


@pytest.mark.parametrize(
    "u,x,expected",
    [
        ("a^4", "a^6", (-1, "a^2")),  # a tie keeps the positive residue
        ("a^4", "a^-2", (1, "a^2")),
        ("a^-4", "a^6 b", (1, "a^2 b")),
        ("a^3", "a^-7 b", (2, "a^-1 b")),
        ("a^3", "a^6 b", (-2, "b")),
        ("a^2", "b a", (0, "b a")),
        ("a^4", "1", (0, "1")),
    ],
)
def test_one_syllable_coset_split_examples(u, x, expected):
    k, r = expected
    assert _coset_canonical_cached(w(u).syllables, w(x).syllables) == (k, w(r).syllables)


@given(st.lists(st.tuples(st.integers(1, 2), st.integers(-4, 4).filter(bool)), max_size=10))
def test_reduce_matches_flat_reduction(raw):
    # raw syllables: neighbours over one generator, which merge or cancel
    assert spell(reduce_letters(raw)) == flat_reduce(spell(raw))


@given(run_letters(), run_letters(), st.integers(0, 40))
def test_join_reduced_is_reduction_of_concatenation(a, lb, overlap):
    # b often starts by undoing a's tail, so the seam cancels deeply, and
    # in part when the overlap ends inside a run
    b = flat_reduce(flat_invert(a)[:overlap] + lb)
    assert join_reduced(syllables_of(a), syllables_of(b)) == syllables_of(a + b)


@given(run_letters())
def test_invert_matches_flat_inverse(letters):
    assert invert_letters(syllables_of(letters)) == syllables_of(flat_invert(letters))


@given(run_letters(), st.integers(-6, 6))
def test_power_letters_is_reduced_repetition(letters, k):
    assert power_letters(syllables_of(letters), k) == syllables_of(flat_power(letters, k))


@given(run_letters(), run_letters(max_runs=2))
def test_cyclic_split_matches_flat_split(letters, hair):
    # a hair that ends inside a run of the word's ends cancels in part
    word = flat_reduce(hair + letters + flat_invert(hair))
    c, core = cyclic_split(syllables_of(word))
    assert (spell(c), spell(core)) == flat_cyclic_split(word)


@given(run_letters(max_run=4), run_letters(max_run=4), st.integers(0, 12))
def test_sort_key_orders_like_letters(a, lb, cut):
    # b shares a prefix with a that may end inside a run
    b = flat_reduce(a[:cut] + lb)
    ka, kb = letters_sort_key(syllables_of(a)), letters_sort_key(syllables_of(b))
    fa, fb = flat_sort_key(a), flat_sort_key(b)
    assert (ka < kb, ka == kb) == (fa < fb, fa == fb)


def reduced(letters):
    return FreeWord("v", syllables_of(letters))


@given(letters_st, st.integers(0, 10))
def test_reduce_invariant_under_inverse_pair_insertion(letters, pos):
    base = [(abs(l), 1 if l > 0 else -1) for l in letters]
    pos = min(pos, len(base))
    with_pair = base[:pos] + [(1, 2), (1, -2)] + base[pos:]
    assert reduce_letters(with_pair) == reduce_letters(base)


@given(letters_st)
def test_reduce_idempotent(letters):
    once = reduce_letters([(abs(l), 1 if l > 0 else -1) for l in letters])
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
    j, r = _coset_canonical_cached(u.syllables, x.syllables)
    assert _coset_canonical_cached(u.syllables, shifted.syllables) == (j - k, r)


@given(letters_st, letters_st)
def test_conjugacy_witness_and_symmetry(lu, lv):
    u, v = reduced(lu), reduced(lv)
    if u.is_identity or v.is_identity:
        return
    h = conjugator(u, v)
    assert (h is not None) == cores_rotate(u, v)
    if h is not None:
        assert conjugated_by(u, h) == v
    back = conjugator(v, u)
    assert (h is None) == (back is None)


@given(letters_st, letters_st)
def test_conjugacy_detects_actual_conjugates(lu, lh):
    u, h = reduced(lu), reduced(lh)
    if u.is_identity:
        return
    v = conjugated_by(u, h)
    found = conjugator(u, v)
    assert found is not None
    assert conjugated_by(u, found) == v


@settings(deadline=None)
@given(letters_st, letters_st)
def test_coset_split_recomposes(lu, lx):
    u, x = reduced(lu), reduced(lx)
    if u.is_identity:
        return
    k, r = _coset_canonical_cached(u.syllables, x.syllables)
    assert word_product(u ** k, x).syllables == r


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
        assert conjugated_by(u ** kv, theta) == v ** ku


@st.composite
def rootable_words(draw):
    """Reduced words c q^k c^-1 over ranks 1-3 from random q and c, as flat
    letters: proper powers when |k| > 1 or q is one, conjugates when c is not
    empty, and runs of one letter, often long, in q and c."""
    rank = draw(st.integers(1, 3))
    q = draw(run_letters(rank=rank, max_runs=5, max_run=9))
    assume(q)
    c = draw(run_letters(rank=rank, max_runs=3, max_run=9))
    word = flat_reduce(c + flat_power(q, draw(st.integers(-4, 4).filter(bool))) + flat_invert(c))
    assume(word)
    return word


@settings(max_examples=500)
@given(rootable_words())
def test_root_matches_the_rotation_key_search(letters):
    # the oracle is the letter-level search the linear root replaced
    conj, p, k = words._root_cached(syllables_of(letters))
    assert (spell(conj), spell(p), k) == flat_root(letters)


@st.composite
def root_pairs(draw):
    """(shape, u, v) as flat letters: u = c q^j c^-1 and v = d q^k d^-1 with
    d = c ("same"), d = c q^i ("shifted") or d drawn afresh ("conjugated"),
    or u and v drawn apart ("unrelated")."""
    rank = draw(st.integers(1, 3))
    words = run_letters(rank=rank, max_runs=4, max_run=5)
    exps = st.integers(-4, 4).filter(bool)
    q, c = draw(words), draw(words)
    assume(q)
    shape = draw(st.sampled_from(["same", "shifted", "conjugated", "unrelated"]))
    if shape == "unrelated":
        v = draw(rootable_words())
    else:
        d = {"same": c, "shifted": c + flat_power(q, draw(exps)), "conjugated": draw(words)}[shape]
        v = flat_reduce(d + flat_power(q, draw(exps)) + flat_invert(d))
    u = flat_reduce(c + flat_power(q, draw(exps)) + flat_invert(c))
    assume(u and v)
    return shape, u, v


@settings(max_examples=500)
@given(root_pairs())
def test_root_conjugator_and_primitive_name_the_maximal_root(case):
    # two ends at one vertex share a maximal cyclic subgroup exactly when
    # their (conjugator, primitive) pairs agree, so that pair may stand in
    # for the maximal root
    shape, lu, lv = case
    u, v = reduced(lu), reduced(lv)
    same_root = maximal_root(u) == maximal_root(v)
    assert (words._root_cached(u.syllables)[:2] == words._root_cached(v.syllables)[:2]) == same_root
    if shape in ("same", "shifted"):
        assert same_root


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
