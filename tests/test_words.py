"""Word order, Lyndon words, factorization, and exact counting.

Expected values come from definitional oracles implemented here: rotation
checks for Lyndon-ness, filtering all q^l words, and exhaustive cut search
for factorization uniqueness.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qnary.words import (
    BudgetExceededError,
    _display,
    _duval,
    _lyndon_count_exceeds,
    _lyndon_tuples,
    _no_repeated_factor,
    _strictly_decreasing_exceeds,
    Word,
    count_lyndon,
    count_strictly_decreasing,
    count_strictly_decreasing_bruteforce,
    duval_factorize,
    is_lyndon,
    is_strictly_decreasing,
    lyndon_subset_series,
    lyndon_words,
    verify_lyndon_count_identity,
)


def w(text, q=2):
    return Word.from_string(text, q)


# --- definitional oracles ---------------------------------------------------


def rotations(t):
    return [t[i:] + t[:i] for i in range(len(t))]


def is_lyndon_by_rotations(t):
    """Strictly smaller than every nontrivial rotation (tuple comparison)."""
    return len(t) > 0 and all(t < r for r in rotations(t)[1:])


def lyndon_filter(q, l):
    return [t for t in itertools.product(range(q), repeat=l) if is_lyndon_by_rotations(t)]


def nonincreasing_cut_factorizations(t, bound=None):
    """All ways to cut t into Lyndon factors in non-increasing order."""
    if not t:
        return [[]]
    out = []
    for cut in range(1, len(t) + 1):
        head = t[:cut]
        if is_lyndon_by_rotations(head) and (bound is None or head <= bound):
            for rest in nonincreasing_cut_factorizations(t[cut:], head):
                out.append([head] + rest)
    return out


# --- lexicographic order ----------------------------------------------------


def test_lex_compare_examples():
    assert w("0") < w("001") and not w("0") >= w("001")
    assert w("01") == w("01") and w("01") <= w("01") and w("01") >= w("01")
    assert not w("01") < w("01") and not w("01") > w("01")
    assert w("011") > w("01") and not w("011") <= w("01")


def test_lex_order_chain_of_short_lyndon_words():
    chain = [w(s) for s in ["0", "0001", "001", "0011", "01", "011", "0111", "1"]]
    for a, b in zip(chain, chain[1:]):
        assert a < b
        assert b > a
    assert sorted(reversed(chain)) == chain


def test_lex_compare_alphabet_mismatch():
    u, v = w("01", q=2), w("01", q=3)
    for compare in (
        lambda: u < v,
        lambda: u <= v,
        lambda: u > v,
        lambda: u >= v,
    ):
        with pytest.raises(ValueError):
            compare()
    assert u != v


@st.composite
def same_alphabet_words(draw, count):
    q = draw(st.integers(2, 4))
    return [
        Word(tuple(draw(st.lists(st.integers(0, q - 1), max_size=12))), q)
        for _ in range(count)
    ]


@given(same_alphabet_words(count=2))
def test_lex_compare_antisymmetry(pair):
    u, v = pair
    assert [u < v, u == v, u > v].count(True) == 1
    assert (u < v) == (v > u)
    assert (u <= v) == (v >= u)
    assert (u <= v) == (u < v or u == v)
    if u == v:
        assert u.letters == v.letters


@given(same_alphabet_words(count=3))
def test_lex_compare_transitivity(triple):
    u, v, x = triple
    if u <= v and v <= x:
        assert u <= x
    if u < v and v < x:
        assert u < x


@given(same_alphabet_words(count=2))
def test_prefix_sorts_before_extension(pair):
    u, v = pair
    if len(v) > 0:
        extended = Word(u.letters + v.letters, u.q)
        assert u < extended
        assert extended > u and not extended <= u


# --- Lyndon test ------------------------------------------------------------


def test_is_lyndon_examples():
    assert is_lyndon(w("001"))
    assert not is_lyndon(w("10"))
    assert not is_lyndon(w("0101"))


def test_is_lyndon_rejects_empty():
    with pytest.raises(ValueError):
        is_lyndon(Word((), 2))


@pytest.mark.parametrize("q,max_len", [(2, 10), (3, 6)])
def test_is_lyndon_matches_rotation_definition(q, max_len):
    for l in range(1, max_len + 1):
        for t in itertools.product(range(q), repeat=l):
            assert is_lyndon(Word(t, q)) == is_lyndon_by_rotations(t)


# --- factorization ----------------------------------------------------------


def test_duval_examples():
    assert [str(f) for f in duval_factorize(w("101"))] == ["1", "01"]
    assert [str(f) for f in duval_factorize(w("110"))] == ["1", "1", "0"]


def test_duval_latin_alphabet():
    # LYNDON over a-z as 0..25 splits as (LYN)(DON)
    letters = tuple(ord(c) - ord("A") for c in "LYNDON")
    factors = duval_factorize(Word(letters, 26))
    assert [f.letters for f in factors] == [
        tuple(ord(c) - ord("A") for c in "LYN"),
        tuple(ord(c) - ord("A") for c in "DON"),
    ]


def test_duval_rejects_empty():
    with pytest.raises(ValueError):
        duval_factorize(Word((), 2))


def _check_roundtrip(word):
    factors = duval_factorize(word)
    assert Word(tuple(a for f in factors for a in f.letters), word.q) == word
    for f in factors:
        assert is_lyndon(f)
    for a, b in zip(factors, factors[1:]):
        assert a >= b


@pytest.mark.parametrize("q,max_len", [(2, 14), (3, 9)])
def test_factorization_roundtrip_exhaustive(q, max_len):
    for l in range(1, max_len + 1):
        for t in itertools.product(range(q), repeat=l):
            _check_roundtrip(Word(t, q))


@pytest.mark.parametrize("q", [2, 3])
def test_factorization_roundtrip_long_random_word(q):
    rng = random.Random(12345 + q)
    letters = tuple(rng.randrange(q) for _ in range(10**5))
    _check_roundtrip(Word(letters, q))


def test_factorization_unique_among_all_cuts():
    for l in range(1, 11):
        for t in itertools.product(range(2), repeat=l):
            cuts = nonincreasing_cut_factorizations(t)
            assert len(cuts) == 1
            assert cuts[0] == [f.letters for f in duval_factorize(Word(t, 2))]


def test_is_strictly_decreasing_examples():
    assert is_strictly_decreasing((w("1"), w("01")))
    assert not is_strictly_decreasing((w("1"), w("1"), w("0")))
    assert not is_strictly_decreasing((w("0"), w("1")))
    assert is_strictly_decreasing((w("0011"),))
    assert is_strictly_decreasing(())


# --- Lyndon word enumeration and counting ------------------------------------


def test_lyndon_words_examples():
    assert [str(x) for x in lyndon_words(2, 4)] == ["0001", "0011", "0111"]
    assert [str(x) for x in lyndon_words(2, 1)] == ["0", "1"]
    assert [str(x) for x in lyndon_words(3, 2)] == ["01", "02", "12"]
    # derived: the filter oracle gives the same list
    assert [x.letters for x in lyndon_words(3, 2)] == lyndon_filter(3, 2)


def test_lyndon_words_emitted_in_lex_order():
    for q, l in [(2, 7), (3, 5)]:
        words = lyndon_words(q, l)
        assert words == sorted(words, key=lambda x: x.letters)
        assert [x.letters for x in words] == lyndon_filter(q, l)


def test_lyndon_words_rejects_bad_length():
    with pytest.raises(ValueError):
        lyndon_words(2, 0)


@pytest.mark.parametrize("length", [40, 10**9])
def test_lyndon_words_over_budget_are_refused_before_any_is_built(length):
    # about 2^40/40 words, and at l = 10^9 a count that is never built
    with pytest.raises(BudgetExceededError, match=f"Lyndon words of length {length} over 2"):
        lyndon_words(2, length)


def test_lyndon_words_one_letter_alphabet():
    assert [x.letters for x in lyndon_words(1, 1)] == [(0,)]
    assert lyndon_words(1, 3) == []


def test_one_letter_generation_builds_no_long_list():
    # the one Lyndon word over one letter is "0"; nothing of length l is built
    tracemalloc.start()
    try:
        assert list(_lyndon_tuples(1, 10**6)) == [(0,)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_lyndon_count_exceeds_matches_the_count(q):
    for l in range(1, 25):
        c = count_lyndon(q, l)
        for limit in {0, max(c - 1, 0), c, c + 1, 10**8}:
            assert _lyndon_count_exceeds(q, l, limit) == (c > limit)
    # decided from bit lengths: q^(10^9) is never built
    assert _lyndon_count_exceeds(q, 10**9, 10**8) == (q > 1)


def test_count_lyndon_examples():
    assert count_lyndon(2, 4) == 3
    assert count_lyndon(2, 1) == 2
    # derived: enumerate all 4096 binary words of length 12
    assert len(lyndon_filter(2, 12)) == 335
    assert count_lyndon(2, 12) == 335


@pytest.mark.parametrize("q", [2, 3, 4])
def test_count_matches_enumeration(q):
    for l in range(1, 13):
        assert len(lyndon_words(q, l)) == count_lyndon(q, l)


def test_lyndon_count_table():
    table = {l: count_lyndon(2, l) for l in range(1, 7)}
    assert table == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}


def test_count_identity_examples():
    # q=2, m=4: 1*2 + 2*1 + 4*3 = 16
    assert verify_lyndon_count_identity(2, 4)
    assert 1 * count_lyndon(2, 1) + 2 * count_lyndon(2, 2) + 4 * count_lyndon(2, 4) == 2**4
    assert verify_lyndon_count_identity(1, 5)
    assert verify_lyndon_count_identity(3, 6)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_count_identity_holds_up_to_length_12(q):
    for m in range(1, 13):
        assert verify_lyndon_count_identity(q, m)


# --- strictly decreasing decompositions --------------------------------------


def test_bruteforce_count_examples():
    assert count_strictly_decreasing_bruteforce(2, 3) == 4
    assert count_strictly_decreasing_bruteforce(2, 4) == 8
    assert count_strictly_decreasing_bruteforce(3, 2) == 6


def test_bruteforce_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_strictly_decreasing_bruteforce(2, 40)
    # override allows small cases through
    assert count_strictly_decreasing_bruteforce(2, 3, budget=8) == 4
    with pytest.raises(BudgetExceededError):
        count_strictly_decreasing_bruteforce(2, 3, budget=7)
    # at q = 1 there is one word, but it holds all n letters
    assert count_strictly_decreasing_bruteforce(1, 8, budget=8) == 0
    with pytest.raises(BudgetExceededError, match="9 letters exceeds budget 8"):
        count_strictly_decreasing_bruteforce(1, 9, budget=8)


@pytest.mark.parametrize("q,max_n", [(2, 12), (3, 8), (4, 6)])
def test_no_repeated_factor_scan_matches_duval_factors(q, max_n):
    for n in range(max_n + 1):
        for letters in itertools.product(range(q), repeat=n):
            factors = _duval(letters)
            assert _no_repeated_factor(letters) == (len(set(factors)) == len(factors))


def test_closed_form_examples():
    assert count_strictly_decreasing(2, 4) == 8
    assert count_strictly_decreasing(5, 1) == 5
    assert count_strictly_decreasing(2, 0) == 1
    # derived: brute force over all 243 ternary words of length 5
    assert count_strictly_decreasing_bruteforce(3, 5) == 162
    assert count_strictly_decreasing(3, 5) == 162


@pytest.mark.parametrize("q,max_n", [(2, 12), (3, 7)])
def test_closed_form_matches_bruteforce(q, max_n):
    for n in range(0, max_n + 1):
        assert count_strictly_decreasing(q, n) == count_strictly_decreasing_bruteforce(q, n)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_strictly_decreasing_exceeds_matches_the_count(q):
    for n in range(41):
        c = count_strictly_decreasing(q, n)
        shown = f"{q - 1}*{q}^{n - 1}" if n >= 2 else str(c)
        for limit in {0, 1, q, max(c - 1, 0), c, 10**8}:
            assert _strictly_decreasing_exceeds(q, n, limit) == (shown if c > limit else None)
    # decided from bit lengths: q^(10^9 - 1) is never built
    expected = f"{q - 1}*{q}^{10**9 - 1}" if q > 1 else None
    assert _strictly_decreasing_exceeds(q, 10**9, 10**8) == expected


def test_series_examples():
    assert lyndon_subset_series(2, 4) == (1, 2, 2, 4, 8)
    assert lyndon_subset_series(1, 3) == (1, 1, 0, 0)
    # derived: brute force for q=3 up to degree 3
    brute = [count_strictly_decreasing_bruteforce(3, n) for n in range(4)]
    assert brute == [1, 3, 6, 18]
    assert lyndon_subset_series(3, 3) == (1, 3, 6, 18)


@pytest.mark.parametrize("q", [2, 3])
def test_series_matches_closed_form_to_degree_12(q):
    series = lyndon_subset_series(q, 12)
    for n in range(13):
        assert series[n] == count_strictly_decreasing(q, n)


# --- Word basics --------------------------------------------------------------


def test_word_validation():
    with pytest.raises(ValueError):
        Word((2,), 2)
    with pytest.raises(ValueError):
        Word((0,), 0)


@pytest.mark.parametrize("q", range(1, 11))
def test_display_is_the_digit_string(q):
    # every word of each length <= 8 that has at most 20,000 words, else 2,000 drawn ones
    rng = random.Random(q)
    for length in range(9):
        if q**length <= 20_000:
            words = itertools.product(range(q), repeat=length)
        else:
            words = (tuple(rng.randrange(q) for _ in range(length)) for _ in range(2_000))
        for letters in words:
            assert _display(letters, q) == "".join(map(str, letters))


def test_word_string_roundtrip_large_alphabet():
    word = Word((3, 11, 0), 12)
    assert str(word) == "3,11,0"
    assert Word.from_string("3,11,0", 12) == word
    # every accepted string is the display of the word it parses to
    for text in ("03,11,0", "3,011,0", "00,11,0"):
        with pytest.raises(ValueError, match="leading zero"):
            Word.from_string(text, 12)


@settings(max_examples=60)
@given(same_alphabet_words(count=1))
def test_factorization_roundtrip_random(single):
    (word,) = single
    if len(word) > 0:
        _check_roundtrip(word)


# --- value types --------------------------------------------------------------


def test_value_types_are_immutable_values_that_pickle():
    import copy
    import pickle

    import qnary

    values = [
        w("0110"),
        qnary.build_graph(2, 3),
    ]
    for value in values:
        name = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        # repr spells the constructor call with the field names as keywords
        rebuilt = eval(repr(value), vars(qnary))
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), rebuilt):
            assert twin == value and hash(twin) == hash(value)
            assert twin is not value
    assert w("01") != w("01", q=3)
    # the instance holds arrays, so it compares by identity
    inst = qnary.build_instance(2, 1, seed=3)
    assert inst == inst and inst != qnary.build_instance(2, 1, seed=3)
    with pytest.raises(AttributeError):
        inst.seed = 4
    assert pickle.loads(pickle.dumps(inst)).seed == 3
