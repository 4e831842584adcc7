"""Words over a finite alphabet, Lyndon words, and standard decompositions.

Letters are the integers 0..q-1 and words compare in dictionary order: the
first differing letter decides, and a proper prefix sorts before any of its
extensions (so "0" < "001" < "01").  A Lyndon word is strictly smaller than
every nontrivial rotation of itself.  Every non-empty word factors uniquely
into a non-increasing concatenation of Lyndon words, its standard
decomposition (a tuple of Lyndon `Word`s); the decomposition is *strictly
decreasing* when no factor repeats, and is then a primitive pseudo orbit.

All counting functions use exact integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math

DEFAULT_ENUMERATION_BUDGET = 10**8


class BudgetExceededError(Exception):
    """An enumeration or matrix dimension exceeded its configured budget."""


def _power_exceeds(q: int, n: int, limit: int) -> bool:
    """q**n > limit for q >= 1, n >= 0, decided from bit lengths when they
    suffice, so a refused power is never built."""
    if n * (q.bit_length() - 1) >= limit.bit_length():
        return True  # q^n >= 2^(n (bitlen(q) - 1)) >= 2^bitlen(limit) > limit
    return q**n > limit


class _Frozen:
    """Base of the package's value types.

    A subclass names its fields in __slots__ and fills them in __init__ with
    `_set`; afterwards assignment raises AttributeError.  Equality, hashing,
    repr and pickling run over the fields in slot order, which is also the
    order of the subclass's __init__ parameters.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since assignment is refused
        return type(self), self._values()


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _display(letters: tuple[int, ...], q: int) -> str:
    # digits for q <= 10, one byte per letter; comma-separated letter indices above
    if q <= 10:
        return bytes(letters).translate(_DIGITS).decode()
    return ",".join(map(str, letters))


@functools.total_ordering
class Word(_Frozen):
    """Immutable word over the alphabet {0, ..., q-1}.

    Words over the same alphabet size are totally ordered in dictionary
    order; comparing words with different ``q`` raises ``ValueError``.
    """

    __slots__ = ("letters", "q")

    def __init__(self, letters: tuple[int, ...], q: int):
        letters = tuple(letters)
        if q < 1:
            raise ValueError(f"alphabet size must be at least 1, got {q}")
        if letters and not 0 <= min(letters) <= max(letters) < q:
            bad = next(a for a in letters if not 0 <= a < q)
            raise ValueError(f"letter {bad} outside alphabet of size {q}")
        self._set(letters, q)

    @classmethod
    def from_string(cls, text: str, q: int) -> Word:
        """Parse the display form: a digit string for q <= 10 ("0110"),
        comma-separated letter indices otherwise ("3,11,0").  Each letter is
        ASCII digits only, with no leading zero."""
        if text == "":
            return cls((), q)
        fields = text.split(",") if "," in text or q > 10 else list(text)
        for field in fields:
            # int() also takes signs, spaces, "_" and other scripts' digits; keep its message
            if not (field.isascii() and field.isdigit()):
                raise ValueError(f"invalid literal for int() with base 10: {field!r}")
            if len(field) > 1 and field[0] == "0":  # "01" would echo as "1"
                raise ValueError(f"letter {field!r} has a leading zero")
        return cls(tuple(map(int, fields)), q)

    def __str__(self):
        return _display(self.letters, self.q)

    def __len__(self):
        return len(self.letters)

    def __lt__(self, other: Word) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self.q != other.q:
            raise ValueError(
                f"cannot compare words over alphabet sizes {self.q} and {other.q}"
            )
        return self.letters < other.letters


def _duval(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Duval's factorization into non-increasing Lyndon factors, linear time.
    n = len(seq)
    i = 0
    factors = []
    while i < n:
        j, k = i + 1, i
        while j < n and seq[k] <= seq[j]:
            k = i if seq[k] < seq[j] else k + 1
            j += 1
        step = j - k
        while i <= k:
            factors.append(seq[i : i + step])
            i += step
    return factors


def _no_repeated_factor(seq: tuple[int, ...]) -> bool:
    # Duval's scan without building factors.  One outer iteration emits
    # (k - i) // (j - k) + 1 equal factors and every later factor is smaller,
    # so the decomposition repeats a factor iff some iteration emits two.
    n = len(seq)
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and seq[k] <= seq[j]:
            k = i if seq[k] < seq[j] else k + 1
            j += 1
        if k - i >= j - k:
            return False
        i += j - k
    return True


def is_lyndon(w: Word) -> bool:
    """True iff w is strictly smaller than all of its nontrivial rotations.

    Equivalent, and computed here in linear time: w is the single factor of
    its own standard decomposition.
    """
    if len(w) == 0:
        raise ValueError("the empty word is not a Lyndon word")
    return len(_duval(w.letters)) == 1


def duval_factorize(w: Word) -> tuple[Word, ...]:
    """The unique non-increasing Lyndon factorization of a non-empty word."""
    if len(w) == 0:
        raise ValueError("cannot factorize the empty word")
    return tuple(Word(t, w.q) for t in _duval(w.letters))


def is_strictly_decreasing(words: tuple[Word, ...]) -> bool:
    """True iff each word is smaller than the one before it."""
    return all(b < a for a, b in zip(words, words[1:]))


def _lyndon_tuples(q: int, max_len: int):
    # Successor-style generation of all Lyndon words of length <= max_len,
    # emitted in dictionary order as letter tuples.
    w = [0]
    yield (0,)
    if q == 1:
        return  # the only one; the successor step would build max_len zeros
    top = q - 1
    while True:
        w = (w * (max_len // len(w) + 1))[:max_len]
        while w and w[-1] == top:
            w.pop()
        if not w:
            return
        w[-1] += 1
        yield tuple(w)


def _lyndon_tuples_of_length(q: int, l: int):
    """The Lyndon words of length exactly l as letter tuples, in dictionary
    order, for q >= 1 and l >= 1; refuses over the default budget at the call
    and then yields lazily."""
    if _lyndon_count_exceeds(q, l, DEFAULT_ENUMERATION_BUDGET):
        raise BudgetExceededError(
            f"Lyndon words of length {l} over {q} letters exceed budget "
            f"{DEFAULT_ENUMERATION_BUDGET}"
        )
    return (t for t in _lyndon_tuples(q, l) if len(t) == l)


def lyndon_words(q: int, l: int) -> list[Word]:
    """All Lyndon words of length exactly l, in dictionary order."""
    if q < 1:
        raise ValueError(f"alphabet size must be at least 1, got {q}")
    if l < 1:
        raise ValueError(f"word length must be at least 1, got {l}")
    return [Word(t, q) for t in _lyndon_tuples_of_length(q, l)]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    if n > 1:
        sign = -sign
    return sign


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def count_lyndon(q: int, l: int) -> int:
    """Number of Lyndon words of length l: (1/l) sum_{d|l} mu(d) q^(l/d)."""
    if q < 1:
        raise ValueError(f"alphabet size must be at least 1, got {q}")
    if l < 1:
        raise ValueError(f"word length must be at least 1, got {l}")
    total = sum(_mobius(d) * q ** (l // d) for d in _divisors(l))
    assert total % l == 0  # necklace-counting divisibility
    return total // l


def _lyndon_count_exceeds(q: int, l: int, limit: int) -> bool:
    """count_lyndon(q, l) > limit for q >= 1, l >= 1, decided from bit lengths
    when they suffice, so a huge count is never built."""
    # for q >= 2 and l >= 3 the primitive words number at least
    # q^l - q^(l//2 + 1) >= q^(l-1), so l L_q(l) >= q^(l-1)
    if q >= 2 and l >= 3 and _power_exceeds(q, l - 1, limit * l):
        return True
    return count_lyndon(q, l) > limit


def verify_lyndon_count_identity(q: int, m: int) -> bool:
    """Check sum_{l|m} l * L_q(l) == q^m with exact integers."""
    if q < 1 or m < 1:
        raise ValueError("alphabet size and length must be at least 1")
    return sum(l * count_lyndon(q, l) for l in _divisors(m)) == q**m


def count_strictly_decreasing(q: int, n: int) -> int:
    """Number of length-n words with a strictly decreasing standard
    decomposition: 1 for n = 0, q for n = 1, (q-1) q^(n-1) for n >= 2."""
    if q < 1:
        raise ValueError(f"alphabet size must be at least 1, got {q}")
    if n < 0:
        raise ValueError(f"word length must be non-negative, got {n}")
    if n == 0:
        return 1
    if n == 1:
        return q
    return (q - 1) * q ** (n - 1)


def _strictly_decreasing_exceeds(q: int, n: int, limit: int) -> str | None:
    """count_strictly_decreasing(q, n) written as a power for messages
    ("1*2^63"; 1 and q plain) when it exceeds limit, else None.  Bit lengths
    decide when they suffice, so a huge count is never built."""
    if n >= 2 and q >= 2:
        # (q-1) q^(n-1) > limit iff q^(n-1) > limit // (q-1)
        over = _power_exceeds(q, n - 1, limit // (q - 1))
    else:
        over = count_strictly_decreasing(q, n) > limit
    if not over:
        return None
    return f"{q - 1}*{q}^{n - 1}" if n >= 2 else str(q**n)


def count_strictly_decreasing_bruteforce(
    q: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """Count strictly decreasing standard decompositions by enumerating all
    q^n words and running Duval's scan on each one, which stops at the first
    repeated factor.  Independent of the closed form.  The budget bounds the
    letters read, n q^n."""
    if q < 1:
        raise ValueError(f"alphabet size must be at least 1, got {q}")
    if n < 0:
        raise ValueError(f"word length must be non-negative, got {n}")
    # n q^n > budget iff q^n > budget // n, for n >= 1
    if _power_exceeds(q, n, budget // max(n, 1)):
        raise BudgetExceededError(f"enumerating {q}^{n} words of {n} letters exceeds "
                                  f"budget {budget}")
    return sum(map(_no_repeated_factor, itertools.product(range(q), repeat=n)))


def lyndon_subset_series(q: int, order: int) -> tuple[int, ...]:
    """Expand prod_{l=1}^{order} (1 + x^l)^{L_q(l)} truncated at the given
    degree: the exact integer coefficients of degrees 0..order.

    Coefficient n counts the sets of distinct Lyndon words of total length n,
    which are exactly the strictly decreasing standard decompositions.
    Factors with l > order cannot touch degrees <= order.
    """
    if q < 1:
        raise ValueError(f"alphabet size must be at least 1, got {q}")
    if order < 0:
        raise ValueError(f"truncation order must be non-negative, got {order}")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for l in range(1, order + 1):
        reps = count_lyndon(q, l)
        if reps == 0:
            continue
        expanded = [0] * (order + 1)
        for deg, c in enumerate(coeffs):
            if c == 0:
                continue
            for j in range((order - deg) // l + 1):
                expanded[deg + j * l] += c * math.comb(reps, j)
        coeffs = expanded
    return tuple(coeffs)
