"""Directed q-nary graphs (de Bruijn graphs) and their primitive orbits.

The order-m graph over q letters has q^m vertices, the words of length m,
and q^(m+1) edges, the words of length m+1; edge a_1..a_(m+1) runs from
a_1..a_m to a_2..a_(m+1).  Vertex and edge indices are the base-q values
of their words, most significant letter first, so origin(e) = e // q and
terminus(e) = e mod q^m.

A cyclic word of length l traces a closed walk whose edges are its l
windows of m+1 consecutive letters, wrapping cyclically (also when l <= m,
e.g. the word "0" traces the loop edge 00..0).  Primitive periodic orbits,
closed walks that are not repetitions of shorter ones, correspond
one-to-one with Lyndon words.  A primitive pseudo orbit is a set of
distinct primitive orbits; concatenating its words in strictly decreasing
order puts these sets in bijection with the words whose standard
decomposition has no repeated factor, the very tuple `duval_factorize` returns.

Inside the package a pseudo orbit is a strictly decreasing tuple of
indices into one table of Lyndon letter tuples, built once per enumeration;
the public functions pass an orbit as its Lyndon `Word` and a pseudo orbit
as a strictly decreasing tuple of them.  Nothing is cached between calls.
"""

from __future__ import annotations

from .words import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    Word,
    _Frozen,
    _lyndon_tuples,
    _power_exceeds,
    _strictly_decreasing_exceeds,
    is_lyndon,
    is_strictly_decreasing,
)


class QNaryGraph(_Frozen):
    """Directed graph on the length-m words over q letters."""

    __slots__ = ("q", "m")

    def __init__(self, q: int, m: int):
        if q < 2:
            raise ValueError(f"graph alphabet size must be at least 2, got {q}")
        if m < 1:
            raise ValueError(f"graph order must be at least 1, got {m}")
        self._set(q, m)

    @property
    def num_vertices(self) -> int:
        return self.q**self.m

    @property
    def num_edges(self) -> int:
        return self.q ** (self.m + 1)


def build_graph(q: int, m: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> QNaryGraph:
    """Construct the order-m q-nary graph, guarding the edge count."""
    graph = QNaryGraph(q, m)
    if _power_exceeds(q, m + 1, budget):
        raise BudgetExceededError(f"{q}^{m + 1} edges exceed budget {budget}")
    return graph


def _windows(letters: tuple[int, ...], q: int, width: int) -> tuple[int, ...]:
    # base-q values of the l cyclic windows of the given width
    l = len(letters)
    out = []
    for start in range(l):
        v = 0
        for off in range(width):
            v = v * q + letters[(start + off) % l]
        out.append(v)
    return tuple(out)


def _check_orbit(word: Word) -> None:
    # a primitive orbit is passed as its Lyndon representative
    if len(word) == 0 or not is_lyndon(word):
        raise ValueError(f"orbit representative {word} is not a Lyndon word")


def _braced(shown: list[str], q: int) -> str:
    # comma-separated words render with commas above q = 10, so switch
    # the set separator to keep the display unambiguous
    return "{" + ("," if q <= 10 else ";").join(shown) + "}"


def primitive_pseudo_orbits(q: int, n: int) -> list[tuple[Word, ...]]:
    """All primitive pseudo orbits of total topological length n, each a
    strictly decreasing tuple of Lyndon words.

    Emitted sorted by the dictionary order of their concatenated word; n = 0
    yields the single empty pseudo orbit.  The enumeration depends only on
    (q, n), not on the graph order.
    """
    words, items = _pseudo_orbit_tuples(q, n)
    table = [Word(w, q) for w in words]
    return [tuple(table[i] for i in item) for item in items]


def _pseudo_orbit_tuples(q: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """(words, items): the Lyndon letter tuples of length <= n in dictionary
    order, and a generator of the pseudo orbits of length n as strictly
    decreasing tuples of indices into words, in the order of
    `primitive_pseudo_orbits`.  Refuses over the budget at the call.

    Depth first: each word in dictionary order, then the strictly smaller
    words that fit the remaining length.  That is concatenation order, since
    at the first differing words w < v, a letter decides both orders; else w is a prefix of v,
    and by Duval's lemma a larger w-side would have a Lyndon prefix longer than its first factor w.
    """
    if shown := _strictly_decreasing_exceeds(q, n, budget):
        raise BudgetExceededError(f"{shown} pseudo orbits of length {n} exceed budget {budget}")
    words = list(_lyndon_tuples(q, n)) if n else []
    # fits[r]: indices of the words of length <= r, in dictionary order
    fits = [[i for i, w in enumerate(words) if len(w) <= r] for r in range(n + 1)]

    def extend(prefix, remaining, below):
        if remaining == 0:
            yield prefix
            return
        for i in fits[remaining]:
            if i >= below:
                break
            yield from extend(prefix + (i,), remaining - len(words[i]), i)

    return words, extend((), n, len(words))


def edge_multiplicities(po: tuple[Word, ...], graph: QNaryGraph) -> tuple[int, ...]:
    """How many times the pseudo orbit, a strictly decreasing tuple of
    Lyndon words, traverses each edge of the graph."""
    for word in po:
        _check_orbit(word)
        if word.q != graph.q:
            raise ValueError("pseudo orbit and graph alphabet sizes differ")
    if not is_strictly_decreasing(po):
        raise ValueError("orbits must be distinct and strictly decreasing")
    counts = [0] * graph.num_edges
    for word in po:
        for e in _windows(word.letters, graph.q, graph.m + 1):
            counts[e] += 1
    return tuple(counts)
