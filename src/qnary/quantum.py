"""Quantization of q-nary graphs.

Every vertex carries the unitary q x q discrete-Fourier-transform scattering
matrix; assembling the vertex blocks along the edge incidence gives the dense
E x E matrix Sigma.  With a diagonal matrix L of positive edge lengths,
U(k) = e^{ikL} Sigma is the unitary evolution operator at wavenumber k.

The coefficients a_n of det(xi I - U(k)) = sum_n a_n xi^(E-n) are computed
two ways: directly, by a unitary reduction of U(k) to upper Hessenberg form
followed by La Budde's recurrence over its leading principal submatrices,
and as finite sums over primitive pseudo orbits grouped by the multiset g of
edges they traverse (`_edge_groups`, the table the exact variance sums),

    a_n = sum over groups g of length n of A_g * prod_(e in g) e^(i k l_e),

where A_g sums (-1)^(orbit count) * amplitude over the group, an orbit's
amplitude the cyclic product of Sigma entries along its edge sequence.
Amplitudes are read by the orbit's letters from `_dft_table`, the DFT as
rows of Python complex that `math` computes; Sigma's blocks copy the same table.

The direct route costs O(E^3) per matrix and takes a stack of matrices with
the sample axis last (`_kernels._char_polys`), so the Monte-Carlo sampler
reduces a chunk of wavenumbers, about 256 KiB of U(k), in one call.  The
orbit route reads U(k)'s own per-edge phases, so the routes agree to
rounding at every k; `expansion_terms`, for many k at once, rounds one
phase per pseudo orbit, an error that grows with k.  numpy holds only
arrays sized by E or by the sample count: Sigma, U(k), its polynomials and
the expansion's terms.  The functions that build them reach numpy only
through `_kernels`, on their call.  The edge lengths are a tuple of Python
floats, so building an instance, the combinatorial commands and the
pseudo-orbit terms never load numpy; the routes that do read the lengths
through `np.asarray`.  Seeded draws come from `_random`,
Python's own Mersenne Twister, so no path loads `numpy.random`.
"""

from __future__ import annotations

import functools
import math
import operator

from .debruijn import QNaryGraph, _check_orbit, _pseudo_orbit_tuples, _windows, build_graph
from .words import BudgetExceededError, Word, _Frozen

DEFAULT_MAX_CHARPOLY_DIM = 64


def _dft_table(q: int) -> list[list[complex]]:
    """The unitary q x q DFT, entries omega^(jk) / sqrt(q) with omega =
    e^(2 pi i / q), as rows of Python complex from `math` alone: the float
    operations numpy's exp and divide perform, bit for bit."""
    s, step = 1 / math.sqrt(q), 2 * math.pi / q
    phases = [[j * k % q * step for k in range(q)] for j in range(q)]
    return [[complex(s * math.cos(p), s * math.sin(p)) for p in row] for row in phases]


def assemble_sigma(graph: QNaryGraph) -> np.ndarray:
    """Assemble the dense, read-only E x E matrix Sigma: entry (e, e') is
    nonzero iff terminus(e') = origin(e).

    At vertex w = a_1..a_m the incoming edge b.a_1..a_m and outgoing edge
    a_1..a_m.c couple with amplitude omega^(b c) / sqrt(q), where b is the
    first letter of the incoming edge and c the last letter of the outgoing
    one.  The result is unitary (one DFT block per vertex).
    """
    from ._kernels import np

    q = graph.q
    V, E = graph.num_vertices, graph.num_edges
    # axes (v, c, b, v'): row v q + c is the out-edge v.c, column b V + v' the in-edge b.v'
    entries = np.zeros((V, q, q, V), dtype=complex)
    entries[np.arange(V), :, :, np.arange(V)] = _dft_table(q)
    entries = entries.reshape(E, E)
    entries.setflags(write=False)
    return entries


def _random(seed: int, size: int) -> array.array:
    """The first `size` draws of `random.Random(seed).random()`, Python's
    Mersenne Twister (Matsumoto & Nishimura 1998), as Python floats on
    [0, 1), packed as doubles.  CPython keeps this sequence for an integer
    seed across versions."""
    import array
    import itertools
    import random

    seed = operator.index(seed)
    if seed < 0:  # random.Random would take the absolute value
        raise ValueError(f"expected non-negative integer, got {seed}")
    draw = random.Random(seed).random
    return array.array("d", itertools.starmap(draw, itertools.repeat((), size)))


class SpectralInstance(_Frozen):
    """A quantized graph: its topology, the tuple of its E edge lengths (in
    edge order, Python floats), and the seed that drew them.  Sigma is
    `assemble_sigma(graph)`.  Instances compare by identity."""

    __slots__ = ("graph", "lengths", "seed")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, graph: QNaryGraph, lengths: tuple[float, ...], seed: int):
        self._set(graph, lengths, seed)


def build_instance(q: int, m: int, seed: int) -> SpectralInstance:
    """The order-m q-nary graph with E i.i.d. edge lengths uniform on [1, 2),
    1 + u over the seed's first E draws u (`_random`), held as a tuple.

    The same seed reproduces the same lengths bit for bit.  Random draws are
    rationally independent with probability 1, which is the premise of the
    degeneracy-grouped wavenumber average.
    """
    graph = build_graph(q, m)
    lengths = tuple([1.0 + u for u in _random(seed, graph.num_edges)])
    return SpectralInstance(graph, lengths, int(seed))


def evolution_operator(inst: SpectralInstance, k: float) -> np.ndarray:
    """U(k) = diag(e^{i k l_e}) Sigma, unitary for every real k with 2|k|
    finite (`_check_phase`)."""
    from ._kernels import np

    k = _check_phase(k, 1)
    phases = np.exp(1j * k * np.asarray(inst.lengths))
    return phases[:, None] * assemble_sigma(inst.graph)


def _check_phase(k: float, n: int, name: str = "wavenumber") -> float:
    """k as a float, refused unless 2 n |k| is finite: every edge is shorter
    than 2, so that bounds each phase k * length over at most n edges."""
    k = float(k)
    if not math.isfinite(k):
        raise ValueError(f"{name} must be finite, got {k}")
    if not math.isfinite(2 * n * abs(k)):
        raise ValueError(f"{name} {k} is too large: the phase bound 2 * {n} * |{name}| overflows")
    return k


def _check_index(n: int, E: int) -> int:
    n = operator.index(n)  # a float index is a TypeError, a numpy integer an int
    if not 0 <= n <= E:
        raise ValueError(f"coefficient index {n} outside 0..{E}")
    return n


def _check_dimension(N: int) -> None:
    if N > DEFAULT_MAX_CHARPOLY_DIM:
        raise BudgetExceededError(f"dimension {N} exceeds cap {DEFAULT_MAX_CHARPOLY_DIM}")


class CharPolyCoefficients(_Frozen):
    """Coefficients of det(xi I - U): a[n] multiplies xi^(N-n), a[0] = 1.
    Compared by identity."""

    __slots__ = ("a",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, a: np.ndarray):
        self._set(a)


def char_poly_direct(U: np.ndarray) -> CharPolyCoefficients:
    """Characteristic polynomial coefficients of one square matrix, by the
    Hessenberg reduction and La Budde's recurrence of
    `_kernels._char_polys`; the leading coefficient comes out exactly 1.
    """
    from ._kernels import _char_polys, np

    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    N = U.shape[0]
    if N < 1:
        raise ValueError("matrix must be at least 1 x 1")
    _check_dimension(N)
    work, p = np.empty(N * N, dtype=complex), np.empty((N + 1, N + 1, 1), dtype=complex)
    a = _char_polys(U[:, :, None].copy(), work, p)[0]
    a.setflags(write=False)
    return CharPolyCoefficients(a)


def orbit_amplitude(orbit: Word, inst: SpectralInstance) -> complex:
    """Cyclic product of Sigma entries along the edge walk of the orbit, a
    Lyndon word, on the instance's graph, read from the q x q DFT F by its
    letters: the step from edge w[i..i+m] to w[i+1..i+m+1] (indices mod l)
    has the entry F[w[i+m+1]][w[i]].

    The modulus is always q^(-length/2), one factor 1/sqrt(q) per step.
    """
    _check_orbit(orbit)
    if orbit.q != inst.graph.q:
        raise ValueError("orbit and graph alphabet sizes differ")
    return _word_amplitude(orbit.letters, inst.graph.m, _dft_table(orbit.q))


def _word_amplitude(word: tuple[int, ...], m: int, F: list[list[complex]]) -> complex:
    l = len(word)
    amp = 1 + 0j
    for i, b in enumerate(word):
        amp *= F[word[(i + m + 1) % l]][b]
    return amp


def _pseudo_orbit_terms(q: int, m: int, n: int):
    """(walks, terms) for the pseudo orbits of length n on the order-m graph:
    walks[i] is the edge walk of the i-th Lyndon word of length <= n, and
    terms yields (word indices, signed amplitude) for each pseudo orbit in
    enumeration order.  The sign is (-1)^(orbit count); each word's walk and
    amplitude are computed once.
    """
    words, items = _pseudo_orbit_tuples(q, n)  # refuses over the budget
    F = _dft_table(q)
    amps = [_word_amplitude(w, m, F) for w in words]

    def terms():
        for item in items:
            amp = math.prod([amps[i] for i in item], start=1 + 0j)
            yield item, -amp if len(item) % 2 else amp

    return [_windows(w, q, m + 1) for w in words], terms()


def expansion_terms(inst: SpectralInstance, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pseudo-orbit expansion data for coefficient n.

    Returns (weights, metric_lengths) over the pseudo orbits of total length
    n, where weights[i] = (-1)^(orbit count) * amplitude.  Each call
    enumerates the pseudo orbits anew; the arrays are read-only.
    """
    from ._kernels import np

    walks, terms = _pseudo_orbit_terms(inst.graph.q, inst.graph.m, n)
    # left to right, whatever the Python version's sum() does with floats
    ell = inst.lengths
    orbit_lengths = [functools.reduce(operator.add, [ell[e] for e in edges], 0.0)
                     for edges in walks]
    amps, lengths = [], []
    for item, amp in terms:
        length = 0.0
        for i in item:
            length += orbit_lengths[i]
        amps.append(amp)
        lengths.append(length)
    weights = np.array(amps, dtype=complex)
    metric = np.array(lengths, dtype=float)
    weights.setflags(write=False)
    metric.setflags(write=False)
    return weights, metric


def _edge_groups(q: int, m: int, n: int) -> dict[tuple[int, ...], complex]:
    """Pseudo orbits of length n by edge multiset: sorted edges -> summed signed amplitude."""
    walks, terms = _pseudo_orbit_terms(q, m, n)
    groups: dict[tuple[int, ...], complex] = {}
    for item, weight in terms:
        key = tuple(sorted(e for i in item for e in walks[i]))
        groups[key] = groups.get(key, 0j) + weight
    return groups


def coeff_from_pseudo_orbits(n: int, inst: SpectralInstance, k: float) -> complex:
    """a_n = sum over the `_edge_groups` g of length n of A_g prod_(e in g) e^(i k l_e)."""
    from ._kernels import np

    n = _check_index(n, inst.graph.num_edges)
    k = _check_phase(k, n)
    # U(k)'s phases; a_0 reads none
    phase = np.exp(1j * k * np.asarray(inst.lengths)).tolist() if n else []
    groups = _edge_groups(inst.graph.q, inst.graph.m, n)
    return complex(sum(A * math.prod([phase[e] for e in key]) for key, A in groups.items()))
