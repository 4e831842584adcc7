"""Scattering assembly, evolution operator, and coefficient computations.

char_poly_direct is validated against two independent oracles: one expands
prod_j (xi - lambda_j) from the numerically computed eigenvalues, the other
interpolates det(xi I - U) from its values at roots of unity.  The
pseudo-orbit expansion is checked against the direct route.
"""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from qnary.debruijn import (
    _braced,
    _windows,
    build_graph,
    primitive_pseudo_orbits,
)
from qnary._kernels import _char_polys
from qnary.quantum import (
    CharPolyCoefficients,
    _dft_table,
    _random,
    assemble_sigma,
    build_instance,
    char_poly_direct,
    coeff_from_pseudo_orbits,
    evolution_operator,
    expansion_terms,
    orbit_amplitude,
)
from qnary.words import BudgetExceededError, Word, lyndon_words

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def w(text, q=2):
    return Word.from_string(text, q)


def unitarity_defect(M):
    return np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))


def eigenvalue_poly_oracle(U):
    """Expand prod_j (xi - lambda_j) by repeated convolution."""
    coeffs = np.array([1.0 + 0j])
    for lam in np.linalg.eigvals(U):
        coeffs = np.convolve(coeffs, [1.0, -lam])
    return coeffs


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


# --- DFT matrix ---------------------------------------------------------------


def test_dft_q2_exact():
    expected = np.array([[1, 1], [1, -1]]) * INV_SQRT2
    assert np.allclose(np.array(_dft_table(2)), expected, atol=1e-15)


def test_dft_q1():
    assert np.allclose(np.array(_dft_table(1)), [[1.0]])


def test_dft_q3_second_row():
    omega = np.exp(2j * np.pi / 3)
    row = np.array([1, omega, omega**2]) / np.sqrt(3)
    assert np.allclose(np.array(_dft_table(3))[1], row, atol=1e-15)


@pytest.mark.parametrize("q", range(1, 9))
def test_dft_unitary(q):
    assert unitarity_defect(np.array(_dft_table(q))) < 1e-13


def test_dft_table_is_numpys_dft_bit_for_bit():
    # the table comes from math alone, and Sigma's blocks are its array: both
    # keep the bits of numpy's complex exp and divide, the DFT's former route
    def bits(rows):
        return [[(z.real.hex(), z.imag.hex()) for z in row] for row in rows]

    for q in range(1, 65):
        j = np.arange(q)
        numpy_dft = np.exp(1j * ((np.outer(j, j) % q) * (2.0 * np.pi / q))) / np.sqrt(q)
        table = _dft_table(q)
        assert bits(table) == bits(np.array(table).tolist()) == bits(numpy_dft.tolist())


# --- Sigma assembly -----------------------------------------------------------


def test_sigma_q2_m1_entries():
    g = build_graph(2, 1)
    s = assemble_sigma(g)
    assert s.shape == (4, 4)
    assert not s.flags.writeable
    # edges indexed 00,01,10,11; entry (out, in) couples at the shared vertex
    assert s[0, 0] == pytest.approx(INV_SQRT2)
    # out 01 (last letter 1), in 10 (first letter 1): omega^(1*1) = -1
    assert s[1, 2] == pytest.approx(-INV_SQRT2)
    # out 10 (last letter 0), in 01 (first letter 0): omega^0 = +1
    assert s[2, 1] == pytest.approx(INV_SQRT2)


# sha256 of assemble_sigma(build_graph(q, m)).tobytes(), taken when the DFT
# was still computed by numpy's complex kernels
SIGMA_SHA256 = {
    (2, 1): "8765cb95f180a7a8c2bfab56621b58096ee4e582d2c0684bc880f345a55374b3",
    (2, 3): "efcb491e6a4a32e55785ffdc2a4d862bc9b83f66ed2436ebd650547c1e4c9562",
    (3, 2): "88a373c5afb224b03ad3058ba853f7840270452a3876695ffcd2589c1c5dcf1f",
    (4, 1): "7f7a3cd8930010f5a0250037456b74f04a052f35cbfaff3ebe50bcca33435b01",
}


@pytest.mark.parametrize("q,m", list(SIGMA_SHA256))
def test_sigma_bytes_pinned(q, m):
    sigma = assemble_sigma(build_graph(q, m))
    assert hashlib.sha256(sigma.tobytes()).hexdigest() == SIGMA_SHA256[q, m]


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_sigma_unitary(q, m):
    s = assemble_sigma(build_graph(q, m))
    assert unitarity_defect(s) < 1e-12


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2)])
def test_sigma_sparsity_pattern_and_moduli(q, m):
    g = build_graph(q, m)
    s = assemble_sigma(g)
    for e_out in range(g.num_edges):
        row = s[e_out]
        nonzero = np.flatnonzero(np.abs(row) > 1e-15)
        assert len(nonzero) == q
        for e_in in nonzero:
            assert int(e_in) % g.num_vertices == e_out // q  # terminus(e_in) = origin(e_out)
            assert abs(row[e_in]) == pytest.approx(1.0 / math.sqrt(q), abs=1e-12)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1)])
def test_sigma_equals_the_vertex_by_vertex_loop(q, m):
    # the reference fills one DFT block per vertex v: out-edge v.c, in-edge b.v
    g = build_graph(q, m)
    V = g.num_vertices
    dft = np.array(_dft_table(q))
    reference = np.zeros((g.num_edges, g.num_edges), dtype=complex)
    for v in range(V):
        for b in range(q):
            for c in range(q):
                reference[v * q + c, b * V + v] = dft[c, b]
    assert np.array_equal(assemble_sigma(g), reference)


# --- edge lengths ---------------------------------------------------------------


def test_edge_lengths_golden_seed():
    inst = build_instance(2, 2, seed=7)
    lengths = inst.lengths
    assert isinstance(lengths, tuple)  # immutable, and no numpy to build
    assert lengths[:3] == pytest.approx(
        [1.3238327648331625, 1.150849173924502, 1.6509344730398539], abs=0.0
    )
    # the instance keeps the seed beside its lengths
    assert inst.seed == 7


def test_edge_lengths_range_and_determinism():
    a = build_instance(3, 2, seed=42).lengths
    b = build_instance(3, 2, seed=42).lengths
    c = build_instance(3, 2, seed=43).lengths
    assert len(a) == 27 and all(1.0 <= x < 2.0 for x in a)
    assert a == b
    assert any(x != y for x, y in zip(a, c))


STREAM_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 17]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_is_pythons_mersenne_twister(seed):
    oracle = random.Random(seed)
    assert np.array_equal(_random(seed, 2500), [oracle.random() for _ in range(2500)])


def test_stream_refuses_what_seed_sequence_refuses():
    # random.Random alone would take |seed| of a negative int and hash a float
    with pytest.raises(ValueError, match="expected non-negative integer, got -1"):
        _random(-1, 3)
    with pytest.raises(TypeError):
        _random(1.5, 3)
    assert list(_random(0, 0)) == []


# --- evolution operator -----------------------------------------------------------


def test_evolution_operator_at_zero_is_sigma():
    inst = build_instance(2, 2, seed=1)
    assert np.array_equal(evolution_operator(inst, 0.0), assemble_sigma(inst.graph))


def test_evolution_operator_unitary():
    inst = build_instance(2, 2, seed=1)
    assert unitarity_defect(evolution_operator(inst, 13.7)) < 1e-12


def test_evolution_operator_entrywise():
    inst = build_instance(2, 2, seed=3)
    k = 2.31
    U, sigma = evolution_operator(inst, k), assemble_sigma(inst.graph)
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = rng.integers(0, 8)
        e2 = rng.integers(0, 8)
        expected = np.exp(1j * k * inst.lengths[e]) * sigma[e, e2]
        assert U[e, e2] == pytest.approx(expected, abs=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phase_bound_refuses_an_overflowing_wavenumber():
    # each edge is shorter than 2, so 2 n |k| finite keeps every phase finite
    inst = build_instance(2, 1, seed=1)
    assert np.all(np.isfinite(evolution_operator(inst, -8e307)))
    with pytest.raises(ValueError, match="too large"):
        evolution_operator(inst, 1e308)
    assert coeff_from_pseudo_orbits(0, inst, 1e308) == 1
    assert np.isfinite(coeff_from_pseudo_orbits(2, inst, 4e307))
    with pytest.raises(ValueError, match=r"phase bound 2 \* 2 \* \|wavenumber\| overflows"):
        coeff_from_pseudo_orbits(2, inst, 5e307)


def test_evolution_operator_rejects_nonfinite_k():
    inst = build_instance(2, 1, seed=1)
    with pytest.raises(ValueError):
        evolution_operator(inst, float("nan"))
    with pytest.raises(ValueError):
        evolution_operator(inst, float("inf"))


# --- characteristic polynomial -------------------------------------------------------


def test_char_poly_identity_matrix():
    coeffs = char_poly_direct(np.eye(2))
    assert np.allclose(coeffs.a, [1, -2, 1], atol=1e-12)


def test_char_poly_diag_plus_minus():
    coeffs = char_poly_direct(np.diag([1.0, -1.0]))
    assert np.allclose(coeffs.a, [1, 0, -1], atol=1e-12)


def test_char_poly_self_inversive_random_unitary():
    U = random_unitary(8, seed=17)
    a = char_poly_direct(U).a
    assert abs(abs(a[8]) - 1) < 1e-10
    for n in range(9):
        assert abs(a[8 - n] - a[8] * np.conj(a[n])) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12, 16])
def test_char_poly_matches_eigenvalue_oracle(dim):
    for seed in (0, 1, 2):
        U = random_unitary(dim, seed=100 * dim + seed)
        direct = char_poly_direct(U).a
        oracle = eigenvalue_poly_oracle(U)
        assert np.max(np.abs(direct - oracle)) < 1e-10


def char_polys(stack):
    """`_char_polys` on a copy of the stack, with buffers of its own."""
    N, _, c = stack.shape
    work, p = np.empty(N * N * c, dtype=complex), np.empty((N + 1, N + 1, c), dtype=complex)
    return _char_polys(np.array(stack, dtype=complex), work, p)


def test_char_poly_dimension_cap():
    assert isinstance(char_poly_direct(np.eye(64)), CharPolyCoefficients)
    with pytest.raises(BudgetExceededError):
        char_poly_direct(np.eye(65))
    # the cap refuses, not the stacked routine behind it
    assert char_polys(np.eye(65)[:, :, None]).shape == (1, 66)


def determinant_poly_oracle(U):
    """Interpolate det(xi I - U) from its values at the N+1 roots of unity."""
    N = U.shape[0]
    nodes = np.exp(2j * np.pi * np.arange(N + 1) / (N + 1))
    values = np.linalg.det(nodes[:, None, None] * np.eye(N) - U)
    # values[j] = sum_t b_t e^(2 pi i j t/(N+1)), b_t the xi^t coefficient
    return (np.fft.fft(values) / (N + 1))[::-1]


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64, 65, 128])
def test_char_poly_matches_the_determinant_oracle(dim):
    U = random_unitary(dim, seed=dim)
    # past the dimension cap, the stacked routine behind char_poly_direct
    direct = char_poly_direct(U).a if dim <= 64 else char_polys(U[:, :, None])[0]
    assert np.max(np.abs(direct - determinant_poly_oracle(U))) < 1e-12


def test_char_poly_of_a_stack_matches_one_matrix_at_a_time():
    # the sample axis is last; a zero column below the diagonal needs no reflection
    stack = np.stack([random_unitary(16, seed=s) for s in range(5)] + [np.eye(16)], axis=-1)
    rows = char_polys(stack)
    assert rows.shape == (6, 17)
    for s in range(6):
        assert np.max(np.abs(rows[s] - char_poly_direct(stack[:, :, s]).a)) < 1e-13
    assert rows[:, 0].tolist() == [1.0] * 6
    # p[0, 0] = 1 is copied up the diagonal, so every leading coefficient is exactly 1+0j
    rng = np.random.default_rng(7)
    for N in (1, 2, 8, 16, 64):
        stack = rng.standard_normal((N, N, 3)) + 1j * rng.standard_normal((N, N, 3))
        assert char_polys(stack)[:, 0].tolist() == [1 + 0j] * 3
        assert char_poly_direct(stack[:, :, 0]).a[0] == 1 + 0j


def test_char_poly_transient_memory_is_bounded():
    # the (N+1) x N x N stack of node matrices would take 64.5 MiB at N = 128
    U = random_unitary(128, seed=5)
    tracemalloc.start()
    try:
        char_polys(U[:, :, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_char_polys_allocate_nothing_the_size_of_the_stack():
    # the sampler passes the same buffers for every chunk, so a chunk's large
    # products must land in them; what remains is per-column vectors and
    # numpy's fixed 128 KiB ufunc buffer
    N, c = 64, 16
    stack = np.stack([random_unitary(N, seed=s) for s in range(c)], axis=-1)
    work, p = np.empty(N * N * c, dtype=complex), np.empty((N + 1, N + 1, c), dtype=complex)
    tracemalloc.start()
    try:
        rows = _char_polys(stack, work, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes / 2
    assert rows.shape == (c, N + 1)


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly_direct(np.ones((2, 3)))


# --- amplitudes and lengths -----------------------------------------------------------


def test_orbit_amplitude_loop():
    inst = build_instance(2, 1, seed=0)
    amp = orbit_amplitude(w("0"), inst)
    assert amp == pytest.approx(INV_SQRT2)
    # single-factor product: equals the matching Sigma entry
    assert amp == assemble_sigma(inst.graph)[0, 0]


def test_orbit_amplitude_rejects_what_is_not_an_orbit():
    inst = build_instance(2, 1, seed=0)
    for word in (w("10"), w("0101"), Word((), 2)):
        with pytest.raises(ValueError, match="is not a Lyndon word"):
            orbit_amplitude(word, inst)
    with pytest.raises(ValueError, match="alphabet sizes differ"):
        orbit_amplitude(w("01", q=3), inst)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1)])
def test_orbit_amplitude_modulus(q, m):
    inst = build_instance(q, m, seed=0)
    for n in range(1, 6):
        for po in primitive_pseudo_orbits(q, n):
            for orbit in po:
                amp = orbit_amplitude(orbit, inst)
                assert abs(amp) ** 2 == pytest.approx(q ** (-len(orbit)), abs=1e-12)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_orbit_amplitude_is_the_cyclic_product_of_sigma_entries(q, m):
    # Sigma stays the oracle: the DFT-by-letters amplitude equals, bit for bit,
    # the product of Sigma[next edge, edge] taken along the walk in order
    inst = build_instance(q, m, seed=0)
    sigma = assemble_sigma(inst.graph)
    for length in range(1, 2 * m + 3):
        for orbit in lyndon_words(q, length):
            edges = _windows(orbit.letters, q, m + 1)
            product = 1 + 0j
            for i, e in enumerate(edges):
                product *= sigma[edges[(i + 1) % length], e]
            amp = orbit_amplitude(orbit, inst)
            assert type(amp) is complex
            assert amp == product


def test_pseudo_orbit_amplitude():
    inst = build_instance(2, 2, seed=0)
    weights, _ = expansion_terms(inst, 0)
    assert weights.tolist() == [1]  # the empty pseudo orbit
    # length 2: {01} then {1,0}; one orbit, so the sign is -1
    weights, _ = expansion_terms(inst, 2)
    assert weights[0] == -orbit_amplitude(w("01"), inst)
    for n in range(0, 7):
        weights, _ = expansion_terms(inst, n)
        assert np.abs(weights) ** 2 == pytest.approx(2.0**-n, abs=1e-12)


def test_pseudo_orbit_length():
    inst = build_instance(2, 3, seed=9)
    ell = inst.lengths
    assert expansion_terms(inst, 0)[1].tolist() == [0.0]
    # length 1: the loops {0} then {1}
    assert expansion_terms(inst, 1)[1][0] == pytest.approx(ell[int("0000", 2)])

    inst2 = build_instance(2, 2, seed=9)
    ell2 = inst2.lengths
    orbits = [_braced([str(word) for word in po], 2) for po in primitive_pseudo_orbits(2, 4)]
    metric = expansion_terms(inst2, 4)[1]
    # edge indices are the base-2 values of the edge words
    expected = ell2[int("111", 2)] + ell2[int("010", 2)]
    expected += ell2[int("101", 2)] + ell2[int("000", 2)]
    assert metric[orbits.index("{1,01,0}")] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q,m,n_max", [(2, 1, 4), (2, 2, 8), (2, 3, 12), (3, 1, 9)])
def test_expansion_terms_match_orbit_objects(q, m, n_max):
    # independent route: the public pseudo orbits as tuples of Lyndon words,
    # orbit_amplitude and each word's edge walk, multiplied and summed orbit
    # by orbit
    inst = build_instance(q, m, seed=21)
    ell = inst.lengths
    for n in range(n_max + 1):
        weights, metric = expansion_terms(inst, n)
        orbits = primitive_pseudo_orbits(q, n)
        assert len(weights) == len(metric) == len(orbits)
        for po, weight, length in zip(orbits, weights, metric):
            amp, total = 1 + 0j, 0.0
            for orbit in po:
                amp *= orbit_amplitude(orbit, inst)
                total += float(sum(ell[e] for e in _windows(orbit.letters, q, m + 1)))
            assert weight == (-amp if len(po) % 2 else amp)
            assert length == total


# --- pseudo-orbit expansion of the coefficients -----------------------------------------


def test_coeff_n0_is_one():
    inst = build_instance(2, 2, seed=4)
    assert coeff_from_pseudo_orbits(0, inst, 7.7) == 1


def test_coeff_n1_two_loops():
    inst = build_instance(2, 2, seed=4)
    s, ell = assemble_sigma(inst.graph), inst.lengths
    k = 5.1
    e00, e11 = int("000", 2), int("111", 2)
    expected = -(
        s[e00, e00] * np.exp(1j * k * ell[e00]) + s[e11, e11] * np.exp(1j * k * ell[e11])
    )
    assert coeff_from_pseudo_orbits(1, inst, k) == pytest.approx(expected, abs=1e-14)


def test_coeff_index_out_of_range():
    inst = build_instance(2, 1, seed=4)
    with pytest.raises(ValueError):
        coeff_from_pseudo_orbits(5, inst, 1.0)
    with pytest.raises(ValueError):
        coeff_from_pseudo_orbits(-1, inst, 1.0)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1)])
def test_expansion_matches_determinant(q, m):
    inst = build_instance(q, m, seed=5)
    E = inst.graph.num_edges
    rng = np.random.default_rng(2024)
    for k in rng.uniform(0.0, 50.0, size=10):
        direct = char_poly_direct(evolution_operator(inst, k)).a
        expanded = np.array([coeff_from_pseudo_orbits(n, inst, k) for n in range(E + 1)])
        assert np.max(np.abs(direct - expanded)) < 1e-9


def test_expansion_at_k_zero_matches_sigma():
    inst = build_instance(2, 2, seed=8)
    E = inst.graph.num_edges
    direct = char_poly_direct(assemble_sigma(inst.graph)).a
    expanded = np.array([coeff_from_pseudo_orbits(n, inst, 0.0) for n in range(E + 1)])
    assert np.max(np.abs(direct - expanded)) < 1e-9


@pytest.mark.parametrize("q,m,seed", [(2, 2, 3), (3, 1, 2), (2, 3, 1)])
@pytest.mark.parametrize("k", [3.5, 1e5, 1e7, 1e12])
def test_expansion_matches_determinant_at_every_k(q, m, seed, k):
    # both routes multiply U(k)'s per-edge phases, so they agree to rounding
    # however large k * length grows
    inst = build_instance(q, m, seed)
    E = inst.graph.num_edges
    direct = char_poly_direct(evolution_operator(inst, k)).a
    expanded = np.array([coeff_from_pseudo_orbits(n, inst, k) for n in range(E + 1)])
    assert np.max(np.abs(direct - expanded)) <= 1e-13


@pytest.mark.parametrize("q,m,k", [(2, 2, 3.3), (2, 3, 11.0), (3, 2, 4.2)])
def test_unitary_self_inversive_on_instances(q, m, k):
    inst = build_instance(q, m, seed=13)
    U = evolution_operator(inst, k)
    assert unitarity_defect(U) < 1e-12
    a = char_poly_direct(U).a
    N = inst.graph.num_edges
    assert abs(abs(a[N]) - 1) < 1e-9
    for n in range(N + 1):
        assert abs(a[N - n] - a[N] * np.conj(a[n])) < 1e-9
