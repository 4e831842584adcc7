"""Scattering assembly, evolution operator, and coefficient computations.

char_poly_direct is validated against two independent oracles: one expands
prod_j (xi - lambda_j) from the numerically computed eigenvalues, the other
interpolates det(xi I - U) from its values at roots of unity.  The
pseudo-orbit expansion is checked against the direct route.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qnary.debruijn import (
    PeriodicOrbit,
    build_graph,
    primitive_pseudo_orbits,
)
from qnary.quantum import (
    CharPolyCoefficients,
    _char_polys,
    _PCG64,
    assemble_sigma,
    build_instance,
    char_poly_direct,
    coeff_from_pseudo_orbits,
    dft_matrix,
    evolution_operator,
    expansion_terms,
    orbit_amplitude,
    sample_edge_lengths,
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
    assert np.allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_q1():
    assert np.allclose(dft_matrix(1), [[1.0]])


def test_dft_q3_second_row():
    omega = np.exp(2j * np.pi / 3)
    row = np.array([1, omega, omega**2]) / np.sqrt(3)
    assert np.allclose(dft_matrix(3)[1], row, atol=1e-15)


@pytest.mark.parametrize("q", range(1, 9))
def test_dft_unitary(q):
    assert unitarity_defect(dft_matrix(q)) < 1e-13


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
            assert g.edge_terminus(int(e_in)) == g.edge_origin(e_out)
            assert abs(row[e_in]) == pytest.approx(1.0 / math.sqrt(q), abs=1e-12)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1)])
def test_sigma_equals_the_vertex_by_vertex_loop(q, m):
    # the reference fills one DFT block per vertex v: out-edge v.c, in-edge b.v
    g = build_graph(q, m)
    V = g.num_vertices
    dft = dft_matrix(q)
    reference = np.zeros((g.num_edges, g.num_edges), dtype=complex)
    for v in range(V):
        for b in range(q):
            for c in range(q):
                reference[v * q + c, b * V + v] = dft[c, b]
    assert np.array_equal(assemble_sigma(g), reference)


# --- edge lengths ---------------------------------------------------------------


def test_edge_lengths_golden_seed():
    g = build_graph(2, 2)
    lengths = sample_edge_lengths(g, seed=7)
    assert not lengths.flags.writeable
    assert lengths[:3] == pytest.approx(
        [1.6250954666046669, 1.8972138009695754, 1.7756856902451936], abs=0.0
    )
    # the instance keeps the seed beside the same lengths
    inst = build_instance(2, 2, seed=7)
    assert inst.seed == 7
    assert np.array_equal(inst.lengths, lengths)


def test_edge_lengths_range_and_determinism():
    g = build_graph(3, 2)
    a = sample_edge_lengths(g, seed=42)
    b = sample_edge_lengths(g, seed=42)
    c = sample_edge_lengths(g, seed=43)
    assert np.all(a >= 1.0) and np.all(a < 2.0)
    assert np.array_equal(a, b)
    assert np.any(a != c)


STREAM_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 17]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_is_numpys_default_generator_bit_for_bit(seed):
    # numpy.random is the oracle here; the package itself never imports it.
    # 2,500 draws cross two of the stream's 1,024-draw blocks
    oracle = np.random.default_rng(seed)
    assert np.array_equal(_PCG64(seed).random(2500), oracle.random(2500))
    for k_max in (1e4, 37.5, 1.0):
        draws = _PCG64(seed).uniform(0.0, k_max, 300)
        assert np.array_equal(draws, np.random.default_rng(seed).uniform(0.0, k_max, size=300))


@pytest.mark.parametrize("chunk", [1, 4, 7, 64, 1024])
def test_stream_drawn_in_chunks_equals_one_draw(chunk):
    total = 2100
    for seed in STREAM_SEEDS:
        whole = _PCG64(seed).uniform(0.0, 1e4, total)
        stream = _PCG64(seed)
        parts = [stream.uniform(0.0, 1e4, min(chunk, total - lo)) for lo in range(0, total, chunk)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_stream_refuses_what_seed_sequence_refuses():
    with pytest.raises(ValueError):
        _PCG64(-1)
    with pytest.raises(TypeError):
        _PCG64(1.5)
    assert _PCG64(0).random(0).shape == (0,)


# --- evolution operator -----------------------------------------------------------


def test_evolution_operator_at_zero_is_sigma():
    inst = build_instance(2, 2, seed=1)
    assert np.array_equal(evolution_operator(inst, 0.0), inst.sigma)


def test_evolution_operator_unitary():
    inst = build_instance(2, 2, seed=1)
    assert unitarity_defect(evolution_operator(inst, 13.7)) < 1e-12


def test_evolution_operator_entrywise():
    inst = build_instance(2, 2, seed=3)
    k = 2.31
    U = evolution_operator(inst, k)
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = rng.integers(0, 8)
        e2 = rng.integers(0, 8)
        expected = np.exp(1j * k * inst.lengths[e]) * inst.sigma[e, e2]
        assert U[e, e2] == pytest.approx(expected, abs=1e-15)


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
    amp = orbit_amplitude(PeriodicOrbit(w("0")), inst)
    assert amp == pytest.approx(INV_SQRT2)
    # single-factor product: equals the matching Sigma entry
    assert amp == inst.sigma[0, 0]


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1)])
def test_orbit_amplitude_modulus(q, m):
    inst = build_instance(q, m, seed=0)
    for n in range(1, 6):
        for po in primitive_pseudo_orbits(q, n):
            for orbit in po.orbits:
                amp = orbit_amplitude(orbit, inst)
                assert abs(amp) ** 2 == pytest.approx(
                    q ** (-len(orbit.word)), abs=1e-12
                )


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_orbit_amplitude_is_the_cyclic_product_of_sigma_entries(q, m):
    # Sigma stays the oracle: the DFT-by-letters amplitude equals, bit for bit,
    # the product of Sigma[next edge, edge] taken along the walk in order
    inst = build_instance(q, m, seed=0)
    sigma = assemble_sigma(inst.graph)
    for length in range(1, 2 * m + 3):
        for orbit in map(PeriodicOrbit, lyndon_words(q, length)):
            edges = orbit.edge_sequence(m)
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
    assert weights[0] == -orbit_amplitude(PeriodicOrbit(w("01")), inst)
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
    orbits = [str(po) for po in primitive_pseudo_orbits(2, 4)]
    metric = expansion_terms(inst2, 4)[1]
    # edge indices are the base-2 values of the edge words
    expected = ell2[int("111", 2)] + ell2[int("010", 2)]
    expected += ell2[int("101", 2)] + ell2[int("000", 2)]
    assert metric[orbits.index("{1,01,0}")] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("q,m,n_max", [(2, 1, 4), (2, 2, 8), (2, 3, 12), (3, 1, 9)])
def test_expansion_terms_match_orbit_objects(q, m, n_max):
    # independent route: public PseudoOrbit objects, orbit_amplitude and
    # PeriodicOrbit.edge_sequence, multiplied and summed orbit by orbit
    inst = build_instance(q, m, seed=21)
    ell = inst.lengths
    for n in range(n_max + 1):
        weights, metric = expansion_terms(inst, n)
        orbits = primitive_pseudo_orbits(q, n)
        assert len(weights) == len(metric) == len(orbits)
        for po, weight, length in zip(orbits, weights, metric):
            amp, total = 1 + 0j, 0.0
            for orbit in po.orbits:
                amp *= orbit_amplitude(orbit, inst)
                total += float(sum(ell[e] for e in orbit.edge_sequence(m)))
            assert weight == (-amp if len(po.orbits) % 2 else amp)
            assert length == total


# --- pseudo-orbit expansion of the coefficients -----------------------------------------


def test_coeff_n0_is_one():
    inst = build_instance(2, 2, seed=4)
    assert coeff_from_pseudo_orbits(0, inst, 7.7) == 1


def test_coeff_n1_two_loops():
    inst = build_instance(2, 2, seed=4)
    s, ell = inst.sigma, inst.lengths
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
    direct = char_poly_direct(inst.sigma).a
    expanded = np.array([coeff_from_pseudo_orbits(n, inst, 0.0) for n in range(E + 1)])
    assert np.max(np.abs(direct - expanded)) < 1e-9


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
