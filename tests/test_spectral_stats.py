"""Diagonal approximation, exact grouped variance, MC estimates, RMT refs."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qnary import _kernels, quantum, spectral_stats
from qnary._kernels import _char_polys, _sampled_coefficients, _sampled_variances
from qnary.debruijn import _windows, build_graph, edge_multiplicities, primitive_pseudo_orbits
from qnary.quantum import (
    _dft_table,
    assemble_sigma,
    build_instance,
    coeff_from_pseudo_orbits,
    expansion_terms,
    orbit_amplitude,
)
from qnary.spectral_stats import (
    _balanced_subset_variances,
    _dp_variances,
    _exact_variance,
    _group_order,
    _grouped_variance,
    _minor_weight,
    _run_sum,
    diagonal_variance,
    exact_grouped_variance,
    monte_carlo_coefficient_means,
    monte_carlo_variance,
    rmt_reference,
    variance_report,
)
from qnary.words import DEFAULT_ENUMERATION_BUDGET, BudgetExceededError, Word, lyndon_words


def test_diagonal_variance_closed_form():
    for n in range(2, 10):
        assert diagonal_variance(2, n) == pytest.approx(0.5, abs=1e-15)
        assert diagonal_variance(3, n) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert diagonal_variance(5, n) == pytest.approx(0.8, abs=1e-15)
    # n = 1: q loops, each contributing q^-1; n = 0: the empty pseudo orbit
    assert diagonal_variance(2, 1) == pytest.approx(1.0)
    assert diagonal_variance(7, 1) == pytest.approx(1.0)
    assert diagonal_variance(3, 0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "q,m,max_n", [(2, 1, 8), (2, 2, 8), (3, 1, 7), (5, 1, 5)]
)
def test_diagonal_variance_from_orbits_matches_closed_form(q, m, max_n):
    # sum of |amplitude|^2 over the enumerated pseudo orbits of length n
    inst = build_instance(q, m, seed=2)
    for n in range(0, max_n + 1):
        from_orbits = np.sum(np.abs(expansion_terms(inst, n)[0]) ** 2)
        assert from_orbits == pytest.approx(diagonal_variance(q, n), abs=1e-12)
        if n >= 2:
            assert from_orbits == pytest.approx((q - 1) / q, abs=1e-12)


def test_diagonal_variance_from_orbits_examples():
    inst = build_instance(2, 2, seed=2)
    assert np.sum(np.abs(expansion_terms(inst, 4)[0]) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert np.sum(np.abs(expansion_terms(inst, 0)[0]) ** 2) == pytest.approx(1.0, abs=1e-15)
    inst3 = build_instance(3, 1, seed=2)
    assert np.sum(np.abs(expansion_terms(inst3, 3)[0]) ** 2) == pytest.approx(2 / 3, abs=1e-12)


def test_exact_grouped_equals_diagonal_when_groups_are_singletons():
    inst = build_instance(2, 2, seed=2)
    keys = [
        edge_multiplicities(po, inst.graph)
        for po in primitive_pseudo_orbits(2, 2)
    ]
    assert len(set(keys)) == len(keys)  # grouping is trivial at n = 2
    assert exact_grouped_variance(inst, 2) == pytest.approx(
        diagonal_variance(2, 2), abs=1e-12
    )


def test_exact_grouped_differs_when_groups_merge():
    # at n = 4 the sets {0001} and {001,0} traverse the same edges
    inst = build_instance(2, 2, seed=2)
    keys = [
        edge_multiplicities(po, inst.graph)
        for po in primitive_pseudo_orbits(2, 4)
    ]
    assert len(set(keys)) < len(keys)
    value = exact_grouped_variance(inst, 4)
    assert value >= 0.0
    assert value != pytest.approx(diagonal_variance(2, 4), abs=1e-6)


def test_exact_grouped_independent_of_lengths_seed():
    a = exact_grouped_variance(build_instance(2, 2, seed=1), 4)
    b = exact_grouped_variance(build_instance(2, 2, seed=99), 4)
    assert a == pytest.approx(b, abs=1e-12)


def test_monte_carlo_deterministic_and_consistent():
    inst = build_instance(2, 2, seed=7)
    est1, se1 = monte_carlo_variance(inst, 4, samples=800, k_max=1e4, seed=5)
    est2, se2 = monte_carlo_variance(inst, 4, samples=800, k_max=1e4, seed=5)
    assert est1 == est2 and se1 == se2
    exact = exact_grouped_variance(inst, 4)
    assert abs(est1 - exact) < 3 * se1


def test_monte_carlo_argument_validation():
    inst = build_instance(2, 1, seed=7)
    with pytest.raises(ValueError):
        monte_carlo_variance(inst, 1, samples=1, k_max=1e4, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_variance(inst, 1, samples=10, k_max=0.0, seed=0)
    for n in (-1, inst.graph.num_edges + 1):
        with pytest.raises(ValueError, match="outside"):
            monte_carlo_variance(inst, n, samples=10, k_max=1e4, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_coefficient_means(inst, samples=1, k_max=1e4, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_coefficient_means(inst, samples=10, k_max=-1.0, seed=0)


def test_monte_carlo_pinned_at_one_seed():
    # recorded from the stacked Hessenberg sampler at its 256 KiB chunk rule, the
    # wavenumbers drawn past the E edge lengths (x86-64, numpy 2.4 with OpenBLAS);
    # another SIMD width or chunk rule may differ in the last bits
    inst = build_instance(2, 1, seed=3)
    assert monte_carlo_variance(inst, 2, samples=50, k_max=1e4, seed=11) == (
        0.48484691565589644,
        0.049625705464109604,
    )
    means, ses = monte_carlo_coefficient_means(inst, samples=50, k_max=1e4, seed=11)
    assert means.tolist() == [
        1 + 0j,
        0.033132389837096134 + 0.015446489603068927j,
        0.020496981133338525 - 0.055592018225608365j,
        0.01610267999057104 - 0.025025819825023027j,
        0.20752604004879147 + 0.02810969345857651j,
    ]
    assert ses.tolist() == [
        0.0,
        0.13255907440158415,
        0.09811588219344711,
        0.13259307460397896,
        0.1382854141140945,
    ]


def test_sampled_wavenumbers_are_not_the_edge_lengths(monkeypatch):
    # one seed draws the edge lengths and then the wavenumbers: none of the
    # wavenumbers may repeat a length draw as k_max * (l_e - 1)
    q, m, seed, k_max = 2, 3, 5, 1e4
    inst = build_instance(q, m, seed)
    sigma = assemble_sigma(inst.graph)
    rows = np.arange(inst.graph.num_edges)
    cols = np.abs(sigma).argmax(axis=1)  # a nonzero entry of each row of Sigma
    phases, char_polys = [], _kernels._char_polys

    def spy(H, work, out):
        phases.append(H[rows, cols, :] / sigma[rows, cols, None])
        return char_polys(H, work, out)

    monkeypatch.setattr(_kernels, "_char_polys", spy)
    variance_report(q, m, 4, seed, samples=200, k_max=k_max)
    sampled = np.concatenate(phases, axis=1)
    assert sampled.shape == (len(rows), 200)
    ell = np.asarray(inst.lengths)
    echoes = np.exp(1j * np.multiply.outer(ell, k_max * (ell - 1)))
    gaps = np.abs(sampled[:, :, None] - echoes[:, None, :]).max(axis=0)
    assert gaps.min() > 1e-3


@pytest.mark.parametrize("q,m,samples", [(2, 3, 200), (2, 5, 12), (4, 2, 12)])
def test_every_sampled_row_is_self_inversive(q, m, samples):
    # det(xi I - U) of a unitary U: a_(E-n) = conj(a_n) a_E, |a_E| = 1
    inst = build_instance(q, m, seed=4)
    E = inst.graph.num_edges
    a = _sampled_coefficients(inst, range(E + 1), samples, 1e4, seed=9)
    assert a.shape == (E + 1, samples)
    assert np.max(np.abs(a[::-1] - a.conj() * a[E])) < 1e-9
    assert np.max(np.abs(np.abs(a[E]) - 1)) < 1e-9
    # the same seed and chunk rule reproduce every row bit for bit
    assert np.array_equal(a, _sampled_coefficients(inst, range(E + 1), samples, 1e4, seed=9))


def test_one_sample_set_serves_every_n():
    inst = build_instance(2, 2, seed=7)
    means, errors = _sampled_variances(inst, range(9), 300, 1e4, seed=5)
    for n in range(9):
        assert monte_carlo_variance(inst, n, 300, 1e4, seed=5) == (means[n], errors[n])


def test_oversized_sample_is_refused_before_numpy_allocates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled past the refusal")

    monkeypatch.setattr(_kernels, "_char_polys", refuse)
    inst = build_instance(2, 1, seed=0)
    samples = DEFAULT_ENUMERATION_BUDGET // 5 + 1  # E + 1 = 5 coefficients each
    with pytest.raises(BudgetExceededError, match="coefficients exceed budget"):
        monte_carlo_variance(inst, 2, samples, 1e4, seed=0)
    with pytest.raises(BudgetExceededError, match="coefficients exceed budget"):
        monte_carlo_coefficient_means(inst, samples, 1e4, seed=0)
    monkeypatch.setattr(spectral_stats, "build_instance", refuse)
    with pytest.raises(BudgetExceededError, match="coefficients exceed budget"):
        variance_report(2, 1, 2, seed=0, samples=samples)


def test_coefficient_means_zero_for_positive_n():
    inst = build_instance(2, 2, seed=7)
    means, ses = monte_carlo_coefficient_means(inst, samples=2000, k_max=1e4, seed=11)
    assert means[0] == pytest.approx(1.0)
    for n in range(1, inst.graph.num_edges + 1):
        assert abs(means[n]) < 3 * ses[n]


def test_rmt_reference_values():
    assert rmt_reference("CUE", 3, 8) == 1.0
    assert rmt_reference("CUE", 0, 4) == 1.0
    assert rmt_reference("COE", 0, 8) == 1.0
    assert rmt_reference("COE", 2, 4) == pytest.approx(1.8)
    assert rmt_reference("coe", 2, 4) == pytest.approx(1.8)
    with pytest.raises(ValueError):
        rmt_reference("GUE", 1, 4)
    with pytest.raises(ValueError):
        rmt_reference("CUE", 9, 8)


def test_diagonal_gap_to_cue_shrinks_with_q():
    gaps = [rmt_reference("CUE", 3, 16) - diagonal_variance(q, 3) for q in range(2, 11)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_variance_report_fields():
    record = variance_report(2, 2, 4, seed=7, samples=0)
    assert list(record) == [
        "q", "m", "n", "seed", "samples", "pseudo_orbit_count", "diag", "exact_grouped",
        "cue_ref", "coe_ref",
    ]
    assert record["diag"] == pytest.approx(0.5)
    assert record["cue_ref"] == 1.0
    assert record["pseudo_orbit_count"] == 8
    assert record["seed"] == 7
    assert "mc_estimate" not in record
    assert "k_max" not in record
    json.dumps(record)  # serializable as-is


def test_variance_report_q5():
    record = variance_report(5, 1, 3, seed=1, samples=0)
    assert record["diag"] == pytest.approx(0.8)
    assert record["pseudo_orbit_count"] == 4 * 25


def test_variance_report_checks_sampling_before_exact_value(monkeypatch):
    def refuse(*args):
        raise AssertionError("exact value computed before the arguments were checked")

    # variance_report computes the exact value from (q, m, n) and builds the
    # instance only to sample, after both
    monkeypatch.setattr(spectral_stats, "_exact_variance", refuse)
    monkeypatch.setattr(spectral_stats, "build_instance", refuse)
    with pytest.raises(ValueError, match="at least 2 samples"):
        variance_report(2, 7, 18, seed=0, samples=1)
    for k_max in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="k_max"):
            variance_report(2, 2, 4, seed=0, samples=10, k_max=k_max)


@pytest.mark.parametrize("k_max", [0.0, -1.0, float("inf"), float("nan")])
def test_monte_carlo_needs_finite_positive_k_max(k_max):
    inst = build_instance(2, 1, seed=0)
    with pytest.raises(ValueError, match="k_max must be finite and positive"):
        monte_carlo_variance(inst, 2, 10, k_max, seed=0)


def test_exact_value_never_builds_sigma(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Sigma assembled for the exact value")

    # on the grouping route: the DP gives up past the 8 pseudo orbits of length 4
    assert _balanced_subset_variances(2, 2, 4, max_work=8, max_states=10**8) is None
    expected = _balanced_subset_variances(2, 2, 4, **FULL_DP)[4]
    amplitude = orbit_amplitude(Word((0, 1), 2), build_instance(2, 2, seed=0))
    grouped = []

    def spy(q, m, n):
        grouped.append(n)
        return _grouped_variance(q, m, n)

    monkeypatch.setattr(spectral_stats, "_grouped_variance", spy)
    monkeypatch.setattr(quantum, "assemble_sigma", refuse)
    monkeypatch.setattr(_kernels, "assemble_sigma", refuse)
    # an instance holds what its seed drew; the orbit routes read the DFT
    inst = build_instance(2, 2, seed=0)
    assert expansion_terms(inst, 4)[0].shape == (8,)
    assert coeff_from_pseudo_orbits(4, inst, 2.5) != 0
    assert orbit_amplitude(Word((0, 1), 2), inst) == amplitude
    assert exact_grouped_variance(inst, 4) == pytest.approx(expected, abs=1e-12)
    monkeypatch.setattr(spectral_stats, "build_instance", refuse)
    record = variance_report(2, 2, 4, seed=0)
    assert record["exact_grouped"] == pytest.approx(expected, abs=1e-12)
    assert grouped == [4, 4]


def test_variance_report_with_mc():
    record = variance_report(2, 2, 4, seed=7, samples=400, k_max=500.0)
    assert list(record)[-3:] == ["mc_estimate", "mc_std_error", "k_max"]
    assert record["samples"] == 400
    assert record["k_max"] == 500.0
    assert record["mc_std_error"] > 0
    assert abs(record["mc_estimate"] - record["exact_grouped"]) < 5 * record["mc_std_error"]
    json.dumps(record)


# --- the balanced-edge-set identities behind exact_grouped_variance ----------------

FULL_DP = {"max_work": 10**12, "max_states": 10**9}


@pytest.mark.parametrize(
    "q,m,n_max",
    [(2, 1, 4), (2, 2, 8), (2, 3, 16), (2, 4, 16), (3, 1, 9), (3, 2, 9), (4, 1, 8),
     (5, 1, 6), (6, 1, 6)],
)
def test_balanced_subset_dp_equals_pseudo_orbit_grouping(q, m, n_max):
    # q = 5 and 6 reach 5 x 5 and 6 x 6 minors, and q = 6 minors that vanish exactly
    dp = _balanced_subset_variances(q, m, n_max, **FULL_DP)
    for n in range(n_max + 1):
        assert dp[n] == pytest.approx(_grouped_variance(q, m, n), abs=1e-12)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1), (2, 3), (4, 1)])
def test_sign_class_average_is_the_exact_variance(q, m):
    # a third exact route, sharing no code with the DP or the grouping.  Var(a_n)
    # is the mean of |a_n|^2 over independent +-1 edge signs eps, U = diag(eps)
    # Sigma, since distinct edge sets have distinct sign products.  The gauge
    # eps_e -> eps_e eta_origin(e) eta_terminus(e) is a diagonal similarity, so
    # it keeps a_n, and fixing eps = +1 on a spanning tree leaves one
    # representative for each of the 2^(E-V+1) equal-sized classes
    graph = build_graph(q, m)
    V, E = graph.num_vertices, graph.num_edges
    parent = list(range(V))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    free = []
    for e in range(E):  # origin e // q, terminus e % V
        a, b = root(e // q), root(e % V)
        if a == b:
            free.append(e)
        else:
            parent[a] = b
    assert len(free) == E - V + 1
    classes = 2 ** len(free)
    signs = np.ones((E, classes))
    signs[free] = 1 - 2 * ((np.arange(classes) >> np.arange(len(free))[:, None]) & 1)
    H = signs[:, None, :] * assemble_sigma(graph)[:, :, None]
    polys = _char_polys(H, np.empty(E * E * classes, dtype=complex),
                        np.empty((E + 1, E + 1, classes), dtype=complex))
    variances = (np.abs(polys) ** 2).mean(axis=0)
    for n in range(E + 1):
        assert abs(variances[n] - _exact_variance(q, m, n)) <= 1e-13


def test_coefficient_and_grouped_variance_read_one_edge_group_table(monkeypatch):
    # a_n(k) = sum_g A_g e^(i k L_g) and Var(a_n) = sum_g |A_g|^2 over one table;
    # the coefficient multiplies U(k)'s per-edge phases, not per-orbit ones
    table, calls = quantum._edge_groups, []

    def spy(*args):
        calls.append(args)
        return table(*args)

    def refuse(*args):
        raise AssertionError("the coefficient read the per-pseudo-orbit expansion")

    monkeypatch.setattr(quantum, "_edge_groups", spy)
    monkeypatch.setattr(spectral_stats, "_edge_groups", spy)
    monkeypatch.setattr(quantum, "expansion_terms", refuse)
    inst, k = build_instance(2, 2, seed=3), 1e12
    groups = table(2, 2, 4)
    assert all(len(key) == 4 and list(key) == sorted(key) for key in groups)
    phase = np.exp(1j * k * np.asarray(inst.lengths))
    expected = sum(A * np.prod(phase[list(key)]) for key, A in groups.items())
    assert coeff_from_pseudo_orbits(4, inst, k) == pytest.approx(expected, abs=1e-15)
    assert _grouped_variance(2, 2, 4) == sum(abs(A) ** 2 for A in groups.values())
    assert calls == [(2, 2, 4), (2, 2, 4)]


# float.hex of _exact_variance(q, m, n) for n = 0..E/2, recorded before the DP's
# step loop was rewritten and, for (2, 3), (2, 4), (3, 2) and (4, 1), again once one
# DP at E/2 answered their whole sweep, and for (2, 5) before the DP at d was
# memoised; and the route of each n: c the closed form, D the DP at degree E/2,
# d the DP at degree d < E/2, g the grouping once the DP gave up
EXACT_PINS = {
    (2, 1): (
        "ccc",
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1"],
    ),
    (2, 2): (
        "ccccg",
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.0000000000000p-1", "0x1.7fffffffffffcp-1"],
    ),
    (2, 3): (
        "cccccDDDD",
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.7fffffffffff9p-1",
         "0x1.7fffffffffff8p-1", "0x1.3fffffffffff8p-1", "0x1.1fffffffffff8p-1"],
    ),
    (2, 4): (
        "cccccc" + "D" * 11,
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
         "0x1.1fffffffffff9p-1", "0x1.ffffffffffff2p-2", "0x1.dfffffffffff2p-2",
         "0x1.fffffffffffefp-2", "0x1.27ffffffffff4p-1", "0x1.37ffffffffff2p-1",
         "0x1.1bffffffffff3p-1", "0x1.0bffffffffff2p-1", "0x1.13ffffffffff2p-1",
         "0x1.0fffffffffff0p-1", "0x1.21fffffffffeep-1"],
    ),
    (2, 5): (
        "c" * 7 + "g" * 6 + "d" * 19 + "D",
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
         "0x1.0000000000000p-1", "0x1.2fffffffffffcp-1", "0x1.2fffffffffffep-1",
         "0x1.1ffffffffffffp-1", "0x1.13fffffffffffp-1", "0x1.0bfffffffffffp-1",
         "0x1.1afffffffffffp-1", "0x1.25ffffffffff2p-1", "0x1.28ffffffffff0p-1",
         "0x1.287ffffffffefp-1", "0x1.27bffffffffeep-1", "0x1.21bffffffffeep-1",
         "0x1.1e9ffffffffecp-1", "0x1.213ffffffffebp-1", "0x1.22bffffffffeap-1",
         "0x1.27effffffffe8p-1", "0x1.2727fffffffe7p-1", "0x1.23d7fffffffe6p-1",
         "0x1.24fffffffffe5p-1", "0x1.22f7fffffffe4p-1", "0x1.22ebfffffffe3p-1",
         "0x1.26effffffffe1p-1", "0x1.2963fffffffe0p-1", "0x1.2773fffffffdfp-1",
         "0x1.259bfffffffdep-1", "0x1.230ffffffffddp-1", "0x1.2101fffffffdcp-1"],
    ),
    (3, 1): (
        "cccgg",
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5555555555555p-1",
         "0x1.c71c71c71c724p-1", "0x1.c71c71c71c727p-1"],
    ),
    (3, 2): (
        "cccc" + "D" * 10,
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5555555555555p-1",
         "0x1.5555555555555p-1", "0x1.7b425ed097b49p-1", "0x1.61f9add3c0cacp-1",
         "0x1.641511e8d2b3cp-1", "0x1.8a021b641512cp-1", "0x1.7bf62ad79dad5p-1",
         "0x1.6c82a23d1a576p-1", "0x1.70f5591440268p-1", "0x1.6e9e06522c407p-1",
         "0x1.6d4a687dcba48p-1", "0x1.7f8d213466dbdp-1"],
    ),
    (4, 1): (
        "ccc" + "D" * 6,
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.8000000000000p-1",
         "0x1.4000000000000p-1", "0x1.5000000000000p-1", "0x1.9000000000000p-1",
         "0x1.7800000000000p-1", "0x1.6800000000000p-1", "0x1.6a00000000000p-1"],
    ),
    (5, 1): (
        "cccggggdddddD",
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.999999999999ap-1",
         "0x1.66f87ce35c633p-1", "0x1.65096adb95c85p-1", "0x1.6fa4072a0fd14p-1",
         "0x1.7508b5135fb35p-1", "0x1.835b379ba38adp-1", "0x1.7eea44d2b9714p-1",
         "0x1.774ca50e971dcp-1", "0x1.74e5d41f97865p-1", "0x1.7b897193ebbbcp-1",
         "0x1.7ab18182a14fep-1"],
    ),
}


@pytest.fixture(autouse=True)
def empty_dp_memo():
    # each test starts with no DP's values kept, so spies see it run
    spectral_stats._dp_variances.cache_clear()


@pytest.mark.parametrize("q,m", list(EXACT_PINS))
def test_exact_variance_bit_for_bit(q, m, monkeypatch):
    E = q ** (m + 1)
    seen = []

    def dp(q, m, depth):
        value = _dp_variances(q, m, depth)
        if value is not None:
            seen.append("D" if depth == E // 2 else "d")
        return value

    def grouped(*args):
        seen.append("g")
        return _grouped_variance(*args)

    monkeypatch.setattr(spectral_stats, "_dp_variances", dp)
    monkeypatch.setattr(spectral_stats, "_grouped_variance", grouped)
    routes, values = EXACT_PINS[q, m]
    for n, (route, value) in enumerate(zip(routes, values)):
        seen.clear()
        assert _exact_variance(q, m, n).hex() == value
        assert "".join(seen) == ("" if route == "c" else route)
        assert _exact_variance(q, m, E - n).hex() == value


SWEEP_GRAPHS = [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)]


def test_sweep_admits_exactly_the_small_graphs(monkeypatch):
    # D = E/2 > m+1, and Str(q, D) pseudo orbits of D edges each within the budget:
    # then even d = m+2 reads the DP at degree D
    depths = []

    def dp(q, m, depth):
        depths.append(depth)
        return (0.0,) * (depth + 1)

    monkeypatch.setattr(spectral_stats, "_dp_variances", dp)
    graphs = [(q, m) for q in range(2, 11) for m in range(1, 8) if q ** (m + 1) <= 10**6]
    admitted = []
    for q, m in graphs:
        depths.clear()
        _exact_variance(q, m, m + 2)
        if depths == [q ** (m + 1) // 2]:
            admitted.append((q, m))
    assert admitted == SWEEP_GRAPHS


@pytest.mark.parametrize("q,m", SWEEP_GRAPHS)
def test_sweep_values_do_not_depend_on_call_history(q, m):
    E = q ** (m + 1)
    alone = []
    for n in range(E + 1):
        spectral_stats._dp_variances.cache_clear()
        alone.append(_exact_variance(q, m, n).hex())
    spectral_stats._dp_variances.cache_clear()
    assert [_exact_variance(q, m, n).hex() for n in range(E + 1)] == alone
    spectral_stats._dp_variances.cache_clear()
    assert [_exact_variance(q, m, n).hex() for n in range(E, -1, -1)] == alone[::-1]


@pytest.fixture
def dp_degrees(monkeypatch):
    """The degree d of every balanced-set DP started, in order."""
    degrees = []

    def spy(q, m, d, *caps):
        degrees.append(d)
        return _balanced_subset_variances(q, m, d, *caps)

    monkeypatch.setattr(spectral_stats, "_balanced_subset_variances", spy)
    return degrees


@pytest.mark.parametrize("q,m", [(2, 2), (3, 1)])
def test_sweep_dp_that_gave_up_runs_once(q, m, dp_degrees):
    # the DP at D = E/2 gives up on its work cap, and every d > m+1 goes to the
    # grouping: on (3, 1) the sweep starts no DP at d = 3
    E = q ** (m + 1)
    for n in range(E + 1):
        _exact_variance(q, m, n)
    assert spectral_stats._dp_variances(q, m, E // 2) is None
    assert dp_degrees == [E // 2]


@pytest.mark.parametrize("q,m,ns", [(2, 5, [7, 8, 32]), (5, 1, [3, 7, 12]), (2, 6, [8, 9])])
def test_graphs_over_budget_at_half_run_no_sweep_dp(q, m, ns, dp_degrees):
    for n in ns:
        dp_degrees.clear()
        _exact_variance(q, m, n)
        assert dp_degrees == [n]  # the DP at n's own degree, and none at E/2
    assert spectral_stats._dp_variances.cache_info().misses == len(ns)


def test_dp_at_d_answers_n_and_its_complement_once(dp_degrees):
    # on (2, 5), n = 7 and n = 64 - 7 = 57 read one DP at degree 7
    _exact_variance(2, 5, 7)
    _exact_variance(2, 5, 57)
    assert dp_degrees == [7]


def test_sweep_memo_holds_one_graph():
    for q, m in SWEEP_GRAPHS:
        for n in range(q ** (m + 1) + 1):
            _exact_variance(q, m, n)
            assert spectral_stats._dp_variances.cache_info().currsize <= 1


@pytest.mark.parametrize("q,m,n", [(2, 4, 8), (2, 5, 8), (2, 5, 40), (2, 5, 3)])
def test_numpy_integer_index_is_its_int(q, m, n):
    # the DP at E/2, the grouping, the DP at d and the closed form
    inst = build_instance(q, m, seed=1)
    assert exact_grouped_variance(inst, np.int64(n)) == exact_grouped_variance(inst, n)


def test_variance_report_takes_a_numpy_integer_index():
    # the record holds the int: 2^63 pseudo orbits and the diagonal 0.5, not int64 wraparound
    record = variance_report(2, 5, np.int64(64), seed=0)
    assert json.dumps(record) == json.dumps(variance_report(2, 5, 64, seed=0))


def test_float_index_is_a_type_error():
    inst = build_instance(2, 2, seed=1)
    for call in (lambda: exact_grouped_variance(inst, 4.0),
                 lambda: monte_carlo_variance(inst, 4.0, 10, 1e4, seed=0),
                 lambda: rmt_reference("CUE", 4.0, 8),
                 lambda: coeff_from_pseudo_orbits(2.0, inst, 1.0),
                 lambda: variance_report(2, 2, 4.0, seed=0)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize(
    "q,m,n,states,count",
    [(2, 20, 60, 0, "1*2^59"), (2, 9, 40, 2381, "1*2^39"), (4, 3, 60, 6403, "3*4^59"),
     (10, 1, 40, 24390, "9*10^39")],
)
def test_exact_variance_refusals_pinned(q, m, n, states, count):
    with pytest.raises(BudgetExceededError) as refusal:
        _exact_variance(q, m, n)
    assert str(refusal.value) == (f"balanced-set DP exceeds {states} live states, and {count} "
                                  f"pseudo orbits of length {n}, {n} edges each, "
                                  "exceed budget 100000000")


@pytest.mark.parametrize("m,admitted", [(21, True), (22, False)])
def test_grouping_budget_counts_edges(m, admitted, monkeypatch):
    # at q=2, d = m+2 the DP's state cap is 0; the grouping would key 2^(m+1)
    # pseudo orbits by m+2 edges each: 96,468,992 edges at m=21, 201,326,592 at m=22
    def stub(q, m, n):
        return 0.5

    monkeypatch.setattr(spectral_stats, "_grouped_variance", stub)
    if admitted:
        assert _exact_variance(2, m, m + 2) == 0.5
        return
    with pytest.raises(BudgetExceededError) as refusal:
        _exact_variance(2, m, m + 2)
    assert str(refusal.value) == ("balanced-set DP exceeds 0 live states, and 1*2^23 pseudo "
                                  "orbits of length 24, 24 edges each, exceed budget 100000000")


def test_weight_memo_stays_small_at_large_q():
    # q=12 codes are Python ints, and a table over all 4^12 masks would take 128 MB
    tracemalloc.start()
    try:
        dp = _balanced_subset_variances(12, 1, 3, **FULL_DP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert dp[3] == pytest.approx(_grouped_variance(12, 1, 3), abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
def test_minor_weights_equal_lapack_determinants(q, monkeypatch):
    F = np.array(_dft_table(q))

    def lapack(rows, cols):
        return abs(np.linalg.det(F[np.ix_(rows, cols)])) ** 2 if rows else 1.0

    # every minor the DP can meet: row and column sets of one size
    for k in range(q + 1):
        for rows, cols in itertools.product(itertools.combinations(range(q), k), repeat=2):
            weight = _minor_weight(F.tolist(), list(rows), list(cols))
            assert weight == pytest.approx(lapack(rows, cols), abs=1e-12)
    # the DP takes its weights from there, each minor once per call
    memoized = []

    def spy(dft, rows, cols):
        memoized.append((tuple(rows), tuple(cols)))
        return _minor_weight(dft, rows, cols)

    monkeypatch.setattr(spectral_stats, "_minor_weight", spy)
    _balanced_subset_variances(q, 1, min(q, 6), **FULL_DP)
    assert memoized and len(set(memoized)) == len(memoized)


def test_exact_variance_never_calls_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called on the exact route")

    monkeypatch.setattr(np.linalg, "det", refuse)
    for q, m in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)]:
        E = q ** (m + 1)
        values = [_exact_variance(q, m, n) for n in range(E + 1)]
        assert values[0] == values[E] == pytest.approx(1.0, abs=1e-12)


GROUPING_PROBE = """
import sys
from qnary import spectral_stats
print(spectral_stats._grouped_variance(2, 2, 4).hex(), "numpy" in sys.modules)
"""


def test_grouping_reads_the_dft_without_numpy():
    # the amplitudes multiply entries of the DFT table, which math alone builds
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", GROUPING_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # 0.7499999999999996, EXACT_PINS' grouped value at q=2 m=2 n=4
    assert proc.stdout.split() == ["0x1.7fffffffffffcp-1", "False"]


def test_balanced_subset_dp_with_codes_wider_than_64_bits():
    # q=2 m=7 keeps 20 vertices open at once, 80 bits of masks per state
    dp = _balanced_subset_variances(2, 7, 8, **FULL_DP)
    for n in range(9):
        assert dp[n] == pytest.approx(_grouped_variance(2, 7, n), abs=1e-12)


# --- the pure-Python DP and its move into numpy arrays -----------------------------

# where the DP moves its states into numpy arrays in a process without numpy: before
# its first step, as it does wherever numpy is loaded, never, and once they pass the
# module's own _NUMPY_STATES
HANDOVERS = {"first step": 0, "never": 10**9, "default": spectral_stats._NUMPY_STATES}


def under_each_handover(monkeypatch, run, handovers=tuple(HANDOVERS)):
    # this process has numpy loaded, so the DP is told it has not
    monkeypatch.setattr(spectral_stats, "_numpy_loaded", lambda: False)
    results = []
    for name in handovers:
        monkeypatch.setattr(spectral_stats, "_NUMPY_STATES", HANDOVERS[name])
        spectral_stats._dp_variances.cache_clear()
        results.append(run())
    return results


@pytest.mark.parametrize(
    "q,m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (5, 1), (6, 1),
     (7, 1)],
)
def test_exact_variance_is_the_same_bits_wherever_the_dp_moves(q, m, monkeypatch):
    # the grouping does not read the DP (and takes a minute at (6, 1) n = 9): a
    # marker of n stands in for it, so every fall-back and refusal still shows
    monkeypatch.setattr(spectral_stats, "_grouped_variance", lambda q, m, n: -float(n))
    E = q ** (m + 1)

    def sweep():
        out = []
        for d in range(E // 2 + 1):
            for n in dict.fromkeys((d, E - d)):  # n and E - n read one DP
                try:
                    out.append(_exact_variance(q, m, n).hex())
                except BudgetExceededError as refusal:
                    out.append(str(refusal))
        return out

    # every DP of these three in pure Python takes tens of seconds; their DPs that
    # never move are compared in test_full_dp_is_the_same_bits_wherever_it_moves
    slow = (q, m) in [(3, 3), (6, 1), (7, 1)]
    handovers = ("first step", "default") if slow else tuple(HANDOVERS)
    first, *others = under_each_handover(monkeypatch, sweep, handovers)
    assert all(other == first for other in others)


@pytest.mark.parametrize(
    "q,m,d",
    [(2, 4, 16), (3, 2, 13), (4, 1, 8), (2, 5, 32), (5, 1, 12), (3, 3, 12), (6, 1, 7),
     (4, 2, 10), (2, 7, 8)],
)
def test_full_dp_is_the_same_bits_wherever_it_moves(q, m, d, monkeypatch):
    # at (2, 7) the 80-bit codes move into an object array
    def run():
        return [x.hex() for x in _balanced_subset_variances(q, m, d, **FULL_DP)]

    first, never, default = under_each_handover(monkeypatch, run)
    assert first == never == default


def test_dp_starts_in_numpy_where_numpy_is_loaded(monkeypatch):
    # this process has numpy loaded: the (3, 2) DP, which peaks at 285 live states,
    # takes no pure-Python step, so no pure-Python merge runs, and the bits are
    # those of a DP that starts without numpy and moves at _NUMPY_STATES
    merges = []

    def run_sum(rows):
        merges.append(len(rows))
        return _run_sum(rows)

    monkeypatch.setattr(spectral_stats, "_run_sum", run_sum)
    loaded = [x.hex() for x in _balanced_subset_variances(3, 2, 13, **FULL_DP)]
    assert merges == []
    monkeypatch.setattr(spectral_stats, "_numpy_loaded", lambda: False)
    assert [x.hex() for x in _balanced_subset_variances(3, 2, 13, **FULL_DP)] == loaded
    assert merges


def test_run_sum_is_numpys_reduceat():
    # one run of rows as np.add.reduceat sums it: the first row plus numpy's pairwise
    # sum of the rest, a loop below 8, 8 accumulators to 128, halves above
    rng = np.random.default_rng(5)
    sequential_differs = False
    for rows in [2, 3, 8, 9, 10, 16, 17, 129, 130, 136, 137, 255, 256, 257, 600]:
        polys = rng.random((rows, 6)) * 10.0 ** rng.integers(-6, 7, (rows, 6))
        expected = [x.hex() for x in np.add.reduceat(polys, [0], axis=0)[0].tolist()]
        assert [x.hex() for x in _run_sum(polys.tolist())] == expected
        sequential = [float(sum(column)).hex() for column in polys.T.tolist()]
        sequential_differs |= sequential != expected
    assert sequential_differs  # the order matters at these magnitudes


EXACT_SWEEP_PROBE = """
import contextlib, io, sys
from pathlib import Path
from qnary import build_instance, exact_grouped_variance
from qnary.cli import main
inst = build_instance(2, 4, 11)
values = [exact_grouped_variance(inst, n).hex() for n in range(17)]
with contextlib.redirect_stdout(io.StringIO()) as out:
    main(["variance", "--q", "2", "--m", "2", "--n", "4", "--samples", "0", "--seed", "7"])
golden = out.getvalue() == Path(sys.argv[1]).read_text()
print(type(inst.lengths).__name__, golden, "numpy" in sys.modules, *values)
"""


def test_exact_sweep_and_golden_variance_never_import_numpy():
    # the instance's lengths are a tuple, the (2, 4) DP peaks at 34 live states and the
    # golden command reads the grouping: none of them needs an array
    src = str(Path(__file__).resolve().parent.parent / "src")
    golden = str(Path(__file__).resolve().parent / "golden" / "variance_q2_m2_n4.json")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", EXACT_SWEEP_PROBE, golden], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["tuple", "True", "False", *EXACT_PINS[2, 4][1]]


def greedy_group_order(q, m):
    # the reference: every pick scans all G groups for the most closed vertices
    G = q ** (m - 1)
    closes = np.zeros(G, dtype=np.int64)
    done = np.zeros(G, dtype=bool)
    order = [0]
    while True:
        g = order[-1]
        done[g] = True
        if len(order) == G:
            return order
        for h in [(b * G + g) // q for b in range(q)] + [(g * q + c) % G for c in range(q)]:
            closes[h] += h != g
        order.append(int(np.argmax(np.where(done, -1, closes))))


@pytest.mark.parametrize(
    "q,m",
    [(2, m) for m in range(1, 13)] + [(3, m) for m in range(1, 8)] + [(4, m) for m in range(1, 6)]
    + [(5, m) for m in range(1, 4)] + [(7, 2)] + [(10, m) for m in range(1, 4)],
)
def test_group_order_equals_the_full_scan_greedy(q, m):
    order = _group_order(q, m)
    assert order == greedy_group_order(q, m)
    assert sorted(order) == list(range(q ** (m - 1)))


@pytest.mark.parametrize("q,m,n_max", [(2, 2, 8), (2, 3, 10), (3, 1, 6), (4, 1, 4)])
def test_groups_that_repeat_an_edge_cancel(q, m, n_max):
    # the Euler product is multilinear in the edge phases
    inst = build_instance(q, m, seed=4)
    repeating = 0
    for n in range(n_max + 1):
        groups = {}
        for po, weight in zip(primitive_pseudo_orbits(q, n), expansion_terms(inst, n)[0]):
            key = edge_multiplicities(po, inst.graph)
            groups[key] = groups.get(key, 0j) + weight
        for key, total in groups.items():
            if max(key, default=0) > 1:
                repeating += 1
                assert abs(total) <= 1e-14
    assert repeating > 0


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (4, 1)])
def test_variance_symmetric_under_complement(q, m):
    # the DP carried to degree E computes Var(n) and Var(E-n) from complementary sets
    E = q ** (m + 1)
    dp = _balanced_subset_variances(q, m, E, **FULL_DP)
    for n in range(E + 1):
        assert dp[n] == pytest.approx(dp[E - n], abs=1e-12)
    assert dp[0] == pytest.approx(1.0, abs=1e-12)
    assert dp[E] == pytest.approx(1.0, abs=1e-12)  # |det Sigma|^2 = 1


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_exact_equals_diagonal_up_to_m_plus_one(q, m):
    # the public route takes the closed form there, so the grouping pins the identity
    inst = build_instance(q, m, seed=4)
    for n in range(m + 2):
        assert _grouped_variance(q, m, n) == pytest.approx(diagonal_variance(q, n), abs=1e-12)
    for n in range(2, m + 2):
        assert exact_grouped_variance(inst, n) == pytest.approx((q - 1) / q, abs=1e-12)
    assert abs(exact_grouped_variance(inst, m + 2) - (q - 1) / q) > 1e-3


def test_exact_below_diagonal_at_q4_m1_n3():
    value = exact_grouped_variance(build_instance(4, 1, seed=4), 3)
    assert value == pytest.approx(0.625, abs=1e-12)
    assert value < diagonal_variance(4, 3)


def _random_balanced_set(q, m, rng):
    """A union of edge-disjoint primitive orbits, so in-degree = out-degree."""
    chosen = set()
    for _ in range(int(rng.integers(1, 6))):
        length = int(rng.integers(1, 2 * m + 3))
        words = lyndon_words(q, length)
        edges = _windows(words[int(rng.integers(len(words)))].letters, q, m + 1)
        if len(set(edges)) == len(edges) and chosen.isdisjoint(edges):
            chosen.update(edges)
    return sorted(chosen)


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_balanced_minor_factors_over_vertices(q, m):
    inst = build_instance(q, m, seed=4)
    graph, F = inst.graph, np.array(_dft_table(q))
    sigma = assemble_sigma(graph)
    rng = np.random.default_rng(1000 * q + m)
    for _ in range(20):
        S = _random_balanced_set(q, m, rng)
        direct = abs(np.linalg.det(sigma[np.ix_(S, S)])) ** 2 if S else 1.0
        product = 1.0
        for v in range(graph.num_vertices):
            B = [e // graph.num_vertices for e in S if e % graph.num_vertices == v]
            C = [e % q for e in S if e // q == v]
            assert len(B) == len(C)
            if B:
                product *= abs(np.linalg.det(F[np.ix_(C, B)])) ** 2
        assert direct == pytest.approx(product, abs=1e-12)
        # one more non-loop edge unbalances its end vertices, and the minor vanishes
        extra = [e for e in range(graph.num_edges) if e not in S]
        if extra and extra[0] // q != extra[0] % graph.num_vertices:
            T = sorted(S + extra[:1])
            assert abs(np.linalg.det(sigma[np.ix_(T, T)])) < 1e-12


def test_exact_variance_beyond_pseudo_orbit_budget():
    # 2^31 pseudo orbits of length 32: the grouping refuses, the DP does not
    inst = build_instance(2, 5, seed=0)
    value = exact_grouped_variance(inst, 32)
    assert value == pytest.approx(0.564468383789, abs=1e-11)
    assert exact_grouped_variance(build_instance(2, 5, seed=9), 32) == pytest.approx(
        value, abs=1e-12
    )
    with pytest.raises(BudgetExceededError, match="1\\*2\\^31 pseudo orbits of length 32"):
        _grouped_variance(2, 5, 32)


def test_exact_variance_index_out_of_range():
    inst = build_instance(2, 1, seed=0)
    with pytest.raises(ValueError):
        exact_grouped_variance(inst, 5)
    with pytest.raises(ValueError):
        exact_grouped_variance(inst, -1)
