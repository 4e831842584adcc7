"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> PASS|FAIL <summary>` line (visible with
`pytest -s` or in captured output).  Tolerances and ranges are pinned here,
nothing is deferred to later calibration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qnary.cli import main as cli_main
from qnary.debruijn import build_graph, primitive_pseudo_orbits
from qnary.quantum import (
    assemble_sigma,
    build_instance,
    char_poly_direct,
    coeff_from_pseudo_orbits,
    evolution_operator,
    expansion_terms,
)
from qnary.spectral_stats import (
    exact_grouped_variance,
    monte_carlo_coefficient_means,
    monte_carlo_variance,
    rmt_reference,
)
from qnary.words import (
    count_lyndon,
    count_strictly_decreasing,
    lyndon_subset_series,
    lyndon_words,
    verify_lyndon_count_identity,
)

from test_debruijn import primitive_cycles_by_walking, canonical_rotation


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {summary}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS {summary}")


def test_criterion_01_closed_form_count_vs_bruteforce(capsys):
    with criterion(1, "closed-form count agrees with brute force (CLI, both modes)"):
        start = time.perf_counter()
        for q, n_max in ((2, 14), (3, 9)):
            for n in range(2, n_max + 1):
                code = cli_main(["count", "--q", str(q), "--n", str(n), "--mode", "both"])
                out = capsys.readouterr().out.strip()
                assert code == 0
                formula = int(out.split()[0].split("=")[1])
                brute = int(out.split()[1].split("=")[1])
                assert formula == brute == (q - 1) * q ** (n - 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_length_weighted_count_identity():
    with criterion(2, "sum_{l|m} l L_q(l) = q^m exactly, q in 2..5, m in 1..12"):
        start = time.perf_counter()
        for q in (2, 3, 4, 5):
            for m in range(1, 13):
                assert verify_lyndon_count_identity(q, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_03_lyndon_enumeration_matches_moebius_count():
    with criterion(3, "enumerated Lyndon words match the Moebius-formula count"):
        for q in (2, 3):
            for l in range(1, 13):
                assert len(lyndon_words(q, l)) == count_lyndon(q, l)
        assert count_lyndon(2, 4) == 3
        assert [str(w) for w in lyndon_words(2, 4)] == ["0001", "0011", "0111"]


def test_criterion_04_series_truncation_matches_closed_form():
    with criterion(4, "subset-series coefficients equal the closed-form count, exact"):
        for q in (2, 3):
            series = lyndon_subset_series(q, 12)
            for n in range(13):
                assert series[n] == count_strictly_decreasing(q, n)


def test_criterion_05_pseudo_orbit_counts_and_graph_oracle():
    with criterion(5, "pseudo-orbit enumeration count matches (q-1)q^(n-1) and DFS oracle"):
        for q, n_max in ((2, 12), (3, 7)):
            for n in range(0, n_max + 1):
                orbits = primitive_pseudo_orbits(q, n)
                assert len(orbits) == count_strictly_decreasing(q, n)
                if n >= 2:
                    assert len(orbits) == (q - 1) * q ** (n - 1)
        # graph-native oracle at q=2, m=2, n <= 5
        g = build_graph(2, 2)
        cycles = sorted(primitive_cycles_by_walking(g, 5))

        def cycle_word(edge_cycle):
            return canonical_rotation(tuple(e // g.num_vertices for e in edge_cycle))

        def subsets(start, remaining):
            if remaining == 0:
                yield ()
                return
            for i in range(start, len(cycles)):
                if len(cycles[i]) <= remaining:
                    for rest in subsets(i + 1, remaining - len(cycles[i])):
                        yield (cycles[i],) + rest

        for n in range(0, 6):
            oracle = {frozenset(cycle_word(c) for c in combo) for combo in subsets(0, n)}
            enumerated = {
                frozenset(word.letters for word in po.words)
                for po in primitive_pseudo_orbits(2, n)
            }
            assert oracle == enumerated


def test_criterion_06_pseudo_orbit_expansion_matches_determinant():
    with criterion(6, "pseudo-orbit expansion equals direct coefficients within 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240833)
        for q, m in ((2, 1), (2, 2), (3, 1)):
            inst = build_instance(q, m, seed=101)
            E = inst.graph.num_edges
            for k in rng.uniform(0.0, 100.0, size=10):
                direct = char_poly_direct(evolution_operator(inst, k)).a
                expanded = np.array(
                    [coeff_from_pseudo_orbits(n, inst, k) for n in range(E + 1)]
                )
                assert np.max(np.abs(direct - expanded)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_07_diagonal_variance_closed_form():
    with criterion(7, "diagonal variance equals (q-1)/q within 1e-12 for q=2,3,5"):
        for q, m, n_max in ((2, 1, 8), (2, 2, 8), (3, 1, 7), (5, 1, 5)):
            inst = build_instance(q, m, seed=3)
            for n in range(2, n_max + 1):
                # sum of |amplitude|^2 over the enumerated pseudo orbits of length n
                weights, _ = expansion_terms(inst, n)
                assert np.sum(np.abs(weights) ** 2) == pytest.approx((q - 1) / q, abs=1e-12)


def test_criterion_08_unitarity_and_self_inversive_suites():
    with criterion(8, "unitarity within 1e-12 and self-inversive coefficients within 1e-9"):
        instances = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
        for q, m in instances:
            sigma = assemble_sigma(build_graph(q, m))
            E = q ** (m + 1)
            defect = np.max(np.abs(sigma.conj().T @ sigma - np.eye(E)))
            assert defect < 1e-12
        for q, m in instances:
            inst = build_instance(q, m, seed=23)
            for k in (0.0, 3.3, 41.7):
                U = evolution_operator(inst, k)
                E = inst.graph.num_edges
                defect = np.max(np.abs(U.conj().T @ U - np.eye(E)))
                assert defect < 1e-12
                a = char_poly_direct(U).a
                assert abs(abs(a[E]) - 1.0) < 1e-9
                for n in range(E + 1):
                    assert abs(a[E - n] - a[E] * np.conj(a[n])) < 1e-9


def test_criterion_09_monte_carlo_consistency():
    with criterion(9, "MC variance within 3 SE of exact; coefficient means within 3 SE of 0"):
        inst = build_instance(2, 2, seed=7)
        est, se = monte_carlo_variance(inst, 4, samples=10**4, k_max=1e4, seed=31)
        exact = exact_grouped_variance(inst, 4)
        assert abs(est - exact) < 3 * se, f"{est} vs {exact} (se {se})"
        means, ses = monte_carlo_coefficient_means(inst, samples=10**4, k_max=1e4, seed=37)
        for n in range(1, inst.graph.num_edges + 1):
            assert abs(means[n]) < 3 * ses[n]


def test_criterion_10_rmt_reference_values():
    with criterion(10, "CUE reference is 1; COE reference matches 1 + n(E-n)/(E+1)"):
        for n, E in ((0, 4), (3, 8), (7, 16), (13, 27)):
            assert rmt_reference("CUE", n, E) == 1.0
        assert rmt_reference("COE", 0, 8) == 1.0
        assert rmt_reference("COE", 2, 4) == pytest.approx(1.8, abs=1e-15)
