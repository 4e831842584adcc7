#!/usr/bin/env python3
"""Verify the pseudo-orbit coefficient expansion against direct determinants.

For each seed, draws random wavenumbers and reports the worst coefficient
discrepancy max_n |a_n^orbits - a_n^det| on the chosen graph.  The
wavenumbers are k_max times the package's seeded stream (`_random`, Python's
Mersenne Twister), the draws behind the edge lengths and the Monte-Carlo
sampler.

    python3 scripts/expansion_check.py --q 2 --m 2 --seeds 5 --k-count 20
"""

import argparse

import numpy as np

from qnary.quantum import (
    _random,
    build_instance,
    char_poly_direct,
    evolution_operator,
    expansion_terms,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--k-count", type=int, default=10)
    parser.add_argument("--k-max", type=float, default=100.0)
    args = parser.parse_args()

    print("seed,worst_delta")
    for seed in range(args.seeds):
        inst = build_instance(args.q, args.m, seed)
        # the pseudo orbits are enumerated once per n, not once per (n, k)
        terms = [expansion_terms(inst, n) for n in range(inst.graph.num_edges + 1)]
        worst = 0.0
        for k in args.k_max * _random(seed, args.k_count):
            direct = char_poly_direct(evolution_operator(inst, k)).a
            expanded = np.array(
                [complex(np.dot(w, np.exp(1j * k * ell))) for w, ell in terms]
            )
            worst = max(worst, float(np.max(np.abs(direct - expanded))))
        print(f"{seed},{worst:.3e}")


if __name__ == "__main__":
    main()
