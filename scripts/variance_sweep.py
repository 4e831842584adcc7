#!/usr/bin/env python3
"""Sweep coefficient indices and print a variance comparison table.

Columns: diagonal approximation, exact grouped k-average, and the CUE/COE
references.  Sweeping over m at fixed q shows how the exact grouped value
moves relative to the diagonal constant (q-1)/q as the graph grows.

    python3 scripts/variance_sweep.py --q 2 --m 2 --n-max 8
    python3 scripts/variance_sweep.py --q 3 --m 1 --n-max 7 --samples 2000
"""

import argparse

from qnary.debruijn import build_graph
from qnary.spectral_stats import variance_report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=0, help="optional MC cross-check")
    parser.add_argument("--k-max", type=float, default=1e4)
    args = parser.parse_args()

    E = build_graph(args.q, args.m).num_edges
    n_max = min(args.n_max, E)

    header = ["n", "diag", "exact_grouped", "cue", "coe"]
    if args.samples:
        header += ["mc", "mc_se"]
    print(",".join(header))
    for n in range(0, n_max + 1):
        # the instance is built only to sample
        r = variance_report(args.q, args.m, n, args.seed, args.samples, args.k_max)
        row = [str(n)] + [f"{x:.10g}" for x in (r.diag, r.exact_grouped, r.cue_ref, r.coe_ref)]
        if args.samples:
            row += [f"{r.mc_estimate:.10g}", f"{r.mc_std_error:.2g}"]
        print(",".join(row))


if __name__ == "__main__":
    main()
