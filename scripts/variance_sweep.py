#!/usr/bin/env python3
"""Sweep coefficient indices and print a variance comparison table.

Columns: diagonal approximation, exact grouped k-average, and the CUE/COE
references.  Sweeping over m at fixed q shows how the exact grouped value
moves relative to the diagonal constant (q-1)/q as the graph grows.

    python3 scripts/variance_sweep.py --q 2 --m 2 --n-max 8
    python3 scripts/variance_sweep.py --q 3 --m 1 --n-max 7 --samples 2000
"""

import argparse
import itertools

from qnary.debruijn import build_graph
from qnary.quantum import build_instance
from qnary._kernels import _sampled_variances
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
        # one sample set for every n, the numbers `variance --samples` gives
        # each n with the same seed
        inst = build_instance(args.q, args.m, args.seed)
        mc, mc_se = _sampled_variances(
            inst, range(n_max + 1), args.samples, args.k_max, args.seed
        )
        header += ["mc", "mc_se"]
    # n and E - n read one DP at d = min(n, E - n), which keeps one result: visit
    # the n by d, so each DP runs once.  A refusal depends on d alone, so the
    # first comes at n = d, after every smaller n; the rows before it print.
    rows = {}
    try:
        for n in sorted(range(n_max + 1), key=lambda n: min(n, E - n)):
            r = variance_report(args.q, args.m, n, args.seed)
            values = (r["diag"], r["exact_grouped"], r["cue_ref"], r["coe_ref"])
            row = [str(n)] + [f"{x:.10g}" for x in values]
            if args.samples:
                row += [f"{mc[n]:.10g}", f"{mc_se[n]:.2g}"]
            rows[n] = ",".join(row)
    finally:
        print(",".join(header))
        for n in itertools.takewhile(rows.__contains__, range(n_max + 1)):
            print(rows[n])


if __name__ == "__main__":
    main()
