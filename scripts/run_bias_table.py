#!/usr/bin/env python3
"""Replicate study over the nine (alpha, beta) x p settings.

Runs the ``table`` command's pipeline for each setting: R replicate
networks are simulated, replayed and fitted with the requested methods
(whole replicates in parallel with --workers), and one combined CSV of
per-parameter means, absolute bias percentages and replicate spreads is
written.  Scale it down with --replicates/--n for a quick look; the
defaults mirror the full study (R=100, n=10,000, offsets 1.3/0.7).
"""

import argparse
import sys
from pathlib import Path

from hybridnet import HybridParams, SimulationConfig
from hybridnet.cli import SUMMARY_HEADER, replicate_estimates, summary_lines

SETTINGS = [(0.1, 0.8), (0.8, 0.1), (0.45, 0.1)]
P_VALUES = [0.8, 0.6, 0.2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicates", type=int, default=100)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--din", type=float, default=1.3)
    ap.add_argument("--dout", type=float, default=0.7)
    ap.add_argument("--methods", default="nm,mh")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--burn-in", type=int, default=10_000)
    ap.add_argument("--iterations", type=int, default=20_000)
    ap.add_argument("--thinning", type=int, default=500)
    ap.add_argument("--out", default="bias_table.csv")
    args = ap.parse_args(argv)

    methods = args.methods.split(",")
    lines = ["alpha,beta,p," + SUMMARY_HEADER]
    for p in P_VALUES:
        for alpha, beta in SETTINGS:
            truth = HybridParams.fill_gamma(alpha, beta, p=p, delta_in=args.din, delta_out=args.dout)
            config = SimulationConfig(params=truth, n_edges=args.n, seed=args.seed)
            try:
                estimates = replicate_estimates(
                    config, args.replicates, methods, args.burn_in, args.iterations,
                    args.thinning, args.workers,
                )
            except ValueError as exc:
                ap.error(str(exc))
            for method in methods:
                rows = summary_lines(method, estimates[method], truth)
                lines += [f"{alpha},{beta},{p},{row}" for row in rows]
            print(f"done: p={p} alpha={alpha} beta={beta}", file=sys.stderr)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
