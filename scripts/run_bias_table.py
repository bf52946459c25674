#!/usr/bin/env python3
"""Replicate study over the nine (alpha, beta) x p settings.

Simulates R replicate networks per setting, fits each with the requested
methods and writes one combined CSV of per-parameter means, absolute bias
percentages and replicate spreads.  Scale it down with --replicates/--n for
a quick look; the defaults mirror the full study (R=100, n=10,000,
offsets 1.3/0.7).
"""

import argparse
import sys
from pathlib import Path

from hybridnet import (
    FIT_METHODS,
    HybridParams,
    MhConfig,
    NelderMeadConfig,
    SimulationConfig,
    fit,
    replay,
    simulate_replicates,
)
from hybridnet.cli import FIXED_START, sampler_seed, summarize_estimates

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
    unknown = [method for method in methods if method not in FIT_METHODS]
    if unknown:
        ap.error(f"unknown method {unknown[0]!r}")
    nm_config = NelderMeadConfig(initial_point=FIXED_START)
    lines = ["alpha,beta,p,method,parameter,truth,mean_estimate,abs_bias_pct,sd,se_mean"]
    for p in P_VALUES:
        for alpha, beta in SETTINGS:
            truth = HybridParams.fill_gamma(alpha, beta, p=p, delta_in=args.din, delta_out=args.dout)
            config = SimulationConfig(params=truth, n_edges=args.n, seed=args.seed)
            outputs = simulate_replicates(config, args.replicates, worker_count=args.workers)
            all_stats = [replay(out.log) for out in outputs]
            for method in methods:
                estimates = []
                for idx, stats in enumerate(all_stats):
                    mh_config = MhConfig(
                        burn_in=args.burn_in,
                        iterations=args.iterations,
                        thinning=args.thinning,
                        seed=sampler_seed(args.seed, idx),
                    )
                    estimates.append(fit(stats, method, mh_config, nm_config).point)
                for row in summarize_estimates(estimates, truth):
                    lines.append(
                        f"{alpha},{beta},{p},{method},{row['parameter']},{row['truth']:.17g},"
                        f"{row['mean_estimate']:.17g},{row['abs_bias_pct']:.17g},"
                        f"{row['sd']:.17g},{row['se_mean']:.17g}"
                    )
                print(f"done: p={p} alpha={alpha} beta={beta} method={method}", file=sys.stderr)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
