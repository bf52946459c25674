#!/usr/bin/env python3
"""Empirical degree tails of simulated networks against the theoretical limit.

Writes plot-ready CSVs: one empirical tail curve per replicate and direction
(``tail_<dir>_rep<k>.csv``), plus the node-normalised limiting tail
(``tail_<dir>_limit.csv``).  Overlaying these reproduces the tail-comparison
figures of the replication study.
"""

import argparse
from pathlib import Path

import numpy as np

from hybridnet import (
    HybridParams,
    SimulationConfig,
    ccdf,
    degree_counts,
    export,
    limit_pmf,
    simulate_replicates,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.45)
    ap.add_argument("--beta", type=float, default=0.1)
    ap.add_argument("--p", type=float, default=0.6)
    ap.add_argument("--din", type=float, default=1.3)
    ap.add_argument("--dout", type=float, default=0.7)
    ap.add_argument("--xi", type=float, default=0.0)
    ap.add_argument("--eta", type=float, default=0.0)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out-dir", default="tail_compare")
    args = ap.parse_args(argv)

    params = HybridParams.fill_gamma(
        args.alpha, args.beta, args.p, args.din, args.dout, args.xi, args.eta
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config = SimulationConfig(params=params, n_edges=args.n, seed=args.seed, log_scenarios=False)
    outputs = simulate_replicates(config, args.replicates, worker_count=args.workers)
    for k, replicate in enumerate(outputs):
        counts = degree_counts(replicate.state)
        for direction in ("in", "out"):
            export(ccdf(counts, direction), out / f"tail_{direction}_rep{k}.csv")

    pmf = limit_pmf(params)
    node_rate = params.alpha + params.gamma  # new nodes per edge
    for direction, psi in (("in", pmf.psi_in), ("out", pmf.psi_out)):
        tail = (psi.sum() - np.cumsum(psi)) / node_rate
        curve = [(m, float(tail[m])) for m in range(len(tail)) if tail[m] > 0]
        export(curve, out / f"tail_{direction}_limit.csv")

    print(f"wrote {2 * args.replicates + 2} curves to {out}")


if __name__ == "__main__":
    main()
