"""Command-line front end for reproducible simulation and fitting runs.

Subcommands: ``simulate``, ``fit``, ``table``, ``ccdf``, ``limit-pmf`` and
``classify``.  Every command is deterministic given ``--seed`` and records
its full configuration in its outputs.  Exit codes: 0 on success, 2 on
validation errors, 3 when the maximum-likelihood search does not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .degrees import ccdf, degree_counts_from_arrays, limit_pmf
from .estimation import FIT_METHODS, MhConfig, NelderMeadConfig, fit
from .generator import (
    SimulationConfig,
    _map_replicates,
    replicate_seeds,
    simulate,
    simulate_replicates,
)
from .io import _export_format, _write_rows, export, parse_edge_file
from .likelihood import replay
from .model import EdgeLog, HybridParams, _end_stream, _novelty_pass

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3

# default start of the maximum-likelihood search of ``fit`` and ``table``
FIXED_START = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)


def sampler_seed(seed: int, idx: int) -> int:
    """Sampler seed for replicate ``idx`` of a replicate study seeded with ``seed``."""
    return seed + 7919 * (idx + 1)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--gamma", type=float, default=None, help="defaults to the remaining mass")
    parser.add_argument("--xi", type=float, default=0.0)
    parser.add_argument("--eta", type=float, default=0.0)
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--din", type=float, required=True, dest="delta_in")
    parser.add_argument("--dout", type=float, required=True, dest="delta_out")


def _params_from_args(args) -> HybridParams:
    if args.gamma is None:
        return HybridParams.fill_gamma(
            args.alpha, args.beta, args.p, args.delta_in, args.delta_out, args.xi, args.eta
        )
    return HybridParams(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        p=args.p,
        delta_in=args.delta_in,
        delta_out=args.delta_out,
        xi=args.xi,
        eta=args.eta,
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    config = SimulationConfig(
        params=params, n_edges=args.n, seed=args.seed, log_scenarios=not args.no_scenario_labels
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = simulate_replicates(config, args.replicates, worker_count=args.workers)
    files = []
    for idx, out in enumerate(outputs):
        name = f"replicate_{idx:03d}.edges"
        export(out.log, out_dir / name)
        files.append(name)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "params": params.as_dict(),
        "n_edges": args.n,
        "replicates": args.replicates,
        "seed": args.seed,
        "replicate_seeds": [str(s) for s in replicate_seeds(args.seed, args.replicates)],
        "scenario_labels": not args.no_scenario_labels,
        "files": files,
        "format": "source target time [scenario]; '%' comments",
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(files)} replicate logs and manifest.json to {out_dir}")
    return EXIT_OK


def _parse_init(text: str) -> HybridParams:
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 6:
        a, b, g, p, din, dout = parts
        return HybridParams(alpha=a, beta=b, gamma=g, p=p, delta_in=din, delta_out=dout)
    if len(parts) == 8:
        a, b, g, xi, eta, p, din, dout = parts
        return HybridParams(
            alpha=a, beta=b, gamma=g, xi=xi, eta=eta, p=p, delta_in=din, delta_out=dout
        )
    raise ValueError("--init expects 6 values (a,b,g,p,din,dout) or 8 (a,b,g,xi,eta,p,din,dout)")


def cmd_fit(args) -> int:
    if args.trace_out and args.method == "nm":
        raise ValueError("--trace-out needs a sampler method (mh or integrated); nm keeps no trace")
    mh_config = None  # the Newton search never runs the sampler
    if args.method != "nm":
        mh_config = MhConfig(
            burn_in=args.burn_in,
            iterations=args.iterations,
            thinning=args.thinning,
            delta_max=args.delta_max,
            seed=args.seed,
        )
    start = FIXED_START if args.init is None else _parse_init(args.init)
    log = parse_edge_file(args.input)
    stats = replay(log, seeded=not args.unseeded)
    result = fit(stats, args.method, mh_config, NelderMeadConfig(initial_point=start))
    payload = {
        "command": "fit",
        "version": __version__,
        "input": str(args.input),
        "method": args.method,
        "seeded_replay": not args.unseeded,
        "n_records": len(log),
        "estimate": result.point.as_dict(),
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "active_bound": result.diagnostics.get("active_bound"),
        "acceptance_rate": result.acceptance_rate,
        # exact likelihood evaluations of the sampler, null under nm
        "sampler_likelihood_evals": result.diagnostics.get(
            "likelihood_evals", result.diagnostics.get("mh_likelihood_evals")
        ),
        "seed": args.seed,
        "settings": {  # the sampler settings are null under nm, which runs no sampler
            **{
                name: getattr(mh_config, name, None)
                for name in ("burn_in", "iterations", "thinning", "delta_max")
            },
            "init": args.init,
        },
    }
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".estimate.json")
    _write_json(out, payload)
    if args.trace_out:
        export(result, Path(args.trace_out))
    print(f"method={args.method} converged={result.converged} estimate -> {out}")
    if not result.converged:
        print("fit did not converge (boundary, iteration budget or line search)", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def _bias_pct(mean: float, truth: float) -> float:
    if truth == 0.0:
        return float("nan")
    return abs(mean - truth) / abs(truth) * 100.0


def summarize_estimates(estimates, truth: HybridParams) -> list[dict]:
    """Per-parameter mean, absolute bias percentage and replicate spread.

    The spread is reported both as the across-replicate standard deviation
    and as the standard error of the mean.
    """
    names = ("alpha", "beta", "gamma", "xi", "eta", "p", "delta_in", "delta_out")
    truth_map = truth.as_dict()
    rows = []
    values = {name: np.array([est.as_dict()[name] for est in estimates]) for name in names}
    for name in names:
        vals = values[name]
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(
            {
                "parameter": name,
                "truth": truth_map[name],
                "mean_estimate": float(vals.mean()),
                "abs_bias_pct": _bias_pct(float(vals.mean()), truth_map[name]),
                "sd": sd,
                "se_mean": sd / np.sqrt(vals.size) if vals.size > 1 else 0.0,
            }
        )
    return rows


def _fit_replicate(config: SimulationConfig, mh_config: MhConfig, methods) -> list[HybridParams]:
    """Simulate, replay and fit one replicate: its point under each method."""
    stats = replay(simulate(config).log)
    nm_config = NelderMeadConfig(initial_point=FIXED_START)
    return [fit(stats, method, mh_config, nm_config).point for method in methods]


def replicate_estimates(config, r, methods, burn_in, iterations, thinning, worker_count=1):
    """The replicate study: ``{method: [point of replicate idx, ...]}``.

    Replicate ``idx`` is ``config`` under its derived seed, fitted from
    ``FIXED_START`` with sampler seed ``sampler_seed(config.seed, idx)``.
    With ``worker_count`` above 1, whole replicates (simulation, replay and
    every fit) run in a process pool and only the points come back.
    """
    unknown = [method for method in methods if method not in FIT_METHODS]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}")
    mh_configs = [
        MhConfig(burn_in, iterations, thinning, seed=sampler_seed(config.seed, idx)) for idx in range(r)
    ]
    work = partial(_fit_replicate, methods=tuple(methods))
    points = _map_replicates(work, config, r, worker_count, mh_configs)
    return {method: [fits[k] for fits in points] for k, method in enumerate(methods)}


SUMMARY_HEADER = "method,parameter,truth,mean_estimate,abs_bias_pct,sd,se_mean"


def summary_lines(method: str, estimates, truth: HybridParams) -> list[str]:
    """One CSV line per parameter (columns of ``SUMMARY_HEADER``)."""
    return [
        f"{method},{row['parameter']},{row['truth']:.17g},{row['mean_estimate']:.17g},"
        f"{row['abs_bias_pct']:.17g},{row['sd']:.17g},{row['se_mean']:.17g}"
        for row in summarize_estimates(estimates, truth)
    ]


def cmd_table(args) -> int:
    methods = args.methods.split(",")
    params = _params_from_args(args)
    config = SimulationConfig(params=params, n_edges=args.n, seed=args.seed)
    estimates = replicate_estimates(
        config, args.replicates, methods, args.burn_in, args.iterations, args.thinning, args.workers
    )
    rows = [
        {"method": method, **row}
        for method in methods
        for row in summarize_estimates(estimates[method], params)
    ]
    header = SUMMARY_HEADER.split(",")
    columns = [np.array([row[name] for row in rows]) for name in header[:2]]
    columns += [np.array([row[name] for row in rows], dtype=float) for name in header[2:]]
    out = Path(args.out)
    _write_rows(columns, header, out, _export_format(out, None))
    print(f"wrote {args.out} ({args.replicates} replicates, methods: {args.methods})")
    return EXIT_OK


def cmd_ccdf(args) -> int:
    log = parse_edge_file(args.input)
    source, target = log.source, log.target
    if not args.unseeded:  # prepend the seed self-loop on node 1
        source, target = np.concatenate(([1], source)), np.concatenate(([1], target))
    # the dense id (rank among the distinct ids) of every endpoint-stream position
    order, _, group, start = _end_stream(source, target)
    dense = np.empty_like(order)
    dense[order] = group
    out_degree = np.bincount(dense[0::2], minlength=len(start))
    in_degree = np.bincount(dense[1::2], minlength=len(start))
    counts = degree_counts_from_arrays(in_degree, out_degree, len(start), len(source))
    curve = ccdf(counts, args.direction)
    export(curve, Path(args.out))
    print(f"wrote {len(curve)} ccdf points to {args.out}")
    return EXIT_OK


def cmd_limit_pmf(args) -> int:
    params = _params_from_args(args)
    pmf = limit_pmf(params, m_max=args.m_max)
    export(pmf, Path(args.out))
    print(f"wrote limit pmf (m <= {pmf.truncation_m}) to {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    log = parse_edge_file(args.input)
    labels = _novelty_pass(log, seeded=not args.unseeded).scenario
    export(EdgeLog.from_columns(log.source, log.target, log.time, labels), Path(args.out))
    counts = {sc: int(c) for sc, c in enumerate(np.bincount(labels, minlength=6)) if c}
    print(f"wrote labeled log to {args.out}; scenario counts: {counts}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridnet",
        description="Simulate and fit directed networks mixing degree-proportional and uniform attachment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate replicate networks to edge-list files")
    _add_param_flags(ps)
    ps.add_argument("--n", type=int, required=True, help="edges per replicate")
    ps.add_argument("--replicates", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out-dir", required=True)
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--no-scenario-labels", action="store_true")
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit parameters to an edge-list file")
    pf.add_argument("--input", required=True)
    pf.add_argument("--method", choices=FIT_METHODS, default="integrated")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--burn-in", type=int, default=10_000)
    pf.add_argument("--iterations", type=int, default=20_000)
    pf.add_argument("--thinning", type=int, default=500)
    pf.add_argument("--delta-max", type=float, default=100.0)
    pf.add_argument("--init", default=None, help="search start as comma list (see --help)")
    pf.add_argument("--out", default=None)
    pf.add_argument(
        "--trace-out", default=None, help="sampler trace: JSON for a .json suffix, CSV otherwise"
    )
    pf.add_argument(
        "--unseeded",
        action="store_true",
        help="replay without a seed self-loop (real-data windows)",
    )
    pf.set_defaults(func=cmd_fit)

    pt = sub.add_parser("table", help="simulate, fit and summarise bias/spread per parameter")
    _add_param_flags(pt)
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--replicates", type=int, required=True)
    pt.add_argument("--methods", default="nm", help="comma list from nm,mh,integrated")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--workers", type=int, default=1)
    pt.add_argument("--burn-in", type=int, default=10_000)
    pt.add_argument("--iterations", type=int, default=20_000)
    pt.add_argument("--thinning", type=int, default=500)
    pt.add_argument("--out", required=True, help="JSON for a .json suffix, CSV otherwise")
    pt.set_defaults(func=cmd_table)

    pc = sub.add_parser("ccdf", help="empirical degree tail curve of an edge-list file")
    pc.add_argument("--input", required=True)
    pc.add_argument("--direction", choices=("in", "out"), default="in")
    pc.add_argument("--out", required=True, help="JSON for a .json suffix, CSV otherwise")
    pc.add_argument("--unseeded", action="store_true")
    pc.set_defaults(func=cmd_ccdf)

    pl = sub.add_parser("limit-pmf", help="theoretical limiting degree pmf to CSV or JSON")
    _add_param_flags(pl)
    pl.add_argument("--m-max", type=int, default=200)
    pl.add_argument("--out", required=True, help="JSON for a .json suffix, CSV otherwise")
    pl.set_defaults(func=cmd_limit_pmf)

    pk = sub.add_parser("classify", help="label every record with its scenario")
    pk.add_argument("--input", required=True)
    pk.add_argument("--out", required=True)
    pk.add_argument("--unseeded", action="store_true")
    pk.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
