"""The benchmark workloads.

Each workload makes its inputs from the run seed in ``setup``, runs the calls
a user of the CLI or the API makes in ``body`` (the timed region, called
through the API namespace of ``spans.instrumented``), and verifies the
outputs in ``check``, outside the timed region.  Only the public API and
``hybridnet.cli`` are used, so the benchmark keeps working across internal
rewrites.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ess import effective_sample_size

# Table-1 setting of the replication study
TABLE1 = dict(alpha=0.1, beta=0.8, p=0.8, delta_in=1.3, delta_out=0.7)
# node-heavy setting of scripts/tail_compare.py: 0.9 new nodes per edge
NODE_HEAVY = dict(alpha=0.45, beta=0.1, p=0.6, delta_in=1.3, delta_out=0.7)
# the simplex start of the CLI's fit and table commands
FIXED_START = dict(alpha=1 / 3, beta=1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
# per-replicate sampler seed of the table command
TABLE_SEED_STRIDE = 7919


@dataclass
class Checks:
    """Output checks: each one is an attempted operation; failures are counted."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def expect_no_error(self, name: str, fn) -> None:
        try:
            fn()
        except (ValueError, ArithmeticError) as exc:
            self.expect(f"{name}: {exc}", False)
        else:
            self.expect(name, True)


@dataclass
class Iteration:
    """What one timed body produced, kept until it has been checked."""

    records: int
    outputs: dict
    probe_stats: object = None  # SufficientStats for the likelihood probes
    probe_point: object = None


def _nonincreasing_positive(curve) -> bool:
    values = [v for _, v in curve]
    return bool(values) and all(v > 0.0 for v in values) and all(
        a >= b for a, b in zip(values, values[1:])
    )


class Workload:
    """Defaults: the seed is the only input, and no sampler or pool runs."""

    name: str
    sizes: dict

    def setup(self, hn, work: Path, seed: int) -> dict:
        return {"seed": seed}

    def ess_min(self, it: Iteration) -> list[float]:
        return []

    def ipc_bytes(self, it: Iteration) -> float:
        return 0.0


class SimulateTails(Workload):
    """``simulate`` plus ``scripts/tail_compare.py``: replicate simulation on
    the process pool, edge-log exports, degree tails and the limit pmf."""

    name = "simulate_tails"
    sizes = {"replicates": 4, "n_edges": 250_000, "worker_count": 2}

    def body(self, api, work: Path, inputs: dict) -> Iteration:
        s = self.sizes
        params = api.HybridParams.fill_gamma(**NODE_HEAVY)
        config = api.SimulationConfig(params=params, n_edges=s["n_edges"], seed=inputs["seed"])
        outputs = api.simulate_replicates(config, s["replicates"], worker_count=s["worker_count"])
        for k, out in enumerate(outputs):
            api.export(out.log, work / f"replicate_{k:03d}.edges")
        curves = []
        for k, out in enumerate(outputs):
            counts = api.degree_counts(out.state)
            for direction in ("in", "out"):
                curve = api.ccdf(counts, direction)
                api.export(curve, work / f"tail_{direction}_rep{k}.csv")
                curves.append(curve)
        pmf = api.limit_pmf(params)
        return Iteration(
            records=s["replicates"] * s["n_edges"],
            outputs={"replicates": outputs, "curves": curves, "pmf": pmf, "params": params},
        )

    def check(self, hn, it: Iteration, checks: Checks) -> None:
        o = it.outputs
        for out in o["replicates"]:
            checks.expect_no_error("state.check_consistency", out.state.check_consistency)
            checks.expect("len(log) == n_edges", len(out.log) == self.sizes["n_edges"])
        for curve in o["curves"]:
            checks.expect("ccdf positive and nonincreasing", _nonincreasing_positive(curve))
        params, pmf = o["params"], o["pmf"]
        floor = params.alpha + params.gamma - 1e-8
        checks.expect("limit_pmf in-mass", float(pmf.psi_in.sum()) >= floor)
        checks.expect("limit_pmf out-mass", float(pmf.psi_out.sum()) >= floor)

    def ipc_bytes(self, it: Iteration) -> float:
        """Computed pickled size of the replicate outputs the pool sends back."""
        return float(sum(len(pickle.dumps(out)) for out in it.outputs["replicates"]))


def nm_start(api, stats):
    """The CLI's default simplex start: the fixed start, spread over five
    scenarios when the data hold fresh-node scenarios 4 or 5."""
    mle = api.mle_scenarios(stats)
    if mle.xi > 0.0 or mle.eta > 0.0:
        rest = 1.0 - mle.xi - mle.eta
        return api.HybridParams.fill_gamma(rest / 3, rest / 3, 0.5, 1.0, 1.0, xi=mle.xi, eta=mle.eta)
    return api.HybridParams.fill_gamma(**FIXED_START)


class IngestWindowFit(Workload):
    """A real-data session on one unlabeled ``source target time`` file:
    CLI classify and ccdf, then parse, replay, window and a simplex fit."""

    name = "ingest_window_fit"
    sizes = {"n_records": 300_000, "window_share": 0.1, "worker_count": 1}
    SCORE_TOL = 1e-2

    def setup(self, hn, work: Path, seed: int) -> dict:
        params = hn.HybridParams.fill_gamma(**TABLE1)
        config = hn.SimulationConfig(
            params=params, n_edges=self.sizes["n_records"], seed=seed, log_scenarios=False
        )
        hn.export(hn.simulate(config).log, work / "input.edges")
        return {"input": "input.edges"}

    def body(self, api, work: Path, inputs: dict) -> Iteration:
        source, labeled = work / inputs["input"], work / "labeled.edges"
        codes = [
            api.cli_main(["classify", "--input", str(source), "--out", str(labeled)]),
            api.cli_main(
                ["ccdf", "--direction", "in", "--input", str(labeled), "--out", str(work / "ccdf_in.csv")]
            ),
        ]
        log = api.parse_edge_file(labeled)
        full = api.replay(log)
        t_first, t_last = log[0].time, log[-1].time
        half = self.sizes["window_share"] / 2
        mid, span = (t_first + t_last) / 2, t_last - t_first
        wlog, _ = api.window(log, math.ceil(mid - half * span), math.floor(mid + half * span))
        wstats = api.replay(wlog, seeded=False)
        start = nm_start(api, wstats)
        fit = api.fit_nelder_mead(wstats, api.NelderMeadConfig(initial_point=start))
        return Iteration(
            records=3 * len(log),  # classify, ccdf and the API each parse the whole file once
            outputs={"codes": codes, "log": log, "full": full, "start": start, "fit": fit},
            probe_stats=wstats,
            probe_point=fit.point,
        )

    def check(self, hn, it: Iteration, checks: Checks) -> None:
        o = it.outputs
        for code in o["codes"]:
            checks.expect("cli exit code 0", code == 0)
        labels = Counter(rec.scenario for rec in o["log"])
        checks.expect(
            "labeled scenario counts equal replay counts",
            tuple(labels.get(sc, 0) for sc in range(1, 6)) == o["full"].scenario_counts,
        )
        fit, wstats = o["fit"], it.probe_stats
        checks.expect("simplex converged", fit.converged)
        checks.expect(
            "simplex log-likelihood >= start",
            fit.log_likelihood >= hn.log_likelihood(wstats, o["start"]),
        )
        grad = hn.score(wstats, fit.point)
        checks.expect("score near zero at optimum", float(abs(grad).max()) <= self.SCORE_TOL)


class TableIntegrated(Workload):
    """``table --methods integrated``: simulate, then replay and the
    sampler-then-simplex fit per replicate, then the bias summary."""

    name = "table_integrated"
    sizes = {
        "replicates": 2,
        "n_edges": 10_000,
        "burn_in": 10_000,
        "iterations": 20_000,
        "thinning": 1,
        "worker_count": 1,
    }

    def body(self, api, work: Path, inputs: dict) -> Iteration:
        s, seed = self.sizes, inputs["seed"]
        truth = api.HybridParams.fill_gamma(**TABLE1)
        config = api.SimulationConfig(params=truth, n_edges=s["n_edges"], seed=seed)
        outputs = api.simulate_replicates(config, s["replicates"], worker_count=s["worker_count"])
        fits = []
        for idx, out in enumerate(outputs):
            stats = api.replay(out.log)
            mh = api.MhConfig(
                burn_in=s["burn_in"],
                iterations=s["iterations"],
                thinning=s["thinning"],
                seed=seed + TABLE_SEED_STRIDE * (idx + 1),
            )
            nm = api.NelderMeadConfig(initial_point=api.HybridParams.fill_gamma(**FIXED_START))
            fits.append((stats, api.fit_integrated(stats, mh, nm)))
        rows = api.summarize_estimates([fit.point for _, fit in fits], truth)
        return Iteration(
            records=s["replicates"] * s["n_edges"],
            outputs={"fits": fits, "rows": rows},
            probe_stats=fits[0][0],
            probe_point=fits[0][1].point,
        )

    def check(self, hn, it: Iteration, checks: Checks) -> None:
        for stats, fit in it.outputs["fits"]:
            checks.expect("simplex converged", fit.converged)
            mh_point = fit.diagnostics.get("mh_point")
            checks.expect(
                "simplex log-likelihood >= sampler point",
                mh_point is not None and fit.log_likelihood >= hn.log_likelihood(stats, mh_point),
            )
            rate = fit.acceptance_rate
            checks.expect("0 < acceptance < 1", rate is not None and 0.0 < rate < 1.0)
            checks.expect("trace length == iterations", len(fit.trace or ()) == self.sizes["iterations"])
        checks.expect("one summary row per parameter", len(it.outputs["rows"]) == 8)

    def ess_min(self, it: Iteration) -> list[float]:
        """Per replicate, the minimum ESS over (p, delta_in, delta_out)."""
        return [
            min(
                effective_sample_size([getattr(e.params, coord) for e in fit.trace])
                for coord in ("p", "delta_in", "delta_out")
            )
            for _, fit in it.outputs["fits"]
        ]


WORKLOADS = {w.name: w for w in (SimulateTails(), IngestWindowFit(), TableIntegrated())}
