"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them);
the stated tolerances are fixed here and nowhere else.  Reference values for
the reduced replication study come from the original study's reported
estimates; statistical criteria use fixed master seeds.
"""

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from hybridnet import (
    HybridParams,
    MhConfig,
    NelderMeadConfig,
    SimulationConfig,
    classify_edge_log,
    degree_counts,
    derived_constants,
    fit_integrated,
    fit_mh,
    fit_nelder_mead,
    growth_diagnostic,
    limit_pmf,
    limit_pmf_quadrature,
    log_likelihood,
    replay,
    replicate_seeds,
    score,
    simulate,
    simulate_replicates,
)
from conftest import enumerate_histories, log_from_pairs, reference_nelder_mead

TABLE1 = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
FIXED_START = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
GROWTH_CHECKPOINTS = (1_000, 10_000, 100_000)

MASTER_SEED = 20250810


def _check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


@pytest.fixture(scope="module")
def table1_replicates():
    config = SimulationConfig(params=TABLE1, n_edges=10_000, seed=MASTER_SEED)
    outputs = simulate_replicates(config, 20, worker_count=2)
    return [replay(out.log) for out in outputs]


def test_criterion_01_reduced_replication_simplex(table1_replicates):
    estimates = [
        fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START)).point
        for stats in table1_replicates
    ]
    mean = {
        name: float(np.mean([est.as_dict()[name] for est in estimates]))
        for name in ("alpha", "beta", "p", "delta_in", "delta_out")
    }
    checks = [
        ("alpha", 0.1, 0.005),
        ("beta", 0.8, 0.005),
        ("p", 0.7908, 0.03),
        ("delta_in", 1.2304, 0.12),
        ("delta_out", 0.6345, 0.10),
    ]
    detail = ", ".join(f"{n}={mean[n]:.4f}" for n, _, _ in checks)
    ok = all(abs(mean[n] - ref) < tol for n, ref, tol in checks)
    _check(1, "simplex-search means reproduce the reduced replication study", ok, detail)


def test_newton_search_matches_reference_simplex(table1_replicates):
    """On the criterion-01 replicates, the Newton search reaches at least the
    restarted simplex's log-likelihood, and criterion 01's printed means
    are the same."""
    nm_config = NelderMeadConfig(initial_point=FIXED_START)
    names = ("alpha", "beta", "p", "delta_in", "delta_out")
    points = {"newton": [], "simplex": []}
    for stats in table1_replicates:
        newton = fit_nelder_mead(stats, nm_config)
        simplex = reference_nelder_mead(stats, nm_config)
        assert newton.converged
        assert newton.log_likelihood >= simplex.log_likelihood - 1e-9
        points["newton"].append(newton.point)
        points["simplex"].append(simplex.point)
    printed = {
        key: [f"{np.mean([getattr(pt, name) for pt in pts]):.4f}" for name in names]
        for key, pts in points.items()
    }
    assert printed["newton"] == printed["simplex"]


def _mh_means(table1_replicates, seed_base):
    points = []
    for i, stats in enumerate(table1_replicates):
        config = MhConfig(burn_in=10_000, iterations=20_000, thinning=500, seed=seed_base + i)
        points.append(fit_mh(stats, config).point)
    return (
        float(np.mean([p.p for p in points])),
        float(np.mean([p.delta_in for p in points])),
    )


def test_criterion_02_reduced_replication_sampler(table1_replicates):
    p_hat, din_hat = _mh_means(table1_replicates, 3000)
    ok = abs(p_hat - 0.8183) < 0.06 and abs(din_hat - 1.4513) < 0.25
    if not ok:  # statistical tolerance: one rerun with a fresh seed before failing
        p_hat, din_hat = _mh_means(table1_replicates, 9000)
        ok = abs(p_hat - 0.8183) < 0.06 and abs(din_hat - 1.4513) < 0.25
    _check(2, "sampler means reproduce the reduced replication study",
           ok, f"p={p_hat:.4f}, delta_in={din_hat:.4f}")


def test_criterion_03_limit_pmf_convergence():
    th = HybridParams.fill_gamma(0.45, 0.1, p=0.6, delta_in=1.3, delta_out=0.7)
    pmf = limit_pmf(th, m_max=40)
    n = 100_000
    errs_in = np.zeros(11)
    errs_out = np.zeros(11)
    seeds = replicate_seeds(424242, 10)
    for seed in seeds:
        state, _ = simulate(SimulationConfig(params=th, n_edges=n, seed=seed, log_scenarios=False))
        counts = degree_counts(state)
        emp_in = np.array([counts.in_counts.get(m, 0) / n for m in range(11)])
        emp_out = np.array([counts.out_counts.get(m, 0) / n for m in range(11)])
        errs_in += np.abs(emp_in - pmf.psi_in[:11])
        errs_out += np.abs(emp_out - pmf.psi_out[:11])
    max_in = errs_in.max() / len(seeds)
    max_out = errs_out.max() / len(seeds)
    ok = max_in < 0.01 and max_out < 0.01
    _check(3, "empirical degree fractions approach the limiting pmf",
           ok, f"max_in={max_in:.5f}, max_out={max_out:.5f}")


def test_criterion_04_closed_form_vs_quadrature():
    worst = 0.0
    m = range(51)
    for p in (0.3, 0.6, 1.0):
        for delta_in in (0.5, 1.3, 2.7):
            for beta in (0.1, 0.5, 0.8):
                half = (1.0 - beta) / 2.0
                th = HybridParams.fill_gamma(half, beta, p=p, delta_in=delta_in, delta_out=0.7)
                pmf = limit_pmf(th, m_max=50)
                qi, qo = limit_pmf_quadrature(th, m)
                worst = max(
                    worst,
                    float(np.abs(pmf.psi_in[:51] - qi).max()),
                    float(np.abs(pmf.psi_out[:51] - qo).max()),
                )
    _check(4, "closed-form limit pmf matches the quadrature oracle to 1e-10",
           worst < 1e-10, f"max_abs_diff={worst:.2e}")


def test_criterion_05_generator_micro_exactness():
    th = HybridParams.fill_gamma(0.3, 0.4, p=0.5, delta_in=1.0, delta_out=1.0)
    histories = enumerate_histories(th, 2)
    exact = {tuple(records): prob for records, prob in histories}
    total = sum(exact.values())
    runs = 100_000
    counts = Counter()
    for seed in range(runs):
        _, log = simulate(SimulationConfig(params=th, n_edges=2, seed=seed, log_scenarios=False))
        counts[tuple((r.source, r.target) for r in log)] += 1
    tv = 0.5 * sum(abs(counts.get(h, 0) / runs - p) for h, p in exact.items())
    tv += 0.5 * sum(c / runs for h, c in counts.items() if h not in exact)
    ok = tv < 0.01 and abs(total - 1.0) < 1e-12
    _check(5, "two-step history law matches exhaustive enumeration",
           ok, f"tv={tv:.5f}, enum_mass_err={abs(total - 1.0):.2e}")


def test_criterion_06_score_vs_finite_differences():
    rng = np.random.default_rng(606)
    worst = 0.0
    h = 1e-5
    for _ in range(50):
        alpha = rng.uniform(0.1, 0.6)
        beta = rng.uniform(0.1, min(0.8, 0.95 - alpha))
        sim_theta = HybridParams.fill_gamma(
            alpha, beta, p=rng.uniform(0.2, 0.95),
            delta_in=rng.uniform(0.3, 2.5), delta_out=rng.uniform(0.3, 2.5),
        )
        _, log = simulate(
            SimulationConfig(params=sim_theta, n_edges=200, seed=int(rng.integers(2**31)))
        )
        stats = replay(log)
        eval_theta = HybridParams.fill_gamma(
            alpha, beta, p=rng.uniform(0.2, 0.9),
            delta_in=rng.uniform(0.4, 2.0), delta_out=rng.uniform(0.4, 2.0),
        )
        analytic = score(stats, eval_theta)
        base = eval_theta.as_dict()
        for idx, name in enumerate(("delta_in", "delta_out", "p")):
            hi, lo = dict(base), dict(base)
            hi[name] += h
            lo[name] -= h
            fd = (
                log_likelihood(stats, HybridParams(**hi))
                - log_likelihood(stats, HybridParams(**lo))
            ) / (2 * h)
            worst = max(worst, abs(analytic[idx] - fd) / (1.0 + abs(analytic[idx])))
    _check(6, "analytic score matches central finite differences", worst < 1e-6,
           f"worst_rel_err={worst:.2e}")


def test_criterion_07_scenario_round_trip():
    th = HybridParams.fill_gamma(0.1, 0.7, p=0.8, delta_in=1.3, delta_out=0.7, xi=0.05, eta=0.05)
    mismatches = 0
    for seed in replicate_seeds(777, 10):
        _, log = simulate(SimulationConfig(params=th, n_edges=10_000, seed=seed))
        relabeled = classify_edge_log(log)
        mismatches += sum(1 for rec, sc in zip(log, relabeled) if rec.scenario != sc)
    _check(7, "scenario classification reproduces generator labels exactly",
           mismatches == 0, f"mismatches={mismatches}")


def _node1_trajectories(seed):
    _, log = simulate(
        SimulationConfig(params=TABLE1, n_edges=GROWTH_CHECKPOINTS[-1], seed=seed, log_scenarios=False)
    )
    d_in, d_out = 1, 1
    traj_in, traj_out = [], []
    targets = iter(GROWTH_CHECKPOINTS)
    nxt = next(targets)
    for rec in log:
        if rec.target == 1:
            d_in += 1
        if rec.source == 1:
            d_out += 1
        if rec.time == nxt:
            traj_in.append(d_in)
            traj_out.append(d_out)
            nxt = next(targets, None)
    return traj_in, traj_out


def test_criterion_08_growth_exponents():
    seeds = replicate_seeds(880000, 200)
    with ProcessPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(_node1_trajectories, seeds, chunksize=10))
    traj_in = np.array([r[0] for r in rows], dtype=float)
    traj_out = np.array([r[1] for r in rows], dtype=float)
    dc = derived_constants(TABLE1)
    ok = True
    details = []
    for label, traj, c, dt in (
        ("in", traj_in, dc.c1, dc.delta_in_tilde),
        ("out", traj_out, dc.c2, dc.delta_out_tilde),
    ):
        diag = growth_diagnostic(GROWTH_CHECKPOINTS, traj, c)
        rel = abs(diag.mean[2] - diag.mean[1]) / diag.mean[1]
        sup = float(diag.normalized.max())
        # Trend check on the martingale-normalised statistic (degree plus the
        # effective offset): the raw ratio D/n^c carries the vanishing
        # deterministic term -dt/n^c whose decay between the two checkpoints
        # would register as a spurious upward trend in a paired sign test.
        shifted = growth_diagnostic(GROWTH_CHECKPOINTS, traj + dt, c)
        ups = int(np.sum(shifted.normalized[:, 2] > shifted.normalized[:, 1]))
        sign_ok = abs(ups - 100) <= 1.96 * math.sqrt(200 * 0.25)
        ok = ok and rel < 0.15 and math.isfinite(sup) and sign_ok
        details.append(f"{label}: rel={rel:.3f}, ups={ups}/200, sup={sup:.2f}")
    _check(8, "normalised degree trajectories stabilise at the growth exponents",
           ok, "; ".join(details))


def test_criterion_09_conservation_invariants():
    settings = [
        (TABLE1, 2000, 11),
        (HybridParams.fill_gamma(0.2, 0.3, p=0.5, delta_in=0.6, delta_out=1.8, xi=0.1, eta=0.1), 2000, 12),
    ]
    ok = True
    for th, n, seed in settings:
        state, log = simulate(SimulationConfig(params=th, n_edges=n, seed=seed))
        state.check_consistency()
        counts = degree_counts(state)
        edge_mass_in = sum(m * c for m, c in counts.in_counts.items())
        edge_mass_out = sum(m * c for m, c in counts.out_counts.items())
        by_scenario = Counter(rec.scenario for rec in log)
        expected_nodes = 1 + by_scenario[1] + by_scenario[3] + by_scenario[4] + 2 * by_scenario[5]
        ok = ok and edge_mass_in == n + 1 == edge_mass_out and state.node_count == expected_nodes
    _check(9, "degree mass and node counts are conserved exactly", ok)


def test_criterion_10_extended_model_recovery():
    settings = [
        ("facebook-style", HybridParams.fill_gamma(
            0.07, 0.70, p=0.83, delta_in=0.2, delta_out=0.1, xi=0.08, eta=0.04), 101),
        ("wikipedia-style", HybridParams.fill_gamma(
            0.02, 0.74, p=0.999, delta_in=0.2, delta_out=0.15, xi=0.01, eta=0.01), 102),
    ]
    n = 10_000
    ok = True
    details = []
    for label, truth, seed in settings:
        _, log = simulate(SimulationConfig(params=truth, n_edges=n, seed=seed))
        stats = replay(log)
        start = HybridParams.fill_gamma(
            0.23, 0.23, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1
        )
        result = fit_integrated(
            stats,
            MhConfig(burn_in=10_000, iterations=20_000, thinning=500, seed=seed),
            NelderMeadConfig(initial_point=start),
        )
        est = result.point.as_dict()
        truth_map = truth.as_dict()
        freq_ok = all(
            abs(est[name] - truth_map[name])
            <= 3 * math.sqrt(truth_map[name] * (1 - truth_map[name]) / n)
            for name in ("alpha", "beta", "gamma", "xi", "eta")
        )
        p_ok = abs(est["p"] - truth.p) <= 0.05
        ok = ok and freq_ok and p_ok
        details.append(f"{label}: p={est['p']:.3f} (true {truth.p}), freq_ok={freq_ok}")
    _check(10, "integrated pipeline recovers extended-model parameters", ok, "; ".join(details))
