import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from hybridnet import (
    EdgeLog,
    EdgeRecord,
    FlatPrior,
    HybridParams,
    MhConfig,
    NelderMeadConfig,
    SimulationConfig,
    accept_probability,
    fit,
    fit_integrated,
    fit_mh,
    fit_nelder_mead,
    log_likelihood,
    mle_scenarios,
    replay,
    simulate,
)
from hybridnet import estimation
from conftest import effective_sample_size, log_from_pairs, reference_kernel_log_likelihood

FIXED_START = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
TABLE1 = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
SCENARIOS = ("alpha", "beta", "gamma", "xi", "eta")
KERNEL = ("p", "delta_in", "delta_out")


@pytest.fixture(scope="module")
def sim_stats():
    th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
    _, log, _ = simulate(SimulationConfig(params=th, n_edges=2000, seed=123))
    return th, replay(log)


class TestConfigs:
    def test_nm_validation(self):
        with pytest.raises(ValueError):
            NelderMeadConfig(initial_point=FIXED_START, max_iters=0)
        with pytest.raises(ValueError):
            NelderMeadConfig(initial_point=FIXED_START, f_tol=0.0)

    def test_mh_validation(self):
        with pytest.raises(ValueError):
            MhConfig(thinning=0)
        with pytest.raises(ValueError):
            MhConfig(iterations=10, thinning=50)
        with pytest.raises(ValueError):
            MhConfig(point_estimate="mode")


class TestNelderMead:
    def test_scenario_components_equal_frequencies(self, sim_stats):
        _, stats = sim_stats
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        est = mle_scenarios(stats)
        assert result.point.alpha == pytest.approx(est.alpha, abs=1e-6)
        assert result.point.beta == pytest.approx(est.beta, abs=1e-6)
        assert result.converged

    def test_result_satisfies_constraints(self, sim_stats):
        _, stats = sim_stats
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        th = result.point
        # HybridParams validates on construction; spot-check the live values
        assert 0.0 <= th.p <= 1.0 and th.delta_in > 0.0 and th.delta_out > 0.0
        assert abs(th.alpha + th.beta + th.gamma + th.xi + th.eta - 1.0) < 1e-12

    def test_degenerate_log_reports_boundary(self):
        result = fit_nelder_mead(
            replay(log_from_pairs([(1, 1)])), NelderMeadConfig(initial_point=FIXED_START)
        )
        assert not result.converged
        assert "boundary" in result.diagnostics
        assert result.point.beta < 1.0  # clamped just inside the constraint

    def test_unobserved_gamma_stays_zero(self):
        # counts (1, 1, 0, 1, 6): the remaining mass 1 - 1/9 - 1/9 - 1/9 - 6/9
        # rounds below zero in floating point
        pairs = [(2, 1), (1, 1), (3, 3)] + [(k, k + 1) for k in range(4, 16, 2)]
        stats = replay(log_from_pairs(pairs))
        assert stats.scenario_counts == (1, 1, 0, 1, 6)
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        assert result.point.gamma == 0.0

    def test_optimum_at_least_truth_on_most_replicates(self):
        th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        wins = 0
        reps = 20
        for seed in range(reps):
            _, log, _ = simulate(SimulationConfig(params=th, n_edges=2000, seed=500 + seed))
            stats = replay(log)
            result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
            if result.log_likelihood >= log_likelihood(stats, th):
                wins += 1
        assert wins >= int(0.95 * reps)

    def test_start_scenario_block_is_ignored(self, sim_stats):
        _, stats = sim_stats
        other = HybridParams.fill_gamma(0.2, 0.5, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1)
        a = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        b = fit_nelder_mead(stats, NelderMeadConfig(initial_point=other))
        assert a.point == b.point
        assert a.log_likelihood == b.log_likelihood

    def test_extended_model_supported(self):
        th = HybridParams.fill_gamma(0.1, 0.6, p=0.8, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=3000, seed=9))
        stats = replay(log)
        start = HybridParams.fill_gamma(0.25, 0.25, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1)
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=start))
        est = mle_scenarios(stats)
        assert result.point.xi == pytest.approx(est.xi, abs=1e-9)
        assert result.point.eta == pytest.approx(est.eta, abs=1e-9)


class TestMetropolisHastings:
    def test_zero_steps_give_constant_unit_acceptance_chain(self, sim_stats):
        _, stats = sim_stats
        zero = {name: 0.0 for name in
                ("alpha", "beta", "gamma", "xi", "eta", "p", "log_delta_in", "log_delta_out")}
        config = MhConfig(
            burn_in=10, iterations=200, thinning=10, step_sizes=zero, seed=4, initial=FIXED_START
        )
        result = fit_mh(stats, config)
        assert result.acceptance_rate == 1.0
        # the scenario block is drawn exactly, so only the kernel walk freezes
        kernels = {(e.params.p, e.params.delta_in, e.params.delta_out) for e in result.trace}
        assert kernels == {(FIXED_START.p, FIXED_START.delta_in, FIXED_START.delta_out)}

    def test_trace_length_and_schema(self, sim_stats):
        _, stats = sim_stats
        result = fit_mh(stats, MhConfig(burn_in=100, iterations=1000, thinning=100, seed=8))
        assert len(result.trace) == 10
        assert result.trace[0].iteration == 200  # burn_in + thinning
        assert 0.0 <= result.acceptance_rate <= 1.0
        assert set(result.diagnostics["running_means"]) == {
            "alpha", "beta", "gamma", "xi", "eta", "p", "delta_in", "delta_out",
        }

    def test_seed_reproducibility(self, sim_stats):
        _, stats = sim_stats
        config = MhConfig(burn_in=50, iterations=500, thinning=50, seed=21)
        a = fit_mh(stats, config)
        b = fit_mh(stats, config)
        assert [e.params for e in a.trace] == [e.params for e in b.trace]
        assert a.point == b.point
        c = fit_mh(stats, MhConfig(burn_in=50, iterations=500, thinning=50, seed=22))
        assert c.point != a.point

    def test_same_chain_as_two_pass_kernel(self, monkeypatch):
        log = simulate(SimulationConfig(params=TABLE1, n_edges=10_000, seed=1)).log
        stats = replay(log)
        config = MhConfig(burn_in=2_000, iterations=4_000, thinning=100, seed=3)
        fast = fit_mh(stats, config)
        monkeypatch.setattr(estimation, "_kernel_log_likelihood", reference_kernel_log_likelihood)
        slow = fit_mh(stats, config)
        assert 0.0 < fast.acceptance_rate < 1.0
        assert fast.acceptance_rate == slow.acceptance_rate
        assert fast.point == slow.point

    def test_zero_density_start_rejected(self, sim_stats):
        _, stats = sim_stats
        bad = HybridParams.fill_gamma(0.0, 0.5, p=0.5, delta_in=1.0, delta_out=1.0)
        with pytest.raises(ValueError, match="zero posterior"):
            fit_mh(stats, MhConfig(burn_in=10, iterations=100, thinning=10, initial=bad))

    def test_start_outside_prior_support_rejected(self, sim_stats):
        _, stats = sim_stats
        outside = HybridParams.fill_gamma(0.1, 0.8, p=0.5, delta_in=250.0, delta_out=1.0)
        with pytest.raises(ValueError, match="zero posterior"):  # default delta_max is 100
            fit_mh(stats, MhConfig(burn_in=10, iterations=100, thinning=10, initial=outside))

    def test_running_mean_flattens_on_converged_chain(self):
        # A genuinely converged chain: equilibrium start, proposal steps
        # matched to the posterior scale (the likelihood ridge in
        # (p, delta_in, delta_out) otherwise gives autocorrelation times of
        # thousands of iterations), a compact flat prior, and a length that
        # puts the running-mean Monte Carlo noise well below the 1% bar.
        th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=500, seed=123))
        stats = replay(log)
        steps = {
            "alpha": 0.03, "beta": 0.04, "gamma": 0.03, "xi": 0.03, "eta": 0.03,
            "p": 0.08, "log_delta_in": 0.35, "log_delta_out": 0.35,
        }
        result = fit_mh(
            stats,
            MhConfig(
                burn_in=5_000,
                iterations=600_000,
                thinning=500,
                step_sizes=steps,
                prior=FlatPrior(delta_max=5.0),
                seed=2,
                initial=th,
            ),
        )
        for name, series in result.diagnostics["running_means"].items():
            drift = abs(series[-1] - series[int(0.75 * len(series))])
            assert drift / max(abs(series[-1]), 0.05) < 0.01, name

    def test_two_state_detailed_balance(self):
        # discretised toy target: two points with masses 0.3 / 0.7
        log_mass = {0: math.log(0.3), 1: math.log(0.7)}
        rng = np.random.default_rng(99)
        state = 0
        visits = np.zeros(2)
        flips = rng.random(1_000_000)
        for u in flips:
            proposal = 1 - state  # symmetric proposal
            if u < accept_probability(log_mass[state], log_mass[proposal]):
                state = proposal
            visits[state] += 1
        freq = visits / visits.sum()
        assert abs(freq[0] - 0.3) < 0.01
        assert abs(freq[1] - 0.7) < 0.01

    def test_accept_probability_edge_cases(self):
        assert accept_probability(-10.0, -math.inf) == 0.0
        assert accept_probability(-10.0, -5.0) == 1.0
        assert accept_probability(-5.0, -6.0) == pytest.approx(math.exp(-1.0))


class TestFactorisedSampler:
    def test_scenario_draws_follow_dirichlet_posterior(self, sim_stats):
        _, stats = sim_stats
        result = fit_mh(stats, MhConfig(burn_in=0, iterations=4000, thinning=1, seed=5))
        draws = np.array([[getattr(e.params, name) for name in SCENARIOS[:3]] for e in result.trace])
        a = np.array(stats.scenario_counts[:3]) + 1.0  # Dirichlet(counts + 1) on 3 scenarios
        mean = a / a.sum()  # (c + 1) / (n + k)
        var = a * (a.sum() - a) / (a.sum() ** 2 * (a.sum() + 1.0))
        n = draws.shape[0]
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * np.sqrt(var / n))
        # near-normal marginals: the sample variance has relative error sqrt(2 / n)
        assert np.all(np.abs(draws.var(axis=0, ddof=1) / var - 1.0) < 4.0 * math.sqrt(2.0 / n))

    def test_absent_scenarios_are_exactly_zero(self, sim_stats):
        pairs = [(2, 1), (1, 1), (3, 3)] + [(k, k + 1) for k in range(4, 16, 2)]
        extended = replay(log_from_pairs(pairs))
        assert extended.scenario_counts == (1, 1, 0, 1, 6)
        for stats in (sim_stats[1], extended):
            result = fit_mh(stats, MhConfig(burn_in=0, iterations=500, thinning=1, seed=6))
            for name, count in zip(SCENARIOS, stats.scenario_counts):
                values = {getattr(e.params, name) for e in result.trace}
                values |= {getattr(result.point, name)}
                values |= set(result.diagnostics["running_means"][name])
                if count:
                    assert 0.0 not in values, name
                else:
                    assert values == {0.0}, name

    def test_posterior_means_match_quadrature(self):
        _, log, _ = simulate(SimulationConfig(params=TABLE1, n_edges=300, seed=11))
        stats = replay(log)
        prior = FlatPrior(delta_max=5.0)
        result = fit_mh(
            stats, MhConfig(burn_in=5_000, iterations=100_000, thinning=1, prior=prior, seed=7)
        )
        # Midpoint rule under the flat priors (p on [0, 1], offsets on
        # (0, delta_max]).  The in- and out-terms share only p, so
        # ll(p, a, b) = ll(p, a, c) + ll(p, c, b) - ll(p, c, c) for any c.
        m = 120
        p = (np.arange(m) + 0.5) / m
        d = (np.arange(m) + 0.5) * prior.delta_max / m

        def ll(pp, din, dout):
            return log_likelihood(stats, replace(TABLE1, p=pp, delta_in=din, delta_out=dout))

        base = np.array([ll(pp, 1.0, 1.0) for pp in p])
        l_in = np.array([[ll(pp, x, 1.0) for x in d] for pp in p]) - base[:, None]
        l_out = np.array([[ll(pp, 1.0, x) for x in d] for pp in p]) - base[:, None]
        log_w = base[:, None, None] + l_in[:, :, None] + l_out[:, None, :]
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        exact = {
            "p": float((w.sum(axis=(1, 2)) * p).sum()),
            "delta_in": float((w.sum(axis=(0, 2)) * d).sum()),
            "delta_out": float((w.sum(axis=(0, 1)) * d).sum()),
        }
        for name in KERNEL:
            chain = np.array([getattr(e.params, name) for e in result.trace])
            mc_error = chain.std() / math.sqrt(effective_sample_size(chain))
            assert abs(chain.mean() - exact[name]) < 4.0 * mc_error, name
            assert getattr(result.point, name) == pytest.approx(chain.mean(), rel=1e-12)

    def test_kernel_ess_floor_on_table1(self):
        _, log, _ = simulate(SimulationConfig(params=TABLE1, n_edges=10_000, seed=1))
        result = fit_mh(
            replay(log), MhConfig(burn_in=10_000, iterations=20_000, thinning=1, seed=3)
        )
        for name in KERNEL:
            assert effective_sample_size([getattr(e.params, name) for e in result.trace]) >= 50, name

    def test_ess_helper_on_ar1(self):
        rho, n = 0.9, 200_000
        chain = lfilter([1.0], [1.0, -rho], np.random.default_rng(0).standard_normal(n))
        assert effective_sample_size(chain) / (n * (1 - rho) / (1 + rho)) == pytest.approx(1, abs=0.1)


class TestIntegrated:
    def test_seeding_never_hurts_the_found_optimum(self, sim_stats):
        _, stats = sim_stats
        nm_config = NelderMeadConfig(initial_point=FIXED_START)
        fixed = fit_nelder_mead(stats, nm_config)
        assert fixed.converged
        integrated = fit_integrated(
            stats, MhConfig(burn_in=500, iterations=2000, thinning=100, seed=13), nm_config
        )
        assert integrated.log_likelihood >= fixed.log_likelihood - 1e-8

    def test_mh_artifacts_attached(self, sim_stats):
        _, stats = sim_stats
        result = fit_integrated(
            stats,
            MhConfig(burn_in=100, iterations=500, thinning=100, seed=2),
            NelderMeadConfig(initial_point=FIXED_START),
        )
        assert result.trace is not None and len(result.trace) == 5
        assert result.acceptance_rate is not None
        assert isinstance(result.diagnostics["mh_point"], HybridParams)


class TestDispatcher:
    def test_routes_to_named_estimator(self, sim_stats):
        _, stats = sim_stats
        mh_config = MhConfig(burn_in=50, iterations=200, thinning=50, seed=3)
        nm_config = NelderMeadConfig(initial_point=FIXED_START)
        assert fit(stats, "nm", mh_config, nm_config).point == fit_nelder_mead(stats, nm_config).point
        assert fit(stats, "mh", mh_config, nm_config).point == fit_mh(stats, mh_config).point
        assert (
            fit(stats, "integrated", mh_config, nm_config).point
            == fit_integrated(stats, mh_config, nm_config).point
        )

    def test_unknown_method_rejected(self, sim_stats):
        _, stats = sim_stats
        with pytest.raises(ValueError, match="unknown method"):
            fit(stats, "lbfgs", MhConfig(), NelderMeadConfig(initial_point=FIXED_START))
