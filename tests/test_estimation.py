import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from hybridnet import (
    EdgeLog,
    EdgeRecord,
    HybridParams,
    MhConfig,
    NelderMeadConfig,
    SimulationConfig,
    accept_probability,
    export,
    fit,
    fit_integrated,
    fit_mh,
    fit_nelder_mead,
    log_likelihood,
    mle_scenarios,
    replay,
    score,
    simulate,
    simulate_replicates,
    window,
)
from hybridnet import cli, estimation
from hybridnet.estimation import Trace, TraceEntry, _params_from_components
from hybridnet.model import _ROW_BLOCK
from conftest import (
    ORACLE_SETTINGS,
    effective_sample_size,
    log_from_pairs,
    reference_fit_mh,
    reference_kernel_log_likelihood,
    reference_nelder_mead,
)

FIXED_START = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
TABLE1 = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
SCENARIOS = ("alpha", "beta", "gamma", "xi", "eta")
KERNEL = ("p", "delta_in", "delta_out")
# (alpha, beta, p, delta_in, delta_out) of the 3000-edge stress logs; U is
# pure uniform attachment, where the offsets drop out of the likelihood at p = 0
STRESS = {
    "T1": (0.1, 0.8, 0.8, 1.3, 0.7),
    "S1": (0.1, 0.8, 0.05, 1.3, 0.7),
    "S2": (0.1, 0.8, 1.0, 0.01, 0.02),
    "S3": (0.1, 0.8, 1.0, 50.0, 80.0),
    "S4": (0.3, 0.4, 0.9, 500.0, 1000.0),
    "U": (0.1, 0.8, 0.0, 1.3, 0.7),
}
START_GRID = [(p, d) for p in (0.0, 0.5, 1.0) for d in (1e-14, 1.0, 100.0)]


def stress_stats(name, seed):
    a, b, p, d_in, d_out = STRESS[name]
    th = HybridParams.fill_gamma(a, b, p=p, delta_in=d_in, delta_out=d_out)
    return replay(simulate(SimulationConfig(params=th, n_edges=3000, seed=seed)).log)


def grid_start(p, delta):
    return NelderMeadConfig(initial_point=replace(FIXED_START, p=p, delta_in=delta, delta_out=delta))


@pytest.fixture(scope="module")
def sim_stats():
    th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
    _, log = simulate(SimulationConfig(params=th, n_edges=2000, seed=123))
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
        # the flat prior on the offsets is proper only on a finite range
        for delta_max in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="delta_max"):
                MhConfig(delta_max=delta_max)
        assert MhConfig(delta_max=5.0).delta_max == 5.0

    def test_mh_settings(self):
        assert [f.name for f in fields(MhConfig)] == [
            "burn_in", "iterations", "thinning", "delta_max", "seed",
        ]


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
            _, log = simulate(SimulationConfig(params=th, n_edges=2000, seed=500 + seed))
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
        _, log = simulate(SimulationConfig(params=th, n_edges=3000, seed=9))
        stats = replay(log)
        start = HybridParams.fill_gamma(0.25, 0.25, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1)
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=start))
        est = mle_scenarios(stats)
        assert result.point.xi == pytest.approx(est.xi, abs=1e-9)
        assert result.point.eta == pytest.approx(est.eta, abs=1e-9)


# Fits the seed-3 10k-edge Table-1 log from FIXED_START and takes the
# derivatives at the truth; prints the reprs of every value.
_THREAD_COUNT_SCRIPT = """
from hybridnet import HybridParams, NelderMeadConfig, SimulationConfig, fit_nelder_mead, replay, simulate
from hybridnet.likelihood import _kernel_derivatives
truth = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
stats = replay(simulate(SimulationConfig(params=truth, n_edges=10_000, seed=3)).log)
start = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=start))
ll, grad, hess = _kernel_derivatives(stats, truth.p, truth.delta_in, truth.delta_out)
print(repr(result.point), repr(result.log_likelihood))
print(repr(ll), repr(grad.tolist()), repr(hess.tolist()))
"""


def test_fit_does_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_COUNT_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


class TestNewtonSearch:
    """The Newton ascent against the restarted simplex it replaced
    (``reference_nelder_mead``), and its convergence reports."""

    def test_reaches_reference_optimum_on_unseeded_window(self):
        config = SimulationConfig(params=TABLE1, n_edges=60_000, seed=4242, log_scenarios=False)
        log = simulate(config).log
        mid = (log.time[0] + log.time[-1]) // 2
        wlog, _ = window(log, mid - 15_000, mid + 14_999)
        stats = replay(wlog, seeded=False)
        assert len(stats) == 30_000
        nm_config = NelderMeadConfig(initial_point=FIXED_START)
        result = fit_nelder_mead(stats, nm_config)
        assert result.converged
        assert result.log_likelihood >= reference_nelder_mead(stats, nm_config).log_likelihood - 1e-9
        assert result.diagnostics["function_evals"] <= 100

    def test_exhausted_budget_is_not_converged(self, tmp_path, monkeypatch):
        log = simulate(SimulationConfig(params=TABLE1, n_edges=2000, seed=123)).log
        result = fit_nelder_mead(replay(log), NelderMeadConfig(initial_point=FIXED_START, max_iters=1))
        assert not result.converged
        diag = result.diagnostics
        assert diag["iterations"] == 1 and diag["restarts"] == 0
        assert diag["function_evals"] >= 2  # the start and at least one trial step
        # the CLI reports the same through its exit code
        export(log, tmp_path / "log.edges")
        monkeypatch.setattr(cli, "NelderMeadConfig", lambda **kw: NelderMeadConfig(**kw, max_iters=1))
        argv = ["fit", "--input", str(tmp_path / "log.edges"), "--method", "nm"]
        assert cli.main(argv + ["--out", str(tmp_path / "estimate.json")]) == 3

    def test_reported_log_likelihood_is_log_likelihood_of_point(self, sim_stats):
        _, stats = sim_stats
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        assert result.converged
        assert result.log_likelihood == log_likelihood(stats, result.point)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_p_held_on_its_upper_bound(self, seed):
        th = HybridParams.fill_gamma(0.1, 0.8, p=1.0, delta_in=0.2, delta_out=0.3)
        stats = replay(simulate(SimulationConfig(params=th, n_edges=2000, seed=seed)).log)
        nm_config = NelderMeadConfig(initial_point=FIXED_START)
        reference = reference_nelder_mead(stats, nm_config)
        assert reference.point.p > 1.0 - 1e-6  # the maximum sits on p = 1
        result = fit_nelder_mead(stats, nm_config)
        assert result.point.p == 1.0
        assert result.converged
        assert result.diagnostics["active_bound"] == "p = 1"
        assert result.log_likelihood >= reference.log_likelihood - 1e-9

    @pytest.fixture(scope="class")
    def criterion01_replicates(self):
        # the criterion-01 replicates of tests/test_acceptance.py
        config = SimulationConfig(params=TABLE1, n_edges=10_000, seed=20250810)
        return [replay(out.log) for out in simulate_replicates(config, 20, worker_count=2)]

    @pytest.mark.parametrize("replicate", [0, 2, 3, 10, 14])
    def test_offset_held_on_its_floor(self, criterion01_replicates, replicate):
        # the delta_out maximum of these replicates is at 0: the search holds
        # it on the floor, where the Karush-Kuhn-Tucker conditions hold
        stats = criterion01_replicates[replicate]
        result = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        assert result.converged
        assert result.diagnostics["active_bound"] == "delta_out = floor"
        assert result.point.delta_out == estimation._DELTA_FLOOR
        g_in, g_out, g_p = score(stats, result.point)
        assert g_out <= 0.0
        assert abs(g_in) <= 1e-2 and abs(g_p) <= 1e-2

    @pytest.mark.parametrize("delta", [1e-14, 1.0, 100.0])
    def test_offset_tolerance_is_relative(self, delta):
        # near delta = 0 the Newton step is about delta itself; an absolute
        # x_tol there stops the search 42 or more below the optimum
        stats = stress_stats("S2", 1)
        optimum = fit_nelder_mead(stats, NelderMeadConfig(initial_point=FIXED_START))
        result = fit_nelder_mead(stats, grid_start(1.0, delta))
        assert result.converged
        assert result.log_likelihood == pytest.approx(optimum.log_likelihood, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniform_attachment_names_every_held_coordinate(self, seed):
        stats = stress_stats("U", seed)
        on_bound = {"delta_in = floor": lambda th: th.delta_in == estimation._DELTA_FLOOR,
                    "delta_out = floor": lambda th: th.delta_out == estimation._DELTA_FLOOR,
                    "p = 0": lambda th: th.p == 0.0,
                    "p = 1": lambda th: th.p == 1.0}
        for p, delta in START_GRID:
            result = fit_nelder_mead(stats, grid_start(p, delta))
            assert result.converged
            held = result.diagnostics.get("active_bound")
            for name in [] if held is None else held.split(", "):
                assert on_bound[name](result.point), (p, delta, name)
        # at p = 0 the offsets have no gradient: every coordinate is held
        result = fit_nelder_mead(stats, grid_start(0.0, 1e-14))
        assert result.diagnostics["active_bound"] == "delta_in = floor, delta_out = floor, p = 0"

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["T1", "S1", "S2", "S3", "S4"])
    def test_start_grid_reaches_reference_optimum(self, name, seed):
        stats = stress_stats(name, seed)
        for p, delta in START_GRID:
            nm_config = grid_start(p, delta)
            reference = reference_nelder_mead(stats, nm_config)
            result = fit_nelder_mead(stats, nm_config)
            assert result.log_likelihood >= reference.log_likelihood - 1e-9, (p, delta)


class TestMetropolisHastings:
    def test_trace_length_and_schema(self, sim_stats):
        _, stats = sim_stats
        result = fit_mh(stats, MhConfig(burn_in=100, iterations=1000, thinning=100, seed=8))
        assert len(result.trace) == 10
        assert result.trace[0].iteration == 200  # burn_in + thinning
        assert [e.iteration for e in result.trace] == list(range(200, 1101, 100))
        assert 0.0 <= result.acceptance_rate <= 1.0

    def test_trace_log_posterior_is_log_likelihood_of_draw(self, sim_stats):
        _, stats = sim_stats
        result = fit_mh(stats, MhConfig(burn_in=200, iterations=2000, thinning=20, seed=5))
        n1, n2, n3, _, _ = stats.scenario_counts
        terms = len(stats) + n1 + 2 * n2 + n3  # one scenario term per record, one per kernel step
        for entry in result.trace:
            assert math.isfinite(entry.log_posterior)
            assert abs(entry.log_posterior - log_likelihood(stats, entry.params)) <= 1e-12 * terms

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

    def test_screen_changes_no_decision(self, monkeypatch):
        # a bound of +inf rejects nothing, which switches the screen off
        log = simulate(SimulationConfig(params=TABLE1, n_edges=10_000, seed=1)).log
        stats = replay(log)
        config = MhConfig(burn_in=2_000, iterations=4_000, thinning=100, seed=3)
        screened = fit_mh(stats, config)
        monkeypatch.setattr(estimation, "_kernel_upper_bound", lambda *args: math.inf)
        unscreened = fit_mh(stats, config)
        assert screened.trace == unscreened.trace
        assert screened.point == unscreened.point
        assert screened.acceptance_rate == unscreened.acceptance_rate
        steps = config.burn_in + config.iterations
        assert screened.diagnostics["likelihood_evals"] <= 0.25 * steps
        # unscreened: every proposal inside the prior support, the start and the point
        assert steps / 2 < unscreened.diagnostics["likelihood_evals"] <= steps + 2

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


# (setting, MhConfig) pairs of the chain oracle: no burn-in, a short adapted
# burn-in, thinning that does not divide the iterations, a delta_max below
# the true delta_in that proposals cross, and a log with xi and eta present
CHAIN_CASES = {
    "no_burn_in": ("table1", MhConfig(burn_in=0, iterations=1_500, thinning=1, seed=4)),
    "short_burn_in": ("table1", MhConfig(burn_in=37, iterations=600, thinning=1, seed=5)),
    "thinned": ("table1", MhConfig(burn_in=1_000, iterations=3_000, thinning=7, seed=6)),
    "small_delta_max": ("table1", MhConfig(burn_in=500, iterations=2_000, thinning=2, delta_max=0.8, seed=7)),
    "extended": ("extended", MhConfig(burn_in=800, iterations=2_000, thinning=4, seed=8)),
}


class TestChainOracle:
    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_same_chain_as_per_step_loop(self, case):
        # the increments are summed in another order than the reference's
        # chol @ z, so the kernel draws may move in their last digits only
        setting, config = CHAIN_CASES[case]
        log = simulate(SimulationConfig(params=ORACLE_SETTINGS[setting], n_edges=2_000, seed=3)).log
        self.assert_same_chain(replay(log), config)
        if case == "small_delta_max":  # the chain presses on the bound
            assert fit_mh(replay(log), config).trace.draws[:, 6].max() > 0.95 * config.delta_max
        if case == "extended":
            assert (fit_mh(replay(log), config).trace.draws[:, 3:5] > 0.0).all()

    @pytest.mark.parametrize("case", ["short_burn_in", "thinned"])
    def test_block_boundaries(self, case, monkeypatch):
        # blocks of 61 steps end inside the adaptation phases and between
        # kept draws; the chain is the one walked in whole blocks
        setting, config = CHAIN_CASES[case]
        stats = replay(simulate(SimulationConfig(params=ORACLE_SETTINGS[setting], n_edges=2_000, seed=3)).log)
        whole = fit_mh(stats, config)
        monkeypatch.setattr(estimation, "_WALK_BLOCK", 61)
        self.assert_same_chain(stats, config)
        blocked = fit_mh(stats, config)
        assert blocked.trace == whole.trace
        assert blocked.acceptance_rate == whole.acceptance_rate
        assert blocked.diagnostics == whole.diagnostics

    def test_memory_does_not_grow_with_chain_length(self, sim_stats, monkeypatch):
        # with every proposal screened out the walk is the loop alone; only
        # the 4 and 16 kept draws may add to the peak of the 1k-step chain
        _, stats = sim_stats
        monkeypatch.setattr(estimation, "_kernel_upper_bound", lambda *args: -math.inf)
        monkeypatch.setattr(estimation, "_WALK_BLOCK", 256)
        fit_mh(stats, MhConfig(burn_in=0, iterations=250, thinning=250, seed=1))  # warm caches
        peaks = []
        for iterations in (1_000, 4_000):
            tracemalloc.start()
            try:
                fit_mh(stats, MhConfig(burn_in=0, iterations=iterations, thinning=250, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a chain that holds every step's state grows by about 250 kB per 1k steps
        assert peaks[1] - peaks[0] < 20_000, peaks

    @staticmethod
    def assert_same_chain(stats, config):
        fast, slow = fit_mh(stats, config), reference_fit_mh(stats, config)
        assert 0.0 < fast.acceptance_rate < 1.0
        assert fast.acceptance_rate == slow.acceptance_rate
        assert fast.diagnostics == slow.diagnostics
        assert fast.trace.iteration.tolist() == [e.iteration for e in slow.trace]
        reference = np.array([[*(getattr(e.params, n) for n in SCENARIOS + KERNEL), e.log_posterior]
                              for e in slow.trace])
        assert np.array_equal(fast.trace.draws[:, :5], reference[:, :5])
        np.testing.assert_allclose(fast.trace.draws[:, 5:], reference[:, 5:8], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fast.trace.log_posterior, reference[:, 8], rtol=1e-12, atol=0.0)


class TestTrace:
    def test_sequence_protocol(self, sim_stats):
        _, stats = sim_stats
        trace = fit_mh(stats, MhConfig(burn_in=50, iterations=300, thinning=30, seed=9)).trace
        assert len(trace) == 10
        rows = list(trace)
        assert len(rows) == 10
        for k, entry in enumerate(rows):
            assert entry == trace[k] == trace[k - 10]
            assert isinstance(entry.iteration, int) and entry.iteration == 80 + 30 * k
            assert entry.params == _params_from_components(trace.draws[k].tolist())
            assert entry.log_posterior == trace.log_posterior[k]
        for k in (10, -11):
            with pytest.raises(IndexError):
                trace[k]
        head = trace[1:7:2]
        assert isinstance(head, Trace) and len(head) == 3
        assert list(head) == rows[1:7:2]
        assert trace[-2:] == Trace(trace.iteration[-2:], trace.draws[-2:], trace.log_posterior[-2:])
        copy = Trace(trace.iteration, trace.draws, trace.log_posterior)
        assert copy == trace and copy is not trace
        moved = trace.log_posterior.copy()
        moved[-1] -= 1.0
        assert Trace(trace.iteration, trace.draws, moved) != trace

    def test_p_column_is_clamped(self, sim_stats):
        _, stats = sim_stats
        trace = fit_mh(stats, MhConfig(burn_in=0, iterations=4, thinning=1, seed=9)).trace
        draws = trace.draws.copy()
        draws[:2, 5] = (-0.25, 1.5)
        clamped = Trace(trace.iteration, draws, trace.log_posterior)
        assert clamped.draws[:2, 5].tolist() == [0.0, 1.0]
        assert [e.params.p for e in clamped][:2] == [0.0, 1.0]
        assert draws[0, 5] == -0.25  # the caller's array is not written

    @pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5])
    def test_rows_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        draws = np.hstack([rng.dirichlet(np.ones(5), n), rng.random((n, 1)), rng.exponential(size=(n, 2))])
        trace = Trace(3 + 7 * np.arange(n), draws, rng.normal(size=n))
        # the rows of one tolist() of every whole column
        columns = (trace.iteration.tolist(), trace.draws.tolist(), trace.log_posterior.tolist())
        whole = [TraceEntry(t, _params_from_components(row), lp) for t, row, lp in zip(*columns)]
        rows = list(trace)
        assert rows == whole
        assert all(type(e.iteration) is int and type(e.log_posterior) is float for e in rows)


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
                if count:
                    assert 0.0 not in values, name
                else:
                    assert values == {0.0}, name

    def test_posterior_means_match_quadrature(self):
        _, log = simulate(SimulationConfig(params=TABLE1, n_edges=300, seed=11))
        stats = replay(log)
        delta_max = 5.0
        result = fit_mh(
            stats, MhConfig(burn_in=5_000, iterations=100_000, thinning=1, delta_max=delta_max, seed=7)
        )
        # Midpoint rule under the flat priors (p on [0, 1], offsets on
        # (0, delta_max]).  The in- and out-terms share only p, so
        # ll(p, a, b) = ll(p, a, c) + ll(p, c, b) - ll(p, c, c) for any c.
        m = 120
        p = (np.arange(m) + 0.5) / m
        d = (np.arange(m) + 0.5) * delta_max / m

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
        _, log = simulate(SimulationConfig(params=TABLE1, n_edges=10_000, seed=1))
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
        assert result.diagnostics["mh_likelihood_evals"] >= 2


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
