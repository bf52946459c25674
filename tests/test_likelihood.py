import math
from dataclasses import replace

import numpy as np
import pytest

from hybridnet import (
    BracketingError,
    EdgeLog,
    EdgeRecord,
    HybridParams,
    SimulationConfig,
    approx_score_solve,
    classify_edge_log,
    degree_counts,
    derived_constants,
    limit_pmf,
    log_likelihood,
    mle_scenarios,
    replay,
    score,
    simulate,
)
from hybridnet.degrees import DegreeCounts
from hybridnet.likelihood import _kernel_log_likelihood
from conftest import (
    ORACLE_SETTINGS,
    enumerate_histories,
    log_from_pairs,
    reference_kernel_log_likelihood,
    reference_replay,
    reference_score,
)


@pytest.fixture
def theta():
    return HybridParams.fill_gamma(0.25, 0.4, p=0.6, delta_in=1.1, delta_out=0.8)


def _replay_outcome(replayer, log, seeded):
    try:
        return replayer(log, seeded)
    except ValueError as exc:
        return str(exc)


def _assert_same_replay(log, seeded):
    fast, slow = _replay_outcome(replay, log, seeded), _replay_outcome(reference_replay, log, seeded)
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
        return
    for name in ("scenario", "target_in_degree", "source_out_degree", "node_count", "mass"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert fast.seeded == slow.seeded


class TestReplayOracle:
    """``replay`` is bit-identical to the per-record dict loop it replaced,
    in its statistics and in its error messages."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SETTINGS))
    def test_matches_reference_loop(self, name):
        for seed in range(12):
            for labelled in (True, False):
                config = SimulationConfig(
                    params=ORACLE_SETTINGS[name], n_edges=400, seed=seed, log_scenarios=labelled
                )
                log = simulate(config).log
                for seeded in (True, False):
                    _assert_same_replay(log, seeded)

    def test_sparse_large_ids(self, theta):
        log = simulate(SimulationConfig(params=theta, n_edges=2000, seed=8, log_scenarios=False)).log
        ids = np.unique(np.concatenate((log.source, log.target)))
        sparse = 10**12 + np.random.default_rng(1).permutation(ids.size) * 7919
        source, target = (sparse[np.searchsorted(ids, col)] for col in (log.source, log.target))
        shuffled = EdgeLog.from_columns(source, target, log.time)
        for seeded in (True, False):
            _assert_same_replay(shuffled, seeded)

    def test_node_one_never_appears(self):
        log = log_from_pairs([(2, 3), (3, 3), (4, 2), (2, 5), (6, 6)])
        for seeded in (True, False):
            _assert_same_replay(log, seeded)

    def test_empty_log(self):
        for seeded in (True, False):
            _assert_same_replay(EdgeLog([]), seeded)

    @pytest.mark.parametrize(
        "records, message",
        [
            # time decrease, a non-positive id and a wrong label on record 1
            ([(2, 1, 5, None), (0, 9, 4, 2)], "record 1: timestamps decrease"),
            # a non-positive id and a wrong label on record 1
            ([(2, 1, 5, None), (0, 9, 6, 2)], "node ids must be positive, got 0, 9"),
            # a wrong label on record 1 before a time decrease on record 2
            ([(2, 1, 5, None), (3, 9, 6, 2), (1, 1, 4, None)], "record 1: scenario label 2"),
            # a non-positive id on record 1 before a wrong label on record 2
            ([(2, 1, 5, None), (3, -4, 6, None), (7, 1, 7, 3)], "node ids must be positive, got 3, -4"),
            # a time decrease on record 1 before a non-positive id on record 2
            ([(2, 1, 5, None), (3, 1, 4, None), (0, 1, 7, None)], "record 1: timestamps decrease"),
        ],
    )
    def test_error_order(self, records, message):
        log = EdgeLog([EdgeRecord(*rec) for rec in records])
        with pytest.raises(ValueError) as fast:
            replay(log)
        with pytest.raises(ValueError) as slow:
            reference_replay(log)
        assert str(fast.value) == str(slow.value)
        assert str(fast.value).startswith(message)

    def test_random_faults(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            log = EdgeLog.from_columns(
                rng.integers(-1, 6, n),
                rng.integers(-1, 6, n),
                np.cumsum(rng.integers(-1, 3, n)),
                rng.integers(0, 6, n) * (rng.random(n) < 0.3),
            )
            for seeded in (True, False):
                _assert_same_replay(log, seeded)

    def test_classify_edge_log_is_the_replayed_scenario(self, theta):
        log = simulate(SimulationConfig(params=theta, n_edges=500, seed=2)).log
        reversed_times = EdgeLog.from_columns(log.source, log.target, log.time[::-1])
        for seeded in (True, False):
            expected = reference_replay(EdgeLog.from_columns(log.source, log.target, log.time), seeded)
            assert classify_edge_log(reversed_times, seeded) == expected.scenario.tolist()


class TestReplay:
    def test_new_source_record(self):
        stats = replay(log_from_pairs([(2, 1)]))
        assert stats.scenario.tolist() == [1]
        assert stats.target_in_degree.tolist() == [1]  # the seed self-loop
        assert stats.node_count.tolist() == [1]
        assert stats.mass.tolist() == [1]

    def test_both_existing_record(self):
        stats = replay(log_from_pairs([(1, 1)]))
        assert stats.scenario.tolist() == [2]
        assert stats.target_in_degree.tolist() == [1]
        assert stats.source_out_degree.tolist() == [1]

    def test_empty_log(self):
        stats = replay(EdgeLog([]))
        assert len(stats) == 0
        assert stats.scenario_counts == (0, 0, 0, 0, 0)

    def test_unseeded_first_record_initialises(self):
        stats = replay(log_from_pairs([(5, 7), (5, 7)]), seeded=False)
        assert stats.scenario.tolist() == [5, 2]
        assert stats.node_count.tolist() == [0, 2]
        assert stats.mass.tolist() == [0, 1]

    def test_label_mismatch_reported(self):
        log = log_from_pairs([(2, 1)], scenarios=[2])  # source 2 never appeared
        with pytest.raises(ValueError, match="inconsistent"):
            replay(log)

    def test_nonmonotone_timestamps_rejected(self):
        log = EdgeLog([EdgeRecord(2, 1, 5), EdgeRecord(1, 1, 4)])
        with pytest.raises(ValueError, match="decrease"):
            replay(log)

    def test_generator_labels_replay_cleanly(self, theta):
        _, log, _ = simulate(SimulationConfig(params=theta, n_edges=300, seed=6))
        stats = replay(log)  # labels validated inside
        assert len(stats) == 300

    def test_sufficient_stats_invariants(self):
        th = HybridParams.fill_gamma(0.2, 0.4, p=0.6, delta_in=1.0, delta_out=0.9, xi=0.1, eta=0.1)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=1000, seed=44))
        stats = replay(log)
        assert sum(stats.scenario_counts) == len(stats)
        sel = (stats.scenario == 1) | (stats.scenario == 2)
        assert (stats.target_in_degree[sel] >= 0).all()
        sel = (stats.scenario == 2) | (stats.scenario == 3)
        assert (stats.source_out_degree[sel] >= 0).all()
        assert (np.diff(stats.node_count) >= 0).all()
        assert (np.diff(stats.mass) == 1).all()


class TestLogLikelihood:
    def test_single_new_source_step_is_log_alpha(self, theta):
        # the kernel bracket equals the normaliser when only the seed exists
        stats = replay(log_from_pairs([(2, 1)]))
        assert log_likelihood(stats, theta) == pytest.approx(math.log(theta.alpha), abs=1e-12)

    def test_single_both_existing_step_is_log_beta(self, theta):
        stats = replay(log_from_pairs([(1, 1)]))
        assert log_likelihood(stats, theta) == pytest.approx(math.log(theta.beta), abs=1e-12)

    @pytest.mark.parametrize("length", [1, 2])
    def test_history_probabilities_sum_to_one(self, length):
        th = HybridParams.fill_gamma(0.3, 0.4, p=0.5, delta_in=1.0, delta_out=1.0)
        total = 0.0
        for records, _ in enumerate_histories(th, length):
            stats = replay(log_from_pairs(records))
            total += math.exp(log_likelihood(stats, th))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_extended_history_probabilities_sum_to_one(self):
        th = HybridParams.fill_gamma(0.2, 0.2, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.2, eta=0.1)
        total = 0.0
        for records, _ in enumerate_histories(th, 2):
            stats = replay(log_from_pairs(records))
            total += math.exp(log_likelihood(stats, th))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_scenario_gives_minus_inf(self):
        th = HybridParams.fill_gamma(0.0, 0.5, p=0.5, delta_in=1.0, delta_out=1.0)
        stats = replay(log_from_pairs([(2, 1)]))  # a new-source step with alpha = 0
        assert log_likelihood(stats, th) == -math.inf

    def test_extended_steps_contribute_only_scenario_terms(self, theta):
        ext = HybridParams.fill_gamma(
            theta.alpha, theta.beta, p=theta.p, delta_in=theta.delta_in,
            delta_out=theta.delta_out, xi=0.05, eta=0.05,
        )
        stats = replay(log_from_pairs([(2, 2), (3, 4)]))  # fresh self-loop, fresh pair
        assert stats.scenario.tolist() == [4, 5]
        expected = math.log(ext.xi) + math.log(ext.eta)
        assert log_likelihood(stats, ext) == pytest.approx(expected, abs=1e-12)


class TestScore:
    def test_matches_finite_differences(self, theta):
        _, log, _ = simulate(SimulationConfig(params=theta, n_edges=200, seed=12))
        stats = replay(log)
        analytic = score(stats, theta)
        h = 1e-5
        base = theta.as_dict()
        for idx, name in enumerate(("delta_in", "delta_out", "p")):
            hi = dict(base)
            lo = dict(base)
            hi[name] += h
            lo[name] -= h
            fd = (
                log_likelihood(stats, HybridParams(**hi))
                - log_likelihood(stats, HybridParams(**lo))
            ) / (2 * h)
            assert abs(analytic[idx] - fd) / (1 + abs(analytic[idx])) < 1e-6

    def test_no_in_kernel_steps_zeroes_delta_in_component(self, theta):
        log = log_from_pairs([(1, 2), (1, 3), (2, 4)])  # all new-target steps
        stats = replay(log)
        assert stats.scenario_counts[2] == 3
        assert score(stats, theta)[0] == 0.0

    def test_p_component_vanishes_termwise(self, theta):
        # the single step has target in-degree * node count equal to the mass
        stats = replay(log_from_pairs([(1, 1)]))
        assert score(stats, theta)[2] == pytest.approx(0.0, abs=1e-15)


class TestKernelOracle:
    """The one-array kernel log-likelihood and score agree with the
    two-pass evaluation they replaced: the log-likelihood to 1e-12 per
    kernel term (``-inf`` exactly where the reference is), the score to
    1e-9 relative."""

    CORNERS = [(p, delta) for p in (0.0, 1.0 - 1e-9, 1.0) for delta in (1e-9, 1e-6, 1.0, 100.0)]

    @staticmethod
    def _assert_kernel_matches(stats, p, delta_in, delta_out):
        fast = _kernel_log_likelihood(stats, p, delta_in, delta_out)
        slow = reference_kernel_log_likelihood(stats, p, delta_in, delta_out)
        if slow == -math.inf:
            assert fast == -math.inf
            return
        n1, n2, n3, _, _ = stats.scenario_counts
        assert abs(fast - slow) <= 1e-12 * max(n1 + 2 * n2 + n3, 1), (p, delta_in, delta_out)

    @staticmethod
    def _assert_score_matches(stats, theta):
        np.testing.assert_allclose(score(stats, theta), reference_score(stats, theta), rtol=1e-9)

    @pytest.mark.parametrize("name", sorted(ORACLE_SETTINGS))
    def test_matches_reference_on_oracle_settings(self, name):
        params = ORACLE_SETTINGS[name]
        for seed in range(12):
            config = SimulationConfig(params=params, n_edges=400, seed=seed, log_scenarios=False)
            log = simulate(config).log
            for seeded in (True, False):
                stats = replay(log, seeded)
                self._assert_kernel_matches(stats, params.p, params.delta_in, params.delta_out)
                self._assert_score_matches(stats, params)

    @pytest.mark.parametrize("seeded", [True, False])
    def test_matches_reference_at_corners(self, table1_params, seeded):
        config = SimulationConfig(params=table1_params, n_edges=10_000, seed=3, log_scenarios=False)
        log = simulate(config).log
        stats = replay(log, seeded)
        for p, delta in self.CORNERS:
            self._assert_kernel_matches(stats, p, delta, delta)
            self._assert_kernel_matches(stats, p, delta, 1.0)
            theta = replace(table1_params, p=p, delta_in=delta, delta_out=delta)
            self._assert_score_matches(stats, theta)

    def test_zero_offset_matches_reference(self, table1_params):
        # the sampler reaches delta = 0 when exp underflows a proposed offset
        config = SimulationConfig(params=table1_params, n_edges=2000, seed=4, log_scenarios=False)
        log = simulate(config).log
        for seeded in (True, False):
            stats = replay(log, seeded)
            with np.errstate(divide="ignore"):
                for p in (0.0, 0.5, 1.0):
                    for delta_in, delta_out in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)):
                        self._assert_kernel_matches(stats, p, delta_in, delta_out)
                assert _kernel_log_likelihood(stats, 1.0, 0.0, 0.0) == -math.inf


class TestScenarioMle:
    def test_frequencies(self):
        pairs = [(2, 1)] + [(1, 1)] * 9
        est = mle_scenarios(replay(log_from_pairs(pairs)))
        assert est.alpha == pytest.approx(0.1)
        assert est.beta == pytest.approx(0.9)
        assert est.regular

    def test_boundary_flagged(self):
        est = mle_scenarios(replay(log_from_pairs([(1, 1), (1, 1)])))
        assert est.beta == 1.0
        assert not est.regular

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mle_scenarios(replay(EdgeLog([])))

    def test_binomial_recovery(self):
        th = HybridParams.fill_gamma(0.45, 0.1, p=0.8, delta_in=1.3, delta_out=0.7)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=10_000, seed=40))
        est = mle_scenarios(replay(log))
        sd = math.sqrt(0.45 * 0.55 / 10_000)
        assert abs(est.alpha - 0.45) < 3 * sd

    def test_maximizes_scenario_block(self, theta):
        _, log, _ = simulate(SimulationConfig(params=theta, n_edges=500, seed=17))
        stats = replay(log)
        est = mle_scenarios(stats)
        best = HybridParams.fill_gamma(
            est.alpha, est.beta, p=theta.p, delta_in=theta.delta_in, delta_out=theta.delta_out
        )
        ll_best = log_likelihood(stats, best)
        eps = 1e-3
        for da, db in ((eps, -eps), (-eps, eps), (eps, 0.0), (0.0, eps), (-eps, 0.0), (0.0, -eps)):
            shifted = HybridParams.fill_gamma(
                est.alpha + da, est.beta + db, p=theta.p,
                delta_in=theta.delta_in, delta_out=theta.delta_out,
            )
            assert log_likelihood(stats, shifted) <= ll_best + 1e-12


class TestApproxScore:
    def test_recovers_effective_offset_from_limit(self):
        th = HybridParams.fill_gamma(0.45, 0.1, p=0.8, delta_in=1.3, delta_out=0.7)
        dc = derived_constants(th)
        pmf = limit_pmf(th, m_max=400, mass_tol=1e-12)
        scale = 10**9
        counts = DegreeCounts(
            in_counts={m: int(round(pmf.psi_in[m] * scale)) for m in range(pmf.truncation_m + 1)},
            out_counts={m: int(round(pmf.psi_out[m] * scale)) for m in range(pmf.truncation_m + 1)},
            n_nodes=int(round(pmf.psi_in.sum() * scale)),
            n_edges=scale,
        )
        freqs = (th.alpha, th.beta, th.gamma)
        res_in = approx_score_solve(counts, freqs, "in", p=th.p)
        res_out = approx_score_solve(counts, freqs, "out", p=th.p)
        assert abs(res_in.delta_tilde - dc.delta_in_tilde) < 1e-3
        assert abs(res_out.delta_tilde - dc.delta_out_tilde) < 1e-3
        assert abs(res_in.delta - th.delta_in) < 2e-3

    def test_degenerate_tail_reported(self):
        counts = DegreeCounts(in_counts={0: 5}, out_counts={1: 5}, n_nodes=5, n_edges=5)
        with pytest.raises(BracketingError, match="degenerate tail"):
            approx_score_solve(counts, (0.5, 0.5, 0.0), "in")

    def test_residual_smallest_at_truth(self, table1_params):
        state, _, _ = simulate(SimulationConfig(params=table1_params, n_edges=50_000, seed=91))
        counts = degree_counts(state)
        dc = derived_constants(table1_params)
        from hybridnet.likelihood import approx_score_equation

        freqs = (table1_params.alpha, table1_params.beta, table1_params.gamma)
        f = approx_score_equation(counts, freqs, "in")
        at_truth = abs(f(dc.delta_in_tilde))
        assert at_truth < abs(f(1.2 * dc.delta_in_tilde))
        assert at_truth < abs(f(0.8 * dc.delta_in_tilde))

    def test_p_is_not_identified_by_the_approximation(self, table1_params):
        # the equation depends on p only through the offset map, so any p
        # admits the same root: the approximation path cannot estimate p
        state, _, _ = simulate(SimulationConfig(params=table1_params, n_edges=20_000, seed=92))
        counts = degree_counts(state)
        freqs = (table1_params.alpha, table1_params.beta, table1_params.gamma)
        roots = [
            approx_score_solve(counts, freqs, "in", p=p).delta_tilde
            for p in (0.2, 0.5, 0.8, 1.0)
        ]
        assert max(roots) - min(roots) < 1e-12


class TestInvariances:
    def test_likelihood_depends_only_on_degrees_and_counts(self, theta):
        # relabelling node ids (consistently) leaves every covariate unchanged
        _, log, _ = simulate(SimulationConfig(params=theta, n_edges=400, seed=55))
        rng = np.random.default_rng(1)
        ids = sorted({n for rec in log for n in (rec.source, rec.target)} | {1})
        perm = dict(zip(ids, rng.permutation(ids) + 0))
        relabeled = EdgeLog(
            [EdgeRecord(perm[r.source], perm[r.target], r.time, None) for r in log]
        )
        base = log_likelihood(replay(EdgeLog([r._replace(scenario=None) for r in log]), seeded=False), theta)
        shuffled = log_likelihood(replay(relabeled, seeded=False), theta)
        assert shuffled == pytest.approx(base, abs=1e-9)
