import math
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from hybridnet.likelihood import (
    _CHUNK,
    _RATIO_HI,
    SufficientStats,
    _kernel_derivatives,
    _kernel_log_likelihood,
    _kernel_upper_bound,
)
from hybridnet.model import _end_stream, _index_dtype
from conftest import (
    ORACLE_SETTINGS,
    enumerate_histories,
    log_from_pairs,
    reference_end_stream,
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

    @pytest.mark.parametrize("shift", [0, 2**16, 2**32])
    def test_ids_across_the_ordering_spans(self, theta, shift):
        # even ids shifted: the endpoint ordering takes its one-pass radix
        # path, its two-pass radix path, and its comparison-sort fallback
        log = simulate(SimulationConfig(params=theta, n_edges=2000, seed=6, log_scenarios=False)).log
        source, target = (col + shift * (col % 2 == 0) for col in (log.source, log.target))
        for seeded in (True, False):
            _assert_same_replay(EdgeLog.from_columns(source, target, log.time), seeded)

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
        _, log = simulate(SimulationConfig(params=theta, n_edges=300, seed=6))
        stats = replay(log)  # labels validated inside
        assert len(stats) == 300

    def test_sufficient_stats_invariants(self):
        th = HybridParams.fill_gamma(0.2, 0.4, p=0.6, delta_in=1.0, delta_out=0.9, xi=0.1, eta=0.1)
        _, log = simulate(SimulationConfig(params=th, n_edges=1000, seed=44))
        stats = replay(log)
        assert sum(stats.scenario_counts) == len(stats)
        sel = (stats.scenario == 1) | (stats.scenario == 2)
        assert (stats.target_in_degree[sel] >= 0).all()
        sel = (stats.scenario == 2) | (stats.scenario == 3)
        assert (stats.source_out_degree[sel] >= 0).all()
        assert (np.diff(stats.node_count) >= 0).all()
        assert (np.diff(stats.mass) == 1).all()


@st.composite
def _endpoint_columns(draw):
    """Source and target columns drawn from a few ids (heavy ties), whose
    span takes the endpoint ordering's one-pass radix path, its two-pass
    one or its comparison-sort fallback, from ids near 1, at 2**32 or near
    the int64 maximum."""
    low = draw(st.sampled_from([1, 2**32, 2**62]))
    span = draw(st.sampled_from([2**8, 2**16, 2**32, 2**40]))
    pool = [low, low + span, *draw(st.lists(st.integers(low, low + span), max_size=6))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=200))
    return [s for s, _ in pairs], [t for _, t in pairs]


class TestEndStream:
    @settings(max_examples=200, deadline=None)
    @given(columns=_endpoint_columns())
    @example(columns=([], []))
    @example(columns=([7], [7]))
    @example(columns=([3] * 60, [3] * 60))
    @example(columns=([2**32, 2**40 + 5, 2**32], [2**32 + 1, 2**32, 2**63 - 1]))
    def test_equals_int64_stable_argsort(self, columns):
        source, target = (np.array(col, dtype=np.int64) for col in columns)
        stream = _end_stream(source, target)
        for name, got, expected in zip(stream._fields, stream, reference_end_stream(source, target)):
            assert np.array_equal(got, expected), name
        # positions in int32, node ids in int64
        assert stream.order.dtype == stream.group.dtype == stream.start.dtype == np.int32
        assert stream.ranked.dtype == np.int64

    def test_index_dtype_widens_past_int32(self):
        assert _index_dtype(2**31 - 1) is np.int32
        assert _index_dtype(2**31) is np.int64


def _traced_peak(fn, *args):
    """``fn(*args)`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestReplayMemory:
    """Peaks of the endpoint-stream passes on the 300k-record Table-1 log
    of the ingest benchmark.  Each bound was set once from measurement
    (Python 3.11, numpy 2.4); the int64 passes that kept every
    stream-length array alive to the end need about twice as much."""

    @pytest.fixture(scope="class")
    def log(self):
        params = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        return simulate(SimulationConfig(params=params, n_edges=300_000, seed=1)).log

    def test_replay(self, log):
        replay(log)  # warm caches
        stats, peak = _traced_peak(replay, log)
        output = sum(
            getattr(stats, name).nbytes
            for name in ("scenario", "target_in_degree", "source_out_degree", "node_count", "mass")
        )
        # measured 10.5 MB above the 9.9 MB output; the int64 passes need 34.7 MB
        assert peak - output < 15_000_000, (peak, output)

    def test_classify_edge_log(self, log):
        classify_edge_log(log)  # warm caches
        _, peak = _traced_peak(classify_edge_log, log)
        # measured 12.6 MB, the returned list included; the int64 passes need 24.6 MB
        assert peak < 17_000_000, peak


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
        _, log = simulate(SimulationConfig(params=theta, n_edges=200, seed=12))
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

    @pytest.mark.parametrize("seeded", [True, False])
    def test_is_the_derivative_pass_gradient(self, table1_params, seeded):
        # the gradient-only pass repeats the derivative pass's operations
        stats = _table1_stats(2000, seeded)
        for p in (0.0, 0.3, 0.8, 1.0):
            for delta in (1e-12, 1.0, 100.0):
                theta = replace(table1_params, p=p, delta_in=delta, delta_out=2.0 * delta)
                expected = _kernel_derivatives(stats, p, delta, 2.0 * delta)[1]
                assert np.array_equal(score(stats, theta), expected)

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

    @pytest.mark.parametrize("steps", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_matches_reference_around_the_chunk_length(self, steps):
        # the first records with one kernel step each (scenarios 1 and 3)
        stats = _table1_stats(2000, seeded=True)
        one_step = np.flatnonzero((stats.scenario == 1) | (stats.scenario == 3))
        sub = _sub_stats(stats, one_step[:steps])
        n1, n2, n3, _, _ = sub.scenario_counts
        assert n1 + 2 * n2 + n3 == steps
        assert steps < _CHUNK or (n1 > 0 and n3 > 0)  # both offsets' slices
        for p, delta in self.CORNERS + [(0.8, 1e-300)]:
            self._assert_kernel_matches(sub, p, delta, delta)
            self._assert_kernel_matches(sub, p, 1.3, delta)

    def test_tiny_offset_at_p_one_matches_reference(self):
        # each ratio near delta / r: a product of _CHUNK of them underflows,
        # so every ratio takes its own log (no errstate: a warning fails here)
        for seeded in (True, False):
            stats = _table1_stats(2000, seeded)
            self._assert_kernel_matches(stats, 1.0, 1e-300, 1e-300)
            self._assert_kernel_matches(stats, 1.0, 1e-300, 1.0)
            self._assert_kernel_matches(stats, 1.0 - 1e-12, 1e-300, 1e-200)
            with np.errstate(divide="ignore"):  # the reference itself takes log(0)
                self._assert_kernel_matches(stats, 1.0, 0.0, 1e-300)

    def test_hub_degrees_match_reference(self):
        # every kernel step picks an endpoint of degree 1e10 with r = 1, so a
        # product of _CHUNK ratios would overflow
        stats = _hub_stats()
        assert stats._kernel_bounds[1] > _RATIO_HI
        for p, delta in self.CORNERS:
            self._assert_kernel_matches(stats, p, delta, delta)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        log10_delta_in=st.floats(-300.0, 2.0),
        log10_delta_out=st.floats(-300.0, 2.0),
        seeded=st.booleans(),
    )
    def test_matches_reference_for_any_offsets(self, p, log10_delta_in, log10_delta_out, seeded):
        stats = _table1_stats(1000, seeded)
        self._assert_kernel_matches(stats, p, 10.0**log10_delta_in, 10.0**log10_delta_out)


class TestKernelEnvelope:
    """``_kernel_upper_bound`` is never below the computed kernel
    log-likelihood, a bound that computes to NaN rejects nothing, and the
    bound is tight enough to screen the sampler's proposals."""

    @staticmethod
    @cache
    def _logs():
        seeded = _table1_stats(1000, True)
        return {
            "seeded": seeded,
            "unseeded": _table1_stats(1000, False),
            "hub": _hub_stats(),
            "no out-steps": _sub_stats(seeded, np.flatnonzero(seeded.scenario == 1)),
        }

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        log10_delta_in=st.floats(-300.0, 2.0),
        log10_delta_out=st.floats(-300.0, 2.0),
        name=st.sampled_from(["seeded", "unseeded", "hub", "no out-steps"]),
    )
    def test_bounds_the_computed_value(self, p, log10_delta_in, log10_delta_out, name):
        stats = self._logs()[name]
        delta_in, delta_out = 10.0**log10_delta_in, 10.0**log10_delta_out
        exact = _kernel_log_likelihood(stats, p, delta_in, delta_out)
        bound = _kernel_upper_bound(stats, p, delta_in, delta_out)
        assert bound >= exact, (bound, exact)  # -inf only where the exact value is -inf

    def test_nan_bound_rejects_nothing(self):
        stats = _sub_stats(_table1_stats(1000, True), slice(None))  # a copy with its own cache
        envelope = stats._kernel_envelope
        weights = envelope.weights.copy()
        weights[0] = math.nan
        stats._kernel_envelope = envelope._replace(weights=weights)
        assert _kernel_upper_bound(stats, 0.8, 1.3, 0.7) == math.inf

    def test_slack_at_the_truth(self, table1_params):
        # a bound far above the exact value would screen out nothing
        stats = _table1_stats(10_000, True)
        args = (table1_params.p, table1_params.delta_in, table1_params.delta_out)
        slack = _kernel_upper_bound(stats, *args) - _kernel_log_likelihood(stats, *args)
        assert 0.0 <= slack <= 2.0


def _hub_stats():
    """Kernel steps that all pick an endpoint of degree 1e10 with r = 1."""
    n = _CHUNK * _CHUNK + 7
    hub = np.full(n, 10**10, dtype=np.int64)
    return SufficientStats(
        scenario=np.tile(np.array([1, 2, 3]), n)[:n],
        target_in_degree=hub,
        source_out_degree=hub,
        node_count=np.full(n, 10, dtype=np.int64),
        mass=np.full(n, 10, dtype=np.int64),
    )


@cache
def _table1_stats(n_edges, seeded):
    params = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
    config = SimulationConfig(params=params, n_edges=n_edges, seed=11, log_scenarios=False)
    return replay(simulate(config).log, seeded)


def _sub_stats(stats, keep):
    """The covariates of the records ``keep`` only."""
    return SufficientStats(
        scenario=stats.scenario[keep],
        target_in_degree=stats.target_in_degree[keep],
        source_out_degree=stats.source_out_degree[keep],
        node_count=stats.node_count[keep],
        mass=stats.mass[keep],
        seeded=stats.seeded,
    )


def _fd_hessian(stats, p, delta_in, delta_out, steps):
    """Central differences of the analytic gradient in (delta_in, delta_out,
    p), one column per coordinate, with the given steps."""
    theta = np.array([delta_in, delta_out, p])
    columns = []
    for j, h in enumerate(steps):
        hi, lo = theta.copy(), theta.copy()
        hi[j] += h
        lo[j] -= h
        g_hi = _kernel_derivatives(stats, hi[2], hi[0], hi[1])[1]
        g_lo = _kernel_derivatives(stats, lo[2], lo[0], lo[1])[1]
        columns.append((g_hi - g_lo) / (hi[j] - lo[j]))
    return np.column_stack(columns)


class TestHessian:
    """The analytic Hessian against central differences of the analytic
    score, in the style of acceptance criterion 06."""

    @staticmethod
    def _assert_structure(hess):
        assert np.array_equal(hess, hess.T)
        assert hess[0, 1] == 0.0  # no kernel step involves both offsets

    def test_matches_finite_differences_of_score(self):
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(50):
            alpha = rng.uniform(0.1, 0.6)
            beta = rng.uniform(0.1, min(0.8, 0.95 - alpha))
            sim_theta = HybridParams.fill_gamma(
                alpha, beta, p=rng.uniform(0.2, 0.95),
                delta_in=rng.uniform(0.3, 2.5), delta_out=rng.uniform(0.3, 2.5),
            )
            config = SimulationConfig(params=sim_theta, n_edges=200, seed=int(rng.integers(2**31)))
            stats = replay(simulate(config).log)
            p, delta_in, delta_out = rng.uniform(0.2, 0.9), rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0)
            _, grad, hess = _kernel_derivatives(stats, p, delta_in, delta_out)
            theta = replace(sim_theta, p=p, delta_in=delta_in, delta_out=delta_out)
            np.testing.assert_array_equal(grad, score(stats, theta))
            self._assert_structure(hess)
            fd = _fd_hessian(stats, p, delta_in, delta_out, (1e-5, 1e-5, 1e-5))
            worst = max(worst, float((np.abs(hess - fd) / (1.0 + np.abs(hess))).max()))
        assert worst < 1e-6

    @pytest.mark.parametrize("seeded", [True, False])
    def test_matches_finite_differences_at_corners(self, table1_params, seeded):
        config = SimulationConfig(params=table1_params, n_edges=10_000, seed=3, log_scenarios=False)
        stats = replay(simulate(config).log, seeded)
        d, r, _, _ = stats._kernel_steps
        for p in (0.0, 1.0 - 1e-9, 1.0):
            for delta in (1e-6, 1.0, 100.0):
                _, _, hess = _kernel_derivatives(stats, p, delta, delta)
                self._assert_structure(hess)
                # steps scaled to the smallest numerator p d + (1 - p) r + delta,
                # so that every difference stays inside the domain and well
                # above rounding (p = 1 is differenced across the bound)
                num_min = float((p * d + (1.0 - p) * r + delta).min())
                h_p = 1e-6 * num_min / float(np.abs(d - r).max())
                fd = _fd_hessian(stats, p, delta, delta, (1e-6 * num_min, 1e-6 * num_min, h_p))
                column_err = np.abs(hess - fd).max(axis=0) / np.abs(hess).max(axis=0)
                assert column_err.max() < 1e-6, (p, delta, column_err)


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
        _, log = simulate(SimulationConfig(params=th, n_edges=10_000, seed=40))
        est = mle_scenarios(replay(log))
        sd = math.sqrt(0.45 * 0.55 / 10_000)
        assert abs(est.alpha - 0.45) < 3 * sd

    def test_maximizes_scenario_block(self, theta):
        _, log = simulate(SimulationConfig(params=theta, n_edges=500, seed=17))
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
        state, _ = simulate(SimulationConfig(params=table1_params, n_edges=50_000, seed=91))
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
        state, _ = simulate(SimulationConfig(params=table1_params, n_edges=20_000, seed=92))
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
        _, log = simulate(SimulationConfig(params=theta, n_edges=400, seed=55))
        rng = np.random.default_rng(1)
        ids = sorted({n for rec in log for n in (rec.source, rec.target)} | {1})
        perm = dict(zip(ids, rng.permutation(ids) + 0))
        relabeled = EdgeLog(
            [EdgeRecord(perm[r.source], perm[r.target], r.time, None) for r in log]
        )
        base = log_likelihood(replay(EdgeLog([r._replace(scenario=None) for r in log]), seeded=False), theta)
        shuffled = log_likelihood(replay(relabeled, seeded=False), theta)
        assert shuffled == pytest.approx(base, abs=1e-9)
