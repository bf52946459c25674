import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridnet import (
    EdgeLog,
    EdgeRecord,
    HybridParams,
    NetworkState,
    attach_prob_in,
    attach_prob_out,
    classify_edge_log,
    classify_scenario,
    derived_constants,
    step_distribution,
)
from hybridnet.model import _ROW_BLOCK, _stable_order
from conftest import small_simulated_state, state_from_records


class TestHybridParams:
    def test_base_model_construction(self):
        th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        assert th.gamma == pytest.approx(0.1)
        assert not th.is_extended

    def test_simplex_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            HybridParams(alpha=0.3, beta=0.3, gamma=0.3, p=0.5, delta_in=1.0, delta_out=1.0)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            HybridParams(alpha=-0.1, beta=0.6, gamma=0.5, p=0.5, delta_in=1.0, delta_out=1.0)

    def test_beta_one_rejected(self):
        # a certain both-existing scenario violates the regularity conditions
        with pytest.raises(ValueError, match="regularity"):
            HybridParams(alpha=0.0, beta=1.0, gamma=0.0, p=0.5, delta_in=1.0, delta_out=1.0)

    def test_alpha_one_and_gamma_one_rejected(self):
        with pytest.raises(ValueError, match="regularity"):
            HybridParams(alpha=1.0, beta=0.0, gamma=0.0, p=0.5, delta_in=1.0, delta_out=1.0)
        with pytest.raises(ValueError, match="regularity"):
            HybridParams(alpha=0.0, beta=0.0, gamma=1.0, p=0.5, delta_in=1.0, delta_out=1.0)

    def test_degenerate_fresh_node_scenario_allowed(self):
        th = HybridParams(alpha=0, beta=0, gamma=0, xi=1.0, eta=0, p=0.5, delta_in=1, delta_out=1)
        assert th.is_extended

    def test_p_range(self):
        with pytest.raises(ValueError, match="p must"):
            HybridParams.fill_gamma(0.3, 0.3, p=1.5, delta_in=1.0, delta_out=1.0)

    def test_delta_positive_finite(self):
        with pytest.raises(ValueError, match="delta_in"):
            HybridParams.fill_gamma(0.3, 0.3, p=0.5, delta_in=0.0, delta_out=1.0)
        with pytest.raises(ValueError, match="delta_out"):
            HybridParams.fill_gamma(0.3, 0.3, p=0.5, delta_in=1.0, delta_out=math.inf)


class TestDerivedConstants:
    def test_growth_exponent_formulas(self, table1_params):
        dc = derived_constants(table1_params)
        assert dc.c1 == pytest.approx(0.9 * 0.8 / (1 + 1.3 * 0.2))
        assert dc.c2 == pytest.approx(0.9 * 0.8 / (1 + 0.7 * 0.2))
        assert dc.delta_in_tilde == pytest.approx(1.3 / 0.8 + 0.2 / (0.8 * 0.2))
        assert dc.rate_in == pytest.approx((1 + 1.3 * 0.2) / (0.8 * 0.9))
        assert dc.rate_out == pytest.approx((1 + 0.7 * 0.2) / (0.8 * 0.9))

    def test_pure_pa_reduction_at_p_one(self):
        th = HybridParams.fill_gamma(0.4, 0.0, p=1.0, delta_in=2.0, delta_out=0.5)
        dc = derived_constants(th)
        assert dc.delta_in_tilde == th.delta_in
        assert dc.delta_out_tilde == th.delta_out
        assert dc.c1 == pytest.approx(0.4 / (1 + 2.0))

    def test_p_zero_gives_infinite_sentinels(self):
        th = HybridParams.fill_gamma(0.3, 0.3, p=0.0, delta_in=1.0, delta_out=1.0)
        dc = derived_constants(th)
        assert dc.c1 == 0.0 and dc.c2 == 0.0
        assert math.isinf(dc.delta_in_tilde) and math.isinf(dc.rate_out)


class TestAttachmentKernels:
    def test_seed_state_is_certain(self, table1_params):
        state = NetworkState.seed()
        assert attach_prob_in(state, 1, table1_params) == 1.0
        assert attach_prob_out(state, 1, table1_params) == 1.0

    def test_two_node_hand_value(self):
        # two nodes, in-degrees (1, 0), one step taken: mass 2, denominator 2 + 1*2
        th = HybridParams.fill_gamma(0.3, 0.3, p=1.0, delta_in=1.0, delta_out=1.0)
        state = NetworkState(
            node_count=2, step=1, in_degree=[1, 0], out_degree=[1, 0], creation_step=[0, 1]
        )
        assert attach_prob_in(state, 1, th) == pytest.approx((1 + 1) / (2 + 2))
        assert attach_prob_out(state, 1, th) == pytest.approx(0.5)

    def test_pure_uniform_at_p_zero(self):
        th = HybridParams.fill_gamma(0.3, 0.3, p=0.0, delta_in=1.0, delta_out=1.0)
        state = NetworkState(
            node_count=2, step=1, in_degree=[1, 0], out_degree=[1, 0], creation_step=[0, 1]
        )
        assert attach_prob_in(state, 1, th) == 0.5
        assert attach_prob_in(state, 2, th) == 0.5

    def test_unknown_node_and_empty_state(self, table1_params):
        state = NetworkState.seed()
        with pytest.raises(ValueError, match="unknown node"):
            attach_prob_in(state, 2, table1_params)
        empty = NetworkState(node_count=0, step=0, in_degree=[], out_degree=[], creation_step=[])
        with pytest.raises(ValueError, match="empty"):
            attach_prob_out(empty, 1, table1_params)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.9),
        beta_frac=st.floats(0.0, 0.9),
        p=st.floats(0.0, 1.0),
        delta=st.floats(0.05, 5.0),
        n_edges=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    def test_kernels_sum_to_one_on_reachable_states(self, alpha, beta_frac, p, delta, n_edges, seed):
        beta = (1.0 - alpha) * beta_frac
        th = HybridParams.fill_gamma(alpha, beta, p=p, delta_in=delta, delta_out=2 * delta)
        state, _ = small_simulated_state(th, n_edges, seed)
        total_in = sum(attach_prob_in(state, i, th) for i in range(1, state.node_count + 1))
        total_out = sum(attach_prob_out(state, i, th) for i in range(1, state.node_count + 1))
        assert total_in == pytest.approx(1.0, abs=1e-12)
        assert total_out == pytest.approx(1.0, abs=1e-12)


class TestNetworkState:
    LISTS = dict(
        node_count=3, step=2, in_degree=[2, 0, 1], out_degree=[1, 2, 0], creation_step=[0, 1, 2]
    )

    def test_lists_become_int64_arrays(self):
        state = NetworkState(**self.LISTS)
        arrays = {
            k: np.array(v, dtype=np.int64) if isinstance(v, list) else v
            for k, v in self.LISTS.items()
        }
        assert state == NetworkState(**arrays)
        for name in ("in_degree", "out_degree", "creation_step"):
            assert getattr(state, name).dtype == np.int64
        assert state != NetworkState(**{**self.LISTS, "in_degree": [1, 1, 1]})
        assert state != NetworkState(**{**self.LISTS, "step": 3})

    def test_consistency_messages(self):
        NetworkState(**self.LISTS).check_consistency()
        with pytest.raises(ValueError, match=r"degree mass must equal step\+1=3, got in=4, out=3"):
            NetworkState(**{**self.LISTS, "in_degree": [2, 1, 1]}).check_consistency()
        with pytest.raises(ValueError, match=r"degree arrays \(3, 2, 3\) inconsistent"):
            NetworkState(**{**self.LISTS, "out_degree": [1, 2]}).check_consistency()

    def test_attachment_matches_list_formula(self):
        th = HybridParams.fill_gamma(0.3, 0.4, p=0.7, delta_in=1.3, delta_out=0.6)
        state = NetworkState(**self.LISTS)
        mass, n = self.LISTS["step"] + 1, self.LISTS["node_count"]
        for i in range(1, n + 1):
            d_in, d_out = self.LISTS["in_degree"][i - 1], self.LISTS["out_degree"][i - 1]
            p_in = th.p * ((d_in + th.delta_in) / (mass + th.delta_in * n)) + (1.0 - th.p) / n
            p_out = th.p * ((d_out + th.delta_out) / (mass + th.delta_out * n)) + (1.0 - th.p) / n
            assert type(attach_prob_in(state, i, th)) is float
            assert attach_prob_in(state, i, th) == p_in
            assert attach_prob_out(state, i, th) == p_out

    def test_pickle_round_trip(self):
        state, _ = small_simulated_state(
            HybridParams.fill_gamma(0.3, 0.4, p=0.7, delta_in=1.3, delta_out=0.6), 300, seed=4
        )
        assert pickle.loads(pickle.dumps(state)) == state


class TestStepDistribution:
    def test_seed_state_hand_enumeration(self):
        th = HybridParams.fill_gamma(0.2, 0.5, p=0.6, delta_in=1.0, delta_out=2.0)
        dist = step_distribution(NetworkState.seed(), th)
        assert dist[(1, 2, 1)] == pytest.approx(th.alpha)
        assert dist[(2, 1, 1)] == pytest.approx(th.beta)
        assert dist[(3, 1, 2)] == pytest.approx(th.gamma)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_fresh_node_mass(self):
        th = HybridParams(alpha=0, beta=0, gamma=0, xi=1.0, eta=0, p=0.5, delta_in=1, delta_out=1)
        dist = step_distribution(NetworkState.seed(), th)
        assert dist == {(4, 2, 2): 1.0}

    @pytest.mark.parametrize("n_edges,seed", [(4, 1), (20, 2), (49, 3)])
    def test_total_mass_one_on_simulated_states(self, n_edges, seed):
        th = HybridParams.fill_gamma(0.25, 0.35, p=0.7, delta_in=0.8, delta_out=1.6, xi=0.05, eta=0.05)
        state, _ = small_simulated_state(th, n_edges, seed)
        assert state.node_count <= 50
        dist = step_distribution(state, th)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_in_degree_increment_probability(self):
        # chance that a fixed node's in-degree grows = (alpha+beta) * in-kernel
        th = HybridParams.fill_gamma(0.3, 0.4, p=0.6, delta_in=1.2, delta_out=0.9)
        state = state_from_records([(2, 1), (1, 1), (1, 3), (3, 2)])
        dist = step_distribution(state, th)
        for i in range(1, state.node_count + 1):
            increment = sum(
                mass for (sc, _, tgt), mass in dist.items() if tgt == i and sc in (1, 2)
            )
            expected = (th.alpha + th.beta) * attach_prob_in(state, i, th)
            assert increment == pytest.approx(expected, abs=1e-12)


class TestClassifyScenario:
    def test_base_cases(self):
        assert classify_scenario({1, 2}, EdgeRecord(5, 2, 0)) == 1
        assert classify_scenario({1, 2}, EdgeRecord(2, 2, 0)) == 2
        assert classify_scenario({1, 2}, EdgeRecord(1, 7, 0)) == 3
        assert classify_scenario({1, 2}, EdgeRecord(7, 7, 0)) == 4
        assert classify_scenario({1, 2}, EdgeRecord(7, 8, 0)) == 5

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError, match="positive"):
            classify_scenario({1}, EdgeRecord(0, 1, 0))

    def test_roundtrip_with_generator_labels(self):
        th = HybridParams.fill_gamma(0.2, 0.4, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1)
        _, log = small_simulated_state(th, 500, seed=11)
        assert classify_edge_log(log) == [rec.scenario for rec in log]


class TestEdgeLog:
    def test_columns_and_rows(self):
        log = EdgeLog([EdgeRecord(3, 1, 5, 1), EdgeRecord(1, 1, 6)])
        assert log.source.dtype == np.int64 and log.scenario.dtype == np.int8
        assert log.scenario.tolist() == [1, 0]
        assert len(log) == 2
        assert log[0] == EdgeRecord(3, 1, 5, 1)
        assert log[-1] == EdgeRecord(1, 1, 6, None)
        assert list(log) == log.records == [EdgeRecord(3, 1, 5, 1), EdgeRecord(1, 1, 6, None)]

    def test_from_columns_equals_record_build(self):
        log = EdgeLog.from_columns([3, 1], [1, 1], [5, 6], [1, 0])
        assert log == EdgeLog([EdgeRecord(3, 1, 5, 1), EdgeRecord(1, 1, 6)])
        assert EdgeLog.from_columns([3], [1], [5]).records == [EdgeRecord(3, 1, 5, None)]
        assert len(EdgeLog()) == 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            EdgeLog.from_columns([1, 2], [1], [1, 2])

    def test_values_outside_int64_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            EdgeLog([EdgeRecord(2**63, 1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            EdgeLog([EdgeRecord(1, 1, -(2**63) - 1)])
        assert EdgeLog([EdgeRecord(2**63 - 1, 1, -(2**63))])[0].source == 2**63 - 1

    def test_pickle_round_trip(self):
        log = EdgeLog([EdgeRecord(3, 1, 5, 1), EdgeRecord(1, 1, 6)])
        assert pickle.loads(pickle.dumps(log)) == log

    @pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5])
    def test_rows_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        log = EdgeLog.from_columns(
            rng.integers(-(2**63), 2**63 - 1, n, endpoint=True),
            rng.integers(1, 10**6, n),
            np.arange(n),
            rng.integers(0, 6, n),  # labelled and unlabelled rows mixed
        )
        # the rows of one tolist() of every whole column
        columns = (log.source, log.target, log.time, log.scenario)
        whole = [EdgeRecord(s, t, tm, sc or None) for s, t, tm, sc in zip(*(c.tolist() for c in columns))]
        rows = list(log)
        assert rows == log.records == whole
        assert all(type(value) is int for row in rows for value in row[:3])
        assert {type(row.scenario) for row in rows} <= {int, type(None)}

    def test_iteration_converts_one_block_at_a_time(self):
        n = 300_000
        rng = np.random.default_rng(1)
        log = EdgeLog.from_columns(
            rng.integers(1, 10**6, n), rng.integers(1, 10**6, n), np.arange(n), rng.integers(0, 6, n)
        )
        tracemalloc.start()
        try:
            count = sum(1 for _ in log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n
        # measured 1.05 MB; converting the four whole columns at once (one
        # tolist() of each) peaks at 38.4 MB
        assert peak < 3_000_000, peak


# key spans that take the one-pass radix ordering, the two-pass one and the fallback
_SPAN_CLASSES = [(0, 2**16 - 1), (2**16, 2**32 - 1), (2**32, 2**64 - 1)]


@st.composite
def _int64_keys(draw):
    """int64 arrays with heavy ties, their span drawn from one class, at
    either int64 extreme or anywhere between."""
    lowest, highest = draw(st.sampled_from(_SPAN_CLASSES))
    span = draw(st.integers(lowest, highest))
    top = 2**63 - 1 - span  # the greatest minimum the span leaves room for
    low = draw(st.one_of(st.just(-(2**63)), st.just(top), st.integers(-(2**63), top)))
    pool = [low, low + span, *draw(st.lists(st.integers(low, low + span), max_size=6))]
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=300)), dtype=np.int64)


class TestStableOrder:
    @settings(max_examples=300, deadline=None)
    @given(keys=_int64_keys())
    @example(keys=np.array([], dtype=np.int64))
    @example(keys=np.array([-(2**63)], dtype=np.int64))
    @example(keys=np.array([2**63 - 1, -(2**63), 2**63 - 1], dtype=np.int64))
    def test_equals_stable_argsort(self, keys):
        order = _stable_order(keys)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == expected.dtype and np.array_equal(order, expected)
