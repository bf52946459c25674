import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln
from scipy.stats import nbinom

from hybridnet import (
    HybridParams,
    NetworkState,
    SimulationConfig,
    ccdf,
    degree_counts,
    derived_constants,
    growth_diagnostic,
    limit_pmf,
    limit_pmf_quadrature,
    nb_pmf,
    simulate,
)
from hybridnet.degrees import DegreeCounts, _limit_weights, _MixtureSeries
from conftest import ORACLE_SETTINGS, state_from_records


class TestDegreeCounts:
    def test_seed_state(self):
        counts = degree_counts(NetworkState.seed())
        assert counts.in_counts == {1: 1}
        assert counts.out_counts == {1: 1}
        assert counts.n_nodes == 1 and counts.n_edges == 1

    def test_three_step_hand_count(self):
        # seed; new node 2 -> 1; self-loop on 1; 1 -> new node 3
        state = state_from_records([(2, 1), (1, 1), (1, 3)])
        counts = degree_counts(state)
        assert counts.in_counts == {3: 1, 0: 1, 1: 1}
        assert counts.out_counts == {3: 1, 1: 1, 0: 1}
        assert counts.n_nodes == 3 and counts.n_edges == 4

    def test_edge_conservation_on_simulation(self, table1_params):
        state, _ = simulate(SimulationConfig(params=table1_params, n_edges=10_000, seed=4))
        counts = degree_counts(state)
        assert sum(m * c for m, c in counts.in_counts.items()) == 10_001
        assert sum(m * c for m, c in counts.out_counts.items()) == 10_001
        assert sum(counts.in_counts.values()) == counts.n_nodes


class TestCcdf:
    def test_small_example(self):
        counts = DegreeCounts(in_counts={0: 3, 1: 1}, out_counts={1: 4}, n_nodes=4, n_edges=4)
        assert ccdf(counts, "in") == [(0, 0.25)]

    def test_seed_state(self):
        assert ccdf(degree_counts(NetworkState.seed()), "in") == [(0, 1.0)]

    def test_positive_and_nonincreasing(self, table1_params):
        state, _ = simulate(SimulationConfig(params=table1_params, n_edges=5000, seed=8))
        curve = ccdf(degree_counts(state), "out")
        values = [v for _, v in curve]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matches_sort_oracle(self, table1_params):
        state, _ = simulate(SimulationConfig(params=table1_params, n_edges=2000, seed=15))
        counts = degree_counts(state)
        degrees = np.sort(np.array(state.in_degree))
        for m, value in ccdf(counts, "in"):
            expected = np.sum(degrees > m) / state.node_count
            assert value == pytest.approx(expected, abs=1e-15)

    def test_counts_partial_sum_complement(self, table1_params):
        state, _ = simulate(SimulationConfig(params=table1_params, n_edges=500, seed=2))
        counts = degree_counts(state)
        curve = dict(ccdf(counts, "in"))
        for m, tail in curve.items():
            head = sum(c for deg, c in counts.in_counts.items() if deg <= m)
            assert tail == pytest.approx(1.0 - head / counts.n_nodes, abs=1e-15)

    def test_direction_validation(self):
        counts = DegreeCounts(in_counts={0: 1}, out_counts={0: 1}, n_nodes=1, n_edges=0)
        with pytest.raises(ValueError, match="direction"):
            ccdf(counts, "sideways")


class TestNbPmf:
    def test_geometric_case(self):
        assert nb_pmf(1.0, 0.5, 0) == pytest.approx(0.5)

    def test_degenerate_success(self):
        assert nb_pmf(3.7, 1.0, 0) == pytest.approx(1.0)
        assert nb_pmf(3.7, 1.0, 2) == 0.0

    def test_series_expansion_value(self):
        # 4991679*sqrt(30)/256000000, the s^4 coefficient of the generating function
        assert nb_pmf(2.5, 0.3, 4) == pytest.approx(0.10679903078612618, abs=1e-12)

    def test_negative_support(self):
        assert nb_pmf(2.0, 0.4, -1) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nb_pmf(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            nb_pmf(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            nb_pmf(1.0, 1.2, 1)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.7])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_normalization(self, r, q):
        total, m = 0.0, 0
        while total < 1.0 - 1e-10 and m < 2_000_000:
            total += nb_pmf(r, q, m)
            m += 1
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.05, 50.0),
        q=st.floats(0.01, 0.99),
        m=st.integers(0, 200),
    )
    def test_matches_scipy(self, r, q, m):
        assert nb_pmf(r, q, m) == pytest.approx(float(nbinom.pmf(m, r, q)), rel=1e-9, abs=1e-300)


def _series_parameters(params):
    """``(r, rate)`` of the four series that ``limit_pmf`` sums: the degree-0
    and degree-1 births of the in- and then the out-direction."""
    _, in_w, out_w = _limit_weights(params)
    return [(r, rate) for _, _, dt, rate in (in_w, out_w) for r in (dt, 1.0 + dt)]


def _log_gamma_form(m, r, rate):
    """The log-gamma/log-beta closed form that the ratio recurrence replaced."""
    return rate * np.exp(gammaln(r + m) - gammaln(r) - gammaln(m + 1.0) + betaln(rate + r, m + 1.0))


class TestMixtureSeries:
    @pytest.mark.parametrize("name", ["table1", "node_heavy"])
    def test_matches_log_gamma_form_over_the_truncation_range(self, name):
        params = ORACLE_SETTINGS[name]
        m_hi = limit_pmf(params).truncation_m  # 204,800 for Table-1, 200 for node-heavy
        m = np.arange(m_hi + 1, dtype=float)
        for r, rate in _series_parameters(params):
            rel = np.abs(_MixtureSeries(r, rate).upto(m_hi) / _log_gamma_form(m, r, rate) - 1.0)
            # measured with scipy 1.17: at most 2.9e-13 for m <= 200 and 1.22e-9
            # up to m = 204,800, where the log-gamma terms reach 2.3e6 and
            # their difference carries about eps * 2.3e6 (see the next test)
            assert rel[:201].max() < 1e-12
            assert rel.max() < 2.5e-9

    def test_float_error_against_exact_arithmetic(self, table1_params):
        # the same recurrence in 40-digit decimal arithmetic, from the same
        # float inputs: the recurrence is within 7.7e-13 of it (measured) over
        # the whole Table-1 range, so the difference above is log-gamma's
        r, rate = _series_parameters(table1_params)[1]
        m_hi = 204_800
        with localcontext() as ctx:
            ctx.prec = 40
            r_exact, rate_exact = Decimal(r), Decimal(rate)
            value = rate_exact / (rate_exact + r_exact)
            exact = [value]
            for m in range(m_hi):
                value = value * (r_exact + m) / (rate_exact + r_exact + (m + 1))
                exact.append(value)
        exact = np.array([float(v) for v in exact])
        assert np.abs(_MixtureSeries(r, rate).upto(m_hi) / exact - 1.0).max() < 2e-12

    def test_growth_does_not_change_values(self):
        grown = _MixtureSeries(2.5, 1.7)
        for m_hi in (0, 1, 7, 200, 999):
            grown.upto(m_hi)
        assert np.array_equal(grown.upto(1000), _MixtureSeries(2.5, 1.7).upto(1000))
        assert np.array_equal(grown.upto(300), _MixtureSeries(2.5, 1.7).upto(300))


class TestLimitPmf:
    def test_total_mass_reaches_node_rate(self, table1_params):
        pmf = limit_pmf(table1_params)
        target = table1_params.alpha + table1_params.gamma
        assert pmf.psi_in.sum() == pytest.approx(target, abs=1e-6)
        assert pmf.psi_out.sum() == pytest.approx(target, abs=1e-6)
        assert np.all(pmf.psi_in >= 0) and np.all(pmf.psi_out >= 0)

    def test_closed_form_matches_quadrature(self, table1_params):
        pmf = limit_pmf(table1_params, m_max=60)
        qi, qo = limit_pmf_quadrature(table1_params, range(51))
        assert np.abs(pmf.psi_in[:51] - qi).max() < 1e-10
        assert np.abs(pmf.psi_out[:51] - qo).max() < 1e-10

    def test_frozen_value_at_zero(self, table1_params):
        # independently computed with the quadrature oracle
        pmf = limit_pmf(table1_params, m_max=8)
        assert pmf.psi_in[0] == pytest.approx(0.037837837837837833, abs=1e-9)

    def test_pure_pa_reduction(self):
        # at p=1 and beta=0 the effective offsets equal the raw ones and the
        # closed form must match the quadrature oracle evaluated there
        th = HybridParams.fill_gamma(0.4, 0.0, p=1.0, delta_in=1.5, delta_out=0.6)
        dc = derived_constants(th)
        assert dc.delta_in_tilde == th.delta_in
        pmf = limit_pmf(th, m_max=40)
        qi, qo = limit_pmf_quadrature(th, range(41))
        assert np.abs(pmf.psi_in[:41] - qi).max() < 1e-10
        assert np.abs(pmf.psi_out[:41] - qo).max() < 1e-10

    def test_p_zero_rejected(self):
        th = HybridParams.fill_gamma(0.3, 0.3, p=0.0, delta_in=1.0, delta_out=1.0)
        with pytest.raises(ValueError, match="p > 0"):
            limit_pmf(th)

    def test_out_direction_weights_match_simulation(self):
        # asymmetric scenario probabilities separate the two weight layouts:
        # nodes born by the new-target scenario start with out-degree 0
        th = HybridParams.fill_gamma(0.2, 0.1, p=0.6, delta_in=1.3, delta_out=0.7)
        state, _ = simulate(SimulationConfig(params=th, n_edges=150_000, seed=33))
        counts = degree_counts(state)
        emp = np.array([counts.out_counts.get(m, 0) / 150_000 for m in range(6)])
        pmf = limit_pmf(th, m_max=10)
        ours = pmf.psi_out[:6]
        mirrored = limit_pmf(
            HybridParams.fill_gamma(th.gamma, th.beta, p=th.p, delta_in=th.delta_in, delta_out=th.delta_out),
            m_max=10,
        ).psi_out[:6]
        assert np.abs(emp - ours).max() < 0.01
        assert np.abs(emp - ours).max() < np.abs(emp - mirrored).max()

    def test_empirical_error_decreases_with_n(self):
        th = HybridParams.fill_gamma(0.45, 0.1, p=0.6, delta_in=1.3, delta_out=0.7)
        pmf = limit_pmf(th, m_max=20)
        errors = {}
        for n in (10_000, 100_000):
            errs = []
            for seed in range(5):
                state, _ = simulate(SimulationConfig(params=th, n_edges=n, seed=100 + seed))
                counts = degree_counts(state)
                emp = np.array([counts.in_counts.get(m, 0) / n for m in range(11)])
                errs.append(np.abs(emp - pmf.psi_in[:11]).max())
            errors[n] = np.mean(errs)
        assert errors[100_000] < errors[10_000]
        assert errors[100_000] < 0.01


class TestGrowthDiagnostic:
    def test_constant_trajectory_flat_at_zero_exponent(self):
        diag = growth_diagnostic([1, 10, 100], [[3, 3, 3]], c=0.0)
        assert np.allclose(diag.normalized, 3.0)
        assert np.allclose(diag.variance, 0.0)

    def test_linear_trajectory_flat_at_one(self):
        steps = [1, 5, 25]
        diag = growth_diagnostic(steps, [steps], c=1.0)
        assert np.allclose(diag.normalized, 1.0)

    def test_replicate_statistics(self):
        diag = growth_diagnostic([4, 16], [[2, 4], [4, 8]], c=0.5)
        assert diag.normalized.shape == (2, 2)
        assert np.allclose(diag.mean, [1.5, 1.5])

    def test_validation(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            growth_diagnostic([0, 1], [[1, 1]], c=0.5)
        with pytest.raises(ValueError):
            growth_diagnostic([1, 2], [[1, 2, 3]], c=0.5)
