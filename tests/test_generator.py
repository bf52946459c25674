import math
from collections import Counter

import pytest

from hybridnet import (
    HybridParams,
    SimulationConfig,
    replicate_seeds,
    simulate,
    simulate_replicates,
)
from conftest import ORACLE_SETTINGS, enumerate_histories, reference_simulate


@pytest.fixture
def base_params():
    return HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)


class TestConfigValidation:
    def test_n_edges_positive(self, base_params):
        with pytest.raises(ValueError, match="n_edges"):
            SimulationConfig(params=base_params, n_edges=0)

    def test_certain_both_existing_scenario_rejected(self):
        with pytest.raises(ValueError, match="regularity"):
            HybridParams(alpha=0.0, beta=1.0, gamma=0.0, p=0.5, delta_in=1.0, delta_out=1.0)

    def test_snapshot_steps_sorted_and_in_range(self, base_params):
        with pytest.raises(ValueError, match="sorted"):
            SimulationConfig(params=base_params, n_edges=10, snapshot_steps=[5, 2])
        with pytest.raises(ValueError, match="within"):
            SimulationConfig(params=base_params, n_edges=10, snapshot_steps=[4, 11])


class TestSimulate:
    def test_degenerate_fresh_node_model(self):
        th = HybridParams(alpha=0, beta=0, gamma=0, xi=1.0, eta=0, p=0.5, delta_in=1, delta_out=1)
        state, log, _ = simulate(SimulationConfig(params=th, n_edges=200, seed=3))
        assert state.node_count == 1 + 200
        assert all(rec.source == rec.target and rec.scenario == 4 for rec in log)
        assert all(rec.source > 1 for rec in log)  # every self-loop sits on a fresh node

    def test_node_count_concentrates(self, base_params):
        state, _, _ = simulate(SimulationConfig(params=base_params, n_edges=10_000, seed=5))
        assert abs(state.node_count / 10_000 - (1 - base_params.beta)) < 0.02

    def test_degree_mass_after_every_step(self, base_params):
        n = 300
        config = SimulationConfig(
            params=base_params, n_edges=n, seed=9, snapshot_steps=list(range(1, n + 1))
        )
        state, log, snaps = simulate(config)
        state.check_consistency()
        assert len(snaps) == n
        for k, counts in enumerate(snaps, start=1):
            assert sum(m * c for m, c in counts.in_counts.items()) == k + 1
            assert sum(m * c for m, c in counts.out_counts.items()) == k + 1
            assert sum(counts.in_counts.values()) == counts.n_nodes

    def test_scenario_frequency_matches_alpha(self, base_params):
        _, log, _ = simulate(SimulationConfig(params=base_params, n_edges=10_000, seed=21))
        n1 = sum(1 for rec in log if rec.scenario == 1)
        sd = math.sqrt(base_params.alpha * (1 - base_params.alpha) / 10_000)
        assert abs(n1 / 10_000 - base_params.alpha) < 3 * sd

    def test_log_excludes_seed_and_counts_match(self, base_params):
        state, log, _ = simulate(SimulationConfig(params=base_params, n_edges=50, seed=1))
        assert len(log) == 50
        assert state.step + 1 == 51
        by_scenario = Counter(rec.scenario for rec in log)
        new_nodes = by_scenario[1] + by_scenario[3] + by_scenario[4] + 2 * by_scenario[5]
        assert state.node_count == 1 + new_nodes

    def test_scenario_labels_optional(self, base_params):
        _, log, _ = simulate(
            SimulationConfig(params=base_params, n_edges=20, seed=1, log_scenarios=False)
        )
        assert all(rec.scenario is None for rec in log)

    def test_micro_distribution_matches_enumeration(self):
        th = HybridParams.fill_gamma(0.3, 0.4, p=0.5, delta_in=1.0, delta_out=1.0)
        histories = enumerate_histories(th, 2)
        exact = {tuple(records): prob for records, prob in histories}
        runs = 20_000
        counts = Counter()
        for seed in range(runs):
            _, log, _ = simulate(SimulationConfig(params=th, n_edges=2, seed=seed))
            counts[tuple((r.source, r.target) for r in log)] += 1
        tv = 0.5 * sum(
            abs(counts.get(h, 0) / runs - p) for h, p in exact.items()
        ) + 0.5 * sum(c / runs for h, c in counts.items() if h not in exact)
        assert tv < 0.025


class TestReplicates:
    def test_single_replicate_equals_derived_seed_run(self, base_params):
        config = SimulationConfig(params=base_params, n_edges=100, seed=77)
        (out,) = simulate_replicates(config, 1)
        from dataclasses import replace

        direct = simulate(replace(config, seed=replicate_seeds(77, 1)[0]))
        assert out.log.records == direct.log.records
        assert out.state == direct.state

    def test_worker_count_does_not_change_results(self, base_params):
        config = SimulationConfig(params=base_params, n_edges=200, seed=13)
        serial = simulate_replicates(config, 4, worker_count=1)
        parallel = simulate_replicates(config, 4, worker_count=2)
        for a, b in zip(serial, parallel):
            assert a.log.records == b.log.records
            assert a.state == b.state

    def test_replicates_differ_from_each_other(self, base_params):
        config = SimulationConfig(params=base_params, n_edges=200, seed=13)
        a, b = simulate_replicates(config, 2)
        assert a.log.records != b.log.records

    def test_replicate_count_validated(self, base_params):
        with pytest.raises(ValueError, match="replicate count"):
            simulate_replicates(SimulationConfig(params=base_params, n_edges=10), 0)


def _assert_same_run(config):
    fast, slow = simulate(config), reference_simulate(config)
    assert fast.state == slow.state
    assert fast.log.records == slow.log.records
    assert fast.snapshots == slow.snapshots


class TestStreamExactness:
    """``simulate`` consumes the PCG64 stream exactly like the step-by-step
    reference loop, so every seed gives the same state, log and snapshots."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SETTINGS))
    def test_matches_reference_loop(self, name):
        params = ORACLE_SETTINGS[name]
        for seed in [*range(40), 2**100 + 7]:
            for n in (1, 2, 3, 17, 1000):
                config = SimulationConfig(
                    params=params,
                    n_edges=n,
                    seed=seed,
                    log_scenarios=seed % 2 == 0,
                    snapshot_steps=sorted({1, (n + 1) // 2, n}),
                )
                _assert_same_run(config)

    def test_matches_reference_loop_long_run(self):
        config = SimulationConfig(
            params=ORACLE_SETTINGS["node_heavy"],
            n_edges=120_000,
            seed=2**100 + 7,
            snapshot_steps=[50_000, 120_000],
        )
        _assert_same_run(config)
