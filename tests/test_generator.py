import gc
import math
import pickle
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hybridnet import (
    HybridParams,
    SimulationConfig,
    replicate_seeds,
    simulate,
    simulate_replicates,
)
from hybridnet.generator import _map_replicates, _result_to_file
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


class TestSimulate:
    def test_degenerate_fresh_node_model(self):
        th = HybridParams(alpha=0, beta=0, gamma=0, xi=1.0, eta=0, p=0.5, delta_in=1, delta_out=1)
        state, log = simulate(SimulationConfig(params=th, n_edges=200, seed=3))
        assert state.node_count == 1 + 200
        assert all(rec.source == rec.target and rec.scenario == 4 for rec in log)
        assert all(rec.source > 1 for rec in log)  # every self-loop sits on a fresh node

    def test_node_count_concentrates(self, base_params):
        state, _ = simulate(SimulationConfig(params=base_params, n_edges=10_000, seed=5))
        assert abs(state.node_count / 10_000 - (1 - base_params.beta)) < 0.02

    def test_degree_mass_after_every_step(self, base_params):
        state, _ = simulate(SimulationConfig(params=base_params, n_edges=300, seed=9))
        state.check_consistency()

    def test_scenario_frequency_matches_alpha(self, base_params):
        _, log = simulate(SimulationConfig(params=base_params, n_edges=10_000, seed=21))
        n1 = sum(1 for rec in log if rec.scenario == 1)
        sd = math.sqrt(base_params.alpha * (1 - base_params.alpha) / 10_000)
        assert abs(n1 / 10_000 - base_params.alpha) < 3 * sd

    def test_log_excludes_seed_and_counts_match(self, base_params):
        state, log = simulate(SimulationConfig(params=base_params, n_edges=50, seed=1))
        assert len(log) == 50
        assert state.step + 1 == 51
        by_scenario = Counter(rec.scenario for rec in log)
        new_nodes = by_scenario[1] + by_scenario[3] + by_scenario[4] + 2 * by_scenario[5]
        assert state.node_count == 1 + new_nodes

    def test_scenario_labels_optional(self, base_params):
        _, log = simulate(
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
            _, log = simulate(SimulationConfig(params=th, n_edges=2, seed=seed))
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


def _log_first(config):
    """A simulation output with the log first, so that the int8 scenario
    buffer of an odd-length log comes before the state's int64 arrays."""
    state, log = simulate(config)
    return log, state


def _with_empty_arrays(config):
    return np.empty(0), np.arange(config.n_edges % 7), np.empty((0, 3), dtype=np.int8)


def _only_empty_arrays(config):
    return [np.empty(0, dtype=np.int64)]


def _fail_on_second(config, k):
    if k == 1:
        raise RuntimeError("replicate 1 failed")
    return simulate(config)


def _arrays(result):
    """Every array of a ``_log_first`` result."""
    log, state = result
    return [log.source, log.target, log.time, log.scenario,
            state.in_degree, state.out_degree, state.creation_step]


class TestPoolTransport:
    """Pool results come back as pickles whose arrays are mapped from a file
    in a temporary directory of the call's own."""

    # odd, so that the int8 scenario buffer ends off an 8-byte boundary
    N_EDGES = 2001

    @pytest.fixture(autouse=True)
    def private_tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        yield
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def config(self, base_params):
        return SimulationConfig(params=base_params, n_edges=self.N_EDGES, seed=17)

    def test_results_equal_serial_ones(self, config):
        serial = _map_replicates(_log_first, config, 3, 1)
        pooled = _map_replicates(_log_first, config, 3, 2)
        assert pooled == serial
        for result in pooled:
            for array in _arrays(result):
                assert array.flags.writeable and array.flags.aligned
        pooled[0][0].source[0] = -1  # a write stays in this process's copy
        assert pooled[0][0].source[0] == -1

    def test_results_outlive_collection_and_pickle(self, config):
        serial = _map_replicates(_log_first, config, 2, 1)
        pooled = _map_replicates(_log_first, config, 2, 2)
        gc.collect()
        assert pooled == serial
        assert pickle.loads(pickle.dumps(pooled)) == serial

    def test_empty_arrays(self, config):
        for fn in (_with_empty_arrays, _only_empty_arrays):
            serial = _map_replicates(fn, config, 2, 1)
            pooled = _map_replicates(fn, config, 2, 2)
            for a, b in zip(serial, pooled):
                assert [x.shape for x in a] == [y.shape for y in b]
                assert all(np.array_equal(x, y) and y.flags.writeable for x, y in zip(a, b))

    def test_worker_error_leaves_no_file(self, config):
        with pytest.raises(RuntimeError, match="replicate 1 failed"):
            _map_replicates(_fail_on_second, config, 3, 2, range(3))

    def test_result_without_buffers_writes_no_file(self, tmp_path):
        path = tmp_path / "result"
        payload, spans = _result_to_file(lambda x: {"point": x / 2}, str(path), 3)
        assert spans == [] and pickle.loads(payload) == {"point": 1.5}
        assert not path.exists()


def _assert_same_run(config):
    fast, slow = simulate(config), reference_simulate(config)
    assert fast.state == slow.state
    assert fast.log.records == slow.log.records


class TestStreamExactness:
    """``simulate`` consumes the PCG64 stream exactly like the step-by-step
    reference loop, so every seed gives the same state and log."""

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
                )
                _assert_same_run(config)

    def test_matches_reference_loop_long_run(self):
        config = SimulationConfig(
            params=ORACLE_SETTINGS["node_heavy"],
            n_edges=120_000,
            seed=2**100 + 7,
        )
        _assert_same_run(config)


class TestMemory:
    @pytest.mark.parametrize("name", ["table1", "node_heavy", "extended"])
    def test_stream_is_released_before_the_per_step_work(self, name):
        config = SimulationConfig(params=ORACLE_SETTINGS[name], n_edges=100_000, seed=1)
        simulate(config)  # warm caches
        tracemalloc.start()
        try:
            state, log = simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(
            column.nbytes
            for column in (state.in_degree, state.out_degree, state.creation_step,
                           log.source, log.target, log.time, log.scenario)
        )
        # measured 4.8-9.4 MB above the output, the 5.6 MB stream included; a
        # run that keeps the stream, its step tables and a list of the step
        # starts alive to the end needs 17-25 MB
        assert peak - output < 11_000_000, (peak, output)
