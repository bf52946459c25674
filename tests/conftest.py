import math

import numpy as np
import pytest

from hybridnet import (
    EdgeLog,
    EdgeRecord,
    HybridParams,
    NetworkState,
    SimulationConfig,
    SimulationOutput,
    simulate,
    step_distribution,
)
from hybridnet.degrees import degree_counts_from_arrays


@pytest.fixture
def table1_params():
    return HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)


def state_from_records(records):
    """Build a NetworkState by replaying plain (source, target) pairs from the seed."""
    in_deg = {1: 1}
    out_deg = {1: 1}
    created = {1: 0}
    for k, (src, tgt) in enumerate(records, start=1):
        for node in (src, tgt):
            if node not in in_deg:
                in_deg[node] = 0
                out_deg[node] = 0
                created[node] = k
        in_deg[tgt] += 1
        out_deg[src] += 1
    n = len(in_deg)
    return NetworkState(
        node_count=n,
        step=len(records),
        in_degree=[in_deg[i] for i in range(1, n + 1)],
        out_degree=[out_deg[i] for i in range(1, n + 1)],
        creation_step=[created[i] for i in range(1, n + 1)],
    )


def log_from_pairs(pairs, scenarios=None):
    scenarios = scenarios or [None] * len(pairs)
    return EdgeLog(
        [EdgeRecord(s, t, k, sc) for k, ((s, t), sc) in enumerate(zip(pairs, scenarios), start=1)]
    )


def small_simulated_state(params, n_edges, seed):
    state, log, _ = simulate(SimulationConfig(params=params, n_edges=n_edges, seed=seed))
    return state, log


def enumerate_histories(params, length):
    """All (records, probability) pairs of the given length starting from the seed."""
    out = []

    def recurse(records, prob):
        if len(records) == length:
            out.append((list(records), prob))
            return
        state = state_from_records(records)
        for (sc, src, tgt), mass in step_distribution(state, params).items():
            records.append((src, tgt))
            recurse(records, prob * mass)
            records.pop()

    recurse([], 1.0)
    total = sum(p for _, p in out)
    assert math.isfinite(total)
    return out


def effective_sample_size(chain) -> float:
    """Geyer's initial positive sequence ESS of one chain (Statistical
    Science 7(4), 1992): n / tau, where tau = -1 + 2 * the sum of the
    leading positive pair sums rho(2k) + rho(2k + 1) of the FFT
    autocorrelation.  A constant chain gets ESS 1."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * n)  # zero padding makes the circular product linear
    acov = np.fft.irfft(spectrum * np.conj(spectrum), 2 * n)[:n]
    if acov[0] <= 0.0:
        return 1.0
    pairs = (acov / acov[0])[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    tau = 2.0 * float(pairs[: stop[0] if stop.size else pairs.size].sum()) - 1.0
    return n / max(tau, 1.0 / n)


_BLOCK = 8192


class _Uniforms:
    """Block-buffered U(0,1) stream over a PCG64 generator.

    Scalar draws from ``numpy.random.Generator`` carry call overhead that
    dominates the simulation loop; drawing in blocks and handing out plain
    floats is an order of magnitude faster while keeping the exact PCG64
    stream.
    """

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._buf: list[float] = []
        self._pos = 0

    def __call__(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(_BLOCK).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u


def reference_simulate(config):
    """The step-by-step simulator that ``simulate`` replaced: one scalar loop
    over the edges, reading the PCG64 stream one uniform at a time.  Kept as
    the bit-identity oracle for ``simulate``."""
    pr = config.params
    t1 = pr.alpha
    t2 = t1 + pr.beta
    t3 = t2 + pr.gamma
    t4 = t3 + pr.xi
    # saturate the last positive band so cumulative rounding can never leak
    # a draw into a zero-probability scenario
    if pr.eta == 0.0:
        if pr.xi > 0.0:
            t4 = 1.0
        elif pr.gamma > 0.0:
            t3 = t4 = 1.0
        elif pr.beta > 0.0:
            t2 = t3 = t4 = 1.0
        else:
            t1 = t2 = t3 = t4 = 1.0
    p, din, dout = pr.p, pr.delta_in, pr.delta_out
    label = config.log_scenarios

    u = _Uniforms(config.seed)
    in_degree = [1]
    out_degree = [1]
    creation = [0]
    in_targets = [1]  # one entry per edge: its target (seed included)
    out_sources = [1]
    nodes = 1
    mass = 1  # edges currently in the graph
    records = []
    snapshots = []
    snap_steps = list(config.snapshot_steps or ())
    snap_pos = 0

    def draw_in() -> int:
        if u() < p:
            if u() * (mass + din * nodes) < din * nodes:
                return int(u() * nodes) + 1
            return in_targets[int(u() * mass)]
        return int(u() * nodes) + 1

    def draw_out() -> int:
        if u() < p:
            if u() * (mass + dout * nodes) < dout * nodes:
                return int(u() * nodes) + 1
            return out_sources[int(u() * mass)]
        return int(u() * nodes) + 1

    for k in range(1, config.n_edges + 1):
        w = u()
        if w < t1:  # new source -> existing target
            tgt = draw_in()
            nodes += 1
            src = nodes
            in_degree.append(0)
            out_degree.append(0)
            creation.append(k)
            sc = 1
        elif w < t2:  # both endpoints existing (self-loop possible)
            src = draw_out()
            tgt = draw_in()
            sc = 2
        elif w < t3:  # existing source -> new target
            src = draw_out()
            nodes += 1
            tgt = nodes
            in_degree.append(0)
            out_degree.append(0)
            creation.append(k)
            sc = 3
        elif w < t4:  # fresh self-looped node
            nodes += 1
            src = tgt = nodes
            in_degree.append(0)
            out_degree.append(0)
            creation.append(k)
            sc = 4
        else:  # two fresh nodes, one edge between them
            nodes += 1
            src = nodes
            nodes += 1
            tgt = nodes
            in_degree.extend((0, 0))
            out_degree.extend((0, 0))
            creation.extend((k, k))
            sc = 5
        in_degree[tgt - 1] += 1
        out_degree[src - 1] += 1
        in_targets.append(tgt)
        out_sources.append(src)
        mass += 1
        records.append(EdgeRecord(src, tgt, k, sc if label else None))
        if snap_pos < len(snap_steps) and k == snap_steps[snap_pos]:
            snapshots.append(degree_counts_from_arrays(in_degree, out_degree, nodes, mass))
            snap_pos += 1

    state = NetworkState(
        node_count=nodes,
        step=config.n_edges,
        in_degree=in_degree,
        out_degree=out_degree,
        creation_step=creation,
    )
    return SimulationOutput(state, EdgeLog(records), snapshots)
