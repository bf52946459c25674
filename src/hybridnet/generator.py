"""Network simulation with a reproducible PCG64 random source.

The process is sequential in law: each step conditions on the full history.
But how many uniforms a step consumes depends only on the uniforms
themselves, never on the graph, so a run draws its whole stream in one
block, finds where every step starts by one walk over a table of step
lengths, and evaluates all draws as array operations; a draw that copies an
earlier edge's endpoint is resolved by pointer jumping.  Replicates are
embarrassingly parallel: per-replicate seeds are derived from the master
seed with ``numpy.random.SeedSequence.spawn``, so results are identical for
any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import EdgeLog, HybridParams, NetworkState

# Uniforms one step consumes at most: the scenario draw plus two endpoint
# draws of at most three uniforms each.
_MAX_STEP = 7
# How far past a step's start the step-length table looks: to the first
# uniform of the second endpoint draw.
_LOOKAHEAD = 4
# nodes created by scenarios 1..5 (index 0 unused)
_NEW_NODES = np.array([0, 1, 0, 1, 1, 2], dtype=np.int64)


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one run: parameters, length, seed and scenario labels."""

    params: HybridParams
    n_edges: int
    seed: int = 0
    log_scenarios: bool = True

    def __post_init__(self):
        if self.n_edges < 1:
            raise ValueError(f"n_edges must be >= 1, got {self.n_edges}")


class SimulationOutput(NamedTuple):
    state: NetworkState
    log: EdgeLog


def simulate(config: SimulationConfig) -> SimulationOutput:
    """Grow a network edge by edge from the seed self-loop.

    Endpoint draws realise the kernel mixture by a two-stage scheme: first a
    Bernoulli(p) choice between the degree-proportional and uniform parts,
    then (in the degree-proportional branch) either a uniform node (offset
    mass) or a uniform pick from the list of past edge endpoints (degree
    mass).  This is distribution-identical to the per-node kernel.  The seed
    edge is part of the state but not of the log.

    Each step reads its uniforms in a fixed order from one PCG64 stream: the
    scenario draw, then the out-draw (scenarios 2 and 3), then the in-draw
    (scenarios 1 and 2); an endpoint draw reads three uniforms when its first
    is below ``p`` and two otherwise.  Step lengths therefore follow from the
    stream alone.  The run draws ``7 n`` uniforms at once, tabulates the step
    length at every stream position, and walks the table once to find each
    step's start.  Node counts before each step are a cumulative sum of the
    new-node counts and the degree mass before step ``k`` is ``k``, so every
    comparison and pick is one float64 array operation, bit-identical to the
    scalar one.  A degree-mass draw copies the endpoint of an earlier edge;
    those copies are resolved by pointer jumping (Sanders & Schulz, IPL
    116(7), 2016), which needs a number of rounds logarithmic in the longest
    copy chain.  A seed therefore maps to the same sample as a step-by-step
    simulation consuming the same stream.
    """
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
    n = config.n_edges
    span = _MAX_STEP * n
    u = np.random.default_rng(config.seed).random(span + _LOOKAHEAD)

    # the step length as if a step started at each stream position: the
    # scenario draw, then no, one or (scenario 2) two endpoint draws
    w = u[:span]
    below_t1, below_t2 = w < t1, w < t2
    draw_len = (u < pr.p).astype(np.uint8) + 2  # uniforms of an endpoint draw starting here
    first_draw = draw_len[1 : span + 1]
    step_len = np.where(below_t1 | below_t2 | (w < t3), first_draw + 1, 1).astype(np.uint8)
    both = np.flatnonzero(below_t2 & ~below_t1)
    step_len[both] += draw_len[both + 1 + first_draw[both]]
    starts = np.array(_walk(step_len.tobytes(), n), dtype=np.int64)

    w = u[starts]
    sc = np.select([w < t1, w < t2, w < t3, w < t4], [1, 2, 3, 4], 5).astype(np.int8)
    new = _NEW_NODES[sc]
    nodes_after = 1 + np.cumsum(new)
    nodes = nodes_after - new  # vertex count before each step
    source = nodes + 1  # the first fresh node; endpoint draws overwrite it
    target = source + (sc == 5)
    source_ptr = np.zeros(n, dtype=np.int64)
    target_ptr = np.zeros(n, dtype=np.int64)

    out_steps = np.flatnonzero((sc == 2) | (sc == 3))
    out_pos = starts[out_steps] + 1
    _endpoint_draws(u, out_pos, out_steps, nodes, pr.p, pr.delta_out, source, source_ptr)
    in_steps = np.flatnonzero(sc <= 2)
    in_pos = starts[in_steps] + 1
    in_pos += np.where(sc[in_steps] == 2, draw_len[in_pos], 0)  # after the out-draw
    _endpoint_draws(u, in_pos, in_steps, nodes, pr.p, pr.delta_in, target, target_ptr)
    source = _resolve(source, source_ptr)
    target = _resolve(target, target_ptr)

    node_count = int(nodes_after[-1])
    in_degree = np.bincount(target, minlength=node_count + 1)
    out_degree = np.bincount(source, minlength=node_count + 1)
    in_degree[1] += 1  # the seed self-loop
    out_degree[1] += 1
    creation = np.repeat(np.arange(n + 1, dtype=np.int64), np.concatenate(([1], new)))
    state = NetworkState(
        node_count=node_count,
        step=n,
        in_degree=in_degree[1:],
        out_degree=out_degree[1:],
        creation_step=creation,
    )
    time = np.arange(1, n + 1, dtype=np.int64)
    log = EdgeLog.from_columns(source, target, time, sc if config.log_scenarios else None)
    return SimulationOutput(state, log)


def _walk(step_len: bytes, n: int) -> list[int]:
    """Stream positions of the first ``n`` step starts, from position 0."""
    starts = []
    pos = 0
    for _ in range(n):
        starts.append(pos)
        pos += step_len[pos]
    return starts


def _endpoint_draws(u, pos, steps, nodes, p, delta, value, pointer) -> None:
    """Evaluate the endpoint draws that start at stream positions ``pos`` for
    the (0-based) steps ``steps``.

    A uniform-node draw writes its node id to ``value``; a degree-mass draw
    writes 0 there and the index of the copied edge (0 is the seed edge, k
    is step k) to ``pointer``.
    """
    v = nodes[steps].astype(np.float64)
    mass = (steps + 1).astype(np.float64)  # edges in the graph before the step
    proportional = u[pos] < p
    test = u[pos + 1]
    pick = np.where(proportional, u[pos + 2], test)
    dv = delta * v
    uniform = ~proportional | (test * (mass + dv) < dv)
    value[steps] = np.where(uniform, (pick * v).astype(np.int64) + 1, 0)
    pointer[steps] = (pick * mass).astype(np.int64)


def _resolve(value: np.ndarray, pointer: np.ndarray) -> np.ndarray:
    """Endpoints of the seed edge and steps 1..n, where a 0 in ``value`` copies
    the endpoint of edge ``pointer``, an earlier edge, by pointer jumping."""
    value = np.concatenate(([1], value))  # the seed edge is 1 -> 1
    jump = np.concatenate(([0], pointer))
    pending = np.flatnonzero(value == 0)
    while pending.size:
        nxt = jump[pending]
        found = value[nxt]
        hit = found > 0
        value[pending[hit]] = found[hit]
        pending = pending[~hit]
        jump[pending] = jump[nxt[~hit]]
    return value[1:]


def replicate_seeds(master_seed: int, r: int) -> list[int]:
    """Derive ``r`` independent 128-bit child seeds from a master seed."""
    children = np.random.SeedSequence(master_seed).spawn(r)
    return [int.from_bytes(c.generate_state(4, np.uint32).tobytes(), "little") for c in children]


def simulate_replicates(
    config: SimulationConfig, r: int, worker_count: int = 1
) -> list[SimulationOutput]:
    """Run ``r`` independent replicates, optionally across processes.

    Output order is replicate order regardless of scheduling, and results
    are bit-identical for any ``worker_count``.
    """
    return _map_replicates(simulate, config, r, worker_count)


def _map_replicates(fn, config: SimulationConfig, r: int, worker_count: int, *per_replicate) -> list:
    """``[fn(config_k, *args_k) for k in range(r)]``: ``config_k`` is ``config``
    under the ``k``-th derived seed and ``args_k`` the ``k``-th items of
    ``per_replicate``.  One worker runs them in this process, more in a pool."""
    if r < 1:
        raise ValueError(f"replicate count must be >= 1, got {r}")
    if worker_count < 1:
        raise ValueError(f"worker count must be >= 1, got {worker_count}")
    configs = [replace(config, seed=s) for s in replicate_seeds(config.seed, r)]
    if worker_count == 1:
        return list(map(fn, configs, *per_replicate))
    chunk = max(1, r // (4 * worker_count))
    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(fn, configs, *per_replicate, chunksize=chunk))
