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
_NEW_NODES = np.array([0, 1, 0, 1, 1, 2], dtype=np.int8)
# steps the walk collects in a Python list before it copies them to its array
_WALK_CHUNK = 1 << 14


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
    step's start.  The uniforms the steps read are then gathered and the
    stream is released before the per-step work begins, so the stream, not
    the per-step arrays, sets a run's peak memory.  Node counts before each
    step are a cumulative sum of the new-node counts and the degree mass
    before step ``k`` is ``k``, so every comparison and pick is one float64
    array operation, bit-identical to the scalar one.  A degree-mass draw
    copies the endpoint of an earlier edge; those copies are resolved by
    pointer jumping (Sanders & Schulz, IPL 116(7), 2016), which needs a
    number of rounds logarithmic in the longest copy chain.  A seed
    therefore maps to the same sample as a step-by-step simulation
    consuming the same stream.
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
    u = np.random.default_rng(config.seed).random(_MAX_STEP * n + _LOOKAHEAD)
    starts = _walk(_step_lengths(u, max(t1, t2, t3), t1, t2, pr.p), n)

    w = u[starts]
    sc = np.select([w < t1, w < t2, w < t3, w < t4], [1, 2, 3, 4], 5).astype(np.int8)
    del w
    out_steps = np.flatnonzero((sc == 2) | (sc == 3))
    out_draws = _read_draws(u, starts[out_steps] + 1, pr.p)
    in_steps = np.flatnonzero(sc <= 2)
    in_pos = starts[in_steps] + 1
    del starts
    # in scenario 2 the in-draw starts after the out-draw, which read three
    # uniforms when its first was below p and two otherwise
    in_pos += np.where(sc[in_steps] == 2, (u[in_pos] < pr.p) + 2, 0)
    in_draws = _read_draws(u, in_pos, pr.p)
    del u, in_pos  # the stream is read; what follows works on per-step arrays

    new = _NEW_NODES[sc]
    nodes = np.cumsum(new)
    node_count = 1 + int(nodes[-1])
    creation = np.repeat(np.arange(n + 1, dtype=np.int64), np.concatenate(([1], new)))
    nodes += 1
    nodes -= new  # vertex count before each step
    del new
    # endpoints of the seed edge (slot 0) and steps 1..n: the first fresh
    # node, overwritten by the endpoint draws
    source = np.empty(n + 1, dtype=np.int64)
    source[0] = 1
    np.add(nodes, 1, out=source[1:])
    target = source.copy()
    target[1:] += sc == 5
    source = _endpoints(out_draws, out_steps, nodes, pr.delta_out, source)
    del out_draws, out_steps
    target = _endpoints(in_draws, in_steps, nodes, pr.delta_in, target)
    del in_draws, in_steps, nodes

    # the seed self-loop is slot 0 of both endpoint arrays
    in_degree = np.bincount(target, minlength=node_count + 1)
    out_degree = np.bincount(source, minlength=node_count + 1)
    state = NetworkState(
        node_count=node_count,
        step=n,
        in_degree=in_degree[1:],
        out_degree=out_degree[1:],
        creation_step=creation,
    )
    time = np.arange(1, n + 1, dtype=np.int64)
    log = EdgeLog.from_columns(source[1:], target[1:], time, sc if config.log_scenarios else None)
    return SimulationOutput(state, log)


def _step_lengths(u: np.ndarray, t_draw: float, t1: float, t2: float, p: float) -> bytes:
    """The step length as if a step started at each of the first ``len(u) -
    _LOOKAHEAD`` stream positions: the scenario draw, then no endpoint draw,
    one (a scenario draw below ``t_draw``) or two (one in ``[t1, t2)``)."""
    span = len(u) - _LOOKAHEAD
    draw_len = (u < p).view(np.uint8)  # uniforms of an endpoint draw starting here
    draw_len += 2
    first_draw = draw_len[1 : span + 1]
    # a second endpoint draw starts right after the first
    second_draw = np.where(first_draw == 2, draw_len[3 : span + 3], draw_len[4:])
    w = u[:span]
    step_len = first_draw + 1
    np.add(step_len, second_draw, out=step_len, where=(w >= t1) & (w < t2))
    step_len[w >= t_draw] = 1
    return step_len.tobytes()


def _walk(step_len: bytes, n: int) -> np.ndarray:
    """Stream positions of the first ``n`` step starts, from position 0,
    written into an int64 array ``_WALK_CHUNK`` steps at a time."""
    starts = np.empty(n, dtype=np.int64)
    pos = 0
    for lo in range(0, n, _WALK_CHUNK):
        chunk = []
        append = chunk.append
        for _ in range(min(_WALK_CHUNK, n - lo)):
            append(pos)
            pos += step_len[pos]
        starts[lo : lo + len(chunk)] = chunk
    return starts


def _read_draws(u: np.ndarray, pos: np.ndarray, p: float) -> tuple[np.ndarray, ...]:
    """What the endpoint draws that start at stream positions ``pos`` read
    from the stream: whether each is degree-proportional (first uniform
    below ``p``), its offset test uniform and its pick uniform (the third
    uniform of a proportional draw, the second of a uniform one)."""
    proportional = u[pos] < p
    test = u[pos + 1]
    pick = np.where(proportional, u[pos + 2], test)
    return proportional, test, pick


def _endpoints(draws, steps, nodes, delta, value) -> np.ndarray:
    """Resolve the endpoint draws ``draws`` (from :func:`_read_draws`) of the
    0-based steps ``steps`` into ``value``, which holds the seed edge's
    endpoint in slot 0 and step ``k``'s in slot ``k + 1``.

    A uniform-node draw writes its node id; a degree-mass draw copies the
    endpoint of an earlier edge (0 is the seed edge, k is step k), which is
    found by pointer jumping."""
    proportional, test, pick = draws
    slots = steps + 1
    v = nodes[steps].astype(np.float64)
    mass = slots.astype(np.float64)  # edges in the graph before the step
    dv = delta * v
    uniform = ~proportional | (test * (mass + dv) < dv)
    value[slots] = np.where(uniform, (pick * v).astype(np.int64) + 1, 0)
    jump = np.zeros(len(value), dtype=np.int64)
    jump[slots] = (pick * mass).astype(np.int64)
    del slots, v, mass, dv, uniform
    return _resolve(value, jump)


def _resolve(value: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """Resolve in place the edge endpoints ``value``, where a 0 copies the
    endpoint of edge ``jump``, an earlier edge, by pointer jumping."""
    pending = np.flatnonzero(value == 0)
    while pending.size:
        nxt = jump[pending]
        found = value[nxt]
        hit = found > 0
        value[pending[hit]] = found[hit]
        pending = pending[~hit]
        jump[pending] = jump[nxt[~hit]]
    return value


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
    ``per_replicate``.  One worker runs them in this process; more run in a
    pool of at most ``r`` processes, whose results come back through files
    (:func:`_result_to_file`) in one temporary directory per call."""
    if r < 1:
        raise ValueError(f"replicate count must be >= 1, got {r}")
    if worker_count < 1:
        raise ValueError(f"worker count must be >= 1, got {worker_count}")
    configs = [replace(config, seed=s) for s in replicate_seeds(config.seed, r)]
    workers = min(worker_count, r)
    if workers == 1:
        return list(map(fn, configs, *per_replicate))
    # imported here: the pool's modules are slow to import and most runs need none
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    chunk = max(1, r // (4 * workers))
    with tempfile.TemporaryDirectory() as tmp, ProcessPoolExecutor(max_workers=workers) as pool:
        paths = [os.path.join(tmp, str(k)) for k in range(r)]
        sent = pool.map(partial(_result_to_file, fn), paths, configs, *per_replicate, chunksize=chunk)
        return [_result_from_file(path, *reply) for path, reply in zip(paths, sent)]


def _result_to_file(fn, path: str, *args) -> tuple[bytes, list[tuple[int, int]]]:
    """Run ``fn(*args)`` in a pool worker and pickle the result with its
    out-of-band buffers (the arrays' data) written to the file ``path``, each
    at a 64-byte-aligned offset.  Returns the pickle and every buffer's
    ``(offset, size)``; a result without buffers writes no file."""
    import pickle

    buffers = []
    payload = pickle.dumps(fn(*args), protocol=5, buffer_callback=buffers.append)
    spans = []
    if buffers:
        with open(path, "wb") as out:
            for buffer in buffers:
                data = buffer.raw()
                out.seek(-(-out.tell() // 64) * 64)
                spans.append((out.tell(), data.nbytes))
                out.write(data)
    return payload, spans


def _result_from_file(path: str, payload: bytes, spans: list[tuple[int, int]]):
    """The result that :func:`_result_to_file` sent: its file is mapped
    copy-on-write, so its arrays are views of the mapping and writable, and
    unlinked at once; the mapping is released with the last of those arrays."""
    import mmap
    import os
    import pickle

    if not spans:
        return pickle.loads(payload)
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        # a zero-length mmap raises: a file of empty buffers maps nothing
        view = memoryview(mmap.mmap(file.fileno(), size, access=mmap.ACCESS_COPY) if size else b"")
    os.unlink(path)
    return pickle.loads(payload, buffers=[view[o : o + n] if n else bytearray() for o, n in spans])
