"""Core types and edge-creation kernels for hybrid attachment networks.

A network starts from a single self-looped node and grows by one directed
edge per step.  Each step falls into one of five scenarios: a new source
node attaching to an existing target (probability ``alpha``), an edge
between two existing nodes (``beta``), an existing source attaching to a
new target (``gamma``), a fresh self-looped node (``xi``), or two fresh
nodes joined by one edge (``eta``).  Endpoint selection mixes a
degree-proportional draw (weight ``p``) with a uniform draw over existing
nodes (weight ``1 - p``); the offsets ``delta_in``/``delta_out`` smooth the
degree-proportional part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

_SIMPLEX_TOL = 1e-12
_ROW_BLOCK = 4096  # rows converted to Python values at a time by iteration and exports


class EdgeRecord(NamedTuple):
    """One observed edge: directed source -> target at an integer time."""

    source: int
    target: int
    time: int
    scenario: int | None = None


@dataclass(frozen=True)
class HybridParams:
    """Model parameter vector (alpha, beta, gamma, p, delta_in, delta_out)
    plus the optional extended-scenario probabilities (xi, eta).

    The five scenario probabilities must sum to one.  ``alpha``, ``beta``
    and ``gamma`` must each be strictly below one so that no single base
    scenario is certain (the estimation regularity condition); degenerate
    ``xi = 1`` or ``eta = 1`` settings are permitted.
    """

    alpha: float
    beta: float
    gamma: float
    p: float
    delta_in: float
    delta_out: float
    xi: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        probs = (self.alpha, self.beta, self.gamma, self.xi, self.eta)
        if any(not math.isfinite(q) or q < 0.0 for q in probs):
            raise ValueError(f"scenario probabilities must be finite and >= 0, got {probs}")
        total = self.alpha + self.beta + self.gamma + self.xi + self.eta
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"scenario probabilities must sum to 1, got {total!r}")
        if self.alpha >= 1.0 or self.beta >= 1.0 or self.gamma >= 1.0:
            raise ValueError(
                "regularity requires alpha < 1, beta < 1 and gamma < 1 "
                f"(got alpha={self.alpha}, beta={self.beta}, gamma={self.gamma})"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        for name, d in (("delta_in", self.delta_in), ("delta_out", self.delta_out)):
            if not (d > 0.0 and math.isfinite(d)):
                raise ValueError(f"{name} must be positive and finite, got {d}")

    @classmethod
    def fill_gamma(cls, alpha, beta, p, delta_in, delta_out, xi=0.0, eta=0.0):
        """Build a parameter vector with gamma set to the remaining mass."""
        return cls(
            alpha=alpha,
            beta=beta,
            gamma=1.0 - alpha - beta - xi - eta,
            p=p,
            delta_in=delta_in,
            delta_out=delta_out,
            xi=xi,
            eta=eta,
        )

    @property
    def is_extended(self) -> bool:
        return self.xi > 0.0 or self.eta > 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "xi": self.xi,
            "eta": self.eta,
            "p": self.p,
            "delta_in": self.delta_in,
            "delta_out": self.delta_out,
        }


@dataclass(frozen=True)
class DerivedConstants:
    """Limit-theory constants implied by a parameter vector.

    ``c1``/``c2`` are the n^c growth exponents of a fixed node's in- and
    out-degree.  ``delta_in_tilde``/``delta_out_tilde`` are the effective
    offsets under which the hybrid network's degree limits match a pure
    degree-proportional network, and ``rate_in``/``rate_out`` are the rates
    of the exponential clocks in the limiting degree distribution.  At
    ``p = 0`` the effective offsets and rates do not exist; they are
    reported as ``math.inf`` sentinels.
    """

    c1: float
    c2: float
    delta_in_tilde: float
    delta_out_tilde: float
    rate_in: float
    rate_out: float


def derived_constants(params: HybridParams) -> DerivedConstants:
    """Compute the growth exponents, effective offsets and clock rates."""
    a, b, g, p = params.alpha, params.beta, params.gamma, params.p
    din, dout = params.delta_in, params.delta_out
    c1 = (a + b) * p / (1.0 + din * (1.0 - b))
    c2 = (b + g) * p / (1.0 + dout * (1.0 - b))
    if p == 0.0:
        return DerivedConstants(c1, c2, math.inf, math.inf, math.inf, math.inf)
    din_t = din / p + (1.0 - p) / (p * (1.0 - b))
    dout_t = dout / p + (1.0 - p) / (p * (1.0 - b))
    rate_in = (1.0 + din * (1.0 - b)) / (p * (a + b)) if a + b > 0.0 else math.inf
    rate_out = (1.0 + dout * (1.0 - b)) / (p * (b + g)) if b + g > 0.0 else math.inf
    return DerivedConstants(c1, c2, din_t, dout_t, rate_in, rate_out)


@dataclass(eq=False)
class NetworkState:
    """Degree bookkeeping for an evolved network.

    ``step`` counts edges added after the seed self-loop, so the total
    in-degree (and out-degree) mass equals ``step + 1``.  Node ids are
    dense 1-based integers in creation order; ``creation_step[i - 1]`` is
    the step at which node ``i`` appeared (0 for the seed node).  The three
    per-node sequences are held as int64 arrays; lists are converted on
    construction.  Two states are equal when their counts and all three
    arrays are.
    """

    node_count: int
    step: int
    in_degree: np.ndarray
    out_degree: np.ndarray
    creation_step: np.ndarray

    def __post_init__(self):
        self.in_degree = np.asarray(self.in_degree, dtype=np.int64)
        self.out_degree = np.asarray(self.out_degree, dtype=np.int64)
        self.creation_step = np.asarray(self.creation_step, dtype=np.int64)

    @classmethod
    def seed(cls) -> "NetworkState":
        """The initial network: a single self-looped node labelled 1."""
        return cls(node_count=1, step=0, in_degree=[1], out_degree=[1], creation_step=[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkState):
            return NotImplemented
        return (self.node_count, self.step) == (other.node_count, other.step) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("in_degree", "out_degree", "creation_step")
        )

    def check_consistency(self) -> None:
        """Raise if the degree mass or array lengths are out of sync."""
        if self.node_count < 1:
            raise ValueError("state must contain at least the seed node")
        lens = (len(self.in_degree), len(self.out_degree), len(self.creation_step))
        if lens != (self.node_count,) * 3:
            raise ValueError(f"degree arrays {lens} inconsistent with node_count={self.node_count}")
        mass = self.step + 1
        mass_in, mass_out = int(self.in_degree.sum()), int(self.out_degree.sum())
        if mass_in != mass or mass_out != mass:
            raise ValueError(
                f"degree mass must equal step+1={mass}, got in={mass_in}, out={mass_out}"
            )


class EdgeLog:
    """Edge records as four numpy columns, sorted by time (ties keep input order).

    ``source``, ``target`` and ``time`` are int64 arrays; ``scenario`` is an
    int8 array in which 0 means unlabelled.  Producers build a log straight
    from the columns with :meth:`from_columns`; ``EdgeLog(records)`` builds
    one from :class:`EdgeRecord` rows and rejects integers outside int64.
    ``len``, iteration, integer indexing and :attr:`records` present the rows
    as ``EdgeRecord`` values, with scenario ``None`` for 0; iteration
    converts the columns ``_ROW_BLOCK`` rows at a time.
    """

    __slots__ = ("source", "target", "time", "scenario")

    def __init__(self, records: Iterable[EdgeRecord] = ()):
        rows = list(records)
        source, target, time, scenario = zip(*rows) if rows else ((), (), (), ())
        try:
            self._set_columns(
                np.array(source, dtype=np.int64),
                np.array(target, dtype=np.int64),
                np.array(time, dtype=np.int64),
                np.array([0 if sc is None else sc for sc in scenario], dtype=np.int8),
            )
        except OverflowError as exc:
            raise ValueError(f"edge record field out of range: {exc}") from exc

    @classmethod
    def from_columns(cls, source, target, time, scenario=None) -> "EdgeLog":
        """Wrap columns without copying those that already have the right dtype;
        ``scenario=None`` leaves every record unlabelled."""
        log = cls.__new__(cls)
        time = np.asarray(time, dtype=np.int64)
        if scenario is None:
            scenario = np.zeros(time.shape, dtype=np.int8)
        log._set_columns(
            np.asarray(source, dtype=np.int64),
            np.asarray(target, dtype=np.int64),
            time,
            np.asarray(scenario, dtype=np.int8),
        )
        return log

    def _set_columns(self, source, target, time, scenario) -> None:
        shapes = {col.shape for col in (source, target, time, scenario)}
        if len(shapes) != 1 or source.ndim != 1:
            raise ValueError(f"edge log columns must be 1-d and of one length, got {shapes}")
        self.source, self.target, self.time, self.scenario = source, target, time, scenario

    def __len__(self) -> int:
        return int(self.time.shape[0])

    def __iter__(self) -> Iterator[EdgeRecord]:
        for s, t, tm, sc in _row_blocks((self.source, self.target, self.time, self.scenario)):
            yield from map(EdgeRecord, s, t, tm, [label or None for label in sc])

    def __getitem__(self, idx: int) -> EdgeRecord:
        sc = int(self.scenario[idx])
        return EdgeRecord(int(self.source[idx]), int(self.target[idx]), int(self.time[idx]), sc or None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLog):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.__slots__)

    def __repr__(self) -> str:
        return f"EdgeLog(<{len(self)} records>)"

    @property
    def records(self) -> list[EdgeRecord]:
        return list(self)


def _row_blocks(columns) -> Iterator[list[list]]:
    """The columns' values as Python lists, ``_ROW_BLOCK`` rows at a time, so
    that no more than one block of each column is converted at once; a 2-d
    column gives a list of row lists."""
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        yield [col[lo : lo + _ROW_BLOCK].tolist() for col in columns]


def _check_node(state: NetworkState, node: int) -> None:
    if state.node_count < 1:
        raise ValueError("empty state")
    if not 1 <= node <= state.node_count:
        raise ValueError(f"unknown node id {node} (state has {state.node_count} nodes)")


def attach_prob_in(state: NetworkState, i: int, params: HybridParams) -> float:
    """Probability that node ``i`` is selected as the target of the next edge,
    conditional on an in-kernel draw being made.

    The degree-proportional part uses total mass ``state.step + 1`` (the
    number of edges currently in the graph, seed included).
    """
    _check_node(state, i)
    mass = state.step + 1
    degree = int(state.in_degree[i - 1])
    pa = (degree + params.delta_in) / (mass + params.delta_in * state.node_count)
    return params.p * pa + (1.0 - params.p) / state.node_count


def attach_prob_out(state: NetworkState, j: int, params: HybridParams) -> float:
    """Out-degree analogue of :func:`attach_prob_in` for source selection."""
    _check_node(state, j)
    mass = state.step + 1
    degree = int(state.out_degree[j - 1])
    pa = (degree + params.delta_out) / (mass + params.delta_out * state.node_count)
    return params.p * pa + (1.0 - params.p) / state.node_count


def step_distribution(
    state: NetworkState, params: HybridParams
) -> dict[tuple[int, int, int], float]:
    """Full conditional distribution of the next evolution step.

    Returns a mapping ``(scenario, source, target) -> probability`` over
    every possible outcome.  Fresh nodes are materialised with the ids they
    would receive: ``node_count + 1`` (and ``node_count + 2`` when two nodes
    appear at once).  The masses sum to one.

    Intended for exact enumeration on small states; the per-edge cost is
    quadratic in the node count because of the both-existing scenario.
    """
    _check_node(state, 1)
    nodes = range(1, state.node_count + 1)
    p_in = [attach_prob_in(state, i, params) for i in nodes]
    p_out = [attach_prob_out(state, j, params) for j in nodes]
    new1 = state.node_count + 1
    new2 = state.node_count + 2

    dist: dict[tuple[int, int, int], float] = {}
    if params.alpha > 0.0:
        for i in nodes:
            dist[(1, new1, i)] = params.alpha * p_in[i - 1]
    if params.beta > 0.0:
        for j in nodes:
            for i in nodes:
                dist[(2, j, i)] = params.beta * p_out[j - 1] * p_in[i - 1]
    if params.gamma > 0.0:
        for j in nodes:
            dist[(3, j, new1)] = params.gamma * p_out[j - 1]
    if params.xi > 0.0:
        dist[(4, new1, new1)] = params.xi
    if params.eta > 0.0:
        dist[(5, new1, new2)] = params.eta
    return dist


def classify_scenario(previous_nodes: Iterable[int], record: EdgeRecord) -> int:
    """Recover the scenario label of a record from endpoint novelty.

    ``previous_nodes`` is the vertex set before the record's edge was added.
    """
    known = previous_nodes if hasattr(previous_nodes, "__contains__") else set(previous_nodes)
    source, target = record.source, record.target
    if source < 1 or target < 1:
        raise ValueError(f"node ids must be positive, got {source}, {target}")
    src_new = source not in known
    tgt_new = target not in known
    if not src_new:
        return 3 if tgt_new else 2
    if not tgt_new:
        return 1
    return 4 if source == target else 5


class _EndStream(NamedTuple):
    """The interleaved endpoint stream ``s0, t0, s1, t1, ...`` of an edge log,
    stably sorted once.  ``order`` is the sort permutation and ``ranked`` the
    sorted ids; ``group[i]`` is the dense id (rank among the distinct ids) of
    sorted entry ``i`` and ``start[g]`` the sorted index of id ``g``'s first
    entry, so ``order[start]`` holds each id's first stream position."""

    order: np.ndarray
    ranked: np.ndarray
    group: np.ndarray
    start: np.ndarray


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for an integer array, by numpy's
    radix sort where the keys allow it.

    numpy sorts 16-bit keys stably by one radix pass, where wider integers
    get a comparison sort (timsort).  Keys whose span ``max - min`` is
    below 2**16 are shifted by their minimum into uint16 and sorted in one
    pass.  Spans below 2**32 are shifted into uint32 and sorted in two
    stable passes, on the low 16 bits and then on the high 16 bits, so that
    the second pass keeps the first pass's order among equal high halves.
    Wider spans fall back to the comparison sort.  The span is computed
    with Python ints, so that keys near the int64 extremes cannot overflow
    it; the shifted keys then fit their unsigned type exactly."""
    if not keys.size:
        return np.argsort(keys, kind="stable")
    low = int(keys.min())
    span = int(keys.max()) - low
    if span >= 1 << 32:
        return np.argsort(keys, kind="stable")
    if span < 1 << 16:
        return np.argsort((keys - low).astype(np.uint16), kind="stable")
    shifted = (keys - low).astype(np.uint32)
    order = np.argsort(shifted.astype(np.uint16), kind="stable")  # the low halves
    high = np.right_shift(shifted, 16, out=shifted).astype(np.uint16)
    del shifted  # freed before the second pass
    high = high[order]
    return order[np.argsort(high, kind="stable")]


def _index_dtype(size: int) -> type:
    """The dtype of positions into an array of ``size`` entries: int32
    while they fit it, int64 beyond."""
    return np.int32 if size < 1 << 31 else np.int64


def _end_stream(source: np.ndarray, target: np.ndarray) -> _EndStream:
    """Sort the endpoint stream once.  ``order``, ``group`` and ``start``
    hold stream positions, in the stream's index dtype (``_index_dtype``);
    ``ranked`` holds node ids, as int64.  Each temporary is freed once read,
    so that the pass holds few stream-length arrays at once."""
    ends = np.empty(2 * source.shape[0], dtype=np.int64)
    ends[0::2] = source
    ends[1::2] = target
    idx = _index_dtype(ends.shape[0])
    order = _stable_order(ends).astype(idx, copy=False)  # equal ids keep stream order
    ranked = ends[order]
    del ends
    head = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    group = np.cumsum(head, dtype=idx)
    group -= 1
    return _EndStream(order, ranked, group, np.flatnonzero(head).astype(idx, copy=False))


class _Novelty(NamedTuple):
    """The novelty pass over an edge log: its sorted endpoint stream, the
    stream positions where an id first appears (not the seed node's), and
    each record's scenario."""

    stream: _EndStream
    fresh: np.ndarray
    scenario: np.ndarray


# scenario by 2 * (source new) + (target new), plus 1 for a fresh self-loop
_SCENARIO_BY_NOVELTY = np.array([2, 3, 1, 5, 4], dtype=np.int8)


def _novelty_pass(log: EdgeLog, seeded: bool, check_order: bool = False) -> _Novelty:
    """Replay node novelty over the whole log in array passes.

    With ``seeded=True`` node 1 exists before the first record.  Node ids
    must be positive; ``check_order`` also requires nondecreasing
    timestamps and scenario labels that match the replayed ones.  The first
    failing record raises ``ValueError``; within one record the checks run
    in the order time, ids, label.
    """
    source, target = log.source, log.target
    stream = _end_stream(source, target)
    order, ranked, _, start = stream
    fresh = np.zeros(order.shape, dtype=bool)
    fresh[order[start]] = True
    seed = np.searchsorted(ranked, 1) if seeded else len(ranked)
    if seed < len(ranked) and ranked[seed] == 1:
        fresh[order[seed]] = False  # the seed node exists before the first record
    src_new, tgt_new = fresh[0::2], fresh[1::2]
    fresh_loop = src_new & (source == target)
    scenario = _SCENARIO_BY_NOVELTY[2 * src_new.astype(np.int8) + (tgt_new | fresh_loop) + fresh_loop]
    _check_records(log, scenario, check_order)
    return _Novelty(stream, fresh, scenario)


def _counts_before(
    log: EdgeLog, novelty: _Novelty, seeded: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex count, the target's in-degree and the source's out-degree
    just before each record (the seed self-loop included when seeded)."""
    order, _, group, start = novelty.stream
    fresh = novelty.fresh
    n = len(log)
    node_count = np.zeros(n, dtype=np.int64)
    np.cumsum((fresh[0::2] + fresh[1::2].astype(np.int64))[:-1], out=node_count[1:])
    # Per sorted entry: how many earlier entries of its id are targets (odd
    # stream positions).  ``targets[start][group]`` is the count before the
    # entry's id starts.
    is_target = order & 1
    targets = np.cumsum(is_target, dtype=order.dtype)
    targets -= is_target
    del is_target
    targets -= targets[start][group]
    rank = np.empty_like(order)  # the sorted index of every stream position
    rank[order] = np.arange(2 * n, dtype=order.dtype)
    src_rank = rank[0::2].copy()
    in_degree = targets[rank[1::2]]
    del rank
    # the source's earlier entries of its id, less those that are targets
    before = start[group[src_rank]]
    before += targets[src_rank]
    del targets
    src_rank -= before
    del before
    in_degree, out_degree = in_degree.astype(np.int64), src_rank.astype(np.int64)
    if seeded:
        node_count += 1
        in_degree += log.target == 1
        out_degree += log.source == 1
    return node_count, in_degree, out_degree


def _check_records(log: EdgeLog, scenario: np.ndarray, check_order: bool) -> None:
    source, target, time, label = log.source, log.target, log.time, log.scenario
    failures = [(_first_true((source < 1) | (target < 1)), 1)]
    if check_order:
        failures.append((_first_true(time[1:] < time[:-1]) + 1, 0))
        failures.append((_first_true((label != 0) & (label != scenario)), 2))
    k, check = min(failures)
    if k >= len(log):
        return
    if check == 0:
        raise ValueError(f"record {k}: timestamps decrease ({time[k]} after {time[k - 1]})")
    if check == 1:
        raise ValueError(f"node ids must be positive, got {source[k]}, {target[k]}")
    raise ValueError(
        f"record {k}: scenario label {label[k]} inconsistent with "
        f"replayed classification {scenario[k]} (endpoint never appeared?)"
    )


def _first_true(mask: np.ndarray) -> int:
    """Index of the first true entry, or the length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.shape[0]


def classify_edge_log(log: EdgeLog, seeded: bool = True) -> list[int]:
    """Scenario labels for every record, from node novelty in record order.

    With ``seeded=True`` the vertex set starts as ``{1}`` (the seed node);
    otherwise it starts empty, as for a real-data window that carries no
    seed edge.  A non-positive id raises ``ValueError``.  This is the array
    pass that ``likelihood.replay`` runs, without its timestamp and label
    checks.
    """
    return _novelty_pass(log, seeded).scenario.tolist()
