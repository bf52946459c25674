import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from hybridnet import (
    EdgeLog,
    EdgeRecord,
    HybridParams,
    NetworkState,
    SimulationConfig,
    SimulationOutput,
    SufficientStats,
    classify_scenario,
    simulate,
    step_distribution,
)
from hybridnet.degrees import DegreeCounts, LimitPmf
from hybridnet.estimation import (
    _ADAPT_POINTS,
    _INITIAL_STEPS,
    EstimationResult,
    TraceEntry,
    _adapted_proposal,
    _params_from_components,
    _scenario_block,
    accept_probability,
)
from hybridnet.io import TRACE_HEADER
from hybridnet.likelihood import _kernel_log_likelihood, _kernel_upper_bound, log_likelihood


@pytest.fixture
def table1_params():
    return HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)


# parameter settings at which the array passes are checked against the loops
ORACLE_SETTINGS = {
    "table1": HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7),
    "node_heavy": HybridParams.fill_gamma(0.45, 0.1, p=0.6, delta_in=1.3, delta_out=0.7),
    "extended": HybridParams.fill_gamma(0.1, 0.7, p=0.8, delta_in=1.3, delta_out=0.7, xi=0.05, eta=0.05),
    "xi_one": HybridParams(alpha=0, beta=0, gamma=0, xi=1.0, eta=0, p=0.5, delta_in=1, delta_out=1),
    "eta_one": HybridParams(alpha=0, beta=0, gamma=0, xi=0, eta=1.0, p=0.5, delta_in=1, delta_out=1),
    "beta_zero": HybridParams.fill_gamma(0.3, 0.0, p=0.5, delta_in=1.0, delta_out=2.0),
    "p_zero": HybridParams.fill_gamma(0.3, 0.4, p=0.0, delta_in=1.0, delta_out=1.0),
    "p_one": HybridParams.fill_gamma(0.3, 0.4, p=1.0, delta_in=0.1, delta_out=5.0),
}


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
    state, log = simulate(SimulationConfig(params=params, n_edges=n_edges, seed=seed))
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

    state = NetworkState(
        node_count=nodes,
        step=config.n_edges,
        in_degree=in_degree,
        out_degree=out_degree,
        creation_step=creation,
    )
    return SimulationOutput(state, EdgeLog(records))


def reference_write_edge_log(log, path, block_rows=1 << 16):
    """The ``%``-format and f-string writer that ``io._write_edge_log``
    replaced, kept as the byte oracle of the edge-log export."""
    labelled = log.scenario != 0
    columns = [log.source, log.target, log.time]
    if labelled.all():
        columns.append(log.scenario)
    elif labelled.any():  # mixed: write a label only where there is one
        rows = zip(*(col.tolist() for col in (*columns, log.scenario)))
        path.write_text(
            "".join(f"{s} {t} {tm} {sc}\n" if sc else f"{s} {t} {tm}\n" for s, t, tm, sc in rows)
        )
        return
    if not len(log):
        path.write_text("\n")
        return
    row = " ".join(["%d"] * len(columns)) + "\n"
    table = np.column_stack(columns)
    with path.open("w") as out:
        for lo in range(0, len(table), block_rows):
            block = table[lo : lo + block_rows]
            out.write(row * len(block) % tuple(block.ravel().tolist()))


def reference_fit_mh(stats, config):
    """The per-step loop that ``fit_mh`` replaced: a fresh proposal array
    ``x + chol @ rng.standard_normal(3)`` and its uniform at every step, and
    a list of ``TraceEntry`` rows.  Kept as the oracle of the chain: same
    seed, same random stream, same decisions."""
    counts = np.array(stats.scenario_counts)
    present = counts > 0
    if not present.any():
        raise ValueError("cannot fit an empty log")
    log_delta_max = math.log(config.delta_max)
    rng = np.random.default_rng(config.seed)

    evals = 0

    def log_target(x: np.ndarray) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        ll = _kernel_log_likelihood(stats, x[0], math.exp(x[1]), math.exp(x[2]))
        if not math.isfinite(ll):
            return -math.inf, -math.inf
        return ll + x[1] + x[2], ll

    deltas = np.clip(rng.exponential(size=2), 1e-6, config.delta_max)
    x = np.array([rng.random(), *np.log(deltas)])
    chol = np.diag(_INITIAL_STEPS)
    burn_in, thinning = config.burn_in, config.thinning
    adapt_at = {round(k * burn_in / _ADAPT_POINTS) for k in range(1, _ADAPT_POINTS + 1)}
    history = np.empty((burn_in, 3))
    n_kept = config.iterations // thinning
    kernel = np.empty((n_kept, 3))  # kept (p, delta_in, delta_out)
    kept_ll = np.empty(n_kept)
    accepts = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lp, ll = log_target(x)
        for t in range(1, burn_in + config.iterations + 1):
            proposal = x + chol @ rng.standard_normal(3)
            u = rng.random()
            p, log_delta_in, log_delta_out = proposal
            accepted = False
            if 0.0 <= p <= 1.0 and log_delta_in <= log_delta_max and log_delta_out <= log_delta_max:
                bound = _kernel_upper_bound(stats, p, math.exp(log_delta_in), math.exp(log_delta_out))
                if u < accept_probability(lp, bound + log_delta_in + log_delta_out):
                    lpp, llp = log_target(proposal)
                    accepted = u < accept_probability(lp, lpp)
            if accepted:
                x, lp, ll = proposal, lpp, llp
            if t <= burn_in:
                history[t - 1] = x
                if t in adapt_at:
                    chol = _adapted_proposal(history[t // 2 : t], chol)
                continue
            accepts += accepted
            kept, rest = divmod(t - burn_in, thinning)
            if rest == 0:
                kernel[kept - 1, 0] = x[0]
                kernel[kept - 1, 1:] = np.exp(x[1:])
                kept_ll[kept - 1] = ll

        probs = np.zeros((n_kept, 5))
        probs[:, present] = rng.dirichlet(counts[present] + 1.0, size=n_kept)
        scenario_ll = (np.log(probs[:, present]) * counts[present]).sum(axis=1)
    draws = np.hstack([probs, kernel])
    iterations = range(burn_in + thinning, burn_in + n_kept * thinning + 1, thinning)
    rows = zip(*draws.T.tolist())
    trace = [
        TraceEntry(t, _params_from_components(row), s + ll)
        for t, row, s, ll in zip(iterations, rows, scenario_ll.tolist(), kept_ll.tolist())
    ]
    summary = np.mean(draws, axis=0)
    summary[:5] /= summary[:5].sum()
    point = _params_from_components(summary)
    return EstimationResult(
        point=point,
        converged=True,
        log_likelihood=log_likelihood(stats, point),
        trace=trace,
        acceptance_rate=accepts / config.iterations,
        diagnostics={"likelihood_evals": evals + 1},
    )


def _reference_cell(x) -> str:
    if isinstance(x, bool):
        raise TypeError("no boolean cells in exports")
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def reference_write_rows(rows, header, path, format):
    """The per-cell writer of whole row lists that the block writer
    ``io._write_rows`` replaced, kept as the byte oracle of every row
    export: CSV cells by ``str`` and ``format(x, ".17g")``, JSON as one
    ``json.dumps`` of all rows."""
    if format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_reference_cell(c) for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def reference_export(obj, path, format):
    """The row lists that ``io.export`` built for curves, ``DegreeCounts``,
    ``LimitPmf`` and sampler traces before it passed columns, written by
    ``reference_write_rows``: the byte oracle of those exports."""
    if isinstance(obj, EstimationResult):
        reference_write_trace(obj, path, format)
        return
    if isinstance(obj, DegreeCounts):
        degrees = sorted(set(obj.in_counts) | set(obj.out_counts))
        rows = [(m, obj.in_counts.get(m, 0), obj.out_counts.get(m, 0)) for m in degrees]
        header = ("m", "n_in", "n_out")
    elif isinstance(obj, LimitPmf):
        rows = [
            (m, float(obj.psi_in[m]), float(obj.psi_out[m])) for m in range(obj.truncation_m + 1)
        ]
        header = ("m", "psi_in", "psi_out")
    else:
        rows = [(int(m), float(v)) for m, v in obj]
        header = ("m", "value")
    reference_write_rows(rows, header, path, format)


def reference_write_trace(result, path, format):
    """The loop over ``TraceEntry`` rows that ``io._write_trace`` replaced,
    kept as the byte oracle of the trace export."""
    rows = []
    for entry in result.trace:
        th = entry.params
        rows.append(
            (
                entry.iteration,
                th.alpha,
                th.beta,
                th.gamma,
                th.xi,
                th.eta,
                th.p,
                th.delta_in,
                th.delta_out,
                entry.log_posterior,
            )
        )
    reference_write_rows(rows, TRACE_HEADER, path, format)


def reference_replay(log, seeded=True):
    """The per-record dict loop that ``replay`` replaced, kept as its
    bit-identity oracle (values and error messages)."""
    scenario = []
    d_in = []
    d_out = []
    v_count = []
    in_deg = {}
    out_deg = {}
    if seeded:
        in_deg[1] = 1
        out_deg[1] = 1
    prev_time = None

    columns = (log.source, log.target, log.time, log.scenario)
    for k, (source, target, time, label) in enumerate(zip(*(col.tolist() for col in columns))):
        if prev_time is not None and time < prev_time:
            raise ValueError(f"record {k}: timestamps decrease ({time} after {prev_time})")
        prev_time = time
        sc = classify_scenario(in_deg, EdgeRecord(source, target, time))
        if label and label != sc:
            raise ValueError(
                f"record {k}: scenario label {label} inconsistent with "
                f"replayed classification {sc} (endpoint never appeared?)"
            )
        scenario.append(sc)
        v_count.append(len(in_deg))
        d_in.append(in_deg[target] if sc <= 2 else -1)
        d_out.append(out_deg[source] if 2 <= sc <= 3 else -1)
        for node in (source, target):
            if node not in in_deg:
                in_deg[node] = 0
                out_deg[node] = 0
        in_deg[target] += 1
        out_deg[source] += 1

    return SufficientStats(
        scenario=np.array(scenario, dtype=np.int8),
        target_in_degree=np.array(d_in, dtype=np.int64),
        source_out_degree=np.array(d_out, dtype=np.int64),
        node_count=np.array(v_count, dtype=np.int64),
        mass=np.arange(len(scenario), dtype=np.int64) + (1 if seeded else 0),
        seeded=seeded,
    )


def reference_end_stream(source, target):
    """The endpoint-stream sort as int64 arrays throughout, by one
    ``np.argsort(kind="stable")``: the construction ``model._end_stream``
    replaced, kept as its oracle (the fields ``order``, ``ranked``,
    ``group`` and ``start``)."""
    ends = np.empty(2 * len(source), dtype=np.int64)
    ends[0::2] = source
    ends[1::2] = target
    order = np.argsort(ends, kind="stable")
    ranked = ends[order]
    head = np.ones(ranked.shape, dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    return order, ranked, np.cumsum(head) - 1, np.flatnonzero(head)


def _reference_direction_arrays(stats, scenarios, degree):
    sel = (stats.scenario == scenarios[0]) | (stats.scenario == scenarios[1])
    d = degree[sel].astype(float)
    v = stats.node_count[sel].astype(float)
    k = stats.mass[sel].astype(float)
    return d, v, k, float(np.log(v).sum())


def reference_kernel_log_likelihood(stats, p, delta_in, delta_out):
    """The two-pass kernel log-likelihood that the one-array evaluation
    replaced: per direction, sum log((p d + delta) v + (1 - p) k) minus
    sum log v and sum log(k + v delta).  Kept as its oracle."""
    ll = 0.0
    for scenarios, degree, delta in (
        ((1, 2), stats.target_in_degree, delta_in),
        ((2, 3), stats.source_out_degree, delta_out),
    ):
        d, v, k, log_v_sum = _reference_direction_arrays(stats, scenarios, degree)
        if d.size:
            ll += float(np.log((p * d + delta) * v + (1.0 - p) * k).sum())
            ll -= log_v_sum + float(np.log(k + v * delta).sum())
    return ll


def reference_score(stats, theta):
    """The two-pass analytic score in (delta_in, delta_out, p) that the
    one-array evaluation replaced.  Kept as its oracle."""
    p = theta.p
    grad = np.zeros(3)
    for i, scenarios, degree, delta in (
        (0, (1, 2), stats.target_in_degree, theta.delta_in),
        (1, (2, 3), stats.source_out_degree, theta.delta_out),
    ):
        d, v, k, _ = _reference_direction_arrays(stats, scenarios, degree)
        if d.size:
            denom = (p * d + delta) * v + (1.0 - p) * k
            grad[i] = float((v / denom).sum() - (v / (k + v * delta)).sum())
            grad[2] += float(((d * v - k) / denom).sum())
    return grad


_CLIP = 500.0  # transformed-coordinate clamp; exp(+-500) stays representable
_PROB_EPS = 1e-9
_MAX_RESTARTS = 10


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, _CLIP)))
    z = math.exp(max(x, -_CLIP))
    return z / (1.0 + z)


def _logit(p: float) -> float:
    p = min(max(p, _PROB_EPS), 1.0 - _PROB_EPS)
    return math.log(p / (1.0 - p))


def _kernel(x: np.ndarray) -> tuple[float, float, float]:
    """(p, delta_in, delta_out) from the search coordinates
    (logit p, log delta_in, log delta_out)."""
    log_deltas = np.clip(x[1:], -_CLIP, _CLIP)
    return _sigmoid(float(x[0])), math.exp(float(log_deltas[0])), math.exp(float(log_deltas[1]))


def reference_nelder_mead(stats, config, scale=0.25):
    """The restarted Nelder-Mead simplex search that the Newton ascent of
    ``fit_nelder_mead`` replaced, kept as its optimum oracle.  ``scale``
    spreads the initial simplex per search coordinate (a scalar is
    broadcast to 3); ``config`` is read for the start and the tolerances.

    The scenario block is fixed at its exact separable maximum (the
    empirical frequencies), and the search runs over the three kernel
    coordinates (logit p, log delta_in, log delta_out), so every candidate
    satisfies the parameter constraints by construction.  Only ``p``,
    ``delta_in`` and ``delta_out`` of the initial point are read.
    Exhaustion of the iteration budget or a collapsed simplex is reported as
    ``converged=False`` rather than an exception.
    """
    probs, boundary = _scenario_block(stats)

    def neg_ll(x: np.ndarray) -> float:
        # the scenario term is constant during the search, so it is left out
        val = _kernel_log_likelihood(stats, *_kernel(x))
        return -val if math.isfinite(val) else 1e300

    start = config.initial_point
    x0 = np.array([_logit(start.p), math.log(start.delta_in), math.log(start.delta_out)])
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (3,))
    simplex = np.vstack([x0, x0 + np.diag(scale)])
    # The likelihood carries a flat ridge in (p, delta_in, delta_out); a single
    # simplex pass can collapse on it.  Restart from the incumbent until the
    # objective stops improving (standard stabilisation, bounded restarts).
    res = None
    total_nit = total_nfev = 0
    for restart in range(_MAX_RESTARTS):
        attempt = minimize(
            neg_ll,
            x0 if res is None else res.x,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iters,
                "maxfev": 2 * config.max_iters,
                "fatol": config.f_tol,
                "xatol": config.x_tol,
                "adaptive": True,
                **({"initial_simplex": simplex} if res is None else {}),
            },
        )
        total_nit += attempt.nit
        total_nfev += attempt.nfev
        if res is not None and res.fun - attempt.fun <= config.f_tol:
            if attempt.fun < res.fun:
                res = attempt
            break
        if res is None or attempt.fun < res.fun:
            res = attempt
    point = _params_from_components((*probs, *_kernel(res.x)))
    diagnostics = {
        "iterations": total_nit,
        "function_evals": total_nfev,
        "restarts": restart,
        "message": str(res.message),
    }
    if boundary:
        diagnostics["boundary"] = "a scenario frequency sits on the regularity boundary"
    return EstimationResult(
        point=point,
        converged=bool(res.success) and not boundary,
        log_likelihood=log_likelihood(stats, point),
        diagnostics=diagnostics,
    )
