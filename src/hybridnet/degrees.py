"""Empirical degree statistics and the limiting degree distribution.

The limiting fractions of nodes with a given in- or out-degree are mixtures
of negative binomial laws whose success parameter is driven by an
exponential clock.  The closed form integrates the clock into a pmf that
obeys a two-term ratio recurrence, pmf(0) = rate / (rate + r) and
pmf(m + 1) / pmf(m) = (r + m) / (rate + r + m + 1), evaluated as a running
sum of ``log1p`` terms (numpy only).  Against a 40-digit evaluation of the
same recurrence its relative error stays below 4e-12 up to m = 204,800 in
the Table-1 and node-heavy settings, where the log-gamma/log-beta form
errs by up to 1.2e-9.  An independent Gauss-Legendre quadrature of the
mixture (log-gamma by ``math.lgamma``) is provided as an oracle; tests
certify their agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DerivedConstants, HybridParams, NetworkState, derived_constants

_MASS_TOL = 1e-8
_TRUNCATION_CAP = 1 << 21


@dataclass(frozen=True)
class DegreeCounts:
    """Histograms of in- and out-degrees of one network snapshot."""

    in_counts: dict[int, int]
    out_counts: dict[int, int]
    n_nodes: int
    n_edges: int


def degree_counts(state: NetworkState) -> DegreeCounts:
    """Exact degree histograms of a network state."""
    return degree_counts_from_arrays(
        state.in_degree, state.out_degree, state.node_count, state.step + 1
    )


def degree_counts_from_arrays(in_degree, out_degree, n_nodes, n_edges) -> DegreeCounts:
    """Degree histograms of per-node degree sequences (lists or integer arrays)."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return DegreeCounts(
        in_counts=_histogram(in_degree),
        out_counts=_histogram(out_degree),
        n_nodes=n_nodes,
        n_edges=n_edges,
    )


def _histogram(degrees) -> dict[int, int]:
    counts = np.bincount(np.asarray(degrees, dtype=np.int64))
    seen = np.flatnonzero(counts)
    return dict(zip(seen.tolist(), counts[seen].tolist()))


def ccdf(counts: DegreeCounts, direction: str = "in") -> list[tuple[int, float]]:
    """Empirical tail curve ``(m, N_{>m} / n_nodes)``.

    The returned values are strictly positive and nonincreasing; the curve
    stops just below the maximum degree (where the strict tail empties).
    """
    cmap = _direction(counts, direction)
    if not cmap or counts.n_nodes < 1:
        raise ValueError("empty degree counts")
    tail = counts.n_nodes
    curve = []
    for m in range(max(cmap)):
        tail -= cmap.get(m, 0)
        if tail <= 0:
            break
        curve.append((m, tail / counts.n_nodes))
    return curve


def strict_tail_fractions(counts: DegreeCounts, direction: str = "in") -> np.ndarray:
    """``N_{>m} / n_edges`` for m = 0 .. max_degree - 1 (zero afterwards)."""
    cmap = _direction(counts, direction)
    if not cmap:
        raise ValueError("empty degree counts")
    max_deg = max(cmap)
    hist = np.zeros(max_deg + 1)
    for m, c in cmap.items():
        hist[m] = c
    n_gt = counts.n_nodes - np.cumsum(hist)[:-1]
    return n_gt / counts.n_edges


def _direction(counts: DegreeCounts, direction: str) -> dict[int, int]:
    if direction == "in":
        return counts.in_counts
    if direction == "out":
        return counts.out_counts
    raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")


def nb_pmf(r: float, q: float, m: int) -> float:
    """Negative binomial pmf ``Gamma(r+m)/(Gamma(r) m!) * q^r * (1-q)^m``.

    This is the law with probability generating function ``q^r (1 - (1-q)s)^{-r}``;
    non-integer ``r`` is supported through log-gamma.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    if m < 0:
        return 0.0
    if q == 1.0:  # all mass at 0: the (1-q)^m factor is 1 at m = 0 and 0 beyond
        return 1.0 if m == 0 else 0.0
    logp = (
        math.lgamma(r + m) - math.lgamma(r) - math.lgamma(m + 1.0)
        + r * math.log(q) + m * math.log1p(-q)
    )
    return math.exp(logp)


class _MixtureSeries:
    """The pmf of NB(r, e^{-T}) with T ~ Exp(rate) on m = 0, 1, ..., grown on
    demand.

    Integrating the exponential clock gives
    ``rate * Gamma(r+m) / (Gamma(r) m!) * B(rate + r, m + 1)``, so
    pmf(0) = rate / (rate + r) and
    pmf(m + 1) / pmf(m) = (r + m) / (rate + r + m + 1) = 1 - (rate + 1) / (rate + r + m + 1).
    The log pmf is the running sum of the ``log1p`` of those ratios; a
    longer series continues the sum where the last one stopped, so its
    values do not depend on how it was grown.
    """

    def __init__(self, r: float, rate: float):
        self.r, self.rate = r, rate
        self.pmf = np.array([rate / (rate + r)])
        self._log_last = math.log(rate / (rate + r))

    def upto(self, m_hi: int) -> np.ndarray:
        """pmf(0 .. m_hi)."""
        known = len(self.pmf)
        if m_hi >= known:
            m = np.arange(known - 1, m_hi, dtype=np.float64)  # ratio pmf(m + 1) / pmf(m)
            log_pmf = np.log1p(-(self.rate + 1.0) / (self.rate + self.r + m + 1.0))
            log_pmf[0] += self._log_last
            np.cumsum(log_pmf, out=log_pmf)
            self._log_last = float(log_pmf[-1])
            self.pmf = np.concatenate((self.pmf, np.exp(log_pmf)))
        return self.pmf[: m_hi + 1]


_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _mixture_pmf_quadrature(m: np.ndarray, r: float, rate: float) -> np.ndarray:
    """Gauss-Legendre evaluation of the same exponential mixture.

    Integrates ``rate * e^{-rate t} * nb_pmf(r, e^{-t}, m)`` over (0, t_max)
    with the truncation chosen so the discarded exponential tail is below
    1e-14, doubling the node count until two successive estimates agree
    well inside the 1e-10 certification tolerance.
    """
    m = np.asarray(m, dtype=float)[:, None]
    log_coef = np.array(
        [math.lgamma(r + k) - math.lgamma(r) - math.lgamma(k + 1.0) for k in m[:, 0].tolist()]
    )[:, None]
    t_max = -math.log(1e-14) / rate
    prev = None
    n_nodes = 128
    while True:
        if n_nodes not in _LEGGAUSS_CACHE:
            # a lazy import: only this oracle needs numpy.polynomial
            from numpy.polynomial.legendre import leggauss

            _LEGGAUSS_CACHE[n_nodes] = leggauss(n_nodes)
        x, w = _LEGGAUSS_CACHE[n_nodes]
        t = 0.5 * t_max * (x + 1.0)
        factor = 0.5 * t_max * w * rate * np.exp(-rate * t)
        q = np.exp(-t)[None, :]
        vals = np.exp(log_coef + r * np.log(q) + m * np.log1p(-q))  # q < 1 at every node
        est = vals @ factor
        if prev is not None and np.allclose(est, prev, rtol=1e-12, atol=1e-14):
            return est
        if n_nodes >= 2048:
            return est
        prev = est
        n_nodes *= 2


@dataclass(frozen=True)
class LimitPmf:
    """Limiting per-edge node fractions by degree.

    ``psi_in[m]`` (resp. ``psi_out[m]``) is the limit of ``N_m / n``, the
    number of nodes with in-degree (out-degree) ``m`` per edge.  The arrays
    run over ``m = 0 .. truncation_m``; the total mass over all m is
    ``alpha + gamma`` (nodes per edge).
    """

    psi_in: np.ndarray
    psi_out: np.ndarray
    truncation_m: int
    params: HybridParams


def _psi_direction(
    weight_start0: float,
    weight_start1: float,
    delta_tilde: float,
    rate: float,
    m: np.ndarray,
    evaluator,
) -> np.ndarray:
    """Assemble one direction of the limit pmf.

    Nodes born with degree 0 in this direction follow ``NB(delta_tilde, .)``
    (weight ``weight_start0``); nodes born with degree 1 follow
    ``1 + NB(1 + delta_tilde, .)`` (weight ``weight_start1``), which places
    no mass at m = 0.
    """
    out = weight_start0 * evaluator(m, delta_tilde, rate)
    shifted = np.zeros_like(out)
    pos = m >= 1
    shifted[pos] = evaluator(m[pos] - 1, 1.0 + delta_tilde, rate)
    return out + weight_start1 * shifted


def _limit_weights(params: HybridParams) -> tuple[DerivedConstants, tuple, tuple]:
    if params.p == 0.0:
        raise ValueError("limit pmf requires p > 0 (no degree-proportional component at p = 0)")
    dc = derived_constants(params)
    # In-direction: alpha-born nodes start at in-degree 0, gamma-born at 1.
    # Out-direction: the roles swap (gamma-born start at out-degree 0).
    in_w = (params.alpha, params.gamma, dc.delta_in_tilde, dc.rate_in)
    out_w = (params.gamma, params.alpha, dc.delta_out_tilde, dc.rate_out)
    return dc, in_w, out_w


def limit_pmf(params: HybridParams, m_max: int = 200, mass_tol: float = _MASS_TOL) -> LimitPmf:
    """Closed-form limiting degree pmf, truncated adaptively.

    The truncation starts at ``m_max`` and doubles until the captured mass
    in both directions reaches ``alpha + gamma - mass_tol`` (or a hard cap,
    recorded in ``truncation_m``, is hit); each doubling extends the series
    it already has.  Requires ``p > 0``.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    _, in_w, out_w = _limit_weights(params)
    target = params.alpha + params.gamma - mass_tol
    # per direction: the weights and series of nodes born at degree 0 and 1
    directions = [
        (w0, w1, _MixtureSeries(dt, rate), _MixtureSeries(1.0 + dt, rate))
        for w0, w1, dt, rate in (in_w, out_w)
    ]
    m_hi = max(m_max, 1)
    while True:
        psi = []
        for w0, w1, born0, born1 in directions:  # as _psi_direction, on m = 0 .. m_hi
            direction = w0 * born0.upto(m_hi)
            direction[1:] += w1 * born1.upto(m_hi - 1)
            psi.append(direction)
        psi_in, psi_out = psi
        if (psi_in.sum() >= target and psi_out.sum() >= target) or m_hi >= _TRUNCATION_CAP:
            return LimitPmf(psi_in=psi_in, psi_out=psi_out, truncation_m=m_hi, params=params)
        m_hi *= 2


def limit_pmf_quadrature(params: HybridParams, m_values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Numerical-quadrature oracle for :func:`limit_pmf` at given degrees."""
    _, in_w, out_w = _limit_weights(params)
    m = np.asarray(list(m_values))
    psi_in = _psi_direction(*in_w[:2], in_w[2], in_w[3], m, _mixture_pmf_quadrature)
    psi_out = _psi_direction(*out_w[:2], out_w[2], out_w[3], m, _mixture_pmf_quadrature)
    return psi_in, psi_out


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Normalised degree trajectories ``D(n) / n^c`` across replicates."""

    steps: np.ndarray
    normalized: np.ndarray  # shape (replicates, len(steps))
    mean: np.ndarray
    variance: np.ndarray


def growth_diagnostic(steps, degree_trajectories, c: float) -> GrowthDiagnostic:
    """Normalise per-replicate degree checkpoints by the growth exponent.

    ``steps`` are the (shared, >= 1) checkpoint steps and
    ``degree_trajectories`` is a replicates-by-checkpoints array of the
    fixed node's degree at those steps.
    """
    steps = np.asarray(steps, dtype=float)
    traj = np.atleast_2d(np.asarray(degree_trajectories, dtype=float))
    if steps.ndim != 1 or traj.shape[1] != steps.shape[0]:
        raise ValueError("degree_trajectories must be (replicates, len(steps))")
    if traj.size == 0:
        raise ValueError("need at least one trajectory")
    if np.any(steps < 1):
        raise ValueError("steps must be >= 1")
    normalized = traj / steps[None, :] ** c
    return GrowthDiagnostic(
        steps=steps,
        normalized=normalized,
        mean=normalized.mean(axis=0),
        variance=normalized.var(axis=0),
    )
