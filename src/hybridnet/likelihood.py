"""Exact log-likelihood of an edge log, analytic scores and closed-form
scenario estimates.

The likelihood factorises into a scenario-count part (multinomial in the
scenario probabilities, maximised by the empirical frequencies) and kernel
parts that involve only ``p`` and the offsets.  The kernel covariates (the
target's in-degree and the source's out-degree just before each step, the
node count, and the degree mass) are recovered by replaying the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .degrees import DegreeCounts, strict_tail_fractions
from .model import EdgeLog, HybridParams, _counts_before, _novelty_pass


_CHUNK = 32  # kernel ratios per log
# the ratio range in which no product of _CHUNK ratios leaves exp(+-700)
_RATIO_LO, _RATIO_HI = math.exp(-700.0 / _CHUNK), math.exp(700.0 / _CHUNK)
# bins of the kernel envelope: d exact below _ENV_D_CUT, then classes of
# ratio _ENV_D_RATIO; r in classes of ratio _ENV_R_RATIO
_ENV_D_CUT = 64
_ENV_D_RATIO = 1.03
_ENV_R_RATIO = 1.02
_UNIT_ROUNDOFF = 2.0**-53


class BracketingError(RuntimeError):
    """Raised when a root search finds no sign change in its bracket."""


class _KernelEnvelope(NamedTuple):
    """The cached bins of ``_kernel_upper_bound``: one column of
    (d, r, 1, in, out) coefficients and one weight per log, the least r (at
    most 1), the greatest d or r (at least 1), and the scale of the
    rounding margin."""

    columns: np.ndarray
    weights: np.ndarray
    r_low: float
    top: float
    tol: float


@dataclass
class SufficientStats:
    """Per-step covariates of the likelihood, one entry per log record.

    ``target_in_degree`` is filled for scenarios 1 and 2, ``source_out_degree``
    for scenarios 2 and 3 (-1 elsewhere).  ``node_count`` is the vertex count
    and ``mass`` the total degree mass (edge count) just before the step.

    A kernel step picks an endpoint of degree ``d`` with probability
    ``p (d + delta) / (k + delta v) + (1 - p) / v`` (``v`` the node count,
    ``k`` the mass), whose log is, with ``r = k / v``,
    ``log((p d + (1 - p) r + delta) / (r + delta)) - log v``.
    ``_kernel_steps`` caches ``(d, r, n_in, sum of log v)`` over the
    in-steps (scenarios 1 and 2) followed by the out-steps (2 and 3);
    ``n_in`` is where the out-steps start.  The ratio inside that log,
    written ``(1 - p) + p (d + delta) / (r + delta)``, is a sum of
    nonnegative terms and lies between ``(1 - p) + p delta / (R + delta)``
    and ``U``; ``_kernel_bounds`` caches ``(R, U)``, with
    ``R = max(1, max r)`` and ``U = max(1, max d / r)``, so that
    ``_kernel_log_likelihood`` bounds every ratio in O(1).

    ``_kernel_envelope`` caches an upper bound on the kernel terms for
    every (p, delta_in, delta_out), built from two inequalities on the
    steps of one direction.  The numerator's ``log(p d + (1 - p) r + delta)``
    is concave in (d, r), so by Jensen's inequality a bin of ``n_b`` steps
    contributes at most ``n_b log(p d_b + (1 - p) r_b + delta)``, at the
    bin's mean (d_b, r_b).  The bins hold one d each below ``_ENV_D_CUT``
    and d within a ratio ``_ENV_D_RATIO`` above it, and r within a ratio
    ``_ENV_R_RATIO``.  The denominator's ``-log(r + delta)`` is convex in
    r, so in an r class [a, b] each step lies below its chord:
    ``-log(r + delta) <= -l log(a + delta) - (1 - l) log(b + delta)`` with
    ``l = (b - r) / (b - a)``, and the class contributes its summed ``l``
    and ``1 - l`` as weights on a and b.  Each bound is the log of an
    affine function of (p, 1 - p, 1, delta_in, delta_out), so both sit in
    one matrix; see ``_kernel_upper_bound``.
    """

    scenario: np.ndarray
    target_in_degree: np.ndarray
    source_out_degree: np.ndarray
    node_count: np.ndarray
    mass: np.ndarray
    seeded: bool = True

    def __len__(self) -> int:
        return int(self.scenario.shape[0])

    @cached_property
    def scenario_counts(self) -> tuple[int, int, int, int, int]:
        counts = np.bincount(self.scenario, minlength=6)
        return tuple(int(c) for c in counts[1:6])

    @cached_property
    def _kernel_steps(self):
        sel_in = (self.scenario == 1) | (self.scenario == 2)
        sel_out = (self.scenario == 2) | (self.scenario == 3)
        d = np.concatenate((self.target_in_degree[sel_in], self.source_out_degree[sel_out]))
        v = np.concatenate((self.node_count[sel_in], self.node_count[sel_out])).astype(float)
        r = np.concatenate((self.mass[sel_in], self.mass[sel_out])) / v
        return d.astype(float), r, int(sel_in.sum()), float(np.log(v).sum())

    @cached_property
    def _kernel_bounds(self) -> tuple[float, float]:
        d, r, _, _ = self._kernel_steps
        return float(r.max(initial=1.0)), float((d / r).max(initial=1.0))

    @cached_property
    def _kernel_envelope(self) -> _KernelEnvelope:
        d, r, n_in, _ = self._kernel_steps
        n = d.shape[0]
        out = (np.arange(n) >= n_in).astype(np.int64)
        r_class = np.floor(np.log(r) / math.log(_ENV_R_RATIO)).astype(np.int64)
        r_class -= r_class.min(initial=0)
        d_class = np.floor(np.log(np.maximum(d, _ENV_D_CUT) / _ENV_D_CUT) / math.log(_ENV_D_RATIO))
        d_class = np.where(d < _ENV_D_CUT, d, _ENV_D_CUT + d_class).astype(np.int64)
        span = int(r_class.max(initial=0)) + 1
        # numerator bins: (direction, d class, r class), at their mean (d, r)
        key = (out * (int(d_class.max(initial=0)) + 1) + d_class) * span + r_class
        _, bin_of, n_b = np.unique(key, return_inverse=True, return_counts=True)
        num = np.zeros((5, n_b.shape[0]))
        num[0] = np.bincount(bin_of, d) / n_b
        num[1] = np.bincount(bin_of, r) / n_b
        num[4, bin_of] = out
        # denominator chords: (direction, r class), weights on its least and greatest r
        _, class_of, n_c = np.unique(out * span + r_class, return_inverse=True, return_counts=True)
        lo, hi = np.full(n_c.shape[0], math.inf), np.zeros(n_c.shape[0])
        np.minimum.at(lo, class_of, r)
        np.maximum.at(hi, class_of, r)
        width = (hi - lo)[class_of]
        to_hi = np.divide(r - lo[class_of], width, out=np.zeros(n), where=width > 0.0)
        w_hi = np.bincount(class_of, to_hi, minlength=n_c.shape[0])
        den = np.zeros((5, n_c.shape[0]))
        den[4, class_of] = out
        columns = np.hstack((num, den, den))
        columns[2, n_b.shape[0] :] = np.concatenate((lo, hi))
        columns[3] = 1.0 - columns[4]
        weights = np.concatenate((n_b, -(n_c - w_hi), -w_hi))
        keep = weights != 0.0  # a class of one r value has no upper end
        columns, weights = columns[:, keep], weights[keep]
        return _KernelEnvelope(
            columns=np.ascontiguousarray(columns),
            weights=weights,
            r_low=min(1.0, float(r.min(initial=1.0))),
            top=max(1.0, float(d.max(initial=1.0)), float(r.max(initial=1.0))),
            tol=2.0 * _UNIT_ROUNDOFF * (n + weights.shape[0] + 256) * float(np.abs(weights).sum()),
        )


def replay(log: EdgeLog, seeded: bool = True) -> SufficientStats:
    """Recover the likelihood covariates by one pass over the log.

    With ``seeded=True`` the pass starts from the seed self-loop on node 1.
    With ``seeded=False`` (real-data windows, which carry no seed edge) the
    pass starts from an empty graph: the first record necessarily classifies
    as a fresh-node scenario, establishes the initial vertex set, and
    contributes only its scenario-probability term.

    Timestamps must be nondecreasing, node ids positive, and scenario labels
    present on records must match the replayed classification; the first
    failing record raises ``ValueError``.  The pass is a handful of array
    operations around one stable sort of the endpoint stream, shared with
    ``model.classify_edge_log``.
    """
    novelty = _novelty_pass(log, seeded, check_order=True)
    node_count, in_degree, out_degree = _counts_before(log, novelty, seeded)
    scenario = novelty.scenario
    del novelty  # the endpoint stream
    in_degree[scenario > 2] = -1
    out_degree[(scenario != 2) & (scenario != 3)] = -1
    return SufficientStats(
        scenario=scenario,
        target_in_degree=in_degree,
        source_out_degree=out_degree,
        node_count=node_count,
        # the degree mass before each step: the seed edge plus the earlier records
        mass=np.arange(len(scenario), dtype=np.int64) + (1 if seeded else 0),
        seeded=seeded,
    )


def _scenario_log_likelihood(stats, alpha, beta, gamma, xi, eta):
    """The multinomial term: ``-inf`` when a scenario with positive count
    has zero probability."""
    ll = 0.0
    for count, prob in zip(stats.scenario_counts, (alpha, beta, gamma, xi, eta)):
        if count:
            if prob <= 0.0:
                return -math.inf
            ll += count * math.log(prob)
    return ll


def _kernel_log_likelihood(stats, p, delta_in, delta_out):
    """The endpoint-selection terms, which involve only ``p`` and the
    offsets: the sum of the log kernel ratios ``(1 - p) + p (d + delta) / (r + delta)``
    (see ``SufficientStats``), minus the constant sum of ``log v``.

    Both terms of a ratio are nonnegative, so it loses no digits where
    ``p`` is near one and ``delta`` is small; the shorter
    ``log1p(p (d - r) / (r + delta))`` cancels there.  The ratios sit in a
    buffer padded with ones to a multiple of ``_CHUNK``, whose ``_CHUNK``
    rows are multiplied together, so that one log covers ``_CHUNK`` ratios.
    That is safe when every ratio lies in ``[_RATIO_LO, _RATIO_HI]``: no
    partial product then leaves ``exp(+-700)``, well inside the normal
    floats.  The test uses the cached bounds on the ratios, so it costs
    O(1).  Each product adds at most ``_CHUNK`` roundings, a relative error
    of about 4e-15, or about 1e-16 per term after the log.  Where the test
    fails (``delta = 0`` after ``exp`` underflows, ``p = 1`` with a tiny
    ``delta``, a hub whose ``d / r`` is near 1e10) each ratio gets its own
    log, which keeps ``-inf`` exact.
    """
    d, r, n_in, log_v_sum = stats._kernel_steps
    n = d.shape[0]
    x = np.empty(-(-n // _CHUNK) * _CHUNK)
    den = np.empty(n)
    for part, delta in ((slice(0, n_in), delta_in), (slice(n_in, n), delta_out)):
        np.add(d[part], delta, out=x[part])
        np.add(r[part], delta, out=den[part])
    ratio = x[:n]
    ratio /= den
    ratio *= p
    ratio += 1.0 - p
    x[n:] = 1.0
    r_max, ratio_max = stats._kernel_bounds
    delta_min = min(delta_in, delta_out)
    if (1.0 - p) + p * (delta_min / (r_max + delta_min)) >= _RATIO_LO and ratio_max <= _RATIO_HI:
        x = np.multiply.reduce(x.reshape(_CHUNK, -1), axis=0)
    return float(np.log(x, out=x).sum()) - log_v_sum


def _kernel_upper_bound(stats, p, delta_in, delta_out):
    """An upper bound on the computed ``_kernel_log_likelihood``, from the
    cached envelope (see ``SufficientStats``): ``w @ log(c @ M)`` with
    ``c = (p, 1 - p, 1, delta_in, delta_out)``, minus the sum of ``log v``,
    plus a rounding margin.  A NaN bound comes back as ``+inf``, which
    rejects nothing.

    The margin covers the rounding of both sides; u = 2^-53, n is the
    number of steps, B of columns, and W the summed absolute weights (2n
    up to rounding).  Every log argument, in the exact value and in the
    bound, is a sum or product of nonnegative numbers, and a log turns its
    relative error into an absolute error of the same size.  A chunk of
    ``_CHUNK`` ratios carries at most about 223u, under 8u per step; a
    column at most (n_b + 8)u per unit of weight, from its bin means (or
    chord weights) and its five products.  These sum to at most
    (n + 8) u W.  A computed sum of N terms lies within about N u times
    the sum of their magnitudes, in any order (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2).  Every
    numerator, denominator and column lies in ``[lo, hi]``, with
    ``lo = (1 - p) r_low + min delta`` and ``hi = top + max delta``, so each
    log is at most ``L = max(-log lo, log hi)`` in magnitude; the exact
    terms and the weighted logs of the bound each sum to at most ``W L``
    in magnitude.  Both rounding errors are therefore below
    ``(n + B + 256) u W (1 + L)``, and the margin is twice that.  Where
    ``lo`` is 0 no such L exists, and the bound is ``+inf``.
    """
    env = stats._kernel_envelope
    c = np.array((p, 1.0 - p, 1.0, delta_in, delta_out))
    # OpenBLAS keeps the 5 x B gemv c @ columns on one thread while 5 B <= 9,216,
    # so B <= 1,843; B is about 1,300-1,700 on Table-1 logs of 10k-1M edges
    bound = float(env.weights @ np.log(c @ env.columns))
    lo = (1.0 - p) * env.r_low + min(delta_in, delta_out)
    if math.isnan(bound) or lo <= 0.0:
        return math.inf
    spread = max(-math.log(lo), math.log(env.top + max(delta_in, delta_out)))
    return bound + env.tol * (1.0 + spread) - stats._kernel_steps[3]


def log_likelihood(stats: SufficientStats, theta: HybridParams) -> float:
    """Exact log-likelihood of the replayed log under ``theta``.

    Returns ``-inf`` when a scenario with positive count has zero
    probability.  The seed edge is deterministic and contributes nothing.
    """
    ll = _scenario_log_likelihood(stats, theta.alpha, theta.beta, theta.gamma, theta.xi, theta.eta)
    if ll == -math.inf:
        return ll
    return ll + _kernel_log_likelihood(stats, theta.p, theta.delta_in, theta.delta_out)


def _kernel_derivatives(stats, p, delta_in, delta_out):
    """The kernel log-likelihood with its gradient and Hessian in
    (delta_in, delta_out, p).  With num = p d + (1 - p) r + delta, the
    per-step terms are 1/num - 1/(r + delta) and (d - r)/num (gradient),
    1/(r + delta)^2 - 1/num^2, -(d - r)/num^2 and -((d - r)/num)^2 (Hessian),
    each summed over its offset's slice; no step has both offsets, so their
    entry is exactly 0.  The log-likelihood is ``_kernel_log_likelihood``'s.

    The sums of products are elementwise products summed by ``.sum()``
    (numpy's pairwise sum), not ``np.dot``: OpenBLAS runs a dot product of
    more than 10,000 entries on its thread pool, where waking an idle
    worker cost about 8 ms a call on a 2-vCPU machine (40 ms a pass on a
    35k-step log, against 0.4 ms), and its result then depends in the last
    digits on the BLAS thread count."""
    d, r, n_in, _ = stats._kernel_steps
    delta = np.empty_like(r)
    delta[:n_in], delta[n_in:] = delta_in, delta_out
    num = p * d
    num += (1.0 - p) * r
    num += delta
    inv_num = np.reciprocal(num, out=num)
    inv_den = np.reciprocal(np.add(r, delta, out=delta), out=delta)
    g_p = d - r
    g_p *= inv_num
    g_delta = inv_num - inv_den
    inv_den += inv_num  # -Hessian per offset: a product, to keep g_delta's digits
    grad, hess = np.empty(3), np.zeros((3, 3))
    for i, part in enumerate((slice(0, n_in), slice(n_in, None))):
        grad[i] = g_delta[part].sum()
        hess[i, i] = -(g_delta[part] * inv_den[part]).sum()
        hess[i, 2] = hess[2, i] = -(g_p[part] * inv_num[part]).sum()
    grad[2] = g_p.sum()
    hess[2, 2] = -(g_p * g_p).sum()
    return _kernel_log_likelihood(stats, p, delta_in, delta_out), grad, hess


def score(stats: SufficientStats, theta: HybridParams) -> np.ndarray:
    """Analytic gradient of the log-likelihood in (delta_in, delta_out, p):
    ``_kernel_derivatives``' gradient, by the same operations, without the
    Hessian or the log-likelihood."""
    d, r, n_in, _ = stats._kernel_steps
    p = theta.p
    delta = np.empty_like(r)
    delta[:n_in], delta[n_in:] = theta.delta_in, theta.delta_out
    num = p * d
    num += (1.0 - p) * r
    num += delta
    inv_num = np.reciprocal(num, out=num)
    g_p = d - r
    g_p *= inv_num
    g_delta = inv_num - np.reciprocal(np.add(r, delta, out=delta), out=delta)
    return np.array((g_delta[:n_in].sum(), g_delta[n_in:].sum(), g_p.sum()))


class ScenarioMle(NamedTuple):
    """Closed-form scenario-probability estimates (empirical frequencies).

    Frequencies can land on the regularity boundary (a probability of
    exactly one); they are reported as-is and flagged by ``regular``.
    """

    alpha: float
    beta: float
    xi: float
    eta: float

    @property
    def gamma(self) -> float:
        return 1.0 - self.alpha - self.beta - self.xi - self.eta

    @property
    def regular(self) -> bool:
        return self.alpha < 1.0 and self.beta < 1.0 and self.gamma < 1.0


def mle_scenarios(stats: SufficientStats) -> ScenarioMle:
    """Maximum-likelihood scenario probabilities: the empirical frequencies."""
    n = len(stats)
    if n == 0:
        raise ValueError("cannot estimate scenario probabilities from an empty log")
    n1, n2, n3, n4, n5 = stats.scenario_counts
    return ScenarioMle(alpha=n1 / n, beta=n2 / n, xi=n4 / n, eta=n5 / n)


@dataclass(frozen=True)
class ApproxScoreResult:
    """Root of the tail-sum score approximation for one direction."""

    delta_tilde: float
    delta: float  # implied raw offset at the supplied p (may be <= 0 if p misstated)
    residual: float
    bracket: tuple[float, float]


def approx_score_equation(
    counts: DegreeCounts,
    scenario_freqs: tuple[float, float, float],
    direction: str = "in",
):
    """The one-dimensional approximate score function in the effective offset.

    For the in-direction the equation reads

        sum_m (N_{>m}/n) / (m + dt)  =  gamma/dt + (alpha+beta)(1-beta) / (1 + dt(1-beta))

    with dt the effective in-offset; the out-direction swaps the roles of
    alpha and gamma.  Expressed in the effective offset the tuning weight p
    cancels, so the same equation serves any p > 0.  Returns ``f`` with
    ``f(dt) = LHS - RHS``.
    """
    alpha, beta, gamma = scenario_freqs
    tail = strict_tail_fractions(counts, direction)
    if not np.any(tail > 0.0):
        raise BracketingError("degenerate tail: no node exceeds degree 0 in this direction")
    m = np.arange(tail.shape[0], dtype=float)
    if direction == "in":
        w_shift, ab = gamma, alpha + beta
    else:
        w_shift, ab = alpha, beta + gamma

    def f(dt: float) -> float:
        lhs = float((tail / (m + dt)).sum())
        return lhs - w_shift / dt - ab * (1.0 - beta) / (1.0 + dt * (1.0 - beta))

    return f


def approx_score_solve(
    counts: DegreeCounts,
    scenario_freqs: tuple[float, float, float],
    direction: str = "in",
    p: float = 1.0,
    bracket: tuple[float, float] = (1e-6, 1e6),
) -> ApproxScoreResult:
    """Solve the approximate score equation for the effective offset.

    A snapshot-only auxiliary estimator: it consumes a single degree
    histogram instead of the full history.  It cannot estimate ``p`` (the
    same approximation applied to the p-score holds identically, forcing
    p = 1); ``p`` enters only through the map back to the raw offset,
    ``delta = p * dt - (1 - p)/(1 - beta)``.

    Root isolation scans a log-spaced grid inside ``bracket`` for a sign
    change and polishes by bisection; the absence of a sign change is
    reported as :class:`BracketingError`, never guessed around.
    """
    _, beta, _ = scenario_freqs
    f = approx_score_equation(counts, scenario_freqs, direction)
    grid = np.geomspace(bracket[0], bracket[1], 200)
    values = [f(x) for x in grid]
    for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if flo == 0.0:
            root = float(lo)
            break
        if flo * fhi < 0.0:
            root = _bisect(f, float(lo), float(hi), flo)
            break
    else:
        raise BracketingError(
            f"no sign change of the {direction}-direction score approximation in {bracket}"
        )
    delta = p * root - (1.0 - p) / (1.0 - beta)
    return ApproxScoreResult(delta_tilde=root, delta=delta, residual=f(root), bracket=bracket)


def _bisect(f, lo: float, hi: float, flo: float) -> float:
    """A root of ``f`` in ``[lo, hi]``, where ``f(lo) = flo`` and ``f(hi)``
    differ in sign, to within ``1e-12 + 1e-14 |root|`` (the ``xtol`` and
    ``rtol`` that the Brent polish used), or to the float resolution."""
    while True:
        mid = 0.5 * (lo + hi)
        if 0.5 * (hi - lo) <= 1e-12 + 1e-14 * abs(mid) or mid in (lo, hi):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
