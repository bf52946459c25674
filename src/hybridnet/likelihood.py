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
from scipy.optimize import brentq

from .degrees import DegreeCounts, strict_tail_fractions
from .model import EdgeLog, HybridParams, _counts_before, _novelty_pass


class BracketingError(RuntimeError):
    """Raised when a root search finds no sign change in its bracket."""


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
    ``n_in`` is where the out-steps start.
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
    return SufficientStats(
        scenario=scenario,
        target_in_degree=np.where(scenario <= 2, in_degree, -1),
        source_out_degree=np.where((scenario == 2) | (scenario == 3), out_degree, -1),
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


def _kernel_num_den(stats, p, delta_in, delta_out):
    """Per kernel step, ``p d + (1 - p) r + delta`` and ``r + delta``."""
    d, r, n_in, _ = stats._kernel_steps
    delta = np.empty_like(r)
    delta[:n_in], delta[n_in:] = delta_in, delta_out
    num = p * d
    num += (1.0 - p) * r
    num += delta
    return num, np.add(r, delta, out=delta)


def _kernel_log_likelihood(stats, p, delta_in, delta_out):
    """The endpoint-selection terms, which involve only ``p`` and the
    offsets: one log over the kernel steps' ratios (see ``SufficientStats``).

    The numerator stays a sum of nonnegative terms.  The shorter
    ``log1p(p (d - r) / (r + delta))`` cancels in ``r + delta - p r`` and
    loses digits where ``p`` is near one and ``delta`` is small.
    """
    num, den = _kernel_num_den(stats, p, delta_in, delta_out)
    num /= den
    return float(np.log(num, out=num).sum()) - stats._kernel_steps[3]


def log_likelihood(stats: SufficientStats, theta: HybridParams) -> float:
    """Exact log-likelihood of the replayed log under ``theta``.

    Returns ``-inf`` when a scenario with positive count has zero
    probability.  The seed edge is deterministic and contributes nothing.
    """
    ll = _scenario_log_likelihood(stats, theta.alpha, theta.beta, theta.gamma, theta.xi, theta.eta)
    if ll == -math.inf:
        return ll
    return ll + _kernel_log_likelihood(stats, theta.p, theta.delta_in, theta.delta_out)


def score(stats: SufficientStats, theta: HybridParams) -> np.ndarray:
    """Analytic gradient of the log-likelihood in (delta_in, delta_out, p):
    per kernel step ``1 / num - 1 / (r + delta)`` for the step's offset and
    ``(d - r) / num``, with ``num = p d + (1 - p) r + delta``, for ``p``."""
    d, r, n_in, _ = stats._kernel_steps
    num, den = _kernel_num_den(stats, theta.p, theta.delta_in, theta.delta_out)
    inv = np.reciprocal(num, out=num)
    g_p = float(((d - r) * inv).sum())
    inv -= np.reciprocal(den, out=den)
    return np.array([float(inv[:n_in].sum()), float(inv[n_in:].sum()), g_p])


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
    change and polishes with Brent's method; the absence of a sign change
    is reported as :class:`BracketingError`, never guessed around.
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
            root = float(brentq(f, lo, hi, xtol=1e-12, rtol=1e-14))
            break
    else:
        raise BracketingError(
            f"no sign change of the {direction}-direction score approximation in {bracket}"
        )
    delta = p * root - (1.0 - p) / (1.0 - beta)
    return ApproxScoreResult(delta_tilde=root, delta=delta, residual=f(root), bracket=bracket)
