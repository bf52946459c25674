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
from .model import EdgeLog, HybridParams, classify_endpoints


class BracketingError(RuntimeError):
    """Raised when a root search finds no sign change in its bracket."""


@dataclass
class SufficientStats:
    """Per-step covariates of the likelihood, one entry per log record.

    ``target_in_degree`` is filled for scenarios 1 and 2, ``source_out_degree``
    for scenarios 2 and 3 (-1 elsewhere).  ``node_count`` is the vertex count
    and ``mass`` the total degree mass (edge count) just before the step.
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
    def _in_arrays(self):
        sel = (self.scenario == 1) | (self.scenario == 2)
        d = self.target_in_degree[sel].astype(float)
        v = self.node_count[sel].astype(float)
        k = self.mass[sel].astype(float)
        return d, v, k, float(np.log(v).sum())

    @cached_property
    def _out_arrays(self):
        sel = (self.scenario == 2) | (self.scenario == 3)
        d = self.source_out_degree[sel].astype(float)
        v = self.node_count[sel].astype(float)
        k = self.mass[sel].astype(float)
        return d, v, k, float(np.log(v).sum())


def replay(log: EdgeLog, seeded: bool = True) -> SufficientStats:
    """Recover the likelihood covariates by one pass over the log.

    With ``seeded=True`` the pass starts from the seed self-loop on node 1.
    With ``seeded=False`` (real-data windows, which carry no seed edge) the
    pass starts from an empty graph: the first record necessarily classifies
    as a fresh-node scenario, establishes the initial vertex set, and
    contributes only its scenario-probability term.

    Scenario labels present on records are validated against the replayed
    classification; timestamps must be nondecreasing.
    """
    scenario: list[int] = []
    d_in: list[int] = []
    d_out: list[int] = []
    v_count: list[int] = []
    in_deg: dict[int, int] = {}
    out_deg: dict[int, int] = {}
    if seeded:
        in_deg[1] = 1
        out_deg[1] = 1
    prev_time = None

    columns = (log.source, log.target, log.time, log.scenario)
    for k, (source, target, time, label) in enumerate(zip(*(col.tolist() for col in columns))):
        if prev_time is not None and time < prev_time:
            raise ValueError(f"record {k}: timestamps decrease ({time} after {prev_time})")
        prev_time = time
        sc = classify_endpoints(in_deg, source, target)
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


def _kernel_log_likelihood(stats, p, delta_in, delta_out, ll=0.0):
    """The endpoint-selection terms, which involve only ``p`` and the
    offsets, added to ``ll``."""
    d, v, k, log_v_sum = stats._in_arrays
    if d.size:
        ll += float(np.log((p * d + delta_in) * v + (1.0 - p) * k).sum())
        ll -= log_v_sum + float(np.log(k + v * delta_in).sum())
    d, v, k, log_v_sum = stats._out_arrays
    if d.size:
        ll += float(np.log((p * d + delta_out) * v + (1.0 - p) * k).sum())
        ll -= log_v_sum + float(np.log(k + v * delta_out).sum())
    return ll


def _log_likelihood_parts(stats, alpha, beta, gamma, xi, eta, p, delta_in, delta_out):
    ll = _scenario_log_likelihood(stats, alpha, beta, gamma, xi, eta)
    if ll == -math.inf:
        return ll
    return _kernel_log_likelihood(stats, p, delta_in, delta_out, ll)


def log_likelihood(stats: SufficientStats, theta: HybridParams) -> float:
    """Exact log-likelihood of the replayed log under ``theta``.

    Returns ``-inf`` when a scenario with positive count has zero
    probability.  The seed edge is deterministic and contributes nothing.
    """
    return _log_likelihood_parts(
        stats,
        theta.alpha,
        theta.beta,
        theta.gamma,
        theta.xi,
        theta.eta,
        theta.p,
        theta.delta_in,
        theta.delta_out,
    )


def score(stats: SufficientStats, theta: HybridParams) -> np.ndarray:
    """Analytic gradient of the log-likelihood in (delta_in, delta_out, p)."""
    p, din, dout = theta.p, theta.delta_in, theta.delta_out
    d, v, k, _ = stats._in_arrays
    denom = (p * d + din) * v + (1.0 - p) * k
    g_din = float((v / denom).sum() - (v / (k + v * din)).sum()) if d.size else 0.0
    g_p = float(((d * v - k) / denom).sum()) if d.size else 0.0
    d, v, k, _ = stats._out_arrays
    denom = (p * d + dout) * v + (1.0 - p) * k
    g_dout = float((v / denom).sum() - (v / (k + v * dout)).sum()) if d.size else 0.0
    g_p += float(((d * v - k) / denom).sum()) if d.size else 0.0
    return np.array([g_din, g_dout, g_p])


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
