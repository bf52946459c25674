"""Likelihood maximisation and posterior sampling.

The scenario probabilities enter the likelihood only through a multinomial
term; the kernel terms involve only (p, delta_in, delta_out).  Both
estimators use that split.  The simplex search fixes the scenario block at
its closed-form maximum (the empirical frequencies) and searches the three
kernel coordinates (logit p, log delta_in, log delta_out).  Under flat
priors the posterior factorises the same way: the sampler draws the
scenario block exactly from its Dirichlet posterior and runs a random-walk
Metropolis-Hastings chain, with a proposal adapted during burn-in, on
(p, log delta_in, log delta_out) only.  The integrated pipeline uses the
sampler's posterior mean to seed the simplex search, which removes its
sensitivity to the initial simplex without changing the optimum.  ``fit``
selects one of the three estimators by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from .likelihood import (
    SufficientStats,
    _kernel_log_likelihood,
    _scenario_log_likelihood,
    log_likelihood,
    mle_scenarios,
)
from .model import HybridParams

SCENARIO_NAMES = ("alpha", "beta", "gamma", "xi", "eta")

_CLIP = 500.0  # transformed-coordinate clamp; exp(+-500) stays representable
_PROB_EPS = 1e-9
_MAX_RESTARTS = 10
_KERNEL_COORDINATES = ("p", "log_delta_in", "log_delta_out")
_ADAPT_POINTS = 10  # proposal adaptations, evenly spaced over burn-in
_ADAPT_SCALE = 2.38**2 / 3  # optimal random-walk scaling in three dimensions
_PD_RTOL = 1e-12  # smallest/largest covariance eigenvalue that counts as positive definite


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, _CLIP)))
    z = math.exp(max(x, -_CLIP))
    return z / (1.0 + z)


def _logit(p: float) -> float:
    p = min(max(p, _PROB_EPS), 1.0 - _PROB_EPS)
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class NelderMeadConfig:
    """Simplex-search settings.

    The search covers (logit p, log delta_in, log delta_out); only those
    three parameters of ``initial_point`` are read, because the scenario
    block is fixed at the empirical frequencies.  ``scale`` spreads the
    initial simplex per search coordinate (a scalar is broadcast to 3).
    """

    initial_point: HybridParams
    scale: float | Sequence[float] = 0.25
    max_iters: int = 4000
    f_tol: float = 1e-10
    x_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.f_tol <= 0.0 or self.x_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class FlatPrior:
    """Uniform priors: scenario probabilities on the simplex, p on [0, 1],
    offsets flat on (0, delta_max]."""

    delta_max: float = 100.0

    def __post_init__(self):
        if not self.delta_max > 0.0:
            raise ValueError("delta_max must be positive")


def default_step_sizes() -> dict[str, float]:
    """Initial random-walk proposal scales of the kernel coordinates: 0.01
    for p, 0.05 for each offset on log scale.  ``fit_mh`` adapts the
    proposal during burn-in."""
    return {"p": 0.01, "log_delta_in": 0.05, "log_delta_out": 0.05}


@dataclass(frozen=True)
class MhConfig:
    """Metropolis-Hastings settings.

    ``iterations`` counts post-burn-in steps; every ``thinning``-th of them
    is kept.  ``step_sizes`` holds the initial proposal scales of the
    kernel coordinates (keys as in ``default_step_sizes``; other keys are
    ignored), which burn-in adapts.  ``initial`` overrides the default start
    (p uniform, offsets from a standard exponential); it must have positive
    posterior density, and only its kernel coordinates seed the chain,
    because the scenario block is drawn exactly.  The point estimate is the
    ``point_estimate`` summary of the kept draws.
    """

    burn_in: int = 10_000
    iterations: int = 20_000
    thinning: int = 500
    step_sizes: Mapping[str, float] = field(default_factory=default_step_sizes)
    prior: FlatPrior = FlatPrior()
    seed: int = 0
    initial: HybridParams | None = None
    point_estimate: str = "mean"

    def __post_init__(self):
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.iterations < self.thinning:
            raise ValueError("iterations must be >= thinning")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.point_estimate not in ("mean", "median"):
            raise ValueError("point_estimate must be 'mean' or 'median'")


class TraceEntry(NamedTuple):
    iteration: int
    params: HybridParams
    log_posterior: float


@dataclass
class EstimationResult:
    point: HybridParams
    converged: bool
    log_likelihood: float
    trace: list[TraceEntry] | None = None
    acceptance_rate: float | None = None
    diagnostics: dict = field(default_factory=dict)


def accept_probability(current_log_target: float, proposal_log_target: float) -> float:
    """Metropolis acceptance probability min(1, target ratio) for a
    symmetric proposal; a zero-density proposal is never accepted."""
    if proposal_log_target == -math.inf:
        return 0.0
    return min(1.0, math.exp(min(proposal_log_target - current_log_target, 0.0)))


# ---------------------------------------------------------------------------
# Nelder-Mead over the kernel coordinates
# ---------------------------------------------------------------------------


def _scenario_block(stats: SufficientStats) -> tuple[list[float], bool]:
    """The scenario probabilities' exact closed-form maximum: the empirical
    frequencies, with a boundary flag.

    The kernel terms do not involve the scenario probabilities, so the block
    is fixed before the search.  A frequency of one violates the regularity
    constraints; it is clamped just inside the boundary and flagged.
    """
    mle = mle_scenarios(stats)
    # gamma is the remaining mass; rounding can leave an unobserved one at -1e-16
    probs = [mle.alpha, mle.beta, max(mle.gamma, 0.0), mle.xi, mle.eta]
    for i in range(3):  # alpha, beta, gamma must stay below one
        if probs[i] >= 1.0:
            probs[i] = 1.0 - _PROB_EPS
            probs[2 if i != 2 else 0] += _PROB_EPS
    return probs, not mle.regular


def _kernel(x: np.ndarray) -> tuple[float, float, float]:
    """(p, delta_in, delta_out) from the search coordinates
    (logit p, log delta_in, log delta_out)."""
    log_deltas = np.clip(x[1:], -_CLIP, _CLIP)
    return _sigmoid(float(x[0])), math.exp(float(log_deltas[0])), math.exp(float(log_deltas[1]))


def fit_nelder_mead(stats: SufficientStats, config: NelderMeadConfig) -> EstimationResult:
    """Maximise the log-likelihood with a Nelder-Mead simplex search.

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
    scale = np.broadcast_to(np.asarray(config.scale, dtype=float), (3,))
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


# ---------------------------------------------------------------------------
# Random-walk Metropolis-Hastings
# ---------------------------------------------------------------------------


def _adapted_proposal(window: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Cholesky factor of 2.38^2/3 times the covariance of ``window``'s rows
    (Haario, Saksman & Tamminen, Bernoulli 7(2), 2001).

    ``chol`` is returned unchanged when that covariance is not numerically
    positive definite, as for a chain that has not moved in some direction.
    """
    if window.shape[0] > 3:  # fewer rows cannot span the three coordinates
        cov = _ADAPT_SCALE * np.cov(window, rowvar=False)
        eigenvalues = np.linalg.eigvalsh(cov)
        if eigenvalues[0] > _PD_RTOL * eigenvalues[-1]:
            return np.linalg.cholesky(cov)
    return chol


def fit_mh(stats: SufficientStats, config: MhConfig) -> EstimationResult:
    """Flat-prior posterior sampling: the scenario block drawn exactly, a
    random walk on the kernel block.

    Under the flat prior the posterior factorises.  The scenario
    probabilities are Dirichlet(counts + 1) on the scenarios that occur
    (the others are exactly zero) and independent of the kernel, so they
    are drawn exactly, once per kept draw.  The kernel block
    (p, log delta_in, log delta_out) is sampled by random-walk
    Metropolis-Hastings on the kernel log-likelihood plus the log-scale
    Jacobian; a proposal outside the prior support (p in [0, 1],
    delta <= delta_max) has zero density and is rejected.  Reflecting it
    back instead would not be a symmetric proposal once the steps are
    correlated.  The proposal covariance starts as the squared
    ``step_sizes``; at ten evenly spaced points of burn-in it is set to
    2.38^2/3 times the covariance of the later half of the draws so far,
    and after burn-in it is frozen, so the kept draws come from a plain
    Metropolis-Hastings chain.  With ``burn_in=0`` the proposal is
    ``step_sizes`` throughout.

    The trace keeps every ``thinning``-th post-burn-in draw with its data
    log-likelihood; the acceptance rate is the kernel walk's over the
    post-burn-in phase.  Deterministic for a fixed seed.
    """
    counts = np.array(stats.scenario_counts)
    present = counts > 0
    if not present.any():
        raise ValueError("cannot fit an empty log")
    prior = config.prior
    log_delta_max = math.log(prior.delta_max)
    rng = np.random.default_rng(config.seed)

    def log_target(x: np.ndarray) -> tuple[float, float]:
        """(sampled-space log density, kernel log-likelihood); zero density
        outside the prior support."""
        if not (0.0 <= x[0] <= 1.0 and x[1] <= log_delta_max and x[2] <= log_delta_max):
            return -math.inf, -math.inf
        ll = _kernel_log_likelihood(stats, x[0], math.exp(x[1]), math.exp(x[2]))
        if not math.isfinite(ll):
            return -math.inf, -math.inf
        return ll + x[1] + x[2], ll

    start = config.initial
    if start is None:
        deltas = np.clip(rng.exponential(size=2), 1e-6, prior.delta_max)
        x = np.array([rng.random(), *np.log(deltas)])
    else:
        x = np.array([start.p, math.log(start.delta_in), math.log(start.delta_out)])
    theta = np.array([x[0], *np.exp(x[1:])])  # (p, delta_in, delta_out)

    steps = {**default_step_sizes(), **dict(config.step_sizes)}
    chol = np.diag([steps[name] for name in _KERNEL_COORDINATES])
    burn_in = config.burn_in
    adapt_at = {round(k * burn_in / _ADAPT_POINTS) for k in range(1, _ADAPT_POINTS + 1)}
    history = np.empty((burn_in, 3))
    kept_iterations: list[int] = []
    kept_kernel: list[np.ndarray] = []
    kept_ll: list[float] = []
    running_rows: list[np.ndarray] = []
    cumulative = np.zeros(3)
    accepts = 0
    # exp can underflow a proposed offset to zero; its -inf is a rejection
    with np.errstate(divide="ignore", invalid="ignore"):
        lp, ll = log_target(x)
        if start is not None and not (
            math.isfinite(lp) and math.isfinite(log_likelihood(stats, start))
        ):
            raise ValueError("initial point has zero posterior density")
        for t in range(1, burn_in + config.iterations + 1):
            proposal = x + chol @ rng.standard_normal(3)
            lpp, llp = log_target(proposal)
            accepted = rng.random() < accept_probability(lp, lpp)
            if accepted:
                x, lp, ll = proposal, lpp, llp
                theta = np.array([x[0], *np.exp(x[1:])])
            if t <= burn_in:
                history[t - 1] = x
                if t in adapt_at:  # from the later half of the draws so far
                    chol = _adapted_proposal(history[t // 2 : t], chol)
                continue
            accepts += accepted
            cumulative += theta
            if (t - burn_in) % config.thinning == 0:
                kept_iterations.append(t)
                kept_kernel.append(theta)
                kept_ll.append(ll)
                # running means over every post-burn-in draw so far, sampled
                # at the thinning points (the usual running-mean plot)
                running_rows.append(cumulative / (t - burn_in))

    n_kept = len(kept_kernel)
    probs = np.zeros((n_kept, 5))
    probs[:, present] = rng.dirichlet(counts[present] + 1.0, size=n_kept)
    draws = np.hstack([probs, np.array(kept_kernel)])  # columns: alpha..eta, p, delta_in, delta_out
    trace = [
        TraceEntry(t, _params_from_components(row), _scenario_log_likelihood(stats, *row[:5]) + ll)
        for t, row, ll in zip(kept_iterations, draws, kept_ll)
    ]
    summary = np.mean(draws, axis=0) if config.point_estimate == "mean" else np.median(draws, axis=0)
    summary[:5] /= summary[:5].sum()  # back onto the simplex (medians need not sum to one)
    point = _params_from_components(summary)
    # the scenario block is drawn once per kept draw, so its running means
    # run over the kept draws
    running = np.hstack(
        [np.cumsum(probs, axis=0) / np.arange(1, n_kept + 1)[:, None], np.array(running_rows)]
    )
    diagnostics = {
        "running_means": {
            name: running[:, i]
            for i, name in enumerate(SCENARIO_NAMES + ("p", "delta_in", "delta_out"))
        },
        "kept_draws": n_kept,
    }
    return EstimationResult(
        point=point,
        converged=True,
        log_likelihood=log_likelihood(stats, point),
        trace=trace,
        acceptance_rate=accepts / config.iterations,
        diagnostics=diagnostics,
    )


def _params_from_components(comp) -> HybridParams:
    return HybridParams(
        alpha=comp[0],
        beta=comp[1],
        gamma=comp[2],
        xi=comp[3],
        eta=comp[4],
        p=min(max(comp[5], 0.0), 1.0),
        delta_in=comp[6],
        delta_out=comp[7],
    )


def fit_integrated(
    stats: SufficientStats, mh_config: MhConfig, nm_config_template: NelderMeadConfig
) -> EstimationResult:
    """Coarse posterior sampling followed by a seeded simplex search.

    Runs the sampler, then the simplex search started at the posterior
    point estimate; returns the simplex result with the sampler's trace and
    acceptance statistics attached.
    """
    mh = fit_mh(stats, mh_config)
    nm = fit_nelder_mead(stats, replace(nm_config_template, initial_point=mh.point))
    nm.trace = mh.trace
    nm.acceptance_rate = mh.acceptance_rate
    nm.diagnostics = {
        **nm.diagnostics,
        "mh_point": mh.point,
        "mh_running_means": mh.diagnostics["running_means"],
    }
    return nm


FIT_METHODS = ("nm", "mh", "integrated")


def fit(
    stats: SufficientStats, method: str, mh_config: MhConfig, nm_config: NelderMeadConfig
) -> EstimationResult:
    """Run the estimator named ``method``, one of ``FIT_METHODS``: the
    simplex search (``"nm"``), the sampler (``"mh"``) or the sampler-seeded
    simplex search (``"integrated"``)."""
    if method == "nm":
        return fit_nelder_mead(stats, nm_config)
    if method == "mh":
        return fit_mh(stats, mh_config)
    if method == "integrated":
        return fit_integrated(stats, mh_config, nm_config)
    raise ValueError(f"unknown method {method!r}")
