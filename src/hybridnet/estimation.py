"""Likelihood maximisation and posterior sampling.

Two routes to the same log-likelihood: a simplex search and a random-walk
Metropolis-Hastings sampler with flat priors and boundary reflection.  The
scenario probabilities enter the likelihood only through a multinomial
term, so the simplex search fixes them at their closed-form maximum (the
empirical frequencies) and searches the three kernel coordinates
(logit p, log delta_in, log delta_out).  The integrated pipeline uses the
sampler's posterior mean to seed the simplex search, which removes its
sensitivity to the initial simplex without changing the optimum.
``fit`` selects one of the three estimators by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from .likelihood import SufficientStats, _log_likelihood_parts, mle_scenarios
from .model import HybridParams

SCENARIO_NAMES = ("alpha", "beta", "gamma", "xi", "eta")

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
    """Random-walk proposal scales: 0.01 for probability coordinates,
    0.05 for the offsets on log scale."""
    return {
        "alpha": 0.01,
        "beta": 0.01,
        "gamma": 0.01,
        "xi": 0.01,
        "eta": 0.01,
        "p": 0.01,
        "log_delta_in": 0.05,
        "log_delta_out": 0.05,
    }


@dataclass(frozen=True)
class MhConfig:
    """Metropolis-Hastings settings.

    ``iterations`` counts post-burn-in steps; every ``thinning``-th of them
    is kept.  ``initial`` overrides the default start (scenario
    probabilities spaced uniformly at random, p uniform, offsets from a
    standard exponential).  The point estimate is the ``point_estimate``
    summary of the kept draws.
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
        val = _log_likelihood_parts(stats, *probs, *_kernel(x))
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
    components = (*probs, *_kernel(res.x))
    diagnostics = {
        "iterations": total_nit,
        "function_evals": total_nfev,
        "restarts": restart,
        "message": str(res.message),
    }
    if boundary:
        diagnostics["boundary"] = "a scenario frequency sits on the regularity boundary"
    return EstimationResult(
        point=_params_from_components(components),
        converged=bool(res.success) and not boundary,
        log_likelihood=_log_likelihood_parts(stats, *components),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Random-walk Metropolis-Hastings
# ---------------------------------------------------------------------------


def _reflect_interval(x: float, lo: float, hi: float) -> float:
    """Fold ``x`` into [lo, hi] (triangle wave); symmetric for random walks."""
    width = hi - lo
    y = math.fmod(x - lo, 2.0 * width)
    if y < 0.0:
        y += 2.0 * width
    return lo + (y if y <= width else 2.0 * width - y)


def _reflect_upper(x: float, hi: float) -> float:
    return x if x <= hi else 2.0 * hi - x


class _MhSpace:
    """Sampled coordinates and target density for the random-walk chain.

    Scenario probabilities with positive counts are sampled on the natural
    scale (one reference scenario carries the remaining mass); offsets are
    sampled as logs.  The flat prior on the offsets contributes the
    log-scale Jacobian to the sampled-space density.
    """

    def __init__(self, stats: SufficientStats, prior: FlatPrior):
        counts = stats.scenario_counts
        self.stats = stats
        self.prior = prior
        self.present = [i for i, c in enumerate(counts) if c > 0]
        if not self.present:
            raise ValueError("cannot fit an empty log")
        self.ref = 2 if counts[2] > 0 else max(self.present, key=lambda i: counts[i])
        self.sampled = [i for i in self.present if i != self.ref]
        self.names = [SCENARIO_NAMES[i] for i in self.sampled] + [
            "p",
            "log_delta_in",
            "log_delta_out",
        ]
        self.dim = len(self.names)
        self.log_delta_max = math.log(prior.delta_max)

    def components(self, x: np.ndarray) -> tuple[float, ...] | None:
        probs = [0.0] * 5
        for i, val in zip(self.sampled, x):
            if val < 0.0:
                return None
            probs[i] = float(val)
        ref_mass = 1.0 - sum(probs)
        if ref_mass < 0.0:
            return None
        probs[self.ref] = ref_mass
        k = len(self.sampled)
        p = float(x[k])
        delta_in = math.exp(float(x[k + 1]))
        delta_out = math.exp(float(x[k + 2]))
        return (*probs, p, delta_in, delta_out)

    def log_target(self, x: np.ndarray) -> tuple[float, float]:
        """(sampled-space log density, data log-likelihood)."""
        comp = self.components(x)
        if comp is None:
            return -math.inf, -math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = _log_likelihood_parts(self.stats, *comp)
        if not math.isfinite(ll):
            return -math.inf, -math.inf
        return ll + float(x[-2]) + float(x[-1]), ll

    def reflect(self, x: np.ndarray) -> np.ndarray:
        k = len(self.sampled)
        out = x.copy()
        for i in range(k + 1):  # scenario coordinates and p live in [0, 1]
            out[i] = _reflect_interval(out[i], 0.0, 1.0)
        out[k + 1] = _reflect_upper(out[k + 1], self.log_delta_max)
        out[k + 2] = _reflect_upper(out[k + 2], self.log_delta_max)
        return out

    def pack(self, theta: HybridParams) -> np.ndarray:
        probs = [theta.alpha, theta.beta, theta.gamma, theta.xi, theta.eta]
        return np.array(
            [probs[i] for i in self.sampled]
            + [theta.p, math.log(theta.delta_in), math.log(theta.delta_out)]
        )

    def draw_start(self, rng: np.random.Generator) -> np.ndarray:
        cuts = np.sort(rng.random(len(self.present) - 1)) if len(self.present) > 1 else np.array([])
        gaps = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
        by_scenario = dict(zip(self.present, gaps))
        deltas = np.minimum(rng.exponential(size=2), self.prior.delta_max)
        deltas = np.maximum(deltas, 1e-6)
        return np.array(
            [by_scenario[i] for i in self.sampled]
            + [rng.random(), math.log(deltas[0]), math.log(deltas[1])]
        )


def fit_mh(stats: SufficientStats, config: MhConfig) -> EstimationResult:
    """Random-walk Metropolis-Hastings over the likelihood with flat priors.

    Per-coordinate Gaussian steps with boundary reflection keep the proposal
    symmetric; simplex feasibility is enforced through the prior support.
    The trace keeps every ``thinning``-th post-burn-in draw and records the
    data log-likelihood; the acceptance rate is counted over the post-burn-in
    phase.  Deterministic for a fixed seed.
    """
    space = _MhSpace(stats, config.prior)
    rng = np.random.default_rng(config.seed)
    merged = {**default_step_sizes(), **dict(config.step_sizes)}
    steps = np.array([merged[name] for name in space.names])

    if config.initial is not None:
        x = space.pack(config.initial)
        lp, ll = space.log_target(x)
        if not math.isfinite(lp):
            raise ValueError("initial point has zero posterior density")
    else:
        for _ in range(100):
            x = space.draw_start(rng)
            lp, ll = space.log_target(x)
            if math.isfinite(lp):
                break
        else:
            raise RuntimeError("could not find a starting point with positive density")

    kept: list[TraceEntry] = []
    kept_components: list[tuple[float, ...]] = []
    running_rows: list[np.ndarray] = []
    cumulative = np.zeros(8)
    accepts = 0
    comp = np.array(space.components(x))
    total = config.burn_in + config.iterations
    for t in range(1, total + 1):
        proposal = space.reflect(x + rng.normal(0.0, steps))
        lpp, llp = space.log_target(proposal)
        if rng.random() < accept_probability(lp, lpp):
            x, lp, ll = proposal, lpp, llp
            comp = np.array(space.components(x))
            accepted = True
        else:
            accepted = False
        if t > config.burn_in:
            accepts += accepted
            cumulative += comp
            if (t - config.burn_in) % config.thinning == 0:
                kept_components.append(comp)
                kept.append(TraceEntry(t, _params_from_components(comp), ll))
                # running means over every post-burn-in draw so far, sampled
                # at the thinning points (the usual running-mean plot)
                running_rows.append(cumulative / (t - config.burn_in))

    draws = np.array(kept_components)  # columns: alpha..eta, p, delta_in, delta_out
    summary = np.mean(draws, axis=0) if config.point_estimate == "mean" else np.median(draws, axis=0)
    point = _params_from_components(summary, renormalize_at=space.ref)
    running = np.array(running_rows)
    diagnostics = {
        "running_means": {
            name: running[:, i]
            for i, name in enumerate(SCENARIO_NAMES + ("p", "delta_in", "delta_out"))
        },
        "kept_draws": draws.shape[0],
    }
    return EstimationResult(
        point=point,
        converged=True,
        log_likelihood=_ll_of_point(stats, point),
        trace=kept,
        acceptance_rate=accepts / config.iterations,
        diagnostics=diagnostics,
    )


def _ll_of_point(stats: SufficientStats, point: HybridParams) -> float:
    return _log_likelihood_parts(
        stats,
        point.alpha,
        point.beta,
        point.gamma,
        point.xi,
        point.eta,
        point.p,
        point.delta_in,
        point.delta_out,
    )


def _params_from_components(comp, renormalize_at: int | None = None) -> HybridParams:
    probs = list(comp[:5])
    if renormalize_at is not None:
        probs[renormalize_at] = 0.0
        probs[renormalize_at] = 1.0 - sum(probs)
    return HybridParams(
        alpha=probs[0],
        beta=probs[1],
        gamma=probs[2],
        xi=probs[3],
        eta=probs[4],
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
