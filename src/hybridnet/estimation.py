"""Likelihood maximisation and posterior sampling.

The scenario probabilities enter the likelihood only through a multinomial
term; the kernel terms involve only (p, delta_in, delta_out).  Both
estimators use that split.  The maximum-likelihood search fixes the
scenario block at its closed-form maximum (the empirical frequencies) and
runs a projected Newton ascent on (delta_in, delta_out, p), the coordinates
of the likelihood's derivatives, with one rule for every bound.  Under flat
priors the posterior factorises the same way: the sampler draws the
scenario block exactly from its Dirichlet posterior and runs a random-walk
Metropolis-Hastings chain, with a proposal adapted during burn-in, on
(p, log delta_in, log delta_out) only.  The chain screens each proposal
with a cheap upper bound on the kernel log-likelihood and evaluates the
exact value only where the bound cannot reject; the decisions are those of
the unscreened chain.  The integrated pipeline starts the Newton search at
the sampler's posterior point estimate.  ``fit`` selects
one of the three estimators by name.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .likelihood import (
    SufficientStats,
    _kernel_derivatives,
    _kernel_log_likelihood,
    _kernel_upper_bound,
    _scenario_log_likelihood,
    log_likelihood,
    mle_scenarios,
)
from .model import HybridParams, _row_blocks

_PROB_EPS = 1e-9
_DELTA_FLOOR = 1e-12  # lower bound of the offsets in the Newton search; HybridParams needs delta > 0
_EIG_RTOL = 1e-8  # eigenvalue floor of -H, relative to its largest magnitude
_ARMIJO = 1e-4  # sufficient-increase fraction of the line search
_MAX_HALVINGS = 50
_INITIAL_STEPS = (0.01, 0.05, 0.05)  # initial proposal scales of (p, log delta_in, log delta_out)
_ADAPT_POINTS = 10  # proposal adaptations, evenly spaced over burn-in
_ADAPT_SCALE = 2.38**2 / 3  # optimal random-walk scaling in three dimensions
_PD_RTOL = 1e-12  # smallest/largest covariance eigenvalue that counts as positive definite
_WALK_BLOCK = 4096  # sampler steps drawn and walked at a time


@dataclass(frozen=True)
class NelderMeadConfig:
    """Settings of ``fit_nelder_mead``, a Newton search that keeps the name
    of the simplex search it replaced.  ``max_iters`` bounds the Newton
    steps.  It converges when the Newton decrement g'(-H)^-1 g / 2, the gain
    the quadratic model predicts, is at most ``f_tol``, or when a step moves
    ``p`` by at most ``x_tol`` and each offset by at most ``x_tol`` times
    itself (to first order, ``x_tol`` in log delta)."""

    initial_point: HybridParams
    max_iters: int = 4000
    f_tol: float = 1e-10
    x_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.f_tol <= 0.0 or self.x_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class MhConfig:
    """Metropolis-Hastings settings.

    ``iterations`` counts post-burn-in steps; every ``thinning``-th of them
    is kept.  The priors are flat: the scenario probabilities on the
    simplex, p on [0, 1] and each offset on (0, ``delta_max``], which must
    be finite for the posterior to be proper.
    """

    burn_in: int = 10_000
    iterations: int = 20_000
    thinning: int = 500
    delta_max: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.iterations < self.thinning:
            raise ValueError("iterations must be >= thinning")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not 0.0 < self.delta_max < math.inf:
            raise ValueError("delta_max must be positive and finite")


class TraceEntry(NamedTuple):
    iteration: int
    params: HybridParams
    log_posterior: float


class Trace(Sequence):
    """A sampler's kept draws as columns: ``iteration`` (int64),
    ``draws`` (one row per draw: alpha, beta, gamma, xi, eta, p, delta_in,
    delta_out, with p clamped to [0, 1]) and ``log_posterior``.

    Indexing and iteration give ``TraceEntry`` rows, whose ``HybridParams``
    is built and validated only when the row is accessed; iteration
    converts the columns ``model._ROW_BLOCK`` rows at a time.  A slice
    gives a ``Trace`` of the sliced rows.
    """

    def __init__(self, iteration: np.ndarray, draws: np.ndarray, log_posterior: np.ndarray):
        self.iteration = np.asarray(iteration, dtype=np.int64)
        self.draws = np.array(draws, dtype=float)
        p = self.draws[:, 5]
        p[...] = np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))  # as _params_from_components
        self.log_posterior = np.asarray(log_posterior, dtype=float)

    def __len__(self) -> int:
        return len(self.iteration)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trace(self.iteration[k], self.draws[k], self.log_posterior[k])
        k = operator.index(k)  # one row; numpy counts a negative index from the end
        row = self.draws[k].tolist()
        lp = float(self.log_posterior[k])
        return TraceEntry(int(self.iteration[k]), _params_from_components(row), lp)

    def __iter__(self):
        for t, rows, lp in _row_blocks((self.iteration, self.draws, self.log_posterior)):
            yield from map(TraceEntry, t, map(_params_from_components, rows), lp)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self.iteration, other.iteration)
            and np.array_equal(self.draws, other.draws)
            and np.array_equal(self.log_posterior, other.log_posterior)
        )


@dataclass
class EstimationResult:
    point: HybridParams
    converged: bool
    log_likelihood: float
    trace: Trace | None = None
    acceptance_rate: float | None = None
    diagnostics: dict = field(default_factory=dict)


def accept_probability(current_log_target: float, proposal_log_target: float) -> float:
    """Metropolis acceptance probability min(1, target ratio) for a
    symmetric proposal; a zero-density proposal is never accepted."""
    if proposal_log_target == -math.inf:
        return 0.0
    return min(1.0, math.exp(min(proposal_log_target - current_log_target, 0.0)))


# ---------------------------------------------------------------------------
# Newton ascent over the kernel coordinates
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


def _newton_step(grad: np.ndarray, hess: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve (-H) s = g over the ``free`` coordinates, with nonpositive
    eigenvalues of -H raised to a small floor; held coordinates get 0."""
    step = np.zeros(3)
    if free.any():
        eigenvalues, vectors = np.linalg.eigh(-hess[np.ix_(free, free)])
        eigenvalues[eigenvalues <= 0.0] = max(_EIG_RTOL * np.abs(eigenvalues).max(), 1e-300)
        step[free] = vectors @ ((vectors.T @ grad[free]) / eigenvalues)
    return step


def fit_nelder_mead(stats: SufficientStats, config: NelderMeadConfig) -> EstimationResult:
    """Maximise the log-likelihood by projected Newton ascent (Bertsekas,
    SIAM J. Control Optim. 20(2), 1982) on (delta_in, delta_out, p) over
    [_DELTA_FLOOR, inf)^2 x [0, 1], from ``config.initial_point`` moved into
    that box, with the scenario block fixed at the empirical frequencies.

    A coordinate on a bound is held when the gradient or the Newton step
    points out of the box, and ``diagnostics["active_bound"]`` names it
    (``"delta_out = floor"``, ``"p = 1"``).  A step stops at the first bound
    it meets and is backtracked to the Armijo condition.  ``converged`` is
    False when ``max_iters`` runs out, the line search finds no ascent, or a
    scenario frequency is on the regularity boundary."""
    probs, boundary = _scenario_block(stats)
    start = config.initial_point
    lower, upper = np.array([_DELTA_FLOOR, _DELTA_FLOOR, 0.0]), np.array([math.inf, math.inf, 1.0])
    x = np.clip([start.delta_in, start.delta_out, start.p], lower, upper)
    ll, grad, hess = _kernel_derivatives(stats, x[2], x[0], x[1])
    evals = 1
    converged, message = False, "iteration budget exhausted"
    for iteration in range(1, config.max_iters + 1):
        on_lower, on_upper = x <= lower, x >= upper
        held = (on_lower & (grad <= 0.0)) | (on_upper & (grad >= 0.0))
        step = _newton_step(grad, hess, ~held)
        # holding one coordinate can turn the step over another outwards
        while (out := (on_lower & (step < 0.0)) | (on_upper & (step > 0.0))).any():
            held |= out
            step = _newton_step(grad, hess, ~held)
        # x_tol is relative for the offsets, whose Newton step near 0 is about delta itself
        scale = np.array([x[0], x[1], 1.0])
        if 0.5 * float(grad @ step) <= config.f_tol or (np.abs(step) <= config.x_tol * scale).all():
            converged, message = True, "Newton decrement or step within tolerance"
            break
        edge = np.where(step < 0.0, lower, upper)  # the bound that each coordinate moves towards
        t_edge = np.divide(edge - x, step, out=np.full(3, math.inf), where=step != 0.0)
        t = min(1.0, t_edge.min())
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(x + t * step, lower, upper)
            hits = t_edge == t  # exactly on the edge, so that the bound can become active
            trial[hits] = edge[hits]
            trial_ll, trial_grad, trial_hess = _kernel_derivatives(stats, trial[2], trial[0], trial[1])
            evals += 1
            if trial_ll >= ll + _ARMIJO * t * (grad @ step):
                break
            t *= 0.5
        else:
            message = "line search found no ascent"
            break
        x, ll, grad, hess = trial, trial_ll, trial_grad, trial_hess
    point = _params_from_components((*probs, x[2], x[0], x[1]))
    diagnostics = {"iterations": iteration, "function_evals": evals, "restarts": 0, "message": message}
    if held.any():
        names = ("delta_in = floor", "delta_out = floor", f"p = {x[2]:g}")
        diagnostics["active_bound"] = ", ".join(n for n, h in zip(names, held) if h)
    if boundary:
        diagnostics["boundary"] = "a scenario frequency sits on the regularity boundary"
    return EstimationResult(
        point=point,
        converged=converged and not boundary,
        log_likelihood=_scenario_log_likelihood(stats, *probs) + ll,
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


def _increments(z: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """The rows ``chol @ z[k]``, each summed left to right by numpy's
    elementwise operations; a BLAS product's last digits can depend on its
    thread count."""
    out = z[:, 0:1] * chol[:, 0]
    out += z[:, 1:2] * chol[:, 1]
    out += z[:, 2:3] * chol[:, 2]
    return out


def fit_mh(stats: SufficientStats, config: MhConfig) -> EstimationResult:
    """Flat-prior posterior sampling: the scenario block drawn exactly, a
    random walk on the kernel block.

    Under the flat prior the posterior factorises.  The scenario
    probabilities are Dirichlet(counts + 1) on the scenarios that occur
    (the others are exactly zero) and independent of the kernel, so they
    are drawn exactly, once per kept draw, after the chain.  The kernel
    block (p, log delta_in, log delta_out) is sampled by random-walk
    Metropolis-Hastings on the kernel log-likelihood plus the log-scale
    Jacobian, from p uniform and offsets from a standard exponential; a
    proposal outside the prior support (p in [0, 1],
    delta <= ``delta_max``) has zero density and is rejected.  Reflecting
    it back instead would not be a symmetric proposal once the steps are
    correlated.  The proposal covariance starts as diag(0.01, 0.05, 0.05)
    squared; at ten evenly spaced points of burn-in it is set to 2.38^2/3
    times the covariance of the later half of the draws so far, and after
    burn-in it is frozen, so the kept draws come from a plain
    Metropolis-Hastings chain.  With ``burn_in=0`` the initial proposal is
    used throughout.

    The steps are walked in blocks of at most ``_WALK_BLOCK``, split at
    the adaptation points.  A block's three standard normals and uniform
    per step are drawn before it is walked, step by step in that order, so
    the seed gives the random stream of a step-by-step draw.  The
    proposal is fixed within a block, so its increments, the proposal's
    Cholesky factor times the normals, are computed in one pass; the walk
    itself runs on Python floats.  The states of the burn-in steps are
    kept for the adaptation windows, and after burn-in only those of the
    kept draws, so the memory of a chain does not grow with its
    post-burn-in length beyond its kept draws.

    Inside the prior support, ``_kernel_upper_bound`` gives a bound on the
    computed kernel log-likelihood, and the exact value is evaluated only
    when ``u`` falls below the acceptance probability of that bound
    (Solonen et al., Bayesian Analysis 7(3), 2012, early rejection).
    ``accept_probability`` is nondecreasing in the proposal's log target,
    and rounding is monotone, so a step that the bound rejects is one that
    the exact value rejects: every decision, draw and acceptance rate is
    the unscreened chain's.  ``diagnostics["likelihood_evals"]`` counts
    the exact evaluations, those of the start and the point estimate
    included.

    The trace keeps every ``thinning``-th post-burn-in draw with its data
    log-likelihood, as columns (``Trace``), and the point estimate is the
    mean of the kept draws; the acceptance rate is the kernel walk's over
    the post-burn-in phase.  ``converged`` is always True: the sampler
    checks no convergence diagnostic yet.  Deterministic for a fixed seed.
    """
    counts = np.array(stats.scenario_counts)
    present = counts > 0
    if not present.any():
        raise ValueError("cannot fit an empty log")
    log_delta_max = math.log(config.delta_max)
    rng = np.random.default_rng(config.seed)
    deltas = np.clip(rng.exponential(size=2), 1e-6, config.delta_max)
    x0, x1, x2 = rng.random(), *np.log(deltas).tolist()
    burn_in, thinning = config.burn_in, config.thinning
    steps = burn_in + config.iterations
    # the steps after which the proposal is adapted end the phases
    ends = sorted({round(k * burn_in / _ADAPT_POINTS) for k in range(1, _ADAPT_POINTS + 1)} - {0})
    ends.append(steps)
    chol = np.diag(_INITIAL_STEPS)
    normals = np.empty((_WALK_BLOCK, 3))
    uniforms = [0.0] * _WALK_BLOCK
    # per step of a block, the state after it: (p, log delta_in, log delta_out, kernel log-likelihood)
    walk = [None] * _WALK_BLOCK
    history = []  # the burn-in steps' states
    kept = []  # the kept draws' states
    evals = 1
    # exp can underflow a proposed offset to zero; its -inf is a rejection
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = _kernel_log_likelihood(stats, x0, math.exp(x1), math.exp(x2))
        if not math.isfinite(ll):
            ll = -math.inf
        lp = ll + x1 + x2
        state = (x0, x1, x2, ll)
        lo = 0
        for hi in ends:  # the last phase, and only it, is the post-burn-in one
            accepts = 0  # so that the rate counts the post-burn-in moves
            for start in range(lo, hi, _WALK_BLOCK):
                n = min(_WALK_BLOCK, hi - start)
                for k in range(n):
                    rng.standard_normal(out=normals[k])
                    uniforms[k] = rng.random()
                increments = _increments(normals[:n], chol).tolist()
                for k, (d0, d1, d2), u in zip(range(n), increments, uniforms):
                    p, log_delta_in, log_delta_out = x0 + d0, x1 + d1, x2 + d2
                    if 0.0 <= p <= 1.0 and log_delta_in <= log_delta_max and log_delta_out <= log_delta_max:
                        delta_in, delta_out = math.exp(log_delta_in), math.exp(log_delta_out)
                        bound = _kernel_upper_bound(stats, p, delta_in, delta_out)
                        # the screen: a proposal that its bound rejects, the exact value rejects too
                        if u < accept_probability(lp, bound + log_delta_in + log_delta_out):
                            evals += 1
                            llp = _kernel_log_likelihood(stats, p, delta_in, delta_out)
                            lpp = llp + log_delta_in + log_delta_out
                            if math.isfinite(llp) and u < accept_probability(lp, lpp):
                                x0, x1, x2, lp = p, log_delta_in, log_delta_out, lpp
                                state = (p, log_delta_in, log_delta_out, llp)
                                accepts += 1
                    walk[k] = state
                if hi <= burn_in:
                    history += walk[:n]
                else:  # post-burn-in step t is kept when t - burn_in + 1 is a multiple of thinning
                    kept += walk[(burn_in + thinning - 1 - start) % thinning : n : thinning]
                del increments  # before the next block's are built
            if hi <= burn_in:  # from the later half of the draws so far
                window = np.array(history[hi // 2 : hi])[:, :3]
                chol = _adapted_proposal(window, chol)
            lo = hi

        n_kept = config.iterations // thinning
        kept = np.array(kept)
        probs = np.zeros((n_kept, 5))
        probs[:, present] = rng.dirichlet(counts[present] + 1.0, size=n_kept)
        # the multinomial term of every kept draw (-inf where a drawn probability is 0)
        scenario_ll = (np.log(probs[:, present]) * counts[present]).sum(axis=1)
    # columns: alpha..eta, p, delta_in, delta_out
    draws = np.hstack([probs, kept[:, :1], np.exp(kept[:, 1:3])])
    iterations = np.arange(burn_in + thinning, burn_in + n_kept * thinning + 1, thinning)
    summary = np.mean(draws, axis=0)
    summary[:5] /= summary[:5].sum()  # back onto the simplex after rounding
    point = _params_from_components(summary)
    return EstimationResult(
        point=point,
        converged=True,
        log_likelihood=log_likelihood(stats, point),
        trace=Trace(iterations, draws, scenario_ll + kept[:, 3]),
        acceptance_rate=accepts / config.iterations,
        diagnostics={"likelihood_evals": evals + 1},  # the point's evaluation included
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
    """Coarse posterior sampling, then the Newton search from the posterior
    point estimate; returns the Newton result with the sampler's trace,
    acceptance rate, point (``mh_point``) and exact-evaluation count
    (``mh_likelihood_evals``) attached."""
    mh = fit_mh(stats, mh_config)
    nm = fit_nelder_mead(stats, replace(nm_config_template, initial_point=mh.point))
    nm.trace = mh.trace
    nm.acceptance_rate = mh.acceptance_rate
    nm.diagnostics = {
        **nm.diagnostics,
        "mh_point": mh.point,
        "mh_likelihood_evals": mh.diagnostics["likelihood_evals"],
    }
    return nm


FIT_METHODS = ("nm", "mh", "integrated")


def fit(
    stats: SufficientStats, method: str, mh_config: MhConfig | None, nm_config: NelderMeadConfig
) -> EstimationResult:
    """Run the estimator named ``method``, one of ``FIT_METHODS``: the
    Newton search (``"nm"``), the sampler (``"mh"``) or the sampler-seeded
    Newton search (``"integrated"``).  ``mh_config`` is read only by the
    two sampler methods."""
    if method == "nm":
        return fit_nelder_mead(stats, nm_config)
    if method == "mh":
        return fit_mh(stats, mh_config)
    if method == "integrated":
        return fit_integrated(stats, mh_config, nm_config)
    raise ValueError(f"unknown method {method!r}")
