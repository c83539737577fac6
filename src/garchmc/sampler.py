"""Metropolis warm-up, independence MH step, and the adaptive driver.

The driver runs in two phases.  A component-wise random-walk Metropolis
warm-up discards `burn_in` sweeps and keeps `initial_pool` states, from
which the first Student-t proposal is fitted.  The main phase is an
independence Metropolis-Hastings chain; every `update_interval` draws the
proposal's (M, Sigma) are re-fitted from all samples accumulated so far
(pool included) so the proposal tracks the posterior it is feeding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import model
from .errors import DomainError
from .proposal import StudentTProposal, build_proposal, check_nu, estimate_moments

log = logging.getLogger(__name__)

LogTarget = Callable[[np.ndarray], float]

# Warm-up random-walk step size before tuning, and the number of discarded
# sweeps between step-size adjustments.
WARMUP_STEP = 0.01
WARMUP_ADAPT_INTERVAL = 200


@dataclass
class ChainConfig:
    """Run schedule and tuning knobs for `run_adaptive`."""

    kind: model.ModelKind = model.ModelKind.QGARCH
    burn_in: int = 5000
    initial_pool: int = 1000
    update_interval: int = 1000
    total_samples: int = 100_000
    nu: float = 10.0
    seed: int = 0
    sigma1_sq: float | None = None
    freeze_after: int | None = None

    def __post_init__(self):
        # The first proposal needs a covariance, so the pool holds at least
        # two states.
        least = {"burn_in": 1, "initial_pool": 2, "update_interval": 1, "total_samples": 1, "seed": 0}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        check_nu(self.nu)
        if self.sigma1_sq is not None:
            model.check_sigma1_sq(self.sigma1_sq)
        if self.freeze_after is not None and self.freeze_after < 0:
            raise DomainError(f"freeze_after must be >= 0, got {self.freeze_after}")


@dataclass
class MomentSnapshot:
    """Moment estimate at a point in Monte Carlo time.

    `proposal_sigma` is the scale matrix of the proposal in effect after
    this point (the frozen one if adaptation has stopped).
    """

    t: int
    mean: np.ndarray
    second_central: np.ndarray
    proposal_sigma: np.ndarray


@dataclass
class ChainResult:
    """Draws and traces from one adaptive run."""

    samples: np.ndarray
    param_names: tuple[str, ...]
    acceptance_trace: np.ndarray
    moment_trace: list[MomentSnapshot]
    warmup_samples: np.ndarray


class MHStep(NamedTuple):
    """Outcome of one MH transition, with the state's cached log densities."""

    theta: np.ndarray
    accepted: bool
    log_target: float
    log_proposal: float


def metropolis_warmup(
    target: LogTarget,
    theta0: Sequence[float],
    n_keep: int,
    n_discard: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Component-wise random-walk Metropolis chain.

    Each sweep perturbs one component at a time with a Gaussian step and
    applies the symmetric-proposal accept rule min(1, P'/P).  Steps start
    at WARMUP_STEP.  During the discarded sweeps each component's step is
    doubled (halved) every WARMUP_ADAPT_INTERVAL sweeps when its acceptance
    runs above 60% (below 40%), steering toward roughly 50%; steps are
    frozen afterwards.

    Returns the `n_keep` states following the `n_discard` discarded ones,
    as an (n_keep, p) array.
    """
    x = np.asarray(theta0, dtype=float).copy()
    p = x.size
    lp = target(x)
    if not math.isfinite(lp):
        raise DomainError(f"warm-up start has non-finite target: {theta0}")
    steps = np.full(p, WARMUP_STEP)
    kept = np.empty((n_keep, p))
    accepts = np.zeros(p, dtype=int)
    for sweep in range(n_discard + n_keep):
        for j in range(p):
            proposed = x.copy()
            proposed[j] += steps[j] * rng.standard_normal()
            lp_new = target(proposed)
            delta = lp_new - lp
            if delta >= 0.0 or rng.random() < math.exp(delta):
                x = proposed
                lp = lp_new
                accepts[j] += 1
        if sweep < n_discard and (sweep + 1) % WARMUP_ADAPT_INTERVAL == 0:
            rate = accepts / WARMUP_ADAPT_INTERVAL
            steps[rate > 0.6] *= 2.0
            steps[rate < 0.4] *= 0.5
            accepts[:] = 0
        if sweep >= n_discard:
            kept[sweep - n_discard] = x
    return kept


def mh_step(
    target: LogTarget,
    proposal: StudentTProposal,
    current: np.ndarray,
    rng: np.random.Generator,
    *,
    current_log_target: float | None = None,
    current_log_proposal: float | None = None,
) -> MHStep:
    """One independence Metropolis-Hastings transition.

    The candidate is drawn from the proposal regardless of the current
    state, so the accept probability is

        min[1, P(theta') / P(theta) * g(theta) / g(theta')].

    A candidate with -inf target is always rejected.  Passing the cached
    log densities of the current state avoids re-evaluating them.
    """
    lt_cur = target(current) if current_log_target is None else current_log_target
    lg_cur = proposal.log_density(current) if current_log_proposal is None else current_log_proposal
    candidate = proposal.draw(rng)
    lt_new = target(candidate)
    if lt_new == -math.inf:
        return MHStep(current, False, lt_cur, lg_cur)
    lg_new = proposal.log_density(candidate)
    log_accept = (lt_new - lt_cur) + (lg_cur - lg_new)
    if log_accept >= 0.0 or rng.random() < math.exp(log_accept):
        return MHStep(candidate, True, lt_new, lg_new)
    return MHStep(current, False, lt_cur, lg_cur)


def default_theta0(returns, kind: model.ModelKind) -> model.ModelParams:
    """Interior starting point scaled to the data's variance."""
    variance = float(np.var(np.asarray(returns.values, dtype=float)))
    return model.ModelParams(max(0.1 * variance, 1e-12), 0.1, 0.8, 0.0, kind)


def run_adaptive(config: ChainConfig, returns) -> ChainResult:
    """Full adaptive run against a return series.

    Warm-up, proposal fit, then `total_samples` independence-MH draws with
    the proposal re-fitted every `update_interval` draws from the pool
    plus all adaptive-phase samples (or until `freeze_after` draws, after
    which the proposal stays fixed).  Per-window acceptance fractions and
    per-update moment snapshots are recorded.
    """
    params0 = default_theta0(returns, config.kind)
    target = model.log_posterior_fn(returns, config.kind, config.sigma1_sq)
    names = config.kind.param_names
    p = len(names)

    warm_seed, mh_seed = np.random.SeedSequence(config.seed).spawn(2)
    pool = metropolis_warmup(
        target,
        params0.as_vector(),
        config.initial_pool,
        config.burn_in,
        np.random.default_rng(warm_seed),
    )

    # Pool and adaptive draws share one buffer so each re-fit sees all
    # accumulated data without copying.
    n_pool, total, interval = config.initial_pool, config.total_samples, config.update_interval
    store = np.empty((n_pool + total, p))
    store[:n_pool] = pool

    moments = estimate_moments(store[:n_pool])
    proposal = build_proposal(moments, config.nu)
    trace = [MomentSnapshot(0, moments.mean, moments.second_central, proposal.sigma)]

    rng = np.random.default_rng(mh_seed)
    x = pool[-1].copy()
    lt = target(x)
    lg = proposal.log_density(x)
    acceptance: list[float] = []
    n_windows = math.ceil(total / interval)

    # Each window draws from one fixed proposal.  At the window's end the
    # proposal is re-fitted from every draw so far, unless it is frozen.
    for start in range(0, total, interval):
        end = min(start + interval, total)
        accepts = 0
        for row in range(n_pool + start, n_pool + end):
            x, accepted, lt, lg = mh_step(
                target, proposal, x, rng, current_log_target=lt, current_log_proposal=lg
            )
            store[row] = x
            accepts += accepted
        acceptance.append(accepts / (end - start))
        moments = estimate_moments(store[: n_pool + end])
        frozen = config.freeze_after is not None and end >= config.freeze_after
        if not frozen:
            proposal = build_proposal(moments, config.nu)
            lg = proposal.log_density(x)
        trace.append(MomentSnapshot(end, moments.mean, moments.second_central, proposal.sigma))
        log.info(
            "window %d/%d  acceptance %.3f%s",
            len(acceptance),
            n_windows,
            acceptance[-1],
            "  (proposal frozen)" if frozen else "",
        )

    return ChainResult(
        samples=store[n_pool:],
        param_names=names,
        acceptance_trace=np.asarray(acceptance),
        moment_trace=trace,
        warmup_samples=store[:n_pool],
    )
