"""Multivariate Student-t proposal density for the independence sampler.

The density with location M, scale matrix Sigma and shape nu is

    g(theta) = Gamma((nu+p)/2) / Gamma(nu/2)
               / (det(Sigma)^(1/2) * (nu*pi)^(p/2))
               * [1 + (theta-M)' Sigma^{-1} (theta-M) / nu]^{-(nu+p)/2}

and its covariance is nu/(nu-2) * Sigma.  A proposal fitted to chain
moments (M, V) uses Sigma = SPREAD^2 * (nu-2)/nu * V: its covariance is
SPREAD^2 * V, wider than V, because truncation to the support (below)
narrows the candidates, and an independence sampler mixes better with a
proposal heavier than its target (Tierney 1994; Geweke 1989, Econometrica
57).  The paper's recipe is SPREAD = 1.  Everything goes through the
Cholesky factor L of Sigma.  Sampling: draw Y ~ N(0, I), w ~ chi2_nu, set
X = Y * sqrt(nu/w) and return L X + M.  Density: with z = L^{-1} (theta-M)
the quadratic form is z'z, a sum of squares, and det(Sigma) is the squared
product of L's diagonal.  A draw already holds z = X, so its own density
needs no product with L^{-1}.  A Sigma that does not factor has no density.

A proposal may be truncated to a support: a draw outside it is redrawn.
Restricted to the support, the truncated density is a constant multiple of
g, so an independence sampler's ratio g(theta)/g(theta') is unchanged and
stays exact (Tierney 1994, Ann. Stat. 22).
"""

from __future__ import annotations

__all__ = [
    "MomentEstimate",
    "StudentTProposal",
    "build_proposal",
    "estimate_moments",
]

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateCovarianceError, DomainError, InsufficientDataError


# Largest shape the proposal takes.  The normaliser's difference
# lgamma((nu+p)/2) - lgamma(nu/2) loses about nu * 1e-16 of its relative
# precision (1.5e-11 at nu = 1e6, 1.4e-5 at 1e12, all of it by ~1e17), and
# lgamma overflows near 1e306, so above this bound log g is no longer exact.
NU_MAX = 1e6

# Factor on the proposal's spread: Sigma = SPREAD^2 * (nu-2)/nu * V.  A
# scalar times an exactly symmetric V stays exactly symmetric.  Truncation
# narrows the candidates below V (their generalized variance per dimension
# is 0.75-0.91 of V's on the benchmark inputs).  1.2 mixed better than 1.0
# on them and on a held-out grid (tools/mixing_grid.py); 1.5 mixed worse
# than 1.2 on the 250-return GARCH input.
SPREAD = 1.2

# Most redraws one truncated draw makes.  Past them it returns its last
# draw, off the support, for the target to reject.  That keeps the sampler
# exact: on the support the capped proposal is still a constant multiple of
# g.  A proposal fitted to a chain on the support puts most of its mass
# there, so the cap only binds on a proposal with almost none.
MAX_REDRAWS = 100


def check_nu(nu: float) -> None:
    """Raise DomainError unless 2 < nu <= NU_MAX.

    At nu <= 2 the proposal has no covariance; at large nu the density's
    normaliser cancels (see NU_MAX), and at nu = inf it is NaN.
    """
    if not 2.0 < nu <= NU_MAX:
        raise DomainError(f"nu must exceed 2 and be at most {NU_MAX:.0f}, got {nu}")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and second central moment of a set of draws.

    `estimate_moments` also records the state a later call merges new
    draws into: the draw count, a shift (the first estimate's mean), the
    mean of the draws less the shift, and the sum of the centered rows'
    cross products.  A hand-built estimate has none of it.
    """

    mean: np.ndarray
    second_central: np.ndarray
    count: int = 0
    shift: np.ndarray | None = None
    shifted_mean: np.ndarray | None = None
    cross_sum: np.ndarray | None = None


@dataclass(frozen=True)
class StudentTProposal:
    """Frozen Student-t density: location, scale, Cholesky factor, shape.

    `_chol_inv` is L^{-1}, through which `log_density` evaluates the
    quadratic form.  `support`, if set, is the predicate `draw` truncates
    its draws to.
    """

    mean: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray
    nu: float
    _chol_inv: np.ndarray
    _log_norm: float
    support: Callable[[np.ndarray], bool] | None = None

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """One draw via the normal/chi-square representation, and its log g.

        A draw outside `support` is redrawn, at most MAX_REDRAWS times.
        Without a support, each draw takes one normal vector and one
        chi-square variate from `rng`.  log g is `log_density`'s up to
        rounding, taken from the standardized vector X = L^{-1} (theta - M)
        the draw was made from.
        """
        # ndarray.dot and in-place updates: per-call overhead dominates at
        # p = 3 or 4, and `@` and fresh temporaries cost more of it.
        for _ in range(MAX_REDRAWS + 1):
            x = rng.standard_normal(self.mean.size)
            x *= math.sqrt(self.nu / rng.chisquare(self.nu))
            draw = self.chol.dot(x)
            draw += self.mean
            if self.support is None or self.support(draw):
                break
        return draw, self._log_norm - 0.5 * (self.nu + self.mean.size) * math.log1p(x.dot(x) / self.nu)

    def log_density(self, theta: Sequence[float]) -> float:
        """Exact log g(theta), normalization included."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.mean.shape:
            raise DomainError(f"expected vector of dimension {self.mean.size}, got shape {theta.shape}")
        z = self._chol_inv.dot(theta - self.mean)
        quad = z.dot(z)
        return self._log_norm - 0.5 * (self.nu + self.mean.size) * math.log1p(quad / self.nu)


def _centered_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each row, and the cross-product sums of the rows centered in place."""
    p = rows.shape[0]
    cross = np.empty((p, p))
    mean = rows.mean(axis=1)
    rows -= mean[:, np.newaxis]
    for i in range(p):
        for j in range(i + 1):
            # einsum, not np.dot: np.dot hands long vectors to a
            # multithreaded BLAS whose workers then spin on idle cores.
            cross[i, j] = cross[j, i] = np.einsum("i,i->", rows[i], rows[j])
    return mean, cross


def estimate_moments(samples: Sequence[Sequence[float]], previous: MomentEstimate | None = None) -> MomentEstimate:
    """Sample mean and unbiased (N-1) covariance of the draws.

    Takes an (N, p) array or a sequence of N p-vectors, one draw per row.
    Two passes over one contiguous row per parameter: the means, then the
    p(p+1)/2 dot products of the centered rows, so the covariance is
    symmetric by construction.  The input is not modified.  Draws too
    large for their squares to fit a float give non-finite moments,
    without a warning; `build_proposal` rejects them.

    `previous`, an estimate this function made of `samples[:k]`, lets it
    read only `samples[k:]`: those rows are two-passed less `previous`'s
    shift, and their count, mean and cross-product sum are merged into
    `previous`'s by the pairwise update of Chan, Golub and LeVeque (1983),
    so a refit costs O((N-k) p^2).  The shift keeps the merge as accurate
    as one two-pass call over all N rows: on a column at 1e6 +- 0.1, merges
    read 2.6e-15 of the covariance's scale off exact sums, and 1.1e-10
    unshifted.  A `previous` of all N rows is returned as it is; one of
    another dimension, of more than N rows or without merge state is a
    DomainError.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"samples must form an (N, p) array, got shape {arr.shape}")
    n, p = arr.shape
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples to estimate moments, got {n}")
    if previous is None:
        # A copy in any case: the rows are centered in place.
        rows = arr.T.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            mean, cross = _centered_sums(rows)
            # The rows less the rounded mean average to its rounding error;
            # a merge that took it for 0 would lose ~1e-11 of a covariance.
            residual = rows.mean(axis=1)
        return MomentEstimate(mean, cross / (n - 1), n, mean, residual, cross)

    if previous.cross_sum is None:
        raise DomainError("previous estimate has no merge state; pass one that estimate_moments returned")
    if previous.shift.shape != (p,):
        raise DomainError(f"previous estimate has dimension {previous.shift.size}, samples have {p}")
    k = previous.count
    if k > n:
        raise DomainError(f"previous estimate covers {k} rows, samples have only {n}")
    if k == n:
        return previous
    rows = arr[k:].T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        rows -= previous.shift[:, np.newaxis]
        new_mean, new_cross = _centered_sums(rows)
        delta = new_mean - previous.shifted_mean
        shifted_mean = previous.shifted_mean + delta * ((n - k) / n)
        cross = previous.cross_sum + new_cross + np.outer(delta, delta) * (k * (n - k) / n)
        mean = previous.shift + shifted_mean
    return MomentEstimate(mean, cross / (n - 1), n, previous.shift, shifted_mean, cross)


def build_proposal(
    moments: MomentEstimate, nu: float, support: Callable[[np.ndarray], bool] | None = None
) -> StudentTProposal:
    """Scale the chain covariance into a Student-t proposal.

    Sigma = SPREAD^2 * (nu-2)/nu * V makes the proposal's covariance
    SPREAD^2 * V, wider than V, since truncation narrows it.  The
    proposal keeps Sigma's Cholesky factor L and L^{-1}, through which
    `log_density` evaluates the quadratic form.  Its draws are truncated to
    `support`, a predicate on a parameter vector, if one is given (the
    sampler passes `model.in_support`).  V must be exactly
    symmetric, or it is a DomainError naming the largest asymmetry.
    Non-finite moments, and a Sigma that does not factor (early-chain draws
    can be collinear), are a DegenerateCovarianceError.
    """
    check_nu(nu)
    v = np.asarray(moments.second_central, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
        raise DomainError(f"second moment must be square and non-empty, got shape {v.shape}")
    p = v.shape[0]
    mean = np.asarray(moments.mean, dtype=float)
    if mean.shape != (p,):
        raise DomainError(f"mean shape {mean.shape} does not match dimension {p}")
    # Draws near the float limit overflow their squares.
    if not (np.isfinite(v).all() and np.isfinite(mean).all()):
        raise DegenerateCovarianceError(
            f"moments are not finite (mean {mean.tolist()}, variances {np.diag(v).tolist()}): "
            "draws this large overflow their squares"
        )
    if not np.array_equal(v, v.T):
        raise DomainError(f"second moment is not symmetric (max asymmetry {np.max(np.abs(v - v.T)):.3e})")
    sigma = SPREAD**2 * (nu - 2.0) / nu * v
    try:
        chol = np.linalg.cholesky(sigma)
        chol_inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        raise DegenerateCovarianceError(
            f"covariance is not positive definite (variances {np.diag(v).tolist()}): "
            "the draws are collinear; a longer --burn-in or a larger --initial-pool helps"
        ) from None

    # log det(Sigma)^(1/2) is the sum of the logs of L's diagonal.
    log_norm = (
        math.lgamma((nu + p) / 2.0)
        - math.lgamma(nu / 2.0)
        - float(np.log(np.diag(chol)).sum())
        - 0.5 * p * math.log(nu * math.pi)
    )
    return StudentTProposal(
        mean=mean,
        sigma=sigma,
        chol=chol,
        nu=float(nu),
        _chol_inv=chol_inv,
        _log_norm=float(log_norm),
        support=support,
    )
