"""Multivariate Student-t proposal density for the independence sampler.

The density with location M, scale matrix Sigma and shape nu is

    g(theta) = Gamma((nu+p)/2) / Gamma(nu/2)
               / (det(Sigma)^(1/2) * (nu*pi)^(p/2))
               * [1 + (theta-M)' Sigma^{-1} (theta-M) / nu]^{-(nu+p)/2}

and its covariance is nu/(nu-2) * Sigma, so a proposal matched to chain
moments (M, V) uses Sigma = (nu-2)/nu * V.  Sampling goes through the
Cholesky factor L of Sigma: draw Y ~ N(0, I), w ~ chi2_nu, set
X = Y * sqrt(nu/w) and return L X + M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateCovarianceError, DomainError, InsufficientDataError

# Regularization ladder for (near-)singular chain covariances: start at
# JITTER_SCALE * max(1, trace/p) and double up to JITTER_TRIES times.
JITTER_SCALE = 1e-8
JITTER_TRIES = 10


def check_nu(nu: float) -> None:
    """Raise DomainError unless 2 < nu < inf.

    At nu <= 2 the proposal has no covariance; at nu = inf the scale
    (nu-2)/nu and the density's normaliser are NaN.
    """
    if not 2.0 < nu < math.inf:
        raise DomainError(f"nu must be finite and exceed 2, got {nu}")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and second central moment of a set of draws."""

    mean: np.ndarray
    second_central: np.ndarray


@dataclass(frozen=True)
class StudentTProposal:
    """Frozen Student-t density: location, scale, Cholesky factor, shape."""

    mean: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray
    nu: float
    _precision: np.ndarray
    _log_norm: float

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One draw via the normal/chi-square representation."""
        y = rng.standard_normal(self.mean.shape)
        w = rng.chisquare(self.nu)
        x = y * math.sqrt(self.nu / w)
        return self.chol @ x + self.mean

    def log_density(self, theta: Sequence[float]) -> float:
        """Exact log g(theta), normalization included."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.mean.shape:
            raise DomainError(f"expected vector of dimension {self.mean.size}, got shape {theta.shape}")
        d = theta - self.mean
        quad = d @ self._precision @ d
        return self._log_norm - 0.5 * (self.nu + self.mean.size) * math.log1p(quad / self.nu)


def estimate_moments(samples: Sequence[Sequence[float]]) -> MomentEstimate:
    """Sample mean and unbiased (N-1) covariance of the draws.

    Accepts an (N, p) array or a sequence of p-vectors; plain scalars are
    treated as one-dimensional draws.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DomainError(f"samples must form an (N, p) array, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples to estimate moments, got {n}")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / (n - 1)
    return MomentEstimate(mean=mean, second_central=(cov + cov.T) / 2.0)


def build_proposal(moments: MomentEstimate, nu: float) -> StudentTProposal:
    """Scale the chain covariance into a Student-t proposal.

    Sigma = (nu-2)/nu * V matches the proposal's covariance to V.  If the
    Cholesky factorization fails (early-chain samples can be collinear),
    an identity jitter is added and doubled up to JITTER_TRIES times.
    """
    check_nu(nu)
    v = np.asarray(moments.second_central, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
        raise DomainError(f"second moment must be square and non-empty, got shape {v.shape}")
    asym = np.max(np.abs(v - v.T))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise DomainError(f"second moment is not symmetric (max asymmetry {asym:.3e})")
    v = (v + v.T) / 2.0
    p = v.shape[0]
    mean = np.asarray(moments.mean, dtype=float)
    if mean.shape != (p,):
        raise DomainError(f"mean shape {mean.shape} does not match dimension {p}")

    sigma = (nu - 2.0) / nu * v
    eps = JITTER_SCALE * max(1.0, float(np.trace(v)) / p)
    jitter = 0.0
    for attempt in range(JITTER_TRIES + 1):
        try:
            candidate = sigma if jitter == 0.0 else sigma + jitter * np.eye(p)
            chol = np.linalg.cholesky(candidate)
            sigma = candidate
            break
        except np.linalg.LinAlgError:
            jitter = eps * 2.0**attempt
    else:
        raise DegenerateCovarianceError(
            f"covariance not positive definite after {JITTER_TRIES} jitter doublings"
        )

    log_det = 2.0 * float(np.log(np.diag(chol)).sum())
    log_norm = (
        gammaln((nu + p) / 2.0)
        - gammaln(nu / 2.0)
        - 0.5 * log_det
        - 0.5 * p * math.log(nu * math.pi)
    )
    precision = np.linalg.inv(sigma)
    precision = (precision + precision.T) / 2.0
    return StudentTProposal(
        mean=mean,
        sigma=sigma,
        chol=chol,
        nu=float(nu),
        _precision=precision,
        _log_norm=float(log_norm),
    )
