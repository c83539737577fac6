"""GARCH(1,1) / QGARCH(1,1) parameter space, simulation, likelihood and posterior.

The conditional-variance recursion is

    sigma2_t = omega + gamma * y_{t-1} + alpha * y_{t-1}^2 + beta * sigma2_{t-1}

with gamma = 0 for the plain GARCH model.  The gamma * y_{t-1} term makes
the variance response asymmetric in the sign of the previous return
(leverage effect when gamma < 0).  Innovations are standard normal, so the
log-likelihood is the usual Gaussian sum over the variance path, and the
posterior under a flat prior is the likelihood restricted to the parameter
support.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.signal import lfilter

from .data import ReturnSeries
from .errors import DomainError, InsufficientDataError


class ModelKind(enum.Enum):
    GARCH = "garch"
    QGARCH = "qgarch"

    @property
    def param_names(self) -> tuple[str, ...]:
        """Free parameters of the model, in parameter-vector order."""
        return _FREE_PARAMS[self]


# GARCH is QGARCH with gamma pinned at 0, so it leaves gamma out.
_FREE_PARAMS = {
    ModelKind.GARCH: ("omega", "alpha", "beta"),
    ModelKind.QGARCH: ("omega", "alpha", "beta", "gamma"),
}


@dataclass(frozen=True)
class ModelParams:
    """Parameter vector theta = (omega, alpha, beta, gamma).

    `in_support` encodes the flat prior's domain: positivity of omega,
    non-negativity of alpha and beta, covariance stationarity
    (alpha + beta < 1), and gamma**2 <= 4 * alpha * omega.  The last
    condition keeps the quadratic omega + gamma*y + alpha*y**2
    non-negative for every real y, so the variance recursion stays
    positive no matter what returns it sees.
    """

    omega: float
    alpha: float
    beta: float
    gamma: float = 0.0
    kind: ModelKind = ModelKind.QGARCH

    @property
    def in_support(self) -> bool:
        if self.kind is ModelKind.GARCH and self.gamma != 0.0:
            return False
        return _in_support(self.omega, self.alpha, self.beta, self.gamma)

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.kind.param_names])

    @classmethod
    def from_vector(cls, theta: Sequence[float], kind: ModelKind) -> "ModelParams":
        theta = np.asarray(theta, dtype=float)
        names = kind.param_names
        if theta.shape != (len(names),):
            raise DomainError(f"{kind.name} parameter vector must have length {len(names)}, got {theta.shape}")
        return cls(**{name: float(v) for name, v in zip(names, theta)}, kind=kind)


def _in_support(omega: float, alpha: float, beta: float, gamma: float) -> bool:
    # NaNs fail every comparison, so they land outside the support.
    return (
        omega > 0.0
        and alpha >= 0.0
        and beta >= 0.0
        and alpha + beta < 1.0
        and gamma * gamma <= 4.0 * alpha * omega
    )


def _variance_tail(
    y_lag: np.ndarray, y_lag_sq: np.ndarray, omega: float, alpha: float, beta: float, gamma: float, s1: float
) -> np.ndarray:
    """sigma2_2..sigma2_n from y_1..y_{n-1}, their squares, and sigma2_1 = s1."""
    drive = omega + gamma * y_lag + alpha * y_lag_sq
    # sigma2_t = drive_t + beta * sigma2_{t-1} is a first-order linear
    # recurrence; lfilter evaluates it in C.
    tail, _ = lfilter([1.0], [1.0, -beta], drive, zi=np.array([beta * s1]))
    return tail


def simulate_qgarch(params: ModelParams, n: int, sigma1_sq: float, seed: int) -> ReturnSeries:
    """Draw a synthetic return series from the model.

    Generates eps_t ~ N(0,1), runs the variance recursion from
    sigma2_1 = sigma1_sq, and sets y_t = sigma_t * eps_t.  Deterministic
    for a fixed seed, which must be >= 0.
    """
    if not params.in_support:
        raise DomainError(f"parameters outside the model support: {params}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    check_sigma1_sq(sigma1_sq)
    eps = np.random.default_rng(seed).standard_normal(n)
    y = np.empty(n)
    sig = sigma1_sq
    omega, alpha, beta, gamma = params.omega, params.alpha, params.beta, params.gamma
    for t in range(n):
        y[t] = math.sqrt(sig) * eps[t]
        sig = omega + gamma * y[t] + alpha * y[t] * y[t] + beta * sig
    return ReturnSeries(values=y)


def check_sigma1_sq(sigma1_sq: float, name: str = "initial variance") -> None:
    """Raise DomainError unless 0 < sigma1_sq < inf.

    At 0 the first likelihood term takes log(0); at inf every variance of
    the path is inf.
    """
    if not 0.0 < sigma1_sq < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {sigma1_sq}")


def _resolve_sigma1_sq(returns: ReturnSeries, sigma1_sq: float | None) -> float:
    """The given initial variance, or by default the sample variance of the returns."""
    if sigma1_sq is None:
        if len(returns) < 2:
            raise InsufficientDataError("need at least 2 returns to default the initial variance")
        s1 = float(np.var(returns.values, ddof=1))
        check_sigma1_sq(s1, "default initial variance (the sample variance; set --sigma1-sq)")
        return s1
    check_sigma1_sq(sigma1_sq)
    return float(sigma1_sq)


def volatility_path(
    params: ModelParams, returns: ReturnSeries, sigma1_sq: float | None = None
) -> np.ndarray:
    """Conditional-variance path of the model along the observed returns.

    Parameters
    ----------
    params : ModelParams
        Must lie in the prior support.
    returns : ReturnSeries
        Observations y_1..y_n.
    sigma1_sq : float, optional
        Initial variance; defaults to the sample variance of `returns`.

    Returns
    -------
    np.ndarray
        sigma2_1..sigma2_n, aligned with the returns: sigma1_sq first, then
        the recursion above.
    """
    if not params.in_support:
        raise DomainError(f"parameters outside the model support: {params}")
    s1 = _resolve_sigma1_sq(returns, sigma1_sq)
    y_lag = np.asarray(returns.values, dtype=float)[:-1]
    tail = _variance_tail(y_lag, y_lag * y_lag, params.omega, params.alpha, params.beta, params.gamma, s1)
    sig = np.concatenate(([s1], tail))
    if not np.all(sig > 0.0):
        raise DomainError("conditional variance reached zero; parameters sit on the support boundary")
    return sig


def log_likelihood(
    params: ModelParams, returns: ReturnSeries, sigma1_sq: float | None = None
) -> float:
    """Gaussian log-likelihood -0.5 * sum[ln(2 pi sigma2_t) + y_t^2 / sigma2_t]."""
    if not params.in_support:
        raise DomainError(f"parameters outside the model support: {params}")
    # Same code path as log_posterior so the two agree bit for bit on the
    # support (the flat prior adds nothing).
    return log_posterior_fn(returns, params.kind, sigma1_sq)(params.as_vector())


def log_posterior(
    params: ModelParams, returns: ReturnSeries, sigma1_sq: float | None = None
) -> float:
    """Unnormalized flat-prior log-posterior; -inf outside the support.

    Off-support parameters are legal input and map to -inf so Metropolis
    style samplers reject them without special-casing.
    """
    # Checked here as well as inside the closure: the GARCH vector form
    # drops gamma, so a nonzero gamma would otherwise go unnoticed.
    if not params.in_support:
        return -math.inf
    return log_posterior_fn(returns, params.kind, sigma1_sq)(params.as_vector())


def log_posterior_fn(
    returns: ReturnSeries, kind: ModelKind, sigma1_sq: float | None = None
) -> Callable[[np.ndarray], float]:
    """Bind returns and initial variance into a fast vector -> float posterior.

    The returned closure is what the samplers hammer on, so slices and
    constants are precomputed here instead of per call.
    """
    y = np.asarray(returns.values, dtype=float)
    s1 = _resolve_sigma1_sq(returns, sigma1_sq)
    y_lag = y[:-1]
    y_lag_sq = y_lag * y_lag
    y_sq = y * y
    n_log_2pi = y.size * math.log(2.0 * math.pi)
    dim = len(kind.param_names)

    def logpost(theta: np.ndarray) -> float:
        if len(theta) != dim:
            raise DomainError(f"expected parameter vector of length {dim}, got {len(theta)}")
        # Index rather than unpack: unpacking iterates the array, which is
        # measurably slower on this hot path.
        omega, alpha, beta = theta[0], theta[1], theta[2]
        gamma = theta[3] if dim == 4 else 0.0
        if not _in_support(omega, alpha, beta, gamma):
            return -math.inf
        sig_tail = _variance_tail(y_lag, y_lag_sq, omega, alpha, beta, gamma, s1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ll = -0.5 * (
                n_log_2pi
                + math.log(s1)
                + np.log(sig_tail).sum()
                + y_sq[0] / s1
                + (y_sq[1:] / sig_tail).sum()
            )
        # Exact-boundary parameters can drive a variance to zero, which
        # shows up as inf/nan here; treat it as a rejection.
        return float(ll) if math.isfinite(ll) else -math.inf

    return logpost


def unconditional_variance(params: ModelParams) -> float:
    """Stationary variance omega / (1 - alpha - beta)."""
    persistence = params.alpha + params.beta
    if not persistence < 1.0:
        raise DomainError(f"alpha + beta = {persistence} has no stationary variance")
    return params.omega / (1.0 - persistence)


def news_impact_curve(params: ModelParams, grid: Sequence[float]) -> np.ndarray:
    """Conditional variance as a function of the previous return.

    The lagged variance is held at its stationary value, so the curve is
    sigma2(y) = omega + gamma*y + alpha*y**2 + beta * omega/(1-alpha-beta).

    Returns an array of shape (len(grid), 2) with columns (y, sigma2).
    """
    base = params.beta * unconditional_variance(params)
    y = np.asarray(grid, dtype=float)
    sig = params.omega + params.gamma * y + params.alpha * y * y + base
    return np.column_stack([y, sig])
