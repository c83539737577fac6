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

__all__ = [
    "ModelKind",
    "ModelParams",
    "in_support",
    "log_likelihood",
    "log_posterior_fn",
    "news_impact_curve",
    "simulate_qgarch",
    "unconditional_variance",
    "volatility_path",
]

import enum
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy

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
    """Parameter vector theta = (omega, alpha, beta, gamma), inside the model support.

    Construction raises DomainError off the flat prior's domain:
    positivity of omega, non-negativity of alpha and beta, covariance
    stationarity (alpha + beta < 1), gamma**2 <= 4 * alpha * omega, and
    gamma == 0 for the GARCH kind.  NaN fails every one of these.  The
    gamma bound keeps the quadratic omega + gamma*y + alpha*y**2
    non-negative for every real y, so the variance recursion stays
    positive no matter what returns it sees.
    """

    omega: float
    alpha: float
    beta: float
    gamma: float = 0.0
    kind: ModelKind = ModelKind.QGARCH

    def __post_init__(self):
        gamma_allowed = self.kind is ModelKind.QGARCH or self.gamma == 0.0
        if not (gamma_allowed and _in_support(self.omega, self.alpha, self.beta, self.gamma)):
            raise DomainError(f"parameters outside the model support: {self}")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.kind.param_names])


def in_support(theta: np.ndarray) -> bool:
    """Whether a parameter vector lies in the model support, the flat prior's domain.

    `theta` is in `kind.param_names` order for either kind: a GARCH vector
    has no gamma, which is then 0.  It is the test the posterior closure
    applies, so a proposal truncated to it by `build_proposal`'s `support`
    draws no candidate the closure reads as -inf.
    """
    return _in_support(*theta.tolist())


def _in_support(omega: float, alpha: float, beta: float, gamma: float = 0.0) -> bool:
    # NaNs fail every comparison, so they land outside the support.
    return (
        omega > 0.0
        and alpha >= 0.0
        and beta >= 0.0
        and alpha + beta < 1.0
        and gamma * gamma <= 4.0 * alpha * omega
    )


def _load_sigtools():
    """scipy's compiled `scipy.signal._sigtools` module, loaded from its file.

    Importing it by name first runs `scipy.signal`'s package init, which
    imports most of scipy (about a second); the compiled module needs none
    of it, so it is found in scipy's `signal` directory alone.  `import
    scipy` stays, since scipy's own init locates the shared libraries it
    bundles on some platforms.  If `scipy.signal` is imported later, it
    finds this very module.
    """
    directory = Path(scipy.__file__).parent / "signal"
    spec = importlib.machinery.PathFinder.find_spec("scipy.signal._sigtools", [str(directory)])
    if spec is None:
        raise ImportError(f"scipy's compiled _sigtools module is missing from {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_linear_filter = _load_sigtools()._linear_filter

# The recurrence's numerator coefficients, b = [1].
_ONE = np.ones(1)


# Series of at least _SCAN_MIN variance steps run the recursion in blocks of
# _BLOCK steps; shorter ones run it serially.  Both come from the README's
# crossover table of the closure against the serial filter.
_BLOCK = 8
_SCAN_MIN = 5000


def _drive_rows(y: np.ndarray, y_sq: np.ndarray) -> np.ndarray:
    """The rows (1, y_{t-1}^2, y_{t-1}) for t = 2..n, from y_t and y_t^2, in the layout `_variance_tail` takes.

    Built once per path or per posterior closure; `_variance_tail` forms
    the variance drive as one product of a coefficient vector with them.
    Under _SCAN_MIN steps they are one C-contiguous (3, n-1) array; from
    _SCAN_MIN on, one C-contiguous (3, _BLOCK, nb) array.  Each row is
    laid out by `_blocks`, so other per-step data lines up with them.
    """
    steps = y.size - 1
    shape = (steps,) if steps < _SCAN_MIN else (_BLOCK, -(-steps // _BLOCK))
    rows = allocate((3, *shape), f"the variance drive rows of {y.size} returns")
    for row, lagged in zip(rows, (np.ones(steps), y_sq[:-1], y[:-1])):
        _blocks(lagged, row)
    return rows


def _blocks(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out` holding `values` in the layout of one `_drive_rows` row.

    A 1-D `out` takes the values as they are.  In a (_BLOCK, nb) `out`,
    step i = b * _BLOCK + j sits at out[j, b], so each row of `out` holds
    one position of every block; the cells after the last step are 0.
    """
    out.fill(0.0)
    out.T.flat[: values.size] = values
    return out


def _variance_tail(
    rows: np.ndarray, steps: int, omega: float, alpha: float, beta: float, gamma: float, s1: float
) -> np.ndarray:
    """sigma2_2..sigma2_n from the `_drive_rows` rows of `steps` steps and sigma2_1 = s1, in the rows' layout.

    In the blocked layout the cells after the last step read 1.0, so a
    sum of log sigma2 or of y^2 / sigma2 over a `_blocks` layout of y^2
    adds nothing there.
    """
    # The drive omega + alpha * y_lag^2 + gamma * y_lag is one product
    # with the rows at every gamma, so GARCH and QGARCH at gamma = 0 take
    # the same product and agree bit for bit.
    coefficients = np.array((omega, alpha, gamma))
    if rows.ndim == 2:
        # sigma2_t = drive_t + beta * sigma2_{t-1} is a first-order linear
        # recurrence.  This is the compiled routine behind
        # scipy.signal.lfilter for this input, called without lfilter's
        # per-call argument handling; public lfilter is its test oracle.
        tail, _ = _linear_filter(_ONE, np.array([1.0, -beta]), coefficients.dot(rows), -1, np.array([beta * s1]))
        return tail
    sig = coefficients.dot(rows.reshape(3, -1)).reshape(_BLOCK, -1)
    # Each block's last variance is its own drive summed with weights
    # beta^(_BLOCK-1-j), one matrix-vector product, plus beta^_BLOCK times
    # the previous block's: the same recurrence over the nb block ends.
    weights = beta ** np.arange(_BLOCK - 1.0, -1.0, -1.0)
    step = beta**_BLOCK
    ends, _ = _linear_filter(_ONE, np.array([1.0, -step]), weights.dot(sig), -1, np.array([step * s1]))
    # Then every block runs the recurrence from the previous block's end,
    # one step for all blocks at a time, as the serial filter would.
    sig[0, 0] += beta * s1
    sig[0, 1:] += beta * ends[:-1]
    for j in range(1, _BLOCK):
        sig[j] += beta * sig[j - 1]
    # Left alone, the pad cells would hold a zero variance at beta = 0.
    sig[steps - _BLOCK * (sig.shape[1] - 1) :, -1] = 1.0
    return sig


# Every partial product of _BLOCK variances of at least this much is a
# normal float: 2^-127 and at least 2^-1016 for blocks of 8.
_LOG_FLOOR = 2.0 ** -(1022 // _BLOCK)


def _log_sum(sig: np.ndarray) -> float:
    """The sum of log sigma2 over a `_variance_tail` result, pad cells (1.0) included.

    In the blocked layout each block's variances are multiplied first, so
    the sum takes one log per block, not per step.  That is only exact up
    to rounding while every product is a finite normal float, which holds
    when every variance is at least _LOG_FLOOR and no product overflows;
    otherwise, and in the serial layout, it takes one log per step.
    """
    if sig.ndim == 2 and np.minimum.reduce(sig, None) >= _LOG_FLOOR:  # NaN fails this
        total = np.add.reduce(np.log(np.multiply.reduce(sig, axis=0)))
        # Each product is positive, so the total is finite unless one overflowed.
        if math.isfinite(total):
            return total
    return np.add.reduce(np.log(sig), None)


def allocate(shape: tuple[int, ...], what: str, order: str = "C") -> np.ndarray:
    """`np.empty(shape)` of floats, or a DomainError naming `what` and the bytes if numpy cannot allocate it."""
    try:
        return np.empty(shape, order=order)
    except (MemoryError, ValueError) as exc:  # ValueError: the size overflows numpy's index type
        raise DomainError(f"{what} needs {8 * math.prod(shape)} bytes, more than can be allocated") from exc


def simulate_qgarch(params: ModelParams, n: int, sigma1_sq: float, seed: int) -> ReturnSeries:
    """Draw a synthetic return series from the model.

    Generates eps_t ~ N(0,1), runs the variance recursion from
    sigma2_1 = sigma1_sq, and sets y_t = sigma_t * eps_t.  Deterministic
    for a fixed seed, which must be >= 0.  `params` lies in the support
    by construction.  An `n` whose series numpy cannot allocate, a
    variance path that overflows a float, and a variance that rounds
    below zero on the support boundary are each a DomainError.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    check_sigma1_sq(sigma1_sq)
    # eps_1..eps_n, each scaled in place into y_t below.
    y = np.random.default_rng(seed).standard_normal(out=allocate((n,), f"n = {n}"))
    sig = sigma1_sq
    omega, alpha, beta, gamma = params.omega, params.alpha, params.beta, params.gamma
    # The path may overflow; it is then rejected by name below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            # On the support boundary the recursion's double root can round below zero.
            if sig < 0.0:
                raise DomainError(f"conditional variance at step {t + 1} rounds below zero; parameters sit on the support boundary")
            y[t] = math.sqrt(sig) * y[t]
            sig = omega + gamma * y[t] + alpha * y[t] * y[t] + beta * sig
    if not np.all(np.isfinite(y)):
        raise DomainError(f"the variance path overflows a float from initial variance {sigma1_sq} with {params}")
    return ReturnSeries(values=y)


def check_sigma1_sq(sigma1_sq: float, name: str = "initial variance") -> None:
    """Raise DomainError unless 0 < sigma1_sq < inf.

    At 0 the first likelihood term takes log(0); at inf every variance of
    the path is inf.
    """
    if not 0.0 < sigma1_sq < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {sigma1_sq}")


def _bind(returns: ReturnSeries, sigma1_sq: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The `_drive_rows` rows, y_t^2 and the initial variance of a return series.

    The returns' squares must have a finite sum (a DomainError, not an
    overflow warning, otherwise); they are checked before the initial
    variance, which defaults to the sample variance of the returns.
    """
    with np.errstate(over="ignore"):
        y_sq = returns.values * returns.values
        square_sum = y_sq.sum()
    if not math.isfinite(square_sum):
        raise DomainError(f"returns must have a finite sum of squares, got {square_sum}")
    if sigma1_sq is None:
        if len(returns) < 2:
            raise InsufficientDataError("need at least 2 returns to default the initial variance")
        s1 = float(np.var(returns.values, ddof=1))
        check_sigma1_sq(s1, "default initial variance (the sample variance; set --sigma1-sq)")
    else:
        check_sigma1_sq(sigma1_sq)
        s1 = float(sigma1_sq)
    return _drive_rows(returns.values, y_sq), y_sq, s1


def volatility_path(
    params: ModelParams, returns: ReturnSeries, sigma1_sq: float | None = None
) -> np.ndarray:
    """Conditional-variance path of the model along the observed returns.

    Parameters
    ----------
    params : ModelParams
        In the prior support by construction.
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
    rows, _, s1 = _bind(returns, sigma1_sq)
    # The path may overflow; it is then rejected by name below.
    with np.errstate(over="ignore", invalid="ignore"):
        tail = _variance_tail(rows, len(returns) - 1, params.omega, params.alpha, params.beta, params.gamma, s1)
    # Read in time order from either layout, without the blocked layout's pad cells.
    sig = np.concatenate(([s1], tail.T.reshape(-1)[: len(returns) - 1]))
    if not np.all(np.isfinite(sig)):
        raise DomainError("conditional variance path is not finite; the variances overflow a float")
    if not np.all(sig > 0.0):
        raise DomainError("conditional variance reached zero; parameters sit on the support boundary")
    return sig


def log_likelihood(
    params: ModelParams, returns: ReturnSeries, sigma1_sq: float | None = None
) -> float:
    """Gaussian log-likelihood -0.5 * sum[ln(2 pi sigma2_t) + y_t^2 / sigma2_t].

    `params` lies in the support by construction.
    """
    # Evaluated through the sampler's posterior closure, so the two agree
    # bit for bit on the support (the flat prior adds nothing).
    return log_posterior_fn(returns, params.kind, sigma1_sq)(params.as_vector())


def log_posterior_fn(
    returns: ReturnSeries, kind: ModelKind, sigma1_sq: float | None = None
) -> Callable[[np.ndarray], float]:
    """Bind returns and initial variance into a fast vector -> float posterior.

    The closure returns the unnormalized flat-prior log-posterior, -inf
    outside the support, so Metropolis samplers reject off-support
    candidates without special-casing.  It is what the samplers hammer
    on, so the drive rows and constants are precomputed here instead of
    per call.
    """
    rows, y_sq, s1 = _bind(returns, sigma1_sq)
    steps = len(returns) - 1
    # y_2^2..y_n^2 in the rows' layout, 0 in the blocked layout's pad cells.
    y_sq_tail = _blocks(y_sq[1:], np.empty_like(rows[0]))
    # The theta-free terms: n ln(2 pi) and the first return's ln s1 + y_1^2 / s1.
    const = len(returns) * math.log(2.0 * math.pi) + math.log(s1) + float(y_sq[0]) / s1
    dim = len(kind.param_names)
    # The GARCH kind's gamma, pinned at 0.
    pinned = [0.0] * (4 - dim)

    # The variance path and the sum may overflow or divide by zero; the
    # result is then not finite and is read as a rejection below.
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def logpost(theta: np.ndarray) -> float:
        values = np.asarray(theta, dtype=float)
        if values.shape != (dim,):
            raise DomainError(f"expected parameter vector of shape ({dim},), got shape {values.shape}")
        # One conversion to Python floats: the support check and the
        # scalar arithmetic cost less on them than on numpy scalars.
        omega, alpha, beta, gamma = values.tolist() + pinned
        if not _in_support(omega, alpha, beta, gamma):
            return -math.inf
        sig_tail = _variance_tail(rows, steps, omega, alpha, beta, gamma, s1)
        # np.add.reduce over all axes is the pairwise sum of ndarray.sum without its Python shim.
        ll = -0.5 * (const + _log_sum(sig_tail) + np.add.reduce(y_sq_tail / sig_tail, None))
        # Exact-boundary parameters can drive a variance to zero, which
        # shows up as inf/nan here; treat it as a rejection.
        return float(ll) if math.isfinite(ll) else -math.inf

    return logpost


def unconditional_variance(params: ModelParams) -> float:
    """Stationary variance omega / (1 - alpha - beta), positive on the model support.

    It overflows a float for a large omega over a small 1 - alpha - beta;
    that is a DomainError naming the ratio, not an inf.
    """
    # Python floats: the division overflows to inf without a warning.
    omega, gap = float(params.omega), 1.0 - (float(params.alpha) + float(params.beta))
    variance = omega / gap
    if not math.isfinite(variance):
        raise DomainError(f"stationary variance omega / (1 - alpha - beta) = {omega!r} / {gap!r} overflows a float")
    return variance


def news_impact_curve(params: ModelParams, grid: Sequence[float]) -> np.ndarray:
    """Conditional variance as a function of the previous return.

    The lagged variance is held at its stationary value, so the curve is
    sigma2(y) = omega + gamma*y + alpha*y**2 + beta * omega/(1-alpha-beta).

    Returns an array of shape (len(grid), 2) with columns (y, sigma2).  A
    grid point whose variance is not finite is a DomainError naming it.
    """
    base = params.beta * unconditional_variance(params)
    y = np.asarray(grid, dtype=float)
    # A large |y| may overflow; it is then rejected by name below.
    with np.errstate(over="ignore", invalid="ignore"):
        sig = params.omega + params.gamma * y + params.alpha * y * y + base
    bad = np.flatnonzero(~np.isfinite(sig))
    if bad.size:
        raise DomainError(f"news impact curve is not finite at grid point {bad[0]}, y = {float(y[bad[0]])!r}")
    return np.column_stack([y, sig])
