"""Chain diagnostics: ACF, integrated autocorrelation time, jackknife SE.

The integrated autocorrelation time

    tau_int = 1/2 + sum_{t>=1} ACF(t)

is truncated with the self-consistent window rule (smallest W with
W >= 6 * tau_int(W)); 2*tau_int is the inefficiency factor and equals one
for uncorrelated draws.  Statistical errors of chain means are estimated
by a leave-one-block-out jackknife, which should agree with
sqrt(2*tau_int / N) * SD up to a modest factor.
"""

from __future__ import annotations

__all__ = [
    "ParamSummary",
    "SummaryReport",
    "acf",
    "integrated_autocorr_time",
    "jackknife_se",
    "summarize",
]

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (
    DegenerateSeriesError,
    DomainError,
    InsufficientDataError,
    NonConvergenceError,
)

WINDOW_FACTOR = 6.0
JACKKNIFE_BLOCKS = 50
# Shortest chain `summarize` takes: two draws per jackknife block, which is
# also the least `integrated_autocorr_time` accepts.
MIN_SAMPLES = 2 * JACKKNIFE_BLOCKS
# Longest lag of the ACF table `summarize` reports.
ACF_MAX_LAG = 200


def _smooth_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT factors into radix-2, -3 and -5 passes.

    Each 3^b * 5^c below the best length so far offers its least
    power-of-two multiple >= n.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def acf(series, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation function for lags 0..max_lag.

    ACF(t) = [1/N * sum_j (x_j - xbar)(x_{j+t} - xbar)] / sigma_x^2 with
    the sum over the N-t overlapping pairs and sigma_x^2 the full-series
    variance, so ACF(0) == 1.  A NaN or infinite entry is a DomainError
    naming the first one.

    Up to max_lag = ACF_MAX_LAG, the lags `summarize` reports, each lag is
    summed directly over the centred series, which holds about one column
    of N floats at the call's peak.  Past it the sums come from one FFT of
    the centred series, zero-padded to the smallest 5-smooth length
    >= N + max_lag: circular correlation at that length wraps no lag up to
    max_lag, and numpy's FFT factors a 5-smooth length without falling back
    to Bluestein's algorithm.  Lags to N/2 pad to about 1.5N points, where a
    power of two >= 2N would take 2N to 4N.  With the power spectrum kept
    real and each buffer dropped once used, the FFT holds about 3 columns
    of N floats in numpy arrays at its peak, against about 9 with that
    power of two.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"series must be one-dimensional, got shape {x.shape}")
    n = x.size
    if max_lag < 1 or max_lag >= n:
        raise DomainError(f"need series length > max_lag >= 1, got N={n}, max_lag={max_lag}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"series must be finite, got x[{bad[0]}] = {x[bad[0]]}")
    if np.all(x == x[0]):
        raise DegenerateSeriesError("constant series has no autocorrelation function")
    centered = x - x.mean()
    # einsum, not np.dot or np.correlate: those hand long vectors to a
    # multithreaded BLAS whose workers then spin on idle cores.
    energy = np.einsum("i,i->", centered, centered)
    if energy == 0.0:
        raise DegenerateSeriesError("series variance is zero")
    if max_lag <= ACF_MAX_LAG:
        sums = [np.einsum("i,i->", centered[: n - t], centered[t:]) for t in range(1, max_lag + 1)]
        return np.array([energy, *sums]) / energy
    nfft = _smooth_length(n + max_lag)
    spectrum = np.fft.rfft(centered, nfft)
    del centered
    power = spectrum.real**2 + spectrum.imag**2
    del spectrum
    # A power spectrum is real and even, so its inverse transform is its
    # forward one over nfft.  Transforming the mirrored spectrum forward
    # skips `irfft`, which before numpy 2 pads its input to nfft complex
    # points; the 1/nfft cancels in the normalization.
    power = np.concatenate((power, power[(nfft - 1) // 2 : 0 : -1]))
    corr = np.fft.rfft(power).real
    del power
    return corr[: max_lag + 1] / corr[0]


def integrated_autocorr_time(series) -> tuple[float, float]:
    """Windowed tau_int estimate and its statistical error.

    Sums the ACF up to the smallest window W <= N/2 with W >= 6 * tau_int(W)
    and reports the error as tau_int * sqrt(2 * (2W + 1) / N).  The window
    is searched first among the lags `summarize` reports, and only past
    them, on the ACF to N/2, when none qualifies there.  Raises
    NonConvergenceError when no window qualifies, or when the chosen
    window's tau_int is not > 0 (a strongly anti-correlated series passes
    the rule at W = 1 with a negative tau_int, which has no error estimate).
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} points for tau_int, got {n}")
    return _windowed_tau(x)[1:]


def _first_window(rho: np.ndarray, n: int) -> tuple[int, float] | None:
    """Smallest W <= N // 2 among rho's lags with W >= 6 * tau_int(W), and tau_int(W); None if none."""
    tau_at = 0.5 + np.cumsum(rho[1 : n // 2 + 1])
    admissible = np.arange(1, tau_at.size + 1) >= WINDOW_FACTOR * tau_at
    if not admissible.any():
        return None
    w = int(np.argmax(admissible)) + 1
    return w, float(tau_at[w - 1])


def _windowed_tau(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The ACF of x at lags 0..min(ACF_MAX_LAG, N - 1), tau_int and its error.

    The smallest admissible window depends only on the ACF up to it, so the
    ACF to N // 2 is taken only when no window lies within the first lags.
    """
    n = x.size
    table_lag = min(ACF_MAX_LAG, n - 1)
    rho = acf(x, table_lag)
    found = _first_window(rho, n)
    if found is None and n // 2 > table_lag:
        found = _first_window(acf(x, n // 2), n)
    if found is None:
        raise NonConvergenceError(f"no self-consistent window below N/2 = {n // 2}")
    w, tau = found
    if not tau > 0.0:
        raise NonConvergenceError(f"window W = {w} gives tau_int = {tau:.6g}, which is not > 0")
    error = tau * math.sqrt(2.0 * (2.0 * w + 1.0) / n)
    return rho, tau, error


def jackknife_se(series) -> float:
    """Leave-one-block-out jackknife error of the series mean.

    Splits the series into B = JACKKNIFE_BLOCKS contiguous blocks
    (trailing remainder dropped) and returns
    sqrt((B-1)/B * sum_b (m_b - mean(m))^2) over the leave-one-out means.
    A series of fewer than MIN_SAMPLES draws is an InsufficientDataError.
    """
    x = np.asarray(series, dtype=float)
    if x.size < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} samples for the jackknife, got {x.size}")
    block = x.size // JACKKNIFE_BLOCKS
    trimmed = x[: JACKKNIFE_BLOCKS * block].reshape(JACKKNIFE_BLOCKS, block)
    total = trimmed.sum()
    loo_means = (total - trimmed.sum(axis=1)) / (trimmed.size - block)
    dev = loo_means - loo_means.mean()
    return math.sqrt((JACKKNIFE_BLOCKS - 1) / JACKKNIFE_BLOCKS * float(dev @ dev))


@dataclass(frozen=True)
class ParamSummary:
    """Posterior summary for one parameter of the chain."""

    mean: float
    sd: float
    jackknife_se: float
    two_tau_int: float
    two_tau_int_error: float
    se_consistency: float


@dataclass(frozen=True)
class SummaryReport:
    """Per-parameter posterior summaries plus run-level figures.

    `acf` holds one ACF column per parameter for lags
    0..min(ACF_MAX_LAG, N - 1); a parameter that never moved has a NaN
    column, as it has NaN mixing figures.  `to_dict` and `to_text` leave
    it out.
    """

    params: dict[str, ParamSummary]
    n_samples: int
    n_observations: int
    acceptance_plateau: float
    acf: np.ndarray

    def to_dict(self) -> dict:
        def clean(v: float):
            return None if (isinstance(v, float) and math.isnan(v)) else v

        return {
            "n_samples": self.n_samples,
            "n_observations": self.n_observations,
            "acceptance_plateau": clean(self.acceptance_plateau),
            "parameters": {
                name: {k: clean(v) for k, v in vars(s).items()} for name, s in self.params.items()
            },
        }

    def to_text(self) -> str:
        """Aligned table: parameter, mean, SD, SE, 2*tau_int and its error.

        Numbers carry 17 significant digits so the text and JSON reports
        hold identical values.  The table leaves out `se_consistency`.
        """
        num = "{:.17g}".format
        header = ["parameter", "mean", "SD", "SE", "2tau_int", "2tau_int_err"]
        rows = [header, *([name, *map(num, astuple(s)[:5])] for name, s in self.params.items())]
        widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
        lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
        lines.append("")
        lines.append(f"n_samples           {self.n_samples}")
        lines.append(f"n_observations      {self.n_observations}")
        lines.append(f"acceptance_plateau  {num(self.acceptance_plateau)}")
        return "\n".join(lines) + "\n"


def summarize(result, returns) -> SummaryReport:
    """Posterior means, spreads, and mixing diagnostics for a chain run.

    For each parameter: the plain arithmetic mean of the draws, the sample
    SD, the block-jackknife SE, and 2*tau_int with its error, plus the
    ratio of the jackknife SE to sqrt(2*tau_int/N) * SD (which should sit
    near 1), and its ACF up to lag min(ACF_MAX_LAG, N - 1).  That one ACF
    fills the table and holds the window search, which takes the ACF to
    N/2 only for a parameter whose window lies past the table, so 2*tau_int
    equals twice `integrated_autocorr_time` of the same draws exactly.  A
    constant column reports its value as the mean (the float average of
    identical values can be off by an ulp), zero spread and NaN mixing
    stats and ACF.  A chain of fewer than MIN_SAMPLES draws is an
    InsufficientDataError.
    """
    samples = np.asarray(result.samples, dtype=float)
    n = samples.shape[0]
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} samples to summarize a chain, got {n}")
    acfs = np.full((min(ACF_MAX_LAG + 1, n), samples.shape[1]), np.nan)
    params: dict[str, ParamSummary] = {}
    for j, name in enumerate(result.param_names):
        col = samples[:, j]
        if np.all(col == col[0]):
            params[name] = ParamSummary(float(col[0]), 0.0, 0.0, math.nan, math.nan, math.nan)
            continue
        # The ACF comes first, so a non-finite draw is its DomainError,
        # before any warning; its lags are the table's.
        acfs[:, j], tau, tau_err = _windowed_tau(col)
        mean = float(col.mean())
        sd = float(col.std(ddof=1))
        se = jackknife_se(col)
        ideal = math.sqrt(2.0 * tau / n) * sd
        params[name] = ParamSummary(mean, sd, se, 2.0 * tau, 2.0 * tau_err, se / ideal)
    trace = np.asarray(result.acceptance_trace, dtype=float)
    plateau = float(trace[-10:].mean()) if trace.size else math.nan
    return SummaryReport(
        params=params,
        n_samples=n,
        n_observations=len(returns),
        acceptance_plateau=plateau,
        acf=acfs,
    )
