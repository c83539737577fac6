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

import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft

from .errors import (
    DegenerateSeriesError,
    DomainError,
    InsufficientDataError,
    NonConvergenceError,
)

WINDOW_FACTOR = 6.0
DEFAULT_JACKKNIFE_BLOCKS = 50
# Shortest chain `summarize` takes: two draws per default jackknife block,
# which is also the least `integrated_autocorr_time` accepts.
MIN_SAMPLES = 2 * DEFAULT_JACKKNIFE_BLOCKS


def acf(series, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation function for lags 0..max_lag.

    ACF(t) = [1/N * sum_j (x_j - xbar)(x_{j+t} - xbar)] / sigma_x^2 with
    the sum over the N-t overlapping pairs and sigma_x^2 the full-series
    variance, so ACF(0) == 1.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"series must be one-dimensional, got shape {x.shape}")
    n = x.size
    if max_lag < 1 or max_lag >= n:
        raise DomainError(f"need series length > max_lag >= 1, got N={n}, max_lag={max_lag}")
    if np.all(x == x[0]):
        raise DegenerateSeriesError("constant series has no autocorrelation function")
    centered = x - x.mean()
    if float(centered @ centered) == 0.0:
        raise DegenerateSeriesError("series variance is zero")
    # Zero-padded FFT gives all overlapping-pair sums in O(N log N).
    nfft = next_fast_len(2 * n)
    spectrum = rfft(centered, nfft)
    corr = irfft(spectrum * np.conj(spectrum), nfft)[: max_lag + 1]
    return corr / corr[0]


def integrated_autocorr_time(series) -> tuple[float, float]:
    """Windowed tau_int estimate and its statistical error.

    Sums the ACF up to the smallest window W with W >= 6 * tau_int(W) and
    reports the error as tau_int * sqrt(2 * (2W + 1) / N).
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} points for tau_int, got {n}")
    max_lag = n // 2
    rho = acf(x, max_lag)
    tau_at = 0.5 + np.cumsum(rho[1:])
    windows = np.arange(1, max_lag + 1)
    admissible = windows >= WINDOW_FACTOR * tau_at
    if not admissible.any():
        raise NonConvergenceError(f"no self-consistent window below N/2 = {max_lag}")
    w = int(windows[np.argmax(admissible)])
    tau = float(tau_at[w - 1])
    error = tau * math.sqrt(2.0 * (2.0 * w + 1.0) / n)
    return tau, error


def jackknife_se(series, n_blocks: int = DEFAULT_JACKKNIFE_BLOCKS) -> float:
    """Leave-one-block-out jackknife error of the series mean.

    Splits the series into `n_blocks` contiguous blocks (trailing
    remainder dropped) and returns
    sqrt((B-1)/B * sum_b (m_b - mean(m))^2) over the leave-one-out means.
    """
    x = np.asarray(series, dtype=float)
    if n_blocks < 2:
        raise DomainError(f"need at least 2 blocks, got {n_blocks}")
    if x.size < 2 * n_blocks:
        raise DomainError(f"need at least 2 samples per block, got {x.size} for {n_blocks} blocks")
    block = x.size // n_blocks
    trimmed = x[: n_blocks * block].reshape(n_blocks, block)
    total = trimmed.sum()
    loo_means = (total - trimmed.sum(axis=1)) / (trimmed.size - block)
    dev = loo_means - loo_means.mean()
    return math.sqrt((n_blocks - 1) / n_blocks * float(dev @ dev))


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
    """Per-parameter posterior summaries plus run-level figures."""

    params: dict[str, ParamSummary]
    n_samples: int
    n_observations: int
    acceptance_plateau: float

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
    near 1).  A constant column reports its value as the mean (the float
    average of identical values can be off by an ulp), zero spread and NaN
    mixing stats.
    """
    samples = np.asarray(result.samples, dtype=float)
    if samples.size == 0:
        raise InsufficientDataError("chain holds no samples")
    n = samples.shape[0]
    params: dict[str, ParamSummary] = {}
    for j, name in enumerate(result.param_names):
        col = samples[:, j]
        if np.all(col == col[0]):
            params[name] = ParamSummary(float(col[0]), 0.0, 0.0, math.nan, math.nan, math.nan)
            continue
        mean = float(col.mean())
        sd = float(col.std(ddof=1))
        se = jackknife_se(col)
        tau, tau_err = integrated_autocorr_time(col)
        ideal = math.sqrt(2.0 * tau / n) * sd
        params[name] = ParamSummary(mean, sd, se, 2.0 * tau, 2.0 * tau_err, se / ideal)
    trace = np.asarray(result.acceptance_trace, dtype=float)
    plateau = float(trace[-10:].mean()) if trace.size else math.nan
    return SummaryReport(
        params=params,
        n_samples=n,
        n_observations=len(returns),
        acceptance_plateau=plateau,
    )
