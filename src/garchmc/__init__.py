"""Bayesian GARCH/QGARCH inference with an adaptive Student-t proposal.

The sampler is an independence Metropolis-Hastings chain whose
multivariate Student-t proposal is periodically re-fitted from the
chain's own accumulated history, which keeps autocorrelation times close
to one once the proposal has locked onto the posterior.
"""

from .data import (
    PriceSeries,
    ReturnSeries,
    load_prices,
    load_returns,
    to_returns,
)
from .diagnostics import (
    ParamSummary,
    SummaryReport,
    acf,
    integrated_autocorr_time,
    jackknife_se,
    summarize,
)
from .errors import (
    DegenerateCovarianceError,
    DegenerateSeriesError,
    DomainError,
    GarchMcError,
    InsufficientDataError,
    NonConvergenceError,
    ParseError,
)
from .model import (
    ModelKind,
    ModelParams,
    log_likelihood,
    log_posterior_fn,
    news_impact_curve,
    simulate_qgarch,
    unconditional_variance,
    volatility_path,
)
from .proposal import MomentEstimate, StudentTProposal, build_proposal, estimate_moments
from .sampler import (
    ChainConfig,
    ChainResult,
    MHStep,
    MomentSnapshot,
    metropolis_warmup,
    mh_step,
    run_adaptive,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ChainResult",
    "DegenerateCovarianceError",
    "DegenerateSeriesError",
    "DomainError",
    "GarchMcError",
    "InsufficientDataError",
    "MHStep",
    "ModelKind",
    "ModelParams",
    "MomentEstimate",
    "MomentSnapshot",
    "NonConvergenceError",
    "ParamSummary",
    "ParseError",
    "PriceSeries",
    "ReturnSeries",
    "StudentTProposal",
    "SummaryReport",
    "acf",
    "build_proposal",
    "estimate_moments",
    "integrated_autocorr_time",
    "jackknife_se",
    "load_prices",
    "load_returns",
    "log_likelihood",
    "log_posterior_fn",
    "metropolis_warmup",
    "mh_step",
    "news_impact_curve",
    "run_adaptive",
    "simulate_qgarch",
    "summarize",
    "to_returns",
    "unconditional_variance",
    "volatility_path",
]
