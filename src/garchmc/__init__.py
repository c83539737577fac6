"""Bayesian GARCH/QGARCH inference with an adaptive Student-t proposal.

The sampler is an independence Metropolis-Hastings chain whose
multivariate Student-t proposal is periodically re-fitted from the
chain's own accumulated history, which keeps autocorrelation times close
to one once the proposal has locked onto the posterior.
"""

from .data import *
from .diagnostics import *
from .errors import *
from .model import *
from .proposal import *
from .sampler import *

__version__ = "0.1.0"

__all__ = data.__all__ + diagnostics.__all__ + errors.__all__ + model.__all__ + proposal.__all__ + sampler.__all__
