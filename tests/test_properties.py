"""Property tests: the returns CSV round trip and the posterior closure.

Examples are derived from the test names rather than a random seed, and no
example database is kept, so every run tries the same examples.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from garchmc import ModelKind, ReturnSeries, load_returns, log_posterior_fn
from garchmc.cli import _write_csv

# When a property fails, Hypothesis imports libcst to write a patch of the
# failing example, and that import warns; as an error it would hide the report.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

PROPERTY = settings(derandomize=True, database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(arrays(np.float64, st.integers(1, 40), elements=finite))
def test_written_returns_read_back_bit_identical(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "returns.csv"
        _write_csv(path, ("return",), values[:, np.newaxis])
        restored = load_returns(path).values
    # Bytes, not values: -0.0 must come back as -0.0.
    assert restored.tobytes() == values.tobytes()


@PROPERTY
@given(
    k=st.integers(1, 64),
    sign=st.sampled_from([-1.0, 1.0]),
    alpha=st.sampled_from([0.125, 0.25, 0.5]),
    beta=st.sampled_from([0.0, 0.25]),
    others=st.lists(st.floats(-5.0, 5.0), max_size=8),
    at=st.integers(0, 8),
    then_zero=st.booleans(),
)
def test_closure_at_the_support_boundary_is_never_nan(k, sign, alpha, beta, others, at, then_zero):
    # gamma**2 = 4 * alpha * omega exactly: gamma is k/16 and alpha a power
    # of two, so every product below is exact and the variance drive
    # omega + gamma*y + alpha*y**2 is exactly 0 at y = -gamma / (2 * alpha).
    gamma = sign * k / 16.0
    omega = gamma * gamma / (4.0 * alpha)
    assert gamma * gamma == 4.0 * alpha * omega
    y_star = -gamma / (2.0 * alpha)
    assert omega + gamma * y_star + alpha * y_star * y_star == 0.0
    at = min(at, len(others))
    y = [*others[:at], y_star, *([0.0] if then_zero else []), *others[at:]]
    logpost = log_posterior_fn(ReturnSeries(np.array(y)), ModelKind.QGARCH, 1.0)
    value = logpost(np.array([omega, alpha, beta, gamma]))
    assert value == -math.inf or math.isfinite(value)


def naive_log_likelihood(omega, alpha, beta, gamma, y, sigma1_sq):
    """The Gaussian terms along the variance recursion, one step at a time.

    Returns the sum and the sum of the terms' magnitudes.
    """
    terms, sig = [], sigma1_sq
    for t, yt in enumerate(y):
        if t:
            sig = omega + gamma * y[t - 1] + alpha * y[t - 1] ** 2 + beta * sig
        terms.append(-0.5 * (math.log(2.0 * math.pi * sig) + yt * yt / sig))
    return math.fsum(terms), math.fsum(map(abs, terms))


@PROPERTY
@given(
    omega=st.floats(0.01, 2.0),
    alpha=st.floats(0.0, 0.8),
    beta_frac=st.floats(0.0, 1.0),
    gamma_frac=st.floats(-0.99, 0.99),
    y=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=60),
    sigma1_sq=st.floats(0.2, 3.0),
)
def test_closure_matches_naive_recursion(omega, alpha, beta_frac, gamma_frac, y, sigma1_sq):
    beta = beta_frac * (0.99 - alpha)
    gamma = gamma_frac * 2.0 * math.sqrt(alpha * omega)
    got = log_posterior_fn(ReturnSeries(np.array(y)), ModelKind.QGARCH, sigma1_sq)(
        np.array([omega, alpha, beta, gamma])
    )
    want, scale = naive_log_likelihood(omega, alpha, beta, gamma, y, sigma1_sq)
    # Relative to the summed magnitudes: the sum itself can cancel to ~0.
    assert abs(got - want) <= 1e-12 * scale
