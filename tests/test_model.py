import math
import re
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from garchmc import (
    DomainError,
    ModelKind,
    ModelParams,
    ReturnSeries,
    log_likelihood,
    log_posterior_fn,
    news_impact_curve,
    simulate_qgarch,
    unconditional_variance,
    volatility_path,
)
from garchmc.model import _BLOCK, _SCAN_MIN, _drive_rows, _variance_tail

import reference

NIKKEI = ModelParams(*reference.FITS["nikkei225"], ModelKind.QGARCH)
HANG_SENG = ModelParams(*reference.FITS["hang_seng"], ModelKind.QGARCH)


def random_support_params(rng, kind=ModelKind.QGARCH):
    """Draw parameters uniformly from inside the prior support."""
    return ModelParams(*reference.support_point(rng, gamma=kind is ModelKind.QGARCH), kind)


def test_volatility_path_constant_case():
    params = ModelParams(0.1, 0.0, 0.0, 0.0)
    returns = ReturnSeries(np.array([1.0, -2.0, 0.5, 3.0]))
    path = volatility_path(params, returns, sigma1_sq=7.0)
    assert path[0] == 7.0
    np.testing.assert_allclose(path[1:], 0.1)


def test_volatility_path_one_step():
    params = ModelParams(0.1, 0.5, 0.0, 0.0)
    returns = ReturnSeries(np.array([2.0, 0.0]))
    path = volatility_path(params, returns, sigma1_sq=1.0)
    assert path[1] == pytest.approx(0.1 + 0.5 * 4.0, rel=1e-15)


def test_volatility_path_asymmetry_sign():
    params = ModelParams(0.3, 0.2, 0.0, -0.1)
    up = volatility_path(params, ReturnSeries(np.array([1.0, 0.0])), 1.0)
    down = volatility_path(params, ReturnSeries(np.array([-1.0, 0.0])), 1.0)
    assert up[1] == pytest.approx(0.4, rel=1e-15)
    assert down[1] == pytest.approx(0.6, rel=1e-15)


def test_volatility_path_positive_under_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(50):
        params = random_support_params(rng)
        y = rng.standard_normal(200) * rng.uniform(0.2, 5.0)
        path = volatility_path(params, ReturnSeries(y), rng.uniform(0.1, 4.0))
        assert np.all(path > 0.0)


def test_volatility_path_rejects_off_support():
    with pytest.raises(DomainError):
        volatility_path(ModelParams(0.1, 0.6, 0.6, 0.0), ReturnSeries(np.array([1.0])), 1.0)


@pytest.mark.parametrize("fn", [volatility_path, log_likelihood])
@pytest.mark.parametrize("sigma1_sq", [0.0, math.inf])
def test_initial_variance_must_be_finite_and_positive(fn, sigma1_sq):
    with pytest.raises(DomainError, match="initial variance"):
        fn(ModelParams(0.1, 0.1, 0.8), ReturnSeries(np.array([0.5, -0.3, 0.2])), sigma1_sq)


def test_zero_sample_variance_default_names_the_flag():
    with pytest.raises(DomainError, match="--sigma1-sq"):
        log_posterior_fn(ReturnSeries(np.zeros(4)), ModelKind.QGARCH)


def test_log_likelihood_standard_normal_at_zero():
    params = ModelParams(1.0, 0.0, 0.0, 0.0)
    value = log_likelihood(params, ReturnSeries(np.array([0.0])), sigma1_sq=1.0)
    assert value == pytest.approx(-0.5 * math.log(2.0 * math.pi), rel=1e-15)


def test_log_likelihood_two_zero_observations():
    params = ModelParams(1.0, 0.0, 0.0, 0.0)
    value = log_likelihood(params, ReturnSeries(np.array([0.0, 0.0])), sigma1_sq=1.0)
    assert value == pytest.approx(-math.log(2.0 * math.pi), rel=1e-15)


def test_log_likelihood_matches_naive_oracle():
    rng = np.random.default_rng(17)
    for n in (*(20,) * 10, 1, 2, 3):
        params = random_support_params(rng)
        y = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        s1 = rng.uniform(0.2, 3.0)
        theta = (params.omega, params.alpha, params.beta, params.gamma)
        got = log_likelihood(params, ReturnSeries(y), s1)
        (want,), _ = reference.log_likelihood([theta], y, s1)
        assert abs(got - want) <= 1e-12 * abs(want)
        path = volatility_path(params, ReturnSeries(y), s1)
        assert path.shape == (n,)
        np.testing.assert_allclose(path, reference.variance_path(theta, y, s1), rtol=1e-12, atol=0.0)


def test_garch_is_qgarch_with_gamma_zero():
    rng = np.random.default_rng(19)
    for n in (1, 2, 60):
        y = ReturnSeries(rng.standard_normal(n) * rng.uniform(0.5, 2.0))
        s1 = rng.uniform(0.2, 3.0)
        garch = log_posterior_fn(y, ModelKind.GARCH, s1)
        qgarch = log_posterior_fn(y, ModelKind.QGARCH, s1)
        for _ in range(10):
            params = random_support_params(rng, ModelKind.GARCH)
            theta3 = params.as_vector()
            assert garch(theta3) == qgarch(np.array([*theta3, 0.0]))
            pinned = ModelParams(params.omega, params.alpha, params.beta, 0.0, ModelKind.QGARCH)
            np.testing.assert_array_equal(volatility_path(params, y, s1), volatility_path(pinned, y, s1))


def test_log_likelihood_scaling_covariance():
    # Scaling y by c = 2^k with (omega, gamma, sigma1) -> (c^2 omega, c gamma, c^2 sigma1)
    # scales every variance by exactly c^2, so it shifts the log-likelihood
    # by -n k ln 2, in either layout.  Around unit-scale variances the
    # blocked layout's products of _BLOCK of them overflow at c = 2^70,
    # underflow to zero at 2^-80 and fall among the subnormals at 2^-66.
    rng = np.random.default_rng(23)
    s1 = 1.3
    for n in (150, _SCAN_MIN + 1, 20000):
        y = rng.standard_normal(n)
        points = [HANG_SENG, NIKKEI, *(random_support_params(rng) for _ in range(4))]
        base = [log_likelihood(params, ReturnSeries(y), s1) for params in points]
        for k in (-80, -66, -2, 3, 70):
            c = 2.0**k
            scaled = [ModelParams(c * c * p.omega, p.alpha, p.beta, c * p.gamma) for p in points]
            _, magnitudes = reference.log_likelihood([p.as_vector() for p in scaled], c * y, c * c * s1)
            for params, want, scale in zip(scaled, base, magnitudes):
                shifted = log_likelihood(params, ReturnSeries(c * y), c * c * s1)
                assert abs(shifted - (want - n * k * math.log(2.0))) <= 1e-12 * scale, (n, k, params)


def test_log_posterior_equals_likelihood_on_support():
    # The flat prior adds nothing on the support.
    rng = np.random.default_rng(31)
    y = rng.standard_normal(80)
    fn = log_posterior_fn(ReturnSeries(y), ModelKind.QGARCH, 1.0)
    for _ in range(10):
        params = random_support_params(rng)
        (want,), _ = reference.log_likelihood([params.as_vector()], y, 1.0)
        assert abs(fn(params.as_vector()) - want) <= 1e-12 * abs(want)


def test_log_posterior_off_support_is_minus_inf():
    y = ReturnSeries(np.array([0.5, -0.2, 0.1]))
    fn = log_posterior_fn(y, ModelKind.QGARCH, 1.0)
    assert fn(np.array([0.1, 0.6, 0.6, 0.0])) == -math.inf
    assert fn(np.array([0.1, 0.01, 0.5, 0.5])) == -math.inf  # gamma^2 > 4 a w
    assert fn(np.array([-0.1, 0.1, 0.5, 0.0])) == -math.inf
    # alpha + beta == 1 exactly is not covariance stationary
    assert log_posterior_fn(y, ModelKind.GARCH, 1.0)(np.array([0.1, 0.5, 0.5])) == -math.inf
    with pytest.raises(DomainError, match="outside the model support"):
        ModelParams(0.1, 0.1, 0.5, 0.1, ModelKind.GARCH)


@pytest.mark.parametrize("sigma1_sq", [None, 1.0])
def test_returns_whose_squares_overflow_are_a_domain_error(sigma1_sq):
    # Each return is finite, so the series holds them; their squares are
    # not.  The suite turns a numpy overflow warning into a failure.
    y = ReturnSeries(np.array([1e308, -1e308, 1e308]))
    with pytest.raises(DomainError, match="returns"):
        log_posterior_fn(y, ModelKind.QGARCH, sigma1_sq)
    with pytest.raises(DomainError, match="returns"):
        volatility_path(NIKKEI, y, sigma1_sq)


def long_series_with(n, y_bad):
    """n standard normal returns, but y_bad at a step whose variance sits mid-block in the blocked layout."""
    y = np.random.default_rng(n).standard_normal(n)
    # y[t] drives the kernel's variance t, at blocked-layout cell [t % _BLOCK, t // _BLOCK].
    y[300 * _BLOCK + _BLOCK // 2] = y_bad
    return ReturnSeries(y)


# omega + alpha * y^2 overflows at y = 1e154 though every y^2 is finite.
OVERFLOWING = ModelParams(1e308, 0.9, 0.05, 0.0, ModelKind.GARCH)
# On the support boundary gamma^2 = 4 alpha omega with beta = 0, the
# return y = -gamma / (2 alpha) = 2 gives a variance of exactly zero.
BOUNDARY = ModelParams(1.0, 0.25, 0.0, -1.0)


def test_variance_path_that_overflows_or_reaches_zero_is_minus_inf_without_warning():
    # A numerical rejection, not a warning, in either layout; on long
    # series the variance goes bad in the middle of a block.
    cases = [(OVERFLOWING, ReturnSeries(np.array([1e154, 1.0, -1.0, 2.0]))), (BOUNDARY, ReturnSeries(np.array([2.0, 1.0])))]
    for n in (_SCAN_MIN + 1, 20000):
        cases += [(OVERFLOWING, long_series_with(n, 1e154)), (BOUNDARY, long_series_with(n, 2.0))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for params, y in cases:
            assert log_posterior_fn(y, params.kind, 1.0)(params.as_vector()) == -math.inf
            assert log_likelihood(params, y, 1.0) == -math.inf
        # Without the bad return the long series' likelihood is finite; at
        # OVERFLOWING every product of _BLOCK variances still overflows.
        for params in (OVERFLOWING, BOUNDARY):
            assert math.isfinite(log_likelihood(params, long_series_with(20000, 1.0), 1.0))
    assert not caught


def test_volatility_path_names_overflow_apart_from_a_zero_variance():
    # The path overflows to inf and then NaN: a DomainError that says so,
    # without a numpy warning, not "reached zero".
    for y in (ReturnSeries(np.array([1e154, 1.0, -1.0, 2.0])), long_series_with(_SCAN_MIN + 1, 1e154)):
        with pytest.raises(DomainError, match="not finite"):
            volatility_path(OVERFLOWING, y, 1.0)
    for y in (ReturnSeries(np.array([2.0, 1.0])), long_series_with(_SCAN_MIN + 1, 2.0)):
        with pytest.raises(DomainError, match="reached zero"):
            volatility_path(BOUNDARY, y, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 250, 2700, _SCAN_MIN])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.91, 1.0 - 1e-12])
@pytest.mark.parametrize("gamma", [0.0, NIKKEI.gamma])
def test_variance_kernel_matches_public_lfilter(n, beta, gamma):
    # The kernel calls scipy's compiled recurrence without lfilter's
    # wrapper; lfilter on the same drive must give the same bits.
    y = simulate_qgarch(NIKKEI, n, 1.0, seed=n).values
    rows = _drive_rows(y, y * y)
    omega, alpha, s1 = NIKKEI.omega, NIKKEI.alpha, 1.3
    drive = np.array((omega, alpha, gamma)).dot(rows)
    want = lfilter([1.0], [1.0, -beta], drive, zi=[beta * s1])[0]
    got = _variance_tail(rows, n - 1, omega, alpha, beta, gamma, s1)
    assert got.shape == (n - 1,)
    assert np.array_equal(got, want)


def in_time_order(blocks, steps):
    """Step i = b * _BLOCK + j of a blocked-layout array, read at [j, b]."""
    i = np.arange(steps)
    return blocks[..., i % _BLOCK, i // _BLOCK]


@pytest.mark.parametrize("steps", [_SCAN_MIN, _SCAN_MIN + 1, 1000 * _BLOCK, 19999])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.91, 1.0 - 1e-6, 1.0 - 1e-12])
@pytest.mark.parametrize("gamma", [0.0, NIKKEI.gamma])
def test_blocked_variance_kernel_matches_public_lfilter(steps, beta, gamma):
    # From _SCAN_MIN steps on, the kernel runs the recursion in blocks; in
    # time order it is lfilter on the same drive: equal at beta = 0, where
    # no rounding enters, and within 1e-12 relative otherwise.
    y = simulate_qgarch(NIKKEI, steps + 1, 1.0, seed=steps).values
    rows = _drive_rows(y, y * y)
    assert rows.shape == (3, _BLOCK, -(-steps // _BLOCK)) and rows.flags.c_contiguous
    omega, alpha, s1 = NIKKEI.omega, NIKKEI.alpha, 1.3
    drive = in_time_order(np.array((omega, alpha, gamma)).dot(rows.reshape(3, -1)).reshape(rows.shape[1:]), steps)
    want = lfilter([1.0], [1.0, -beta], drive, zi=[beta * s1])[0]
    tail = _variance_tail(rows, steps, omega, alpha, beta, gamma, s1)
    got = in_time_order(tail, steps)
    if beta == 0.0:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # The cells after the last step, none when the last block is full, read
    # exactly 1.0, so they add nothing to the closure's sums.
    assert np.array_equal(tail.T.reshape(-1)[steps:], np.ones(-steps % _BLOCK))


@pytest.mark.parametrize("n", [2, 250, 2700, 20000])
@pytest.mark.parametrize("gamma", [0.0, NIKKEI.gamma])
def test_product_drive_matches_the_ufunc_expression(n, gamma):
    # At beta = 0 the kernel returns its drive as it is, so this compares
    # the product with the rows against omega + gamma*y + alpha*y^2 formed
    # term by term; the two round differently, by an ulp or a few.
    y = simulate_qgarch(NIKKEI, n, 1.0, seed=n).values
    rows = _drive_rows(y, y * y)
    got = _variance_tail(rows, n - 1, NIKKEI.omega, NIKKEI.alpha, 0.0, gamma, 1.0)
    if n - 1 >= _SCAN_MIN:
        # Blocks of _BLOCK steps, the last one zero-padded.
        assert rows.shape == (3, _BLOCK, -(-(n - 1) // _BLOCK)) and rows.flags.c_contiguous
        got = in_time_order(got, n - 1)
    else:
        assert rows.shape == (3, n - 1) and rows.flags.c_contiguous
    y_lag = y[:-1]
    want = NIKKEI.omega + gamma * y_lag + NIKKEI.alpha * (y_lag * y_lag)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("steps", [_SCAN_MIN, _SCAN_MIN + 1, 19999])
@pytest.mark.parametrize("beta", [HANG_SENG.beta, 0.0])
def test_blocked_closure_matches_the_reference_likelihood(steps, beta):
    # The blocked layout's pad cells after the last step must add nothing
    # to the sums, with the last block full or not; at beta = 0, a point
    # of the support, they would hold a zero variance without the kernel's
    # write of 1.0.
    theta = np.array([HANG_SENG.omega, HANG_SENG.alpha, beta, HANG_SENG.gamma])
    y = simulate_qgarch(HANG_SENG, steps + 1, 1.0, seed=steps).values
    got = log_posterior_fn(ReturnSeries(y), ModelKind.QGARCH, 1.3)(theta)
    (want,), (scale,) = reference.log_likelihood([theta], y, 1.3)
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 2700, _SCAN_MIN + 1, 20000])
@pytest.mark.parametrize(
    "params", [NIKKEI, ModelParams(*reference.FITS["dax"][:3], 0.0, ModelKind.GARCH)], ids=["qgarch", "garch"]
)
def test_simulated_returns_over_kernel_volatility_are_the_seeded_innovations(params, n):
    # The simulator's scalar recursion and the likelihood's kernel are two
    # codings of one model: dividing the simulated returns by the kernel's
    # volatility along them gives back the simulator's N(0, 1) draws.
    s1, seed = 1.7, 42 + n
    returns = simulate_qgarch(params, n, s1, seed)
    eps = returns.values / np.sqrt(volatility_path(params, returns, s1))
    want = np.random.default_rng(seed).standard_normal(n)
    np.testing.assert_allclose(eps, want, rtol=1e-12, atol=0.0)


def test_simulated_variance_rounding_below_zero_on_the_support_boundary_is_a_domain_error():
    # beta = 0 and gamma^2 = 4 alpha omega: the variance's double root at
    # y = -gamma / (2 alpha) rounds to -1.1e-16 at the second step here.
    boundary = ModelParams(0.5468755603901019, 0.3366327592946544, 0.0, -0.8581287290026606)
    with pytest.raises(DomainError, match="step 2 rounds below zero; parameters sit on the support boundary"):
        simulate_qgarch(boundary, 3, 102.76678734294858, seed=0)


def test_log_posterior_fn_rejects_wrong_dimension():
    y = ReturnSeries(np.array([0.1, -0.1]))
    fn = log_posterior_fn(y, ModelKind.QGARCH, 1.0)
    for theta in (np.array([0.1, 0.1, 0.5]), np.full((4, 1), 0.1)):
        with pytest.raises(DomainError, match=re.escape(f"got shape {theta.shape}")):
            fn(theta)


def test_garch_kind_uses_three_parameters():
    params = ModelParams(0.1, 0.1, 0.8, 0.0, ModelKind.GARCH)
    assert params.kind.param_names == ("omega", "alpha", "beta")
    assert params.as_vector().shape == (3,)
    y = ReturnSeries(np.array([0.3, -0.4, 0.2]))
    fn = log_posterior_fn(y, ModelKind.GARCH, 1.0)
    assert math.isfinite(fn(params.as_vector()))


def test_unconditional_variance():
    assert unconditional_variance(ModelParams(1.0, 0.0, 0.0, 0.0)) == 1.0
    expected = NIKKEI.omega / (1.0 - NIKKEI.alpha - NIKKEI.beta)
    assert unconditional_variance(NIKKEI) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.2714, abs=5e-4)
    with pytest.raises(DomainError):
        unconditional_variance(ModelParams(1.0, 0.5, 0.5, 0.0))


def test_unconditional_variance_that_overflows_names_the_ratio():
    # Inside the support, but omega / (1 - alpha - beta) is past the largest float.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for params in (ModelParams(1e307, 0.5, 0.49), ModelParams(np.float64(1e307), np.float64(0.5), np.float64(0.49))):
            with pytest.raises(DomainError, match=re.escape("omega / (1 - alpha - beta) = 1e+307 / 0.01")):
                unconditional_variance(params)
            with pytest.raises(DomainError, match="omega / \\(1 - alpha - beta\\)"):
                news_impact_curve(params, [0.0])
    assert not caught


@pytest.mark.parametrize(
    "grid, point",
    [([0.0, 1.0, 1e200], "grid point 2, y = 1e+200"), ([-1e200, 0.0], "grid point 0, y = -1e+200"), ([0.0, math.inf], "grid point 1, y = inf")],
    ids=["square-overflows", "square-overflows-below-zero", "infinite-point"],
)
def test_news_impact_curve_names_the_first_point_that_is_not_finite(grid, point):
    # alpha * y^2 overflows at |y| = 1e200, and an infinite y gives an infinite variance.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=re.escape(f"not finite at {point}")):
            news_impact_curve(NIKKEI, grid)
    assert not caught


def test_news_impact_curve_symmetric_when_gamma_zero():
    params = ModelParams(0.2, 0.15, 0.7, 0.0)
    grid = np.linspace(-3.0, 3.0, 13)
    curve = news_impact_curve(params, grid)
    np.testing.assert_allclose(curve[:, 1], curve[::-1, 1], rtol=1e-14)


def test_news_impact_curve_reference_values():
    curve = news_impact_curve(NIKKEI, [-1.0, 0.0, 1.0])
    base = NIKKEI.beta * unconditional_variance(NIKKEI)
    assert curve[0, 1] == pytest.approx(NIKKEI.omega - NIKKEI.gamma + NIKKEI.alpha + base, rel=1e-14)
    assert curve[0, 1] == pytest.approx(2.2954, abs=1e-3)
    assert curve[2, 1] == pytest.approx(2.0473, abs=1e-3)
    assert curve[1, 1] == pytest.approx(NIKKEI.omega + base, rel=1e-14)
    assert curve[0, 1] > curve[2, 1]


def test_news_impact_curve_negative_side_higher_for_leverage():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 20:
        params = random_support_params(rng)
        if not params.gamma < 0.0:
            continue
        y = rng.uniform(0.01, 4.0, 10)
        left = news_impact_curve(params, -y)[:, 1]
        right = news_impact_curve(params, y)[:, 1]
        assert np.all(left > right)
        checked += 1


def test_news_impact_curve_requires_stationarity():
    with pytest.raises(DomainError):
        news_impact_curve(ModelParams(0.1, 0.5, 0.5, 0.0), [0.0])
