import math

import numpy as np
import pytest

from garchmc import (
    DomainError,
    ModelKind,
    ModelParams,
    ReturnSeries,
    log_likelihood,
    log_posterior,
    log_posterior_fn,
    news_impact_curve,
    unconditional_variance,
    volatility_path,
)

# Posterior-mean fits typical of daily equity-index returns, used as
# realistic test points throughout the suite.
NIKKEI = ModelParams(0.06219, 0.07872, 0.89390, -0.12403, ModelKind.QGARCH)


def random_support_params(rng, kind=ModelKind.QGARCH):
    """Draw parameters uniformly from inside the prior support."""
    omega = rng.uniform(0.01, 2.0)
    alpha = rng.uniform(0.0, 0.8)
    beta = rng.uniform(0.0, 0.99 - alpha)
    if kind is ModelKind.GARCH:
        return ModelParams(omega, alpha, beta, 0.0, kind)
    gamma = rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(alpha * omega)
    return ModelParams(omega, alpha, beta, gamma, kind)


def naive_variance_path(omega, alpha, beta, gamma, y, sigma1_sq):
    """The variance recursion, one step at a time."""
    sig = [sigma1_sq]
    for t in range(1, len(y)):
        sig.append(omega + gamma * y[t - 1] + alpha * y[t - 1] ** 2 + beta * sig[-1])
    return sig


def naive_log_likelihood(omega, alpha, beta, gamma, y, sigma1_sq):
    """Direct summation of the Gaussian terms along the naive variance path."""
    sig = naive_variance_path(omega, alpha, beta, gamma, y, sigma1_sq)
    return -0.5 * sum(math.log(2.0 * math.pi * s) + yt**2 / s for yt, s in zip(y, sig))


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


@pytest.mark.parametrize("fn", [volatility_path, log_likelihood, log_posterior])
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
        want = naive_log_likelihood(*theta, y, s1)
        assert abs(got - want) <= 1e-12 * abs(want)
        path = volatility_path(params, ReturnSeries(y), s1)
        assert path.shape == (n,)
        np.testing.assert_allclose(path, naive_variance_path(*theta, y, s1), rtol=1e-12, atol=0.0)


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
    # Scaling y by c with (omega, gamma, sigma1) -> (c^2 omega, c gamma, c^2 sigma1)
    # shifts the log-likelihood by exactly -n ln c.
    rng = np.random.default_rng(23)
    for _ in range(10):
        params = random_support_params(rng)
        y = rng.standard_normal(150)
        s1 = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.3, 4.0)
        scaled = ModelParams(c * c * params.omega, params.alpha, params.beta, c * params.gamma)
        base = log_likelihood(params, ReturnSeries(y), s1)
        shifted = log_likelihood(scaled, ReturnSeries(c * y), c * c * s1)
        assert shifted - base == pytest.approx(-y.size * math.log(c), abs=1e-9)


def test_log_posterior_equals_likelihood_on_support():
    rng = np.random.default_rng(31)
    y = ReturnSeries(rng.standard_normal(80))
    for _ in range(10):
        params = random_support_params(rng)
        assert log_posterior(params, y, 1.0) == log_likelihood(params, y, 1.0)


def test_log_posterior_off_support_is_minus_inf():
    y = ReturnSeries(np.array([0.5, -0.2, 0.1]))
    assert log_posterior(ModelParams(0.1, 0.6, 0.6, 0.0), y, 1.0) == -math.inf
    assert log_posterior(ModelParams(0.1, 0.01, 0.5, 0.5), y, 1.0) == -math.inf  # gamma^2 > 4 a w
    assert log_posterior(ModelParams(-0.1, 0.1, 0.5, 0.0), y, 1.0) == -math.inf
    # GARCH kind requires gamma == 0 even though its vector form drops it
    assert log_posterior(ModelParams(0.1, 0.1, 0.5, 0.1, ModelKind.GARCH), y, 1.0) == -math.inf


def test_log_posterior_preserves_likelihood_ordering():
    rng = np.random.default_rng(37)
    y = ReturnSeries(rng.standard_normal(60))
    for _ in range(20):
        a, b = random_support_params(rng), random_support_params(rng)
        la, lb = log_likelihood(a, y, 1.0), log_likelihood(b, y, 1.0)
        pa, pb = log_posterior(a, y, 1.0), log_posterior(b, y, 1.0)
        assert (la < lb) == (pa < pb)


def test_log_posterior_fn_rejects_wrong_dimension():
    y = ReturnSeries(np.array([0.1, -0.1]))
    fn = log_posterior_fn(y, ModelKind.QGARCH, 1.0)
    with pytest.raises(DomainError):
        fn(np.array([0.1, 0.1, 0.5]))


def test_garch_kind_uses_three_parameters():
    params = ModelParams(0.1, 0.1, 0.8, 0.0, ModelKind.GARCH)
    assert params.kind.param_names == ("omega", "alpha", "beta")
    assert params.as_vector().shape == (3,)
    y = ReturnSeries(np.array([0.3, -0.4, 0.2]))
    fn = log_posterior_fn(y, ModelKind.GARCH, 1.0)
    assert math.isfinite(fn(params.as_vector()))


def test_unconditional_variance():
    assert unconditional_variance(ModelParams(1.0, 0.0, 0.0, 0.0)) == 1.0
    expected = 0.06219 / (1.0 - 0.07872 - 0.89390)
    assert unconditional_variance(NIKKEI) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.2714, abs=5e-4)
    with pytest.raises(DomainError):
        unconditional_variance(ModelParams(1.0, 0.5, 0.5, 0.0))


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
