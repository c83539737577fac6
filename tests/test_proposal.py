import math

import numpy as np
import pytest
from scipy.integrate import quad

from garchmc import (
    DegenerateCovarianceError,
    DomainError,
    InsufficientDataError,
    MomentEstimate,
    build_proposal,
    estimate_moments,
)


def test_estimate_moments_two_point():
    moments = estimate_moments([0.0, 2.0])
    assert moments.mean[0] == 1.0
    assert moments.second_central[0, 0] == 2.0  # unbiased, divisor N-1


def test_estimate_moments_identical_samples():
    moments = estimate_moments(np.tile([1.5, -0.5], (10, 1)))
    np.testing.assert_array_equal(moments.second_central, np.zeros((2, 2)))


def test_estimate_moments_standard_normal():
    rng = np.random.default_rng(2)
    moments = estimate_moments(rng.standard_normal((100_000, 2)))
    v = moments.second_central
    assert abs(v[0, 0] - 1.0) < 0.05 and abs(v[1, 1] - 1.0) < 0.05
    assert abs(v[0, 1]) < 0.05
    assert np.all(np.abs(moments.mean) < 0.02)


def test_estimate_moments_symmetric_by_construction():
    rng = np.random.default_rng(4)
    moments = estimate_moments(rng.standard_normal((500, 5)) @ rng.standard_normal((5, 5)))
    np.testing.assert_array_equal(moments.second_central, moments.second_central.T)


def test_estimate_moments_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        estimate_moments([[1.0, 2.0]])


def test_build_proposal_identity_scaling():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=10.0)
    np.testing.assert_allclose(prop.sigma, 0.8 * np.eye(2), rtol=1e-15)
    np.testing.assert_allclose(prop.chol, math.sqrt(0.8) * np.eye(2), rtol=1e-15)


def test_build_proposal_diagonal():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.diag([4.0, 9.0])), nu=4.0)
    np.testing.assert_allclose(prop.sigma, np.diag([2.0, 4.5]), rtol=1e-15)
    np.testing.assert_allclose(prop.chol, np.diag([math.sqrt(2.0), math.sqrt(4.5)]), rtol=1e-15)


def test_build_proposal_zero_matrix_jitters():
    prop = build_proposal(MomentEstimate(np.zeros(3), np.zeros((3, 3))), nu=10.0)
    np.testing.assert_allclose(prop.sigma, 1e-8 * np.eye(3), rtol=1e-12)


def test_build_proposal_rejects_bad_input():
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]])), nu=10.0)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=2.0)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=math.inf)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(0), np.zeros((0, 0))), nu=10.0)


def test_build_proposal_unfixably_degenerate():
    v = np.array([[1e20, 0.0], [0.0, -1e20]])
    with pytest.raises((DegenerateCovarianceError, DomainError)):
        build_proposal(MomentEstimate(np.zeros(2), v), nu=10.0)


def test_cholesky_reconstructs_sigma():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        moments = estimate_moments(rng.standard_normal((50, 4)) @ a)
        prop = build_proposal(moments, nu=6.0)
        recon = prop.chol @ prop.chol.T
        assert np.max(np.abs(recon - prop.sigma)) < 1e-10
        assert np.all(np.diag(prop.chol) > 0.0)
        assert np.max(np.abs(np.triu(prop.chol, 1))) == 0.0


def test_draw_moments_match_construction():
    # Round trip: the fitted proposal's draws must reproduce (M, V).
    mean = np.array([1.0, -2.0])
    v = np.array([[2.0, 0.6], [0.6, 1.0]])
    prop = build_proposal(MomentEstimate(mean, v), nu=10.0)
    rng = np.random.default_rng(12)
    draws = np.array([prop.draw(rng) for _ in range(200_000)])
    got = estimate_moments(draws)
    np.testing.assert_allclose(got.mean, mean, atol=0.02)
    np.testing.assert_allclose(got.second_central, v, rtol=0.05)


def test_draw_covariance_is_nu_scaled_sigma():
    v = np.array([[1.0, 0.4], [0.4, 2.0]])
    nu = 10.0
    prop = build_proposal(MomentEstimate(np.zeros(2), v), nu=nu)
    rng = np.random.default_rng(13)
    draws = np.array([prop.draw(rng) for _ in range(100_000)])
    emp = np.cov(draws, rowvar=False, ddof=1)
    np.testing.assert_allclose(emp, nu / (nu - 2.0) * prop.sigma, rtol=0.05)


def test_draw_gaussian_limit_kurtosis():
    prop = build_proposal(MomentEstimate(np.zeros(1), np.eye(1)), nu=1e6)
    rng = np.random.default_rng(14)
    draws = np.array([prop.draw(rng)[0] for _ in range(100_000)])
    kurtosis = np.mean((draws - draws.mean()) ** 4) / np.var(draws) ** 2
    assert abs(kurtosis - 3.0) < 0.1


def test_log_density_symmetric_and_peaked():
    centered = build_proposal(MomentEstimate(np.zeros(3), np.diag([1.0, 2.0, 0.5])), nu=7.0)
    shifted = build_proposal(
        MomentEstimate(np.array([0.3, -0.7, 1.1]), np.diag([1.0, 2.0, 0.5])), nu=7.0
    )
    rng = np.random.default_rng(15)
    peak = shifted.log_density(shifted.mean)
    for _ in range(50):
        d = rng.standard_normal(3)
        # exactly even in (theta - M); M + d itself rounds, hence the rtol
        assert centered.log_density(d) == centered.log_density(-d)
        assert shifted.log_density(shifted.mean + d) == pytest.approx(
            shifted.log_density(shifted.mean - d), rel=1e-12
        )
        assert shifted.log_density(shifted.mean + d) <= peak


def test_log_density_normalized_by_quadrature():
    # V = 1.25 so sigma = 1 exactly at nu = 10.
    prop = build_proposal(MomentEstimate(np.zeros(1), np.array([[1.25]])), nu=10.0)
    total, _ = quad(lambda x: math.exp(prop.log_density(np.array([x]))), -50.0, 50.0,
                    epsabs=1e-12, limit=200)
    assert abs(total - 1.0) < 1e-6


def test_log_density_dimension_mismatch():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=5.0)
    with pytest.raises(DomainError):
        prop.log_density(np.zeros(3))


def test_log_density_permutation_invariant():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((4, 4))
    moments = estimate_moments(rng.standard_normal((200, 4)) @ a)
    prop = build_proposal(moments, nu=8.0)
    perm = np.array([2, 0, 3, 1])
    permuted = build_proposal(
        MomentEstimate(moments.mean[perm], moments.second_central[np.ix_(perm, perm)]), nu=8.0
    )
    for _ in range(20):
        theta = prop.draw(rng)
        assert permuted.log_density(theta[perm]) == pytest.approx(prop.log_density(theta), rel=1e-12)
