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
    model,
)
from garchmc.proposal import BLOCK, MAX_REDRAWS, SPREAD

import reference


def test_estimate_moments_two_point():
    moments = estimate_moments([[0.0], [2.0]])
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


def draws_with_offset_column(rng, n=3001):
    # Column 2 sits at 1e6 +- 0.1: a one-pass E[x^2] - E[x]^2 would lose
    # every digit of its variance.
    base = rng.standard_normal((n, 3)) @ np.array([[1.0, 0.3, 0.0], [0.0, 2.0, 0.1], [0.0, 0.0, 1e-3]])
    base[:, 2] += 1e6
    return base


def estimate_in_windows(arr, window):
    """One call over all of arr, or a 1000-row estimate merged with the rest `window` rows at a time."""
    if window is None:
        return estimate_moments(arr)
    got = estimate_moments(arr[:1000])
    for end in range(1000 + window, len(arr) + window, window):
        got = estimate_moments(arr[:end], got)
    assert got.count == len(arr)
    return got


@pytest.mark.parametrize(
    "layout, window",
    [("C", None), ("F", None), ("strided", None), ("F", 100), ("C", 1), ("F", 700), ("drift", 100)],
    ids=["C", "F", "strided", "merged-by-100", "merged-by-1", "merged-uneven-last", "merged-after-drift"],
)
def test_estimate_moments_matches_fsum_oracle(layout, window):
    arr = draws_with_offset_column(np.random.default_rng(21))
    if layout == "F":
        arr = np.asfortranarray(arr)
    elif layout == "strided":
        arr = arr[::3]
    elif layout == "drift":
        # The rows after the first estimate's 1000 sit 1000 SD from those
        # rows' mean, the shift every merge keeps.
        arr[1000:] += 1000.0 * arr[:1000].std(axis=0)
    before = arr.copy()
    got = estimate_in_windows(arr, window)
    np.testing.assert_array_equal(arr, before)
    want_mean, want_cov = reference.fsum_moments(arr)
    # Errors relative to each column's mean magnitude and to the
    # covariance's natural scale sqrt(V_ii V_jj).
    mean_scale = np.mean(np.abs(arr), axis=0)
    assert np.all(np.abs(got.mean - want_mean) <= 1e-12 * mean_scale)
    cov_scale = np.sqrt(np.outer(np.diag(want_cov), np.diag(want_cov)))
    assert np.all(np.abs(got.second_central - want_cov) <= 1e-12 * cov_scale)
    np.testing.assert_array_equal(got.second_central, got.second_central.T)


@pytest.mark.parametrize("finite_rows", [0, 25], ids=["one-shot", "merged"])
def test_estimate_moments_overflow_is_non_finite_without_warning(finite_rows):
    # The suite turns warnings into errors; build_proposal rejects the result.
    # Merged, a finite estimate of the first rows meets rows that overflow.
    draws = np.random.default_rng(22).standard_normal((50, 2)) * 1e300
    draws[:finite_rows] *= 1e-300
    previous = estimate_moments(draws[:finite_rows]) if finite_rows else None
    assert previous is None or np.all(np.isfinite(previous.second_central))
    moments = estimate_moments(draws, previous)
    assert not np.all(np.isfinite(moments.second_central))
    with pytest.raises(DegenerateCovarianceError, match="not finite"):
        build_proposal(moments, nu=10.0)


def test_estimate_moments_merge_reads_only_the_rows_previous_lacks():
    arr = draws_with_offset_column(np.random.default_rng(23))
    previous = estimate_moments(arr[:1000])
    assert estimate_moments(arr[:1000], previous) is previous
    want = estimate_moments(arr, previous)
    arr[:1000] = np.nan
    got = estimate_moments(arr, previous)
    np.testing.assert_array_equal(got.mean, want.mean)
    np.testing.assert_array_equal(got.second_central, want.second_central)


@pytest.mark.parametrize(
    "make_previous, match",
    [
        (lambda arr: estimate_moments(arr[:10, :2]), "previous estimate has dimension 2, samples have 3"),
        (lambda arr: estimate_moments(np.vstack([arr, arr])), "previous estimate covers 100 rows, samples have only 50"),
        (lambda arr: MomentEstimate(np.zeros(3), np.eye(3)), "previous estimate has no merge state"),
    ],
    ids=["other-dimension", "more-rows", "hand-built"],
)
def test_estimate_moments_rejects_a_previous_that_cannot_describe_the_prefix(make_previous, match):
    arr = np.random.default_rng(24).standard_normal((50, 3))
    with pytest.raises(DomainError, match=match):
        estimate_moments(arr, make_previous(arr))


@pytest.mark.parametrize(
    "mean, v",
    [
        ([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]),
        ([math.inf, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([math.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    ],
    ids=["inf-variance", "nan-covariance", "inf-mean", "nan-mean"],
)
def test_build_proposal_rejects_non_finite_moments(mean, v):
    with pytest.raises(DegenerateCovarianceError, match="not finite"):
        build_proposal(MomentEstimate(np.array(mean), np.array(v)), nu=10.0)


def test_estimate_moments_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        estimate_moments([[1.0, 2.0]])
    # One draw per row: a flat list is not read as N one-dimensional draws.
    with pytest.raises(DomainError):
        estimate_moments([0.0, 2.0])


def test_build_proposal_identity_scaling():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=10.0)
    np.testing.assert_allclose(prop.sigma, 1.44 * 0.8 * np.eye(2), rtol=1e-15)
    np.testing.assert_allclose(prop.chol, 1.2 * math.sqrt(0.8) * np.eye(2), rtol=1e-15)


def test_build_proposal_diagonal():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.diag([4.0, 9.0])), nu=4.0)
    np.testing.assert_allclose(prop.sigma, 1.44 * np.diag([2.0, 4.5]), rtol=1e-15)
    np.testing.assert_allclose(prop.chol, 1.2 * np.diag([math.sqrt(2.0), math.sqrt(4.5)]), rtol=1e-15)


@pytest.mark.parametrize("nu", [2.5, 7.0, 10.0, 1e6])
def test_build_proposal_sigma_is_the_spread_scaled_covariance(nu):
    # A scalar times V: exactly the formula, and exactly symmetric, so the
    # Cholesky factor sees the same matrix the symmetry check passed.
    rng = np.random.default_rng(19)
    v = estimate_moments(rng.standard_normal((40, 4)) @ rng.standard_normal((4, 4))).second_central
    sigma = build_proposal(MomentEstimate(np.zeros(4), v), nu=nu).sigma
    np.testing.assert_array_equal(sigma, SPREAD**2 * (nu - 2.0) / nu * v)
    np.testing.assert_array_equal(sigma, sigma.T)


def test_build_proposal_zero_matrix_is_degenerate():
    with pytest.raises(DegenerateCovarianceError, match=r"variances \[0\.0, 0\.0, 0\.0\]"):
        build_proposal(MomentEstimate(np.zeros(3), np.zeros((3, 3))), nu=10.0)


def test_near_singular_log_density_peaks_at_the_mean():
    # V = uu' + 1e-16 I factors, but its explicit inverse is indefinite in
    # floating point: a quadratic form through it went negative, so log g
    # rose above log g(M), or log1p's argument fell below -1 and it raised.
    u = np.random.default_rng(12).standard_normal(4)
    v = np.outer(u, u) + 1e-16 * np.eye(4)
    prop = build_proposal(MomentEstimate(np.zeros(4), v), nu=10.0)
    peak = prop.log_density(prop.mean)
    rng = np.random.default_rng(0)
    assert max(prop.log_density(prop.draw(rng)[0]) for _ in range(200)) <= peak


def test_build_proposal_rejects_bad_input():
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]])), nu=10.0)
    # One ulp off symmetric is refused too, not averaged with its transpose.
    with pytest.raises(DomainError, match=r"not symmetric \(max asymmetry 1\.110e-16\)"):
        build_proposal(MomentEstimate(np.zeros(2), np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]])), nu=10.0)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=2.0)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=math.inf)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=1e7)
    with pytest.raises(DomainError):
        build_proposal(MomentEstimate(np.zeros(0), np.zeros((0, 0))), nu=10.0)


def test_build_proposal_unfixably_degenerate():
    v = np.array([[1e20, 0.0], [0.0, -1e20]])
    with pytest.raises(DegenerateCovarianceError, match="not positive definite"):
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
    # Round trip: the fitted proposal's draws must reproduce (M, SPREAD^2 V).
    mean = np.array([1.0, -2.0])
    v = np.array([[2.0, 0.6], [0.6, 1.0]])
    prop = build_proposal(MomentEstimate(mean, v), nu=10.0)
    rng = np.random.default_rng(12)
    draws = np.array([prop.draw(rng)[0] for _ in range(200_000)])
    got = estimate_moments(draws)
    np.testing.assert_allclose(got.mean, mean, atol=0.02)
    np.testing.assert_allclose(got.second_central, SPREAD**2 * v, rtol=0.05)


def test_draw_covariance_is_nu_scaled_sigma():
    v = np.array([[1.0, 0.4], [0.4, 2.0]])
    nu = 10.0
    prop = build_proposal(MomentEstimate(np.zeros(2), v), nu=nu)
    rng = np.random.default_rng(13)
    draws = np.array([prop.draw(rng)[0] for _ in range(100_000)])
    emp = np.cov(draws, rowvar=False, ddof=1)
    np.testing.assert_allclose(emp, nu / (nu - 2.0) * prop.sigma, rtol=0.05)


def test_draw_gaussian_limit_kurtosis():
    prop = build_proposal(MomentEstimate(np.zeros(1), np.eye(1)), nu=1e6)
    rng = np.random.default_rng(14)
    draws = np.array([prop.draw(rng)[0][0] for _ in range(100_000)])
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
    # V = 1.25, so sigma = 1.44 at nu = 10.
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
        theta, _ = prop.draw(rng)
        assert permuted.log_density(theta[perm]) == pytest.approx(prop.log_density(theta), rel=1e-12)


@pytest.mark.parametrize("truncated", [False, True], ids=["untruncated", "truncated"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_draw_log_density_matches_log_density(p, truncated):
    # The draw's log g comes from its standardized vector, log_density's
    # through L^{-1}: the two agree to rounding.
    rng = np.random.default_rng(40 + p)
    moments = estimate_moments(rng.standard_normal((50, p)) @ rng.standard_normal((p, p)))
    support = (lambda rows: rows.sum(axis=1) > moments.mean.sum()) if truncated else None
    prop = build_proposal(moments, nu=7.0, support=support)
    for _ in range(500):
        theta, log_g = prop.draw(rng)
        assert support is None or support(theta[np.newaxis])[0]
        assert abs(log_g - prop.log_density(theta)) <= 1e-13 * max(1.0, abs(log_g))


@pytest.mark.parametrize("support", [None, lambda rows: np.full(len(rows), True)], ids=["none", "everywhere"])
def test_draws_that_need_no_redraw_take_the_untruncated_randoms(support):
    # The draw without truncation, a block at a time: Y ~ N(0, I) for the
    # block's rows, then w ~ chi2_nu for each, and M + L Y sqrt(nu/w).
    prop = build_proposal(estimate_moments(np.random.default_rng(17).standard_normal((50, 3))), 9.0, support)
    rng, ref = np.random.default_rng(18), np.random.default_rng(18)
    for _ in range(3):
        y = ref.standard_normal((BLOCK, 3))
        w = ref.chisquare(9.0, BLOCK)
        for row, chi2 in zip(y, w):
            want = prop.chol.dot(row * math.sqrt(9.0 / chi2)) + prop.mean
            np.testing.assert_allclose(prop.draw(rng)[0], want, rtol=0.0, atol=1e-15 * np.abs(want).max())


class OffAt:
    """Row predicate that puts the rows at given positions of the stream it has tested off the support."""

    def __init__(self, positions):
        self.positions, self.tested = positions, 0

    def __call__(self, rows):
        at = np.arange(self.tested, self.tested + len(rows))
        self.tested += len(rows)
        return ~np.isin(at, self.positions)


# Single off-support rows, one at the end of the first block, and a run of
# 260: its 101st row (400) is served past the cap after crossing the block
# edge at 384, the next 101 end at 501, and the last 58 cross 512.
OFF = np.r_[3, 7, 8, BLOCK - 1, np.arange(300, 560)]


@pytest.mark.parametrize("p", [1, 3, 4])
@pytest.mark.parametrize("positions, counts", [([], (6 * BLOCK, 0, 0)), (OFF, (8 * BLOCK, 264, 2))],
                         ids=["on-support", "skips-and-capped-runs"])
def test_draw_serves_blocks_as_the_reference_redraws(p, positions, counts):
    rng = np.random.default_rng(50 + p)
    moments = estimate_moments(rng.standard_normal((50, p)) @ rng.standard_normal((p, p)) + 3.0)
    prop = build_proposal(moments, nu=7.0, support=OffAt(positions))
    want, want_log_g = reference.truncated_t_draws(moments.mean, prop.chol, 7.0, OffAt(positions), 700,
                                                   np.random.default_rng(60), BLOCK, MAX_REDRAWS)
    rng = np.random.default_rng(60)
    thetas, log_g = map(np.array, zip(*(prop.draw(rng) for _ in range(700))))
    assert np.all(np.abs(thetas - want) <= 1e-15 * np.abs(want).max())
    assert np.all(np.abs(log_g - want_log_g) <= 1e-15 * np.abs(want_log_g).max())
    # The 700 candidates and the 262 rows skipped among them fill 6 or 8
    # blocks; rows 400 and 501 were served off the support, past the cap.
    assert (prop.counts.draws, prop.counts.off_support, prop.counts.capped) == counts


def test_draw_from_a_second_generator_starts_afresh():
    moments = estimate_moments(0.01 * np.random.default_rng(61).standard_normal((50, 3)) + [0.05, 0.1, 0.8])
    prop, fresh = (build_proposal(moments, 9.0, model.in_support) for _ in range(2))
    first = np.random.default_rng(62)
    for _ in range(5):
        prop.draw(first)
    assert prop._block.served  # the first generator's block is not used up
    second, again = np.random.default_rng(63), np.random.default_rng(63)
    for _ in range(BLOCK + 5):
        theta, log_g = prop.draw(second)
        want, want_log_g = fresh.draw(again)
        np.testing.assert_array_equal(theta, want)
        assert log_g == want_log_g


def test_support_must_give_one_bool_per_row():
    # A predicate on one vector reads an (n, p) array's first row.
    prop = build_proposal(MomentEstimate(np.zeros(1), np.eye(1)), nu=10.0, support=lambda v: v[0] > 0.0)
    with pytest.raises(DomainError, match=rf"support must map an \(n, p\) array to n bools, got shape \(1,\) for n = {BLOCK}"):
        prop.draw(np.random.default_rng(0))
