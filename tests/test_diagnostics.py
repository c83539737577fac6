import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from garchmc import (
    ChainResult,
    DegenerateSeriesError,
    DomainError,
    InsufficientDataError,
    NonConvergenceError,
    ReturnSeries,
    acf,
    integrated_autocorr_time,
    jackknife_se,
    summarize,
)
from garchmc import diagnostics
from garchmc.diagnostics import MIN_SAMPLES, _smooth_length

import reference


def fake_chain(samples, names=("theta",), acceptance=(0.8, 0.8)):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    return ChainResult(
        samples=samples,
        param_names=tuple(names),
        acceptance_trace=np.asarray(acceptance, dtype=float),
        moment_trace=[],
    )


def test_acf_lag_zero_is_one_exactly():
    rng = np.random.default_rng(1)
    for n in (10, 101, 5000):
        assert acf(rng.standard_normal(n), max_lag=min(20, n - 1))[0] == 1.0


# None of N + 20 is 5-smooth here, so each pads past N + 20: to 540, 540,
# 192 and 1080 points.
@pytest.mark.parametrize("n", [500, 499, 170, 1009])
def test_acf_matches_direct_summation(n):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n).cumsum()  # strongly correlated series
    np.testing.assert_allclose(acf(x, 20), reference.naive_acf(x, 20), rtol=1e-9, atol=1e-12)


# N + max_lag is the shortest padding with no wrap-around at lag max_lag.
# 150 is 5-smooth and is the FFT length itself; 201 pads to 216, where a
# pad to N + max_lag - 1 = 200 would wrap lag 100; the prime 1009 with lags
# to N // 2 pads 1513 to 1536; 135 is an odd length, whose spectrum mirrors
# one bin more than an even one's.
@pytest.mark.parametrize("n, max_lag", [(100, 50), (101, 100), (1009, 504), (90, 45)])
def test_acf_matches_direct_summation_up_to_the_padding_edge(n, max_lag):
    x = np.random.default_rng(2).standard_normal(n).cumsum()
    np.testing.assert_allclose(acf(x, max_lag), reference.naive_acf(x, max_lag), rtol=1e-9, atol=1e-12)


def test_fft_length_is_the_smallest_5_smooth_length_at_least_n():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        length = _smooth_length(n)
        assert length >= n and smooth(length)
        assert not any(smooth(m) for m in range(n, length))


def test_acf_peaks_below_five_columns_of_numpy_memory():
    # A power-of-two pad >= 2N with a complex power spectrum peaks near 9
    # columns here; lags to N // 2 are what `summarize` asks for.
    n = 100_000
    x = np.random.default_rng(6).standard_normal(n).cumsum()
    tracemalloc.start()
    try:
        acf(x, n // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n


def test_acf_white_noise_band():
    rng = np.random.default_rng(3)
    n = 100_000
    rho = acf(rng.standard_normal(n), 20)
    assert np.all(np.abs(rho[1:]) < 3.0 / math.sqrt(n))


def test_acf_ar1_matches_analytic():
    x = reference.ar1(100_000, 0.5, seed=4)
    rho = acf(x, 5)
    for t in range(1, 6):
        assert abs(rho[t] - 0.5**t) < 0.02


def test_acf_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(300) + rng.uniform(-2, 2)
        assert np.max(np.abs(acf(x, 100))) <= 1.01


def test_acf_errors():
    with pytest.raises(DegenerateSeriesError):
        acf(np.full(50, 3.7), 10)
    with pytest.raises(DomainError):
        acf(np.arange(10.0), 0)
    with pytest.raises(DomainError):
        acf(np.arange(10.0), 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "plus-inf", "minus-inf"])
def test_acf_names_the_first_non_finite_draw(bad):
    # A non-finite draw is the input's fault, not the mixing's: acf and the
    # two routines built on it name it, before numpy can warn about it.
    x = np.random.default_rng(15).standard_normal(200)
    x[[37, 90]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: acf(x, 20), lambda: integrated_autocorr_time(x),
                     lambda: summarize(fake_chain(x), ReturnSeries(np.array([0.1, -0.2])))):
            with pytest.raises(DomainError, match=re.escape(f"x[37] = {bad}")):
                call()


def test_tau_int_iid_is_half():
    rng = np.random.default_rng(6)
    tau, err = integrated_autocorr_time(rng.standard_normal(100_000))
    assert abs(2.0 * tau - 1.0) < 0.1
    assert err > 0.0


def test_tau_int_ar1_analytic():
    # tau = 1/2 + sum rho^t = 1/2 + rho/(1-rho) = 1.5 at rho = 0.5.
    tau, _ = integrated_autocorr_time(reference.ar1(100_000, 0.5, seed=7))
    assert abs(2.0 * tau - 3.0) / 3.0 < 0.10


def test_tau_int_shuffled_chain_is_unity():
    x = reference.ar1(50_000, 0.8, seed=8)
    shuffled = np.random.default_rng(9).permutation(x)
    tau, _ = integrated_autocorr_time(shuffled)
    assert 0.8 <= 2.0 * tau <= 1.2


def test_tau_int_errors():
    with pytest.raises(InsufficientDataError):
        integrated_autocorr_time(np.random.default_rng(0).standard_normal(50))
    with pytest.raises(DegenerateSeriesError):
        integrated_autocorr_time(np.zeros(200))
    # A slowly drifting ramp never satisfies the window rule below N/2.
    with pytest.raises(NonConvergenceError):
        integrated_autocorr_time(np.arange(200.0))
    # An alternating series passes the window rule at W = 1 with tau_int < 0.
    with pytest.raises(NonConvergenceError, match="not > 0"):
        integrated_autocorr_time(np.tile([0.0, 1.0], 500))


def test_jackknife_constant_series():
    assert jackknife_se(np.full(200, 2.5)) == 0.0


def test_jackknife_iid_matches_naive_se():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(100_000)
    se = jackknife_se(x)
    naive = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(se / naive - 1.0) < 0.2


def test_jackknife_shift_and_scale():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1000)
    base = jackknife_se(x)
    assert jackknife_se(x + 17.3) == pytest.approx(base, rel=1e-9)
    assert jackknife_se(3.5 * x) == pytest.approx(3.5 * base, rel=1e-12)


def test_jackknife_errors():
    with pytest.raises(InsufficientDataError, match=f"need at least {MIN_SAMPLES} samples .*, got 99$"):
        jackknife_se(np.arange(99.0))


def test_summarize_constant_chain():
    # 1.25 has an exact float mean; 1000 copies of 0.062193847261 average to
    # one ulp below it, so their float SD is 1.4e-17, not 0.
    for value, n in ((1.25, 500), (0.062193847261, 1000)):
        report = summarize(fake_chain(np.full(n, value)), ReturnSeries(np.array([0.1, -0.2])))
        summary = report.params["theta"]
        assert summary.mean == value
        assert summary.sd == 0.0
        assert summary.jackknife_se == 0.0
        assert math.isnan(summary.two_tau_int)


def test_summarize_anti_correlated_chain_is_numerical_error():
    with pytest.raises(NonConvergenceError):
        summarize(fake_chain(np.tile([0.0, 1.0], 500)), ReturnSeries(np.array([0.1, -0.2])))


@pytest.mark.parametrize("n", [0, 50, MIN_SAMPLES - 1])
def test_summarize_names_a_chain_shorter_than_min_samples(n):
    # The error counts draws, not the jackknife blocks the caller never chose.
    x = np.random.default_rng(18).standard_normal(n)
    with pytest.raises(InsufficientDataError, match=f"need at least {MIN_SAMPLES} samples .*, got {n}$"):
        summarize(fake_chain(x), ReturnSeries(np.array([0.1, -0.2])))


def test_summarize_iid_pseudo_chain():
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((100_000, 2)) * [1.0, 0.3] + [5.0, -2.0]
    report = summarize(fake_chain(samples, names=("a", "b")), ReturnSeries(np.array([0.0, 1.0])))
    for name in ("a", "b"):
        s = report.params[name]
        assert abs(s.two_tau_int - 1.0) < 0.1
        naive_se = s.sd / math.sqrt(report.n_samples)
        assert abs(s.jackknife_se / naive_se - 1.0) < 0.2
        assert 0.5 <= s.se_consistency <= 2.0


def test_summarize_mean_is_plain_average():
    rng = np.random.default_rng(13)
    samples = rng.standard_normal((5000, 3)) + [1.0, -1.0, 0.25]
    report = summarize(fake_chain(samples, names=("x", "y", "z")), ReturnSeries(np.array([0.0, 1.0])))
    for j, name in enumerate(("x", "y", "z")):
        assert report.params[name].mean == pytest.approx(samples[:, j].mean(), abs=1e-12)


def test_summarize_reports_run_level_fields():
    rng = np.random.default_rng(14)
    chain = fake_chain(rng.standard_normal(2000), acceptance=np.linspace(0.3, 0.8, 20))
    report = summarize(chain, ReturnSeries(np.array([0.5, 0.1, -0.3])))
    assert report.n_samples == 2000
    assert report.n_observations == 3
    assert report.acceptance_plateau == pytest.approx(np.linspace(0.3, 0.8, 20)[-10:].mean())


def test_summary_text_holds_json_values_exactly():
    rng = np.random.default_rng(15)
    report = summarize(fake_chain(rng.standard_normal(1000) * math.pi), ReturnSeries(np.array([0.0, 1.0])))
    text = report.to_text()
    data = report.to_dict()
    row = next(line for line in text.splitlines() if line.startswith("theta"))
    cells = row.split()
    assert float(cells[1]) == data["parameters"]["theta"]["mean"]
    assert float(cells[2]) == data["parameters"]["theta"]["sd"]
    assert float(cells[3]) == data["parameters"]["theta"]["jackknife_se"]
    assert float(cells[4]) == data["parameters"]["theta"]["two_tau_int"]


def test_summarize_acf_table_to_last_lag_with_nan_for_a_constant_column():
    rng = np.random.default_rng(16)
    samples = np.column_stack([rng.standard_normal(150), np.full(150, 0.25), reference.ar1(150, 0.5, seed=17)])
    report = summarize(fake_chain(samples, names=("a", "fixed", "b")), ReturnSeries(np.array([0.0, 1.0])))
    assert report.acf.shape == (150, 3)
    np.testing.assert_array_equal(report.acf[:, 0], acf(samples[:, 0], 149))
    np.testing.assert_array_equal(report.acf[:, 2], acf(samples[:, 2], 149))
    assert np.isnan(report.acf[:, 1]).all()
    # The one ACF summarize shares with the table gives the public tau_int.
    for name, col in (("a", samples[:, 0]), ("b", samples[:, 2])):
        tau, tau_err = integrated_autocorr_time(col)
        assert report.params[name].two_tau_int == 2.0 * tau
        assert report.params[name].two_tau_int_error == 2.0 * tau_err


def test_summarize_peaks_below_one_and_a_half_columns_when_windows_close_early():
    # Windows near W = 10 lie within the table's 200 lags, so no column
    # takes the ACF to N/2: its FFT alone peaks near 3 columns.
    n = 100_000
    samples = np.column_stack([reference.ar1(n, 0.5, seed=20 + j) for j in range(4)])
    chain = fake_chain(samples, names=("a", "b", "c", "d"))
    tracemalloc.start()
    try:
        summarize(chain, ReturnSeries(np.array([0.0, 1.0])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


def window_rule(rho):
    """tau_int at the smallest W with W >= 6 * tau_int(W) among rho's lags."""
    tau_at = 0.5 + np.cumsum(rho[1:])
    w = next(w for w in range(1, rho.size) if w >= 6.0 * tau_at[w - 1])
    return tau_at[w - 1]


def record_acf_lags(monkeypatch):
    """The max_lag of each `acf` call the diagnostics make, in order."""
    lags = []

    def recording_acf(series, max_lag):
        lags.append(max_lag)
        return acf(series, max_lag)

    monkeypatch.setattr(diagnostics, "acf", recording_acf)
    return lags


def test_window_past_the_table_takes_the_acf_to_half_the_chain(monkeypatch):
    # tau_int is near 100 at phi = 0.99, so the window lies near 600 lags.
    n = 20_000
    x = reference.ar1(n, 0.99, seed=19)
    lags = record_acf_lags(monkeypatch)
    report = summarize(fake_chain(x), ReturnSeries(np.array([0.0, 1.0])))
    assert lags == [200, n // 2]
    tau, _ = integrated_autocorr_time(x)
    assert report.params["theta"].two_tau_int == 2.0 * tau
    assert tau == pytest.approx(window_rule(reference.naive_acf(x, 1000)), rel=1e-9, abs=0.0)
    assert report.acf.shape == (201, 1)
    np.testing.assert_array_equal(report.acf[:, 0], acf(x, 200))


def test_window_within_the_table_takes_one_acf(monkeypatch):
    x = reference.ar1(5000, 0.5, seed=21)
    lags = record_acf_lags(monkeypatch)
    summarize(fake_chain(x), ReturnSeries(np.array([0.0, 1.0])))
    assert lags == [200]


def test_random_walk_has_no_window_below_half_the_chain(monkeypatch):
    x = np.random.default_rng(0).standard_normal(1000).cumsum()
    lags = record_acf_lags(monkeypatch)
    with pytest.raises(NonConvergenceError, match=re.escape("no self-consistent window below N/2 = 500")):
        integrated_autocorr_time(x)
    assert lags == [200, 500]
