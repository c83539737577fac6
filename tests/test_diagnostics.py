import math

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


def naive_acf(x, max_lag):
    """Direct-summation oracle: cov sums over overlapping pairs, divisor N."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    var = (centered**2).sum() / n
    out = np.empty(max_lag + 1)
    for t in range(max_lag + 1):
        out[t] = (centered[: n - t] * centered[t:]).sum() / n / var
    return out


def ar1(n, rho, seed, warm=200):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + warm)
    x = np.empty(n + warm)
    x[0] = e[0]
    for t in range(1, n + warm):
        x[t] = rho * x[t - 1] + e[t]
    return x[warm:]


def fake_chain(samples, names=("theta",), acceptance=(0.8, 0.8)):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    return ChainResult(
        samples=samples,
        param_names=tuple(names),
        acceptance_trace=np.asarray(acceptance, dtype=float),
        moment_trace=[],
        warmup_samples=np.empty((0, samples.shape[1])),
    )


def test_acf_lag_zero_is_one_exactly():
    rng = np.random.default_rng(1)
    for n in (10, 101, 5000):
        assert acf(rng.standard_normal(n), max_lag=min(20, n - 1))[0] == 1.0


def test_acf_matches_direct_summation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500).cumsum()  # strongly correlated series
    np.testing.assert_allclose(acf(x, 20), naive_acf(x, 20), rtol=1e-9, atol=1e-12)


def test_acf_white_noise_band():
    rng = np.random.default_rng(3)
    n = 100_000
    rho = acf(rng.standard_normal(n), 20)
    assert np.all(np.abs(rho[1:]) < 3.0 / math.sqrt(n))


def test_acf_ar1_matches_analytic():
    x = ar1(100_000, 0.5, seed=4)
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


def test_tau_int_iid_is_half():
    rng = np.random.default_rng(6)
    tau, err = integrated_autocorr_time(rng.standard_normal(100_000))
    assert abs(2.0 * tau - 1.0) < 0.1
    assert err > 0.0


def test_tau_int_ar1_analytic():
    # tau = 1/2 + sum rho^t = 1/2 + rho/(1-rho) = 1.5 at rho = 0.5.
    tau, _ = integrated_autocorr_time(ar1(100_000, 0.5, seed=7))
    assert abs(2.0 * tau - 3.0) / 3.0 < 0.10


def test_tau_int_shuffled_chain_is_unity():
    x = ar1(50_000, 0.8, seed=8)
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


def test_jackknife_constant_series():
    assert jackknife_se(np.full(200, 2.5), 10) == 0.0


def test_jackknife_iid_matches_naive_se():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(100_000)
    se = jackknife_se(x, 50)
    naive = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(se / naive - 1.0) < 0.2


def test_jackknife_shift_and_scale():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1000)
    base = jackknife_se(x, 20)
    assert jackknife_se(x + 17.3, 20) == pytest.approx(base, rel=1e-9)
    assert jackknife_se(3.5 * x, 20) == pytest.approx(3.5 * base, rel=1e-12)


def test_jackknife_errors():
    with pytest.raises(DomainError):
        jackknife_se(np.arange(100.0), 1)
    with pytest.raises(DomainError):
        jackknife_se(np.arange(30.0), 20)


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
