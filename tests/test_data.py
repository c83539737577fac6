import io
import math

import numpy as np
import pytest

from garchmc import (
    DomainError,
    InsufficientDataError,
    ModelParams,
    ParseError,
    ReturnSeries,
    load_prices,
    load_returns,
    simulate_qgarch,
    to_returns,
)
from garchmc.cli import main


def test_load_prices_plain_rows():
    series = load_prices(io.StringIO("100\n101\n99\n"))
    assert len(series) == 3
    np.testing.assert_allclose(series.prices, [100.0, 101.0, 99.0])


def test_load_prices_header_autodetected():
    series = load_prices(io.StringIO("price\n100\n101\n"))
    np.testing.assert_allclose(series.prices, [100.0, 101.0])


def test_load_prices_column_by_name():
    text = "date,close\n2001-01-01,100\n2001-01-02,110\n"
    series = load_prices(io.StringIO(text), column="close")
    np.testing.assert_allclose(series.prices, [100.0, 110.0])


def test_load_prices_column_by_index():
    text = "2001-01-01,100\n2001-01-02,110\n"
    series = load_prices(io.StringIO(text), column=1)
    np.testing.assert_allclose(series.prices, [100.0, 110.0])


def test_load_prices_accepts_byte_stream():
    series = load_prices(io.BytesIO(b"price\n100\n101\n99\n"))
    np.testing.assert_allclose(series.prices, [100.0, 101.0, 99.0])


def each_source(tmp_path, text):
    """The same UTF-8 text as a path, a byte stream and a text stream."""
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode())
    return {"path": path, "bytes": io.BytesIO(text.encode()), "text": io.StringIO(text)}


def test_load_prices_byte_order_mark_without_header_keeps_first_price(tmp_path):
    for kind, source in each_source(tmp_path, "\ufeff100.0\n101.0\n102.5\n101.7\n").items():
        series = load_prices(source)
        np.testing.assert_allclose(series.prices, [100.0, 101.0, 102.5, 101.7], err_msg=kind)


def test_load_prices_byte_order_mark_before_header_names_column(tmp_path):
    for kind, source in each_source(tmp_path, "\ufeffclose\n100\n101\n99\n").items():
        series = load_prices(source, "close")
        np.testing.assert_allclose(series.prices, [100.0, 101.0, 99.0], err_msg=kind)


def test_load_prices_bad_cell_names_row():
    with pytest.raises(ParseError, match="row 3"):
        load_prices(io.StringIO("100\n101\nabc\n"))


def test_load_prices_nonpositive_price_rejected():
    with pytest.raises(ParseError, match="row 2"):
        load_prices(io.StringIO("100\n-5\n101\n"))


def test_load_prices_single_row_insufficient():
    with pytest.raises(InsufficientDataError):
        load_prices(io.StringIO("100\n"))


def test_load_returns_header_only_insufficient():
    with pytest.raises(InsufficientDataError):
        load_returns(io.StringIO("return\n"))


def test_load_prices_missing_column_name():
    with pytest.raises(ParseError, match="close"):
        load_prices(io.StringIO("date,price\n2001,100\n2002,101\n"), column="close")


def test_to_returns_constant_prices():
    series = load_prices(io.StringIO("100\n100\n100\n"))
    returns = to_returns(series)
    assert len(returns) == 2
    np.testing.assert_allclose(returns.values, [0.0, 0.0], atol=1e-14)


def test_to_returns_symmetric_round_trip():
    # s_bar = 0 by symmetry, so values are just +-100*ln(1.1).
    series = load_prices(io.StringIO("100\n110\n100\n"))
    returns = to_returns(series)
    expected = 100.0 * math.log(1.1)
    np.testing.assert_allclose(returns.values, [expected, -expected], rtol=1e-14)


def test_to_returns_zero_mean_and_length():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 400))
        prices = np.exp(rng.normal(0.0, 0.02, n).cumsum()) * 100.0
        returns = to_returns(load_prices(io.StringIO("\n".join(map(str, prices)))))
        assert len(returns) == n - 1
        assert abs(returns.values.mean()) < 1e-10


def test_returns_csv_round_trip(tmp_path):
    path = tmp_path / "returns.csv"
    code = main(["simulate", "--omega", "0.1", "--alpha", "0.1", "--beta", "0.8", "--gamma", "-0.05",
                 "--n", "57", "--sigma1-sq", "1.0", "--seed", "3", "--out", str(path)])
    assert code == 0
    original = simulate_qgarch(ModelParams(0.1, 0.1, 0.8, -0.05), 57, 1.0, seed=3)
    np.testing.assert_array_equal(load_returns(path).values, original.values)


def test_simulate_deterministic_for_seed():
    params = ModelParams(0.1, 0.1, 0.8, -0.05)
    a = simulate_qgarch(params, 500, 1.0, seed=11)
    b = simulate_qgarch(params, 500, 1.0, seed=11)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_qgarch(params, 500, 1.0, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_simulate_iid_limit_unit_variance():
    # alpha = beta = gamma = 0 makes the draws i.i.d. N(0, omega).
    params = ModelParams(1.0, 0.0, 0.0, 0.0)
    returns = simulate_qgarch(params, 100_000, 1.0, seed=5)
    assert abs(np.var(returns.values) - 1.0) < 0.03


def test_simulate_iid_limit_gaussian_kurtosis():
    params = ModelParams(1.0, 0.0, 0.0, 0.0)
    y = simulate_qgarch(params, 100_000, 1.0, seed=6).values
    kurtosis = np.mean((y - y.mean()) ** 4) / np.var(y) ** 2
    assert abs(kurtosis - 3.0) < 0.1


def test_simulate_matches_stationary_variance():
    params = ModelParams(0.06219, 0.07872, 0.89390, -0.12403)
    target = params.omega / (1.0 - params.alpha - params.beta)
    returns = simulate_qgarch(params, 100_000, target, seed=7)
    assert abs(np.var(returns.values) / target - 1.0) < 0.10


def test_simulate_rejects_bad_input():
    with pytest.raises(DomainError):
        simulate_qgarch(ModelParams(0.1, 0.5, 0.6, 0.0), 100, 1.0, seed=0)  # alpha+beta >= 1
    params = ModelParams(0.1, 0.1, 0.8, 0.0)
    with pytest.raises(DomainError):
        simulate_qgarch(params, 0, 1.0, seed=0)
    with pytest.raises(DomainError):
        simulate_qgarch(params, 100, -1.0, seed=0)
    with pytest.raises(DomainError):
        simulate_qgarch(params, 100, math.inf, seed=0)
    with pytest.raises(DomainError):
        simulate_qgarch(params, 100, 1.0, seed=-1)


def test_return_series_validates():
    with pytest.raises(InsufficientDataError):
        ReturnSeries(np.empty(0))
    with pytest.raises(DomainError):
        ReturnSeries(np.array([1.0, np.nan]))
