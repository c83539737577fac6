import gc
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from garchmc import (
    DomainError,
    InsufficientDataError,
    ModelParams,
    ParseError,
    PriceSeries,
    ReturnSeries,
    load_prices,
    load_returns,
    simulate_qgarch,
    to_returns,
)
from garchmc.cli import main

import reference


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
    stream = io.BytesIO(b"price\n100\n101\n99\n")
    series = load_prices(stream)
    np.testing.assert_allclose(series.prices, [100.0, 101.0, 99.0])
    gc.collect()  # the decoding wrapper is gone; the caller's stream stays open
    assert not stream.closed


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


@pytest.mark.parametrize("text, column", [
    ("100\r101\r102\r", 0),
    ("100\r\n101\r\n102\r\n", 0),
    ("\ufeffclose\r100\r101\r102\r", "close"),
])
def test_load_prices_any_line_end_from_every_source(tmp_path, text, column):
    for kind, source in each_source(tmp_path, text).items():
        series = load_prices(source, column)
        np.testing.assert_allclose(series.prices, [100.0, 101.0, 102.0], err_msg=kind)


LATIN1_PRICES = b"close\n100\n101\xe9\n102\n"  # 0xE9 is "é" in latin-1 and no UTF-8 sequence


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_load_prices_non_utf8_input_is_parse_error(tmp_path, kind):
    path = tmp_path / "latin1.csv"
    path.write_bytes(LATIN1_PRICES)
    source = path if kind == "path" else io.BytesIO(LATIN1_PRICES)
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_prices(source, "close")


def test_run_non_utf8_input_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(LATIN1_PRICES)
    out = tmp_path / "o"
    assert main(["run", "--input", str(path), "--column", "close", "--out-dir", str(out)]) == 3
    assert "ParseError: input is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


# Row 15 000 of 20 000 lies far past the first chunk a streaming reader decodes.
DEEP_LATIN1_PRICES = b"".join(
    b"close\n" if line == 1 else b"101\xe9\n" if line == 15_000 else b"%d\n" % (100 + line % 7)
    for line in range(1, 20_001)
)


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_load_prices_non_utf8_byte_deep_in_the_input_is_parse_error(tmp_path, kind):
    path = tmp_path / "latin1.csv"
    path.write_bytes(DEEP_LATIN1_PRICES)
    source = path if kind == "path" else io.BytesIO(DEEP_LATIN1_PRICES)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_prices(source, "close")
        gc.collect()  # an unclosed file would warn as it is collected
    assert not caught


def test_run_non_utf8_byte_deep_in_the_input_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(DEEP_LATIN1_PRICES)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--input", str(path), "--column", "close", "--out-dir", str(out)]) == 3
        gc.collect()
    assert not caught
    assert "ParseError: input is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_load_returns_peaks_below_the_file_size(tmp_path, kind):
    # Holding the decoded text and a list of cells per row peaks at 13 times
    # this ~400 kB file; parsed row by row, the float buffer and the
    # reader's chunk remain.
    lines = ["return", *(format(v, ".17g") for v in np.random.default_rng(0).standard_normal(20_000))]
    text = ("\n".join(lines) + "\n").encode()
    path = tmp_path / "returns.csv"
    path.write_bytes(text)
    source = path if kind == "path" else io.BytesIO(text)
    tracemalloc.start()
    try:
        values = load_returns(source).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text)
    assert values.tobytes() == np.array([float(line) for line in lines[1:]]).tobytes()


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
@pytest.mark.parametrize("text, message", [
    ("price\n100\n\n\n101\nabc\n", "row 6: cannot parse 'abc' as a price"),
    ("price\r100\r\r\r101\rabc\r", "row 6: cannot parse 'abc' as a price"),
    ("\r\n\r\n100\r\n101\r\n\r\n-5\r\n", "row 6: invalid price '-5'"),
    ("\ufeffdate,close\r1,100\r\r2\r3,101\r", "row 4: missing column 1"),
], ids=["lf-unparsable", "cr-unparsable", "crlf-non-positive", "cr-missing-column"])
def test_load_prices_error_names_the_line_in_the_file(tmp_path, text, message, kind):
    # Blank lines and the header count, as an editor numbers the file's lines.
    with pytest.raises(ParseError, match=re.escape(message)):
        load_prices(each_source(tmp_path, text)[kind], "close" if "close" in text else 0)


LONG_CELL_PRICES = "close\n100\n" + "1" * 200_000 + "\n102\n"  # past csv.field_size_limit()


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
@pytest.mark.parametrize("text, message", [
    (LONG_CELL_PRICES, "row 3: field larger than field limit"),
    ('close\n100\n"101\n102\n', "row 3: cannot parse '101\\n102\\n' as a price"),
    ('close\n"100\n"\n101\nabc\n', "row 5: cannot parse 'abc' as a price"),
], ids=["long-cell", "unterminated-quote", "after-a-two-line-row"])
def test_load_prices_reader_error_names_the_line_its_row_starts_on(tmp_path, text, message, kind):
    # A quoted cell may span lines; the row is named by its first one.
    with pytest.raises(ParseError, match=re.escape(message)):
        load_prices(each_source(tmp_path, text)[kind], "close")


def test_run_cell_past_the_field_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "long-cell.csv"
    path.write_text(LONG_CELL_PRICES)
    out = tmp_path / "o"
    assert main(["run", "--input", str(path), "--column", "close", "--out-dir", str(out)]) == 3
    assert "ParseError: row 3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


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


# Each spec `int` reads without underscores is an index; any other is a header name.
@pytest.mark.parametrize("column, result", [
    ("0", [100.0, 101.0, 99.0]),
    (" 0 ", [100.0, 101.0, 99.0]),
    ("+0", [100.0, 101.0, 99.0]),
    ("close", [100.0, 101.0, 99.0]),
    ("2", "column index 2 out of range"),
    ("-1", "column index -1 out of range"),
    ("²", "column '²' not found in header"),
    ("+-1", "column '\\+-1' not found in header"),
    ("1_0", "column '1_0' not found in header"),
])
def test_load_prices_column_spec_from_every_source(tmp_path, column, result):
    for kind, source in each_source(tmp_path, "close\n100\n101\n99\n").items():
        if isinstance(result, str):
            with pytest.raises(ParseError, match=result):
                load_prices(source, column)
        else:
            np.testing.assert_array_equal(load_prices(source, column).prices, result, err_msg=kind)


def test_run_column_spec_that_is_no_index_names_a_header(tmp_path, capsys):
    path = tmp_path / "prices.csv"
    path.write_text("close\n100\n101\n99\n102\n")
    out = tmp_path / "o"
    assert main(["run", "--input", str(path), "--column=+-1", "--out-dir", str(out)]) == 3
    assert "ParseError: column '+-1' not found in header ['close']" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "prices, message",
    [
        ([1e-300, 1e300, 1.0, 2.0], "return 1 is not finite: price 2 / price 1 = 1e+300 / 1e-300"),
        ([1.0, 1e300, 1e-300, 2.0], "return 2 is not finite: price 3 / price 2 = 1e-300 / 1e+300"),
    ],
    ids=["ratio-overflows", "ratio-underflows-to-zero"],
)
def test_to_returns_names_the_first_return_out_of_range(prices, message):
    # Each price is finite and positive; one ratio is not a float.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=re.escape(message)):
            to_returns(PriceSeries(np.array(prices)))
    assert not caught


def test_run_prices_whose_ratio_overflows_exit_3_before_the_fit(tmp_path, capsys):
    path = tmp_path / "prices.csv"
    path.write_text("1e-300\n1e300\n1\n2\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--input", str(path), "--out-dir", str(out)]) == 3
    assert not caught
    assert "DomainError: return 1 is not finite" in capsys.readouterr().err
    assert not out.exists()


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
    params = ModelParams(*reference.FITS["nikkei225"])
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
    with pytest.raises(DomainError, match="variance path overflows a float from initial variance 1.7e"):
        simulate_qgarch(ModelParams(0.06, 0.07, 0.89), 50, 1.7e308, seed=3)


def test_return_series_validates():
    with pytest.raises(InsufficientDataError):
        ReturnSeries(np.empty(0))
    with pytest.raises(DomainError):
        ReturnSeries(np.array([1.0, np.nan]))
