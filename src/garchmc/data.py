"""Price ingestion and the return transform.

Prices p_1..p_N become percent log returns

    y_i = 100 * (ln(p_{i+1} / p_i) - s_bar),   s_bar = mean of ln(p_{i+1} / p_i),

demeaned so the volatility model can assume zero-mean observations.
"""

from __future__ import annotations

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "load_prices",
    "load_returns",
    "to_returns",
]

import array
import contextlib
import csv
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

from .errors import DomainError, InsufficientDataError, ParseError

Source = Union[str, Path, IO[str], IO[bytes]]


@dataclass(frozen=True)
class PriceSeries:
    """Positive price levels in file order."""

    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 1 or prices.size < 2:
            raise InsufficientDataError(f"need at least 2 prices, got {prices.size}")
        if not np.all(np.isfinite(prices)) or not np.all(prices > 0.0):
            raise DomainError("prices must be finite and strictly positive")

    def __len__(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class ReturnSeries:
    """Return observations fed to the model.

    `to_returns` produces series that are demeaned by construction;
    `simulate_qgarch` produces raw model draws whose sample mean is only
    stochastically close to zero.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise InsufficientDataError("return series must hold at least one value")
        if not np.all(np.isfinite(values)):
            raise DomainError("returns must be finite")

    def __len__(self) -> int:
        return self.values.size


@contextlib.contextmanager
def _open_text(source: Source) -> Iterator[IO[str]]:
    """`source` as text that `csv.reader` ends rows in at "\n", "\r\n" or "\r".

    A path or a byte stream is decoded as it is read, a byte-order mark
    dropped; a path is closed on exit, and a byte stream is left open.  A
    text stream is already in memory: it is read whole and its mark, which
    survived its decoding, is stripped here.  Bytes that are not UTF-8 are
    a ParseError wherever the reader meets them.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8-sig", newline="") as f:
                yield f
        elif isinstance(source.read(0), str):
            yield io.StringIO(source.read().removeprefix("\ufeff"), newline="")
        else:
            text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            try:
                yield text
            finally:
                text.detach()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc})") from None


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell.strip())
    except ValueError:
        return None


# A column index is an optionally signed run of decimal digits, as `int`
# reads it without underscores; any other spec, "²" or "+-1" among them, is
# a header name.
_INDEX = re.compile(r"\s*[+-]?\d+\s*")


def _resolve_column(first: list[str], column: Union[str, int]) -> tuple[int, bool]:
    """Return (column index, whether the first row is a header)."""
    if isinstance(column, str) and not _INDEX.fullmatch(column):
        header = [cell.strip() for cell in first]
        if column not in header:
            raise ParseError(f"column {column!r} not found in header {header}")
        return header.index(column), True
    idx = int(column)
    if idx < 0 or idx >= len(first):
        raise ParseError(f"column index {idx} out of range for {len(first)} columns")
    # Header rows are detected by a non-numeric cell in the chosen column.
    return idx, _parse_float(first[idx]) is None


def _rows(text: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """(line the row starts on, cells) for each non-blank row of `text`.

    A quoted cell may run over several lines; a reader error, such as a
    cell longer than `csv.field_size_limit()`, is a ParseError naming the
    line its row starts on.
    """
    reader = csv.reader(text)
    start = 1
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"row {start}: {exc}") from None


def _load_column(source: Source, column: Union[str, int], positive: bool, noun: str) -> np.ndarray:
    """The chosen column's values, parsed one row at a time; errors name the line the row starts on."""
    with _open_text(source) as text:
        rows = _rows(text)
        first = next(rows, None)
        if first is None:
            raise InsufficientDataError("input contains no rows")
        idx, header = _resolve_column(first[1], column)
        if not header:
            rows = itertools.chain([first], rows)
        values = array.array("d")
        for line, row in rows:
            if idx >= len(row):
                raise ParseError(f"row {line}: missing column {idx}")
            value = _parse_float(row[idx])
            if value is None:
                raise ParseError(f"row {line}: cannot parse {row[idx]!r} as a {noun}")
            if not math.isfinite(value) or (positive and value <= 0.0):
                raise ParseError(f"row {line}: invalid {noun} {row[idx]!r}")
            values.append(value)
    return np.frombuffer(values)


def load_prices(source: Source, column: Union[str, int] = 0) -> PriceSeries:
    """Load one price column from delimited text.

    Parameters
    ----------
    source : path or file-like
        Comma-delimited text; an optional header row is auto-detected by a
        non-numeric first row.
    column : str or int
        Column name (requires a header) or zero-based index.

    Raises
    ------
    ParseError
        Non-numeric or non-positive price, or a row the CSV reader
        refuses, naming the line in the file its row starts on (blank
        lines and a header row counted).
    InsufficientDataError
        Fewer than two price rows.
    """
    return PriceSeries(prices=_load_column(source, column, positive=True, noun="price"))


def load_returns(source: Source, column: Union[str, int] = 0) -> ReturnSeries:
    """Load a pre-computed return column, bypassing the price transform."""
    return ReturnSeries(values=_load_column(source, column, positive=False, noun="return"))


def to_returns(prices: PriceSeries) -> ReturnSeries:
    """Transform prices to demeaned percent log returns.

    Output length is len(prices) - 1 and the sample mean is zero up to
    rounding.  A price ratio that overflows a float, or underflows to zero,
    is a DomainError naming the first such return.
    """
    p = prices.prices
    # A ratio may overflow or reach zero; its return is then rejected by name below.
    with np.errstate(over="ignore", divide="ignore"):
        log_ratio = np.log(p[1:] / p[:-1])
    bad = np.flatnonzero(~np.isfinite(log_ratio))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"return {i + 1} is not finite: price {i + 2} / price {i + 1} = {float(p[i + 1])!r} / {float(p[i])!r} "
            "leaves a float's range"
        )
    return ReturnSeries(values=100.0 * (log_ratio - log_ratio.mean()))
