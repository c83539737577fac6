"""Price ingestion and the return transform.

Prices p_1..p_N become percent log returns

    y_i = 100 * (ln(p_{i+1} / p_i) - s_bar),   s_bar = mean of ln(p_{i+1} / p_i),

demeaned so the volatility model can assume zero-mean observations.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

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


def _read_rows(source: Source) -> list[list[str]]:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    # A byte-order mark survives a text stream's decoding, so strip it here
    # for every kind of source.
    text = text.removeprefix("\ufeff")
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    return rows


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell.strip())
    except ValueError:
        return None


def _resolve_column(rows: list[list[str]], column: Union[str, int]) -> tuple[int, int]:
    """Return (column index, first data row index), skipping a header row."""
    first = rows[0]
    if isinstance(column, str) and not column.strip().lstrip("+-").isdigit():
        header = [cell.strip() for cell in first]
        if column not in header:
            raise ParseError(f"column {column!r} not found in header {header}")
        return header.index(column), 1
    idx = int(column)
    if idx < 0 or idx >= len(first):
        raise ParseError(f"column index {idx} out of range for {len(first)} columns")
    # Header rows are detected by a non-numeric cell in the chosen column.
    return idx, 0 if _parse_float(first[idx]) is not None else 1


def _load_column(source: Source, column: Union[str, int], positive: bool, noun: str) -> np.ndarray:
    rows = _read_rows(source)
    if not rows:
        raise InsufficientDataError("input contains no rows")
    idx, start = _resolve_column(rows, column)
    values = np.empty(len(rows) - start)
    for i, row in enumerate(rows[start:]):
        if idx >= len(row):
            raise ParseError(f"row {start + i + 1}: missing column {idx}")
        value = _parse_float(row[idx])
        if value is None:
            raise ParseError(f"row {start + i + 1}: cannot parse {row[idx]!r} as a {noun}")
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise ParseError(f"row {start + i + 1}: invalid {noun} {row[idx]!r}")
        values[i] = value
    return values


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
        Non-numeric or non-positive price, naming the offending row.
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
    rounding.
    """
    log_ratio = np.log(prices.prices[1:] / prices.prices[:-1])
    return ReturnSeries(values=100.0 * (log_ratio - log_ratio.mean()))
