"""Batch command-line front end.

`garchmc run` fits the model to a price or return CSV and writes the
sample store, summary report, and plot-data files into an output
directory.  `garchmc simulate` writes a synthetic return CSV that `run`
can consume directly.

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import data, diagnostics, model
from .errors import (
    DegenerateCovarianceError,
    DegenerateSeriesError,
    DomainError,
    InsufficientDataError,
    NonConvergenceError,
    ParseError,
)
from .sampler import ChainConfig, ChainResult, run_adaptive

log = logging.getLogger(__name__)

ACF_MAX_LAG = 200

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_DATA_ERRORS = (ParseError, InsufficientDataError, DomainError, OSError)
_NUMERICAL_ERRORS = (DegenerateCovarianceError, DegenerateSeriesError, NonConvergenceError)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """Header line, then one line per row with every cell at 17 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(format(v, ".17g") for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_samples_csv(path: Path, result: ChainResult) -> None:
    _write_csv(path, result.param_names, result.samples)


def _write_acf_csv(path: Path, result: ChainResult) -> None:
    max_lag = min(ACF_MAX_LAG, result.samples.shape[0] - 1)
    columns = [diagnostics.acf(col, max_lag) for col in result.samples.T]
    _write_csv(path, ("lag", *result.param_names), zip(range(max_lag + 1), *columns))


def _write_acceptance_csv(path: Path, result: ChainResult) -> None:
    _write_csv(path, ("window", "acceptance"), enumerate(result.acceptance_trace, 1))


def _write_moments_json(path: Path, result: ChainResult, nu: float) -> None:
    payload = {"nu": nu, "snapshots": [vars(s) for s in result.moment_trace]}
    _atomic_write(path, json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n")


def write_news_impact_csv(path: Path, params: model.ModelParams, grid: Sequence[float]) -> None:
    """Emit the news impact curve as a (y, sigma_sq) CSV."""
    _write_csv(Path(path), ("y", "sigma_sq"), model.news_impact_curve(params, grid))


def _load_input(args: argparse.Namespace) -> data.ReturnSeries:
    if args.input_kind == "prices":
        return data.to_returns(data.load_prices(args.input, args.column))
    return data.load_returns(args.input, args.column)


def run(args: argparse.Namespace) -> diagnostics.SummaryReport:
    """Execute a full run from parsed `run` arguments, writing the report files into `--out-dir`.

    Writes samples.csv, acceptance.csv and moments.json as soon as the
    chain is finished, so a diagnostics failure still leaves the chain;
    then summary.json, summary.txt, acf.csv and nic.csv.  Each file is
    written atomically.
    """
    config = ChainConfig(
        kind=model.ModelKind(args.model),
        burn_in=args.burn_in,
        initial_pool=args.initial_pool,
        update_interval=args.update_interval,
        total_samples=args.samples,
        nu=args.nu,
        seed=args.seed,
        sigma1_sq=args.sigma1_sq,
        freeze_after=args.freeze_after,
    )
    if config.total_samples < diagnostics.MIN_SAMPLES:
        raise DomainError(f"run needs --samples >= {diagnostics.MIN_SAMPLES}, got {config.total_samples}")
    if not args.nic_min < args.nic_max:
        raise DomainError(f"news-impact grid needs min < max, got [{args.nic_min}, {args.nic_max}]")
    if args.nic_points < 2:
        raise DomainError(f"news-impact grid needs at least 2 points, got {args.nic_points}")

    returns = _load_input(args)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise DomainError(f"output directory {out} is not writable")

    result = run_adaptive(config, returns)
    _write_samples_csv(out / "samples.csv", result)
    _write_acceptance_csv(out / "acceptance.csv", result)
    _write_moments_json(out / "moments.json", result, config.nu)

    report = diagnostics.summarize(result, returns)
    means = [report.params[name].mean for name in result.param_names]
    posterior_mean = model.ModelParams.from_vector(means, config.kind)
    grid = np.linspace(args.nic_min, args.nic_max, args.nic_points)

    _atomic_write(out / "summary.json", json.dumps(report.to_dict(), indent=2) + "\n")
    _atomic_write(out / "summary.txt", report.to_text())
    _write_acf_csv(out / "acf.csv", result)
    write_news_impact_csv(out / "nic.csv", posterior_mean, grid)
    return report


def simulate(args: argparse.Namespace) -> None:
    """Write a synthetic return CSV from parsed `simulate` arguments.

    `run --input-kind returns` reads the file as it is.  The initial
    variance defaults to the model's stationary variance.
    """
    params = model.ModelParams(args.omega, args.alpha, args.beta, args.gamma, model.ModelKind(args.model))
    sigma1_sq = model.unconditional_variance(params) if args.sigma1_sq is None else args.sigma1_sq
    returns = model.simulate_qgarch(params, args.n, sigma1_sq, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out, ("return",), returns.values[:, np.newaxis])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garchmc",
        description="Bayesian GARCH/QGARCH fitting with an adaptively refitted Student-t proposal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="fit a model to a price or return CSV")
    p_run.add_argument("--input", required=True, type=Path, help="input CSV path")
    p_run.add_argument("--input-kind", choices=["prices", "returns"], default="prices")
    p_run.add_argument("--column", default="0", help="price/return column name or index")
    p_run.add_argument("--model", choices=["garch", "qgarch"], default=ChainConfig.kind.value)
    p_run.add_argument("--nu", type=float, default=ChainConfig.nu, help="proposal shape parameter")
    p_run.add_argument("--burn-in", type=int, default=ChainConfig.burn_in)
    p_run.add_argument("--initial-pool", type=int, default=ChainConfig.initial_pool)
    p_run.add_argument("--update-interval", type=int, default=ChainConfig.update_interval)
    p_run.add_argument("--samples", type=int, default=ChainConfig.total_samples)
    p_run.add_argument("--seed", type=int, default=ChainConfig.seed)
    p_run.add_argument("--sigma1-sq", type=float, default=None, help="initial variance (default: sample variance)")
    p_run.add_argument("--freeze-after", type=int, default=None, help="stop proposal updates after this many draws")
    p_run.add_argument("--out-dir", required=True, type=Path)
    p_run.add_argument("--nic-min", type=float, default=-5.0)
    p_run.add_argument("--nic-max", type=float, default=5.0)
    p_run.add_argument("--nic-points", type=int, default=201)

    p_sim = sub.add_parser("simulate", help="write a synthetic return CSV")
    p_sim.add_argument("--omega", type=float, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--beta", type=float, required=True)
    p_sim.add_argument("--gamma", type=float, default=0.0)
    p_sim.add_argument("--model", choices=["garch", "qgarch"], default="qgarch")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--sigma1-sq", type=float, default=None, help="initial variance (default: stationary variance)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, type=Path)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            run(args)
        else:
            simulate(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
