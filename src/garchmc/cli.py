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
from dataclasses import dataclass
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


@dataclass
class RunManifest:
    """Everything one `run` invocation needs."""

    input_path: Path
    input_kind: str  # "prices" or "returns"
    column: str | int
    config: ChainConfig
    out_dir: Path
    nic_min: float = -5.0
    nic_max: float = 5.0
    nic_points: int = 201

    def __post_init__(self):
        if self.input_kind not in ("prices", "returns"):
            raise DomainError(f"input kind must be 'prices' or 'returns', got {self.input_kind!r}")
        if not self.nic_min < self.nic_max:
            raise DomainError(f"news-impact grid needs min < max, got [{self.nic_min}, {self.nic_max}]")
        if self.nic_points < 2:
            raise DomainError(f"news-impact grid needs at least 2 points, got {self.nic_points}")
        if self.config.total_samples < diagnostics.MIN_SAMPLES:
            raise DomainError(f"run needs --samples >= {diagnostics.MIN_SAMPLES}, got {self.config.total_samples}")


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """Header line, then one line per row with every cell formatted by `_fmt`."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
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
    payload = {
        "nu": nu,
        "snapshots": [
            {
                "t": snap.t,
                "mean": snap.mean.tolist(),
                "second_central": snap.second_central.tolist(),
                "proposal_sigma": snap.proposal_sigma.tolist(),
            }
            for snap in result.moment_trace
        ],
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def write_news_impact_csv(path: Path, params: model.ModelParams, grid: Sequence[float]) -> None:
    """Emit the news impact curve as a (y, sigma_sq) CSV."""
    _write_csv(Path(path), ("y", "sigma_sq"), model.news_impact_curve(params, grid))


def _load_input(manifest: RunManifest) -> data.ReturnSeries:
    if manifest.input_kind == "prices":
        return data.to_returns(data.load_prices(manifest.input_path, manifest.column))
    return data.load_returns(manifest.input_path, manifest.column)


def run(manifest: RunManifest) -> diagnostics.SummaryReport:
    """Execute a full run and write all report files into `out_dir`.

    Writes samples.csv, summary.json, summary.txt, acf.csv,
    acceptance.csv, moments.json, and nic.csv, each atomically.
    """
    returns = _load_input(manifest)
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise DomainError(f"output directory {out} is not writable")

    result = run_adaptive(manifest.config, returns)
    report = diagnostics.summarize(result, returns)

    means = [report.params[name].mean for name in result.param_names]
    posterior_mean = model.ModelParams.from_vector(means, manifest.config.kind)
    grid = np.linspace(manifest.nic_min, manifest.nic_max, manifest.nic_points)

    _write_samples_csv(out / "samples.csv", result)
    _atomic_write(out / "summary.json", report.to_json() + "\n")
    _atomic_write(out / "summary.txt", report.to_text())
    _write_acf_csv(out / "acf.csv", result)
    _write_acceptance_csv(out / "acceptance.csv", result)
    _write_moments_json(out / "moments.json", result, manifest.config.nu)
    write_news_impact_csv(out / "nic.csv", posterior_mean, grid)
    return report


def simulate(params: model.ModelParams, n: int, sigma1_sq: float, seed: int, out_path: Path) -> None:
    """Write a synthetic return CSV consumable by `run --input-kind returns`."""
    returns = data.simulate_qgarch(params, n, sigma1_sq, seed)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out_path, ("return",), returns.values[:, np.newaxis])


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
    p_run.add_argument("--model", choices=["garch", "qgarch"], default="qgarch")
    p_run.add_argument("--nu", type=float, default=10.0, help="proposal shape parameter")
    p_run.add_argument("--burn-in", type=int, default=5000)
    p_run.add_argument("--initial-pool", type=int, default=1000)
    p_run.add_argument("--update-interval", type=int, default=1000)
    p_run.add_argument("--samples", type=int, default=100_000)
    p_run.add_argument("--seed", type=int, default=0)
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


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
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
    return RunManifest(
        input_path=args.input,
        input_kind=args.input_kind,
        column=args.column,
        config=config,
        out_dir=args.out_dir,
        nic_min=args.nic_min,
        nic_max=args.nic_max,
        nic_points=args.nic_points,
    )


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            run(_manifest_from_args(args))
        else:
            kind = model.ModelKind(args.model)
            params = model.ModelParams(args.omega, args.alpha, args.beta, args.gamma, kind)
            sigma1_sq = args.sigma1_sq
            if sigma1_sq is None:
                sigma1_sq = model.unconditional_variance(params)
            simulate(params, args.n, sigma1_sq, args.seed, args.out)
    except _NUMERICAL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
