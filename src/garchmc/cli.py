"""Batch command-line front end.

`garchmc run` fits the model to a price or return CSV and writes the
sample store, summary report, and plot-data files into an output
directory.  `garchmc simulate` writes a synthetic return CSV that `run`
can consume directly.

Exit codes: 0 success, 2 usage, else the error's `exit_code` (3 data
error, 4 numerical failure; an `OSError` counts as a data error).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import data, diagnostics, model
from .errors import DomainError, GarchMcError
from .proposal import NU_MAX
from .sampler import ChainConfig, ChainResult, run_adaptive

# The files `run` writes into `--out-dir`, in the order it writes them.
REPORT_FILES = ("samples.csv", "acceptance.csv", "moments.json", "summary.json", "summary.txt", "acf.csv", "nic.csv")


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the concatenated `chunks` to `path` through a temporary file that then replaces it.

    A reader never sees half a file, and only one chunk need be held in
    memory at a time.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.writelines(chunks)
    os.replace(tmp, path)


# Rows formatted per write; bounds the text held in memory at once.
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: Sequence[str], table: np.ndarray) -> None:
    """Header line, then one line per row of the 2-D `table` with every cell at 17 significant digits.

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",",
    comments="")`.  Each block of rows is formatted by one `%` operation
    and streamed to `_atomic_write`, so the whole file text is never held
    in memory.
    """
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
    blocks = (table[start : start + _CSV_BLOCK_ROWS] for start in range(0, len(table), _CSV_BLOCK_ROWS))
    rows = (row_format * len(block) % tuple(block.ravel().tolist()) for block in blocks)
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], rows))


def _write_samples_csv(path: Path, result: ChainResult) -> None:
    _write_csv(path, result.param_names, result.samples)


def _write_acf_csv(path: Path, report: diagnostics.SummaryReport, names: Sequence[str]) -> None:
    _write_csv(path, ("lag", *names), np.column_stack([np.arange(len(report.acf)), report.acf]))


def _write_acceptance_csv(path: Path, result: ChainResult) -> None:
    trace = result.acceptance_trace
    _write_csv(path, ("window", "acceptance"), np.column_stack([np.arange(1, trace.size + 1), trace]))


def _write_moments_json(path: Path, result: ChainResult, nu: float) -> None:
    """The bytes of `json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"`, streamed one token at a time."""
    payload = {"nu": nu, "snapshots": [vars(s) for s in result.moment_trace]}
    chunks = json.JSONEncoder(indent=2, default=np.ndarray.tolist).iterencode(payload)
    _atomic_write(path, itertools.chain(chunks, ["\n"]))


def write_news_impact_csv(path: Path, params: model.ModelParams, grid: Sequence[float]) -> None:
    """Emit the news impact curve as a (y, sigma_sq) CSV."""
    _write_csv(Path(path), ("y", "sigma_sq"), model.news_impact_curve(params, grid))


def _load_input(args: argparse.Namespace) -> data.ReturnSeries:
    if args.input_kind == "prices":
        return data.to_returns(data.load_prices(args.input, args.column))
    return data.load_returns(args.input, args.column)


def run(args: argparse.Namespace) -> diagnostics.SummaryReport:
    """Execute a full run from parsed `run` arguments, writing the report files into `--out-dir`.

    Creates `--out-dir` once the chain has finished, so a failed fit
    leaves no directory, and removes the `REPORT_FILES` an earlier run
    left there, so a run that fails part-way leaves only files it wrote.
    Then writes samples.csv, acceptance.csv and moments.json at once, so
    a diagnostics failure still leaves the chain; then summary.json,
    summary.txt, acf.csv and nic.csv.  Each file is written atomically.
    """
    # Each `run` flag of a chain setting has its `ChainConfig` field as destination.
    settings = {field.name: getattr(args, field.name) for field in dataclasses.fields(ChainConfig)}
    config = ChainConfig(**{**settings, "kind": model.ModelKind(args.kind)})
    if config.total_samples < diagnostics.MIN_SAMPLES:
        raise DomainError(f"run needs --samples >= {diagnostics.MIN_SAMPLES}, got {config.total_samples}")
    if not -np.inf < args.nic_min < args.nic_max < np.inf:
        raise DomainError(f"news-impact grid needs finite min < max, got [{args.nic_min}, {args.nic_max}]")
    if not args.nic_max - args.nic_min < np.inf:
        raise DomainError(f"news-impact grid span max - min = {args.nic_max} - ({args.nic_min}) overflows a float")
    if args.nic_points < 2:
        raise DomainError(f"news-impact grid needs at least 2 points, got {args.nic_points}")
    # Built now, so a grid numpy cannot allocate fails before the input is read.
    grid = model.allocate((args.nic_points,), f"news-impact grid of {args.nic_points} points")
    grid[:] = np.linspace(args.nic_min, args.nic_max, args.nic_points)

    returns = _load_input(args)
    out = args.out_dir
    # Fail before the fit if `out` could not be created: its nearest
    # existing ancestor must be a writable directory.
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK)):
        raise DomainError(f"cannot create output directory {out}: {nearest} is not a writable directory")

    result = run_adaptive(config, returns)
    out.mkdir(parents=True, exist_ok=True)
    for name in REPORT_FILES:
        (out / name).unlink(missing_ok=True)
    _write_samples_csv(out / "samples.csv", result)
    _write_acceptance_csv(out / "acceptance.csv", result)
    _write_moments_json(out / "moments.json", result, config.nu)

    report = diagnostics.summarize(result, returns)
    _atomic_write(out / "summary.json", [json.dumps(report.to_dict(), indent=2) + "\n"])
    _atomic_write(out / "summary.txt", [report.to_text()])
    _write_acf_csv(out / "acf.csv", report, result.param_names)
    # Built last: a posterior mean off the support fails here, after the summary is written.
    means = {name: report.params[name].mean for name in result.param_names}
    write_news_impact_csv(out / "nic.csv", model.ModelParams(**means, kind=config.kind), grid)
    return report


def simulate(args: argparse.Namespace) -> None:
    """Write a synthetic return CSV from parsed `simulate` arguments.

    `run --input-kind returns` reads the file as it is.  The initial
    variance defaults to the model's stationary variance.
    """
    params = model.ModelParams(args.omega, args.alpha, args.beta, args.gamma)
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
    p_run.add_argument("--model", dest="kind", choices=[kind.value for kind in model.ModelKind], default=ChainConfig.kind.value)
    p_run.add_argument("--nu", type=float, default=ChainConfig.nu, help=f"proposal shape parameter, 2 < NU <= {NU_MAX:.0f}")
    p_run.add_argument("--burn-in", type=int, default=ChainConfig.burn_in)
    p_run.add_argument("--initial-pool", type=int, default=ChainConfig.initial_pool)
    p_run.add_argument("--update-interval", type=int, default=ChainConfig.update_interval)
    p_run.add_argument("--samples", dest="total_samples", metavar="SAMPLES", type=int, default=ChainConfig.total_samples)
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
    except (GarchMcError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", GarchMcError.exit_code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
