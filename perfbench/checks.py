"""Output checks for one `garchmc run`.

Every run must exit 0 and leave all seven report files, each parseable;
`samples.csv` must hold the configured number of rows, all inside the prior
support as this module's own predicate defines it; `summary.json` must hold
only finite numbers.  On top of that each workload has one statistical
check, named by `Workload.check`:

* ``acceptance``: the acceptance-suite bounds (posterior means within 3 SD
  of the generating values, gamma < 0, 2*tau_int < 5, plateau > 0.6).
* ``quadrature``: the chain's posterior means agree with means computed by
  deterministic quadrature of the benchmark's own GARCH likelihood
  (QUADRATURE), within QUAD_Z jackknife standard errors.  This tests the
  sampler against the posterior itself, so a correct sampler passes it at
  any chain seed (a 5-SE miss has odds of about 1 in 10^6 per parameter).
  Recovering the generating values is instead a property of the data, and
  250 returns recover them only loosely.
* ``recovery``: posterior means within 3 SD of the generating values and
  gamma < 0.

`check_run` returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REPORT_FILES = (
    "samples.csv",
    "summary.json",
    "summary.txt",
    "acf.csv",
    "acceptance.csv",
    "moments.json",
    "nic.csv",
)
RECOVERY_SD = 3.0
MAX_TWO_TAU = 5.0
MIN_PLATEAU = 0.6
QUAD_Z = 5.0
QUAD_HALF_WIDTH = 8.0  # grid half-width in posterior SDs

# Posterior means of the workloads checked by quadrature, from
# `quadrature_moments(observed_returns(w), center, cov, points)`; the grid
# center and covariance come from a long chain and only place the grid.
# Recompute with `python3 perfbench/checks.py` (about 25 s).  Going from 140
# to 200 points per axis moves each mean by under 0.1 SE of a 100k-draw chain.
QUADRATURE = {
    "short-garch": {
        "center": (0.587, 0.205, 0.455),
        "cov": ((0.1445, 0.0119, -0.0939), (0.0119, 0.0090, -0.0130), (-0.0939, -0.0130, 0.0673)),
        "points": 200,
        "mean": (0.585451, 0.204504, 0.456399),
    },
}


def in_support(draws: np.ndarray) -> np.ndarray:
    """Row mask of the flat prior's support for (omega, alpha, beta[, gamma]) rows."""
    omega, alpha, beta = draws[:, 0], draws[:, 1], draws[:, 2]
    gamma = draws[:, 3] if draws.shape[1] > 3 else 0.0
    return (
        (omega > 0.0)
        & (alpha >= 0.0)
        & (beta >= 0.0)
        & (alpha + beta < 1.0)
        & (gamma * gamma <= 4.0 * alpha * omega)
    )


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, table


def _numbers(value):
    """Every leaf of a parsed JSON value (None included, strings skipped)."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif not isinstance(value, str):
        yield value


def _finite(value) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in _numbers(value))


def read_outputs(out_dir: Path, param_names, n_samples: int) -> tuple[list[str], dict | None]:
    """Checks every workload shares; returns (failures, parsed summary.json)."""
    failures = []
    missing = [name for name in REPORT_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing report files: {missing}"], None
    try:
        header, samples = _read_table(out_dir / "samples.csv")
        tables = {name: _read_table(out_dir / name) for name in ("acf.csv", "acceptance.csv", "nic.csv")}
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        moments = json.loads((out_dir / "moments.json").read_text(encoding="utf-8"))
        text_rows = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()[1 : 1 + len(param_names)]
        text_values = {row.split()[0]: [float(c) for c in row.split()[1:]] for row in text_rows}
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"unparseable report file: {type(exc).__name__}: {exc}"], None

    if tuple(header) != tuple(param_names):
        failures.append(f"samples.csv header {header} != {list(param_names)}")
    if samples.shape[0] != n_samples:
        failures.append(f"samples.csv has {samples.shape[0]} rows, expected {n_samples}")
    if samples.shape[1] == len(param_names):
        outside = int((~in_support(samples)).sum())
        if outside:
            failures.append(f"{outside} samples.csv rows outside the prior support")
    if not _finite(summary):
        failures.append("summary.json holds a non-finite or null value")
    if not _finite(moments.get("snapshots")):
        failures.append("moments.json holds a non-finite value")
    if set(text_values) != set(param_names):
        failures.append(f"summary.txt lists {sorted(text_values)}, expected {list(param_names)}")
    for name, (_, table) in tables.items():
        if table.shape[0] == 0 or not np.all(np.isfinite(table)):
            failures.append(f"{name} is empty or non-finite")
    params = summary.get("parameters", {})
    if list(params) != list(param_names):
        failures.append(f"summary.json parameters {list(params)} != {list(param_names)}")
        return failures, None
    return failures, summary


def min_ess(summary: dict) -> float:
    """min over parameters of N / (2 * tau_int)."""
    n = summary["n_samples"]
    return min(n / p["two_tau_int"] for p in summary["parameters"].values())


def _recovery(workload, summary: dict) -> list[str]:
    failures = []
    for name, truth in zip(workload.param_names, workload.truth):
        p = summary["parameters"][name]
        z = abs(p["mean"] - truth) / p["sd"]
        if not z <= RECOVERY_SD:
            failures.append(f"{name} mean {p['mean']:.5g} is {z:.2f} SD from the generating {truth}")
    if "gamma" in summary["parameters"] and not summary["parameters"]["gamma"]["mean"] < 0.0:
        failures.append("posterior mean of gamma is not negative")
    return failures


def _acceptance(workload, summary: dict) -> list[str]:
    failures = _recovery(workload, summary)
    for name, p in summary["parameters"].items():
        if not p["two_tau_int"] < MAX_TWO_TAU:
            failures.append(f"{name} 2*tau_int {p['two_tau_int']:.3f} >= {MAX_TWO_TAU}")
    if not summary["acceptance_plateau"] > MIN_PLATEAU:
        failures.append(f"acceptance plateau {summary['acceptance_plateau']:.3f} <= {MIN_PLATEAU}")
    return failures


def garch_log_likelihood(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gaussian GARCH(1,1) log-likelihood for each (omega, alpha, beta) row of `theta`.

    The recursion starts from the sample variance of `y`; rows outside the
    support get -inf.
    """
    omega, alpha, beta = theta[:, 0], theta[:, 1], theta[:, 2]
    var = np.full(theta.shape[0], np.var(y, ddof=1))
    total = np.log(var) + y[0] ** 2 / var
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(1, y.size):
            var = omega + alpha * y[t - 1] ** 2 + beta * var
            total += np.log(var) + y[t] ** 2 / var
    ll = -0.5 * (y.size * math.log(2.0 * math.pi) + total)
    return np.where(in_support(theta) & np.isfinite(ll), ll, -np.inf)


def quadrature_moments(y: np.ndarray, center, cov, points: int, half_width: float = QUAD_HALF_WIDTH):
    """Flat-prior GARCH(1,1) posterior mean and SD by a midpoint rule.

    The grid has `points` nodes per axis on center + L z, |z_i| <= half_width,
    where L L' = cov, so it follows the posterior's correlations.  It is
    evaluated one slab at a time to bound memory.
    """
    center = np.asarray(center, dtype=float)
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    axis = half_width * np.linspace(-1.0, 1.0, 2 * points + 1)[1::2]
    slabs = []
    for first in axis:
        z = np.stack(np.meshgrid([first], axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        theta = center + z @ chol.T
        ll = garch_log_likelihood(theta, y)
        top = ll.max()
        if np.isfinite(top):
            w = np.exp(ll - top)
            slabs.append((top, w.sum(), w @ theta, w @ theta**2))
    top = max(slab[0] for slab in slabs)
    scale = [math.exp(slab[0] - top) for slab in slabs]
    norm = sum(f * slab[1] for f, slab in zip(scale, slabs))
    mean = sum(f * slab[2] for f, slab in zip(scale, slabs)) / norm
    second = sum(f * slab[3] for f, slab in zip(scale, slabs)) / norm
    return mean, np.sqrt(second - mean**2)


def _quadrature(workload, summary: dict) -> list[str]:
    reference = QUADRATURE[workload.name]["mean"]
    failures = []
    for name, want in zip(workload.param_names, reference):
        p = summary["parameters"][name]
        z = abs(p["mean"] - want) / p["jackknife_se"]
        if not z <= QUAD_Z:
            failures.append(f"{name} mean {p['mean']:.6g} is {z:.1f} SE from the quadrature mean {want:.6g}")
    return failures


def check_run(workload, out_dir: Path, exit_code: int) -> tuple[list[str], dict | None]:
    """All checks for one run; returns (failures, parsed summary.json)."""
    if exit_code != 0:
        return [f"garchmc run exited with {exit_code}"], None
    failures, summary = read_outputs(out_dir, workload.param_names, workload.samples)
    if summary is None or failures:
        return failures, summary
    if workload.check == "acceptance":
        failures += _acceptance(workload, summary)
    elif workload.check == "quadrature":
        failures += _quadrature(workload, summary)
    elif workload.check == "recovery":
        failures += _recovery(workload, summary)
    return failures, summary


if __name__ == "__main__":
    from workloads import WORKLOADS, observed_returns

    for name, ref in QUADRATURE.items():
        mean, sd = quadrature_moments(observed_returns(WORKLOADS[name]), ref["center"], ref["cov"], ref["points"])
        print(name, "mean", mean.tolist(), "sd", sd.tolist())
