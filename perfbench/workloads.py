"""Benchmark workloads and their input generator.

The generator is numpy-only and independent of the package under test, so
a change to `garchmc.data` or `garchmc.model` cannot change the inputs.
Each workload's CSV is fixed (DATA_SEED) and byte-identical on every call;
the workload seed picks the chain seeds, so the same seed gives the same
`garchmc run` arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Reference QGARCH fits (omega, alpha, beta, gamma) the inputs are drawn from.
NIKKEI225 = (0.06219, 0.07872, 0.89390, -0.12403)
DAX_GARCH = (0.03004, 0.09198, 0.89564, 0.0)
HANG_SENG = (0.03202, 0.07638, 0.91168, -0.08678)

# Every workload fits one fixed data set; the workload seed picks the chain
# seeds.  2024 is the acceptance suite's data seed, so paper-qgarch fits the
# same 2700 returns that `tests/test_acceptance.py` fits.
DATA_SEED = 2024

# Chains per workload seed; min_ess is their mean.  Three keep every run
# within the time budget while averaging down the chain-to-chain spread of ESS.
CHAINS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # mixed into the workload seed so workloads never share chain seeds
    model: str  # "garch" or "qgarch"
    truth: tuple[float, float, float, float]
    n_returns: int
    input_kind: str  # "returns" or "prices"
    burn_in: int
    initial_pool: int
    update_interval: int
    samples: int
    check: str  # statistical output check, see checks.py
    probe_calls: int  # likelihood evaluations per speed probe (child.probe_work), about 4 ms

    @property
    def param_names(self) -> tuple[str, ...]:
        return ("omega", "alpha", "beta") if self.model == "garch" else ("omega", "alpha", "beta", "gamma")

    def cli_args(self, input_path: Path, out_dir: Path, chain_seed: int) -> list[str]:
        args = [
            "run",
            "--input", str(input_path),
            "--input-kind", self.input_kind,
            "--model", self.model,
            "--burn-in", str(self.burn_in),
            "--initial-pool", str(self.initial_pool),
            "--update-interval", str(self.update_interval),
            "--samples", str(self.samples),
            "--seed", str(chain_seed),
            "--out-dir", str(out_dir),
        ]
        if self.input_kind == "prices":
            args[3:3] = ["--column", "close"]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-qgarch",
            index=1,
            model="qgarch",
            truth=NIKKEI225,
            n_returns=2700,
            input_kind="returns",
            burn_in=5000,
            initial_pool=1000,
            update_interval=1000,
            samples=100_000,
            check="acceptance",
            probe_calls=65,
        ),
        Workload(
            name="short-garch",
            index=2,
            model="garch",
            truth=DAX_GARCH,
            n_returns=250,
            input_kind="prices",
            burn_in=5000,
            initial_pool=1000,
            update_interval=100,
            samples=100_000,
            check="quadrature",
            probe_calls=143,
        ),
        Workload(
            name="long-qgarch",
            index=3,
            model="qgarch",
            truth=HANG_SENG,
            n_returns=20_000,
            input_kind="returns",
            burn_in=4000,
            initial_pool=1000,
            update_interval=1000,
            samples=20_000,
            check="recovery",
            probe_calls=14,
        ),
    )
}


def chain_seeds(workload: Workload, seed: int) -> list[int]:
    """The `--seed` values of the workload's CHAINS chains for one workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, workload.index]).generate_state(CHAINS)]


def simulate_returns(truth, n: int, rng: np.random.Generator) -> np.ndarray:
    """QGARCH(1,1) returns with standard normal innovations.

    The recursion starts at the stationary variance omega / (1 - alpha - beta).
    """
    omega, alpha, beta, gamma = truth
    eps = rng.standard_normal(n)
    y = np.empty(n)
    var = omega / (1.0 - (alpha + beta))
    for t in range(n):
        y[t] = math.sqrt(var) * eps[t]
        var = omega + gamma * y[t] + alpha * y[t] * y[t] + beta * var
    return y


def prices_from_returns(returns: np.ndarray, start: float = 100.0) -> np.ndarray:
    """Price levels whose percent log returns are `returns` (one more level than returns)."""
    return start * np.exp(np.concatenate([[0.0], np.cumsum(returns / 100.0)]))


def input_csv(workload: Workload) -> str:
    """The workload's input file contents."""
    y = simulate_returns(workload.truth, workload.n_returns, np.random.default_rng(DATA_SEED))
    if workload.input_kind == "prices":
        header, values = "close", prices_from_returns(y)
    else:
        header, values = "return", y
    return header + "\n" + "\n".join(format(v, ".17g") for v in values) + "\n"


def observed_returns(workload: Workload) -> np.ndarray:
    """The returns `garchmc run` fits, recomputed from the input file.

    Prices become demeaned percent log returns, as the README defines them.
    """
    values = np.array([float(v) for v in input_csv(workload).splitlines()[1:]])
    if workload.input_kind == "returns":
        return values
    log_ratio = np.diff(np.log(values))
    return 100.0 * (log_ratio - log_ratio.mean())
