"""Mixing of `run_adaptive` over a grid of held-out simulated inputs.

A cell is one chain: a model (GARCH or QGARCH), a number of returns, a data
seed and a chain seed.  The returns come from the benchmark's own numpy
generator (`perfbench/workloads.simulate_returns`), GARCH from its DAX fit
and QGARCH from its Nikkei 225 fit, so no cell shares an input with a
benchmark workload (data seed 2024).  As on the benchmark, a GARCH input
is fitted as prices (demeaned percent log returns) and a QGARCH input as
returns.  Each chain runs `run_adaptive` on 5000 warm-up sweeps, a pool of
1000 and a refit every 100 draws, then `--samples` draws.  Per cell it prints the largest 2*tau_int over the
parameters (inf where no window converges), the least window acceptance,
the plateau (the mean acceptance of the last 10 windows, as summary.json
has it) and the rows the support predicate `model.in_support` tested per
draw: the draw and its redraws, and, where the proposal draws a block at a
time, the rows of each window's last block left unserved.

Each input runs in a fresh interpreter per source tree (`--trees`), which
imports garchmc from that tree's `src/`; the trees take turns to go first
from one input to the next.  The inputs are the same for every tree.  It
ends with each tree's median and worst cell by max 2*tau_int, and the
number of cells with a window that accepted at most 3% of its draws.

    python tools/mixing_grid.py
    python tools/mixing_grid.py --trees /path/to/parent-checkout .
    python tools/mixing_grid.py --models garch --n 250 --data-seeds 1 --chain-seeds 1 --samples 2000

It needs numpy and the `src/` of each tree, and nothing installed.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DAX_GARCH, NIKKEI225, prices_from_returns, simulate_returns  # noqa: E402

TRUTH = {"garch": DAX_GARCH, "qgarch": NIKKEI225}
BURN_IN, INITIAL_POOL, UPDATE_INTERVAL = 5000, 1000, 100
# A window that accepts this little has stalled (the 500-return GARCH input
# of data seed 12 had such windows before the proposal was widened).
STALLED = 0.03


def run_input(src, model_name, n, data_seed, chain_seeds, samples):
    """One JSON object per chain of one input, run against garchmc from `src`."""
    sys.path.insert(0, str(src))
    from garchmc import ChainConfig, ModelKind, NonConvergenceError, PriceSeries, ReturnSeries
    from garchmc import integrated_autocorr_time, model, run_adaptive, to_returns

    calls = [0]
    in_support = model.in_support

    def counted(theta):
        # A proposal drawn a block at a time tests the block's rows in one call.
        calls[0] += len(theta) if theta.ndim == 2 else 1
        return in_support(theta)

    # The sampler reads `model.in_support` when it builds each proposal.
    model.in_support = counted
    y = simulate_returns(TRUTH[model_name], n, np.random.default_rng(data_seed))
    if model_name == "garch":
        kind, returns = ModelKind.GARCH, to_returns(PriceSeries(prices_from_returns(y)))
    else:
        kind, returns = ModelKind.QGARCH, ReturnSeries(y)
    for chain_seed in chain_seeds:
        calls[0] = 0
        config = ChainConfig(kind=kind, burn_in=BURN_IN, initial_pool=INITIAL_POOL,
                             update_interval=UPDATE_INTERVAL, total_samples=samples, seed=chain_seed)
        result = run_adaptive(config, returns)
        taus = []
        for column in result.samples.T:
            try:
                taus.append(2.0 * integrated_autocorr_time(column)[0])
            except NonConvergenceError:
                taus.append(math.inf)
        trace = result.acceptance_trace
        print(json.dumps({
            "chain_seed": chain_seed,
            "max_2tau": max(taus),
            "least_acceptance": float(trace.min()),
            "plateau": float(trace[-10:].mean()),
            "support_calls_per_draw": calls[0] / samples,
        }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trees", type=Path, nargs="+", default=[ROOT])
    parser.add_argument("--models", nargs="+", choices=sorted(TRUTH), default=["garch", "qgarch"])
    parser.add_argument("--n", type=int, nargs="+", default=[250, 500, 1000, 7000])
    parser.add_argument("--data-seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--chain-seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--samples", type=int, default=30_000)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        run_input(args.worker, args.models[0], args.n[0], args.data_seeds[0], args.chain_seeds, args.samples)
        return 0

    trees = [str(tree) for tree in args.trees]
    cells = {tree: [] for tree in trees}
    print("| tree | model | n | data seed | chain seed | max 2tau | least acceptance | plateau | support tests per draw |")
    print("| ---- | ----- | - | --------- | ---------- | -------- | ---------------- | ------- | ---------------------- |")
    inputs = [(m, n, d) for m in args.models for n in args.n for d in args.data_seeds]
    for i, (model_name, n, data_seed) in enumerate(inputs):
        for tree in trees[i % len(trees):] + trees[: i % len(trees)]:
            command = [sys.executable, __file__, "--worker", str(Path(tree).resolve() / "src"),
                       "--models", model_name, "--n", str(n), "--data-seeds", str(data_seed),
                       "--samples", str(args.samples), "--chain-seeds", *map(str, args.chain_seeds)]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{tree}: {model_name} n = {n} data seed {data_seed} failed")
            for line in done.stdout.splitlines():
                cell = {"model": model_name, "n": n, "data_seed": data_seed, **json.loads(line)}
                cells[tree].append(cell)
                print(f"| {tree} | {model_name} | {n} | {data_seed} | {cell['chain_seed']} | {cell['max_2tau']:.2f} "
                      f"| {cell['least_acceptance']:.2f} | {cell['plateau']:.3f} "
                      f"| {cell['support_calls_per_draw']:.3f} |", flush=True)

    print()
    for tree, done in cells.items():
        worst = max(done, key=lambda cell: cell["max_2tau"])
        stalled = sum(cell["least_acceptance"] <= STALLED for cell in done)
        print(f"{tree}: {len(done)} cells, median max 2tau {statistics.median(c['max_2tau'] for c in done):.2f}, "
              f"worst {worst['max_2tau']:.2f} ({worst['model']} n = {worst['n']} data seed {worst['data_seed']} "
              f"chain seed {worst['chain_seed']}), {stalled} with a window accepting <= {STALLED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
