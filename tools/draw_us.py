"""Time the proposal side of one independence MH draw, against each tree's garchmc.

For p = 3 and p = 4 it builds the sampler's proposal, truncated to
`model.in_support`, from the posterior moments of a GARCH and a QGARCH
benchmark input, and times `mh_step` against a free target: log pi reads 0 at
every candidate, so what is left is the draw, its log g, the support test
and the accept step.  A window of `--windows` draws takes a fresh proposal,
as each refit makes one, and only the draws are timed.  About 19% (p = 3)
and 9% (p = 4) of the raw draws fall off the support.

Each tree (`--trees`) runs in its own interpreter, which imports garchmc
from that tree's `src/` and waits for work.  Within each of `--rounds`
rounds every (p, window, tree) cell runs once, for at least `--round-ms`,
in an order that rotates from round to round, so the trees alternate and a
drift in the machine's speed reaches them alike.  It prints the µs per
draw as median (quartiles) over the rounds, one Markdown row per cell.

    python tools/draw_us.py
    python tools/draw_us.py --trees /path/to/parent-checkout . --rounds 21

It needs numpy and the `src/` of each tree, and nothing installed.
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The moments a 20 000-draw chain (seed 1) ends with on the benchmark's
# short-garch (p = 3) and paper-qgarch (p = 4) inputs: mean, covariance.
MOMENTS = {
    3: ((0.5831, 0.2037, 0.4581),
        ((0.1418, 0.0102, -0.091), (0.0102, 0.008, -0.0114), (-0.091, -0.0114, 0.0644))),
    4: ((0.0642, 0.0718, 0.8976, -0.1024),
        ((2.2249e-04, 3.2261e-05, -1.4082e-04, -1.1134e-04), (3.2261e-05, 9.4829e-05, -9.7109e-05, -4.4928e-05),
         (-1.4082e-04, -9.7109e-05, 1.6140e-04, 8.7358e-05), (-1.1134e-04, -4.4928e-05, 8.7358e-05, 3.2529e-04))),
}


def serve(src):
    """Answer each "p window seconds" line on stdin with the µs per draw of that cell."""
    sys.path.insert(0, str(src))
    from garchmc import MomentEstimate, build_proposal, mh_step, model

    rng = np.random.default_rng(1)
    target = lambda theta: 0.0  # noqa: E731
    for line in sys.stdin:
        p, window, seconds = line.split()
        mean, v = (np.array(a) for a in MOMENTS[int(p)])
        moments = MomentEstimate(mean, v)
        draws, elapsed = 0, 0.0
        while elapsed < float(seconds):
            proposal = build_proposal(moments, 10.0, support=model.in_support)
            x = mean.copy()
            lt, lg = 0.0, proposal.log_density(x)
            start = time.perf_counter()
            for _ in range(int(window)):
                x, _, lt, lg = mh_step(target, proposal, x, rng, current_log_target=lt, current_log_proposal=lg)
            elapsed += time.perf_counter() - start
            draws += int(window)
        print(elapsed / draws * 1e6, flush=True)


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.2f} ({q1:.2f}-{q3:.2f})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trees", type=Path, nargs="+", default=[ROOT])
    parser.add_argument("--windows", type=int, nargs="+", default=[100, 1000])
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--round-ms", type=float, default=200.0)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        serve(args.worker)
        return 0

    workers = [
        subprocess.Popen([sys.executable, __file__, "--worker", str(tree.resolve() / "src")],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for tree in args.trees
    ]
    cells = [(p, window, i) for p in MOMENTS for window in args.windows for i in range(len(workers))]
    us = {cell: [] for cell in cells}
    try:
        for r in range(args.rounds):
            for k in np.roll(np.arange(len(cells)), -r):
                p, window, i = cells[k]
                workers[i].stdin.write(f"{p} {window} {args.round_ms / 1e3}\n")
                workers[i].stdin.flush()
                us[cells[k]].append(float(workers[i].stdout.readline()))
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()
    print("| tree | p | window | µs per draw |")
    print("| ---- | - | ------ | ----------- |")
    for p, window, i in cells:
        print(f"| {args.trees[i]} | {p} | {window} | {quartiles(us[p, window, i])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
