"""Time the posterior closure in the serial and blocked layouts: the README's crossover table.

For each series length it builds the QGARCH closure of a series simulated
at the Hang Seng fit once per layout, the serial filter and blocks of each
K, and times CALLS evaluations at fixed parameter vectors near the fit.
The layouts take turns within each of `--rounds` rounds, in an order that
rotates from round to round, so a drift in the machine's speed reaches
every layout alike.  It prints the µs per call as median (quartiles) over
the rounds, one Markdown row per length.

    python tools/closure_us.py
    python tools/closure_us.py --returns 5001 20000 --blocks 8 --rounds 31

It imports garchmc from the `src/` beside it, and otherwise numpy and the
standard library only.  The layout is forced by setting `model._SCAN_MIN`
and `model._BLOCK` while each closure is built and timed.
"""

import argparse
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from garchmc import model  # noqa: E402

HANG_SENG = (0.03202, 0.07638, 0.91168, -0.08678)
CALLS = 100


@contextlib.contextmanager
def layout(block):
    """The serial layout at every length when `block` is None, else blocks of `block` steps."""
    saved = model._SCAN_MIN, model._BLOCK
    model._SCAN_MIN, model._BLOCK = (sys.maxsize, saved[1]) if block is None else (0, block)
    try:
        yield
    finally:
        model._SCAN_MIN, model._BLOCK = saved


def thetas():
    """CALLS parameter vectors within a few percent of the Hang Seng fit, all in the support."""
    rng = np.random.default_rng(1)
    points = []
    while len(points) < CALLS:
        theta = np.array(HANG_SENG) * (1.0 + 0.01 * rng.standard_normal(4))
        if model.in_support(theta):
            points.append(theta)
    return points


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.1f} ({q1:.1f}-{q3:.1f})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--returns", type=int, nargs="+", default=[2700, 3500, 4000, 5001, 7000, 10000, 20000])
    parser.add_argument("--blocks", type=int, nargs="+", default=[4, 6, 8])
    parser.add_argument("--rounds", type=int, default=31)
    args = parser.parse_args(argv)

    layouts = [None, *args.blocks]
    names = ["serial filter", *(f"K = {k}" for k in args.blocks)]
    print("| returns | " + " | ".join(names) + " |")
    print("| ------- | " + " | ".join("-" * len(name) for name in names) + " |")
    points = thetas()
    for n in args.returns:
        y = model.simulate_qgarch(model.ModelParams(*HANG_SENG), n, 1.0, seed=n)
        closures = []
        for block in layouts:
            with layout(block):
                closures.append(model.log_posterior_fn(y, model.ModelKind.QGARCH, 1.3))
        us = [[] for _ in layouts]
        for r in range(args.rounds):
            for i in np.roll(np.arange(len(layouts)), -r):
                with layout(layouts[i]):
                    start = time.perf_counter()
                    for theta in points:
                        closures[i](theta)
                    us[i].append((time.perf_counter() - start) / len(points) * 1e6)
        print(f"| {n} | " + " | ".join(quartiles(t) for t in us) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
