"""Time one proposal refit, one-shot and merged, against the history's length.

For each history of N draws and each dimension p it fills an (N, p)
column-major store (the sampler's layout) with Gaussian draws and times
`estimate_moments` two ways: one call over all N rows, which adds them all
to empty sums, and the refit the sampler makes, which adds the last WINDOW
rows to the sums of an estimate of the first N - WINDOW.  The variants
take turns within each of `--rounds` rounds, in an order that rotates
from round to round, so a drift in the machine's speed reaches every
variant alike.  Each round repeats a call until it has run for at least
`--round-ms`.  It prints the µs per call as median (quartiles) over the
rounds, one Markdown row per history.

    python tools/refit_us.py
    python tools/refit_us.py --rows 1000 100000 --dims 3 --rounds 21

It imports garchmc from the `src/` beside it, and otherwise numpy and the
standard library only.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from garchmc import estimate_moments  # noqa: E402

# New rows per merged refit: short-garch's update interval.
WINDOW = 100


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.1f} ({q1:.1f}-{q3:.1f})"


def time_call(call, seconds):
    """µs per call, over as many calls as fill `seconds`."""
    calls = 0
    start = time.perf_counter()
    while True:
        call()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / calls * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[1000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--dims", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--round-ms", type=float, default=20.0)
    args = parser.parse_args(argv)

    names = [f"p = {p} {kind}" for p in args.dims for kind in ("one-shot", f"merge of {WINDOW}")]
    print("| rows | " + " | ".join(names) + " |")
    print("| ---- | " + " | ".join("-" * len(name) for name in names) + " |")
    rng = np.random.default_rng(1)
    for n in args.rows:
        calls = []
        for p in args.dims:
            store = np.asfortranarray(rng.standard_normal((n, p)))
            previous = estimate_moments(store[: n - WINDOW])
            calls.append(lambda store=store: estimate_moments(store))
            calls.append(lambda store=store, previous=previous: estimate_moments(store, previous))
        us = [[] for _ in calls]
        for r in range(args.rounds):
            for i in np.roll(np.arange(len(calls)), -r):
                us[i].append(time_call(calls[i], args.round_ms / 1e3))
        print(f"| {n} | " + " | ".join(quartiles(t) for t in us) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
