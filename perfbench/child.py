"""One `garchmc run` in a fresh interpreter, timed from the inside.

Usage: python3 child.py RESULT_JSON TRACE(0|1) PROBE_LENGTH PROBE_CALLS -- CLI_ARGS...

Times the import of `garchmc.cli` (numpy and scipy included) and the call
`cli.main(CLI_ARGS)`, then writes a JSON object with both times, the exit
code, the peak resident memory and, when TRACE is 1, the per-layer trace.
Only the standard library is imported before the timed import.

In an untraced child a wall-clock timer interrupts the call every
PROBE_PERIOD_S seconds to time a fixed probe (`probe_work`: PROBE_CALLS
evaluations of a GARCH log-likelihood of PROBE_LENGTH returns, the kind of
work that dominates the fit); the probe times measure how fast the machine
ran while the fit ran (see `run.py`, `scaled_fit_s`).  A traced child is not
probed, so probes do not land in its layer times.
"""

import json
import resource
import signal
import sys
from time import perf_counter

PROBE_PERIOD_S = 0.2


def probe_work(y, calls):
    """`calls` evaluations of a QGARCH(1,1) Gaussian log-likelihood of `y`.

    The variance recursion runs in `lfilter`, as in the package's target at
    the time the benchmark was written, so the probe slows down with the
    machine as the fit does.  It is the benchmark's own code and does not
    touch `garchmc`, so no change to the package changes its cost.
    """
    import numpy as np
    from scipy.signal import lfilter

    y_lag = y[:-1]
    y_lag_sq = y_lag * y_lag
    y_sq_tail = y[1:] * y[1:]
    total = 0.0
    for k in range(calls):
        beta = 0.89 + 1e-4 * k
        drive = 0.06 - 0.12 * y_lag + 0.08 * y_lag_sq
        sig, _ = lfilter([1.0], [1.0, -beta], drive, zi=np.array([beta]))
        total += float(np.log(sig).sum() + (y_sq_tail / sig).sum())
    return total


def probed_call(probe_length, probe_calls, fn, *args):
    """Call `fn(*args)` while timing `probe_work` every PROBE_PERIOD_S seconds.

    Returns (result, wall seconds of the whole call, probe durations).
    """
    import numpy as np

    y = np.random.default_rng(0).standard_normal(probe_length)
    probes = []

    def on_alarm(signum, frame):
        start = perf_counter()
        probe_work(y, probe_calls)
        probes.append(perf_counter() - start)

    probe_work(y, probe_calls)  # the first call pays lazy set-up, outside the timing
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return result, wall, probes


def main(argv):
    result_path, traced, probe_length, probe_calls, sep, *cli_args = argv
    if sep != "--" or traced not in ("0", "1"):
        raise SystemExit(__doc__)

    start = perf_counter()
    import garchmc.cli as cli

    setup_s = perf_counter() - start

    tracer = None
    if traced == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        start = perf_counter()
        code = cli.main(cli_args)
        fit_s, probes = perf_counter() - start, []
    else:
        code, fit_s, probes = probed_call(int(probe_length), int(probe_calls), cli.main, cli_args)

    record = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "probe_s": probes,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "garchmc_file": cli.__file__,
        "trace": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
