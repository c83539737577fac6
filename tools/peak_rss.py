"""Print the peak resident memory of `garchmc run` after each stage of the run.

It runs `garchmc run` with the flags it is given, in the interpreter that
runs this file, so each invocation measures one run in a fresh process.
From outside the package it wraps the function that ends each stage, as
perfbench's tracer wraps its layers, and when that function returns it
reads the process's peak resident set size (`getrusage`'s `ru_maxrss`).
It prints one Markdown row per stage: the peak after it, in MB, and how far
the stage raised the peak.  A run that fails prints the stages it finished
and exits with the run's exit code.

    python tools/peak_rss.py --input returns.csv --input-kind returns --out-dir out
    python tools/peak_rss.py --input prices.csv --column close --model garch --out-dir out

It imports garchmc from the `src/` beside it, and otherwise the standard
library only: before `import garchmc.cli`, nothing that would raise the peak.
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from garchmc import cli, diagnostics, sampler  # noqa: E402

# (stage, module, function that ends the stage), in the order `cli.run` calls
# them, each wrapped where its caller looks it up.  Each stage's row holds
# everything since the row before it.
STAGES = (
    ("load", cli, "_load_input"),
    ("warm-up", sampler, "metropolis_warmup"),
    ("main phase", cli, "run_adaptive"),
    ("writers: samples.csv, acceptance.csv, moments.json", cli, "_write_moments_json"),
    ("summarize", diagnostics, "summarize"),
    ("writers: summary.json, summary.txt, acf.csv, nic.csv", cli, "write_news_impact_csv"),
)


def peak_mb():
    # Linux reports ru_maxrss in KB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def after(stage, fn, rows):
    """`fn`, recording (stage, peak MB) in `rows` each time it returns."""

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        rows.append((stage, peak_mb()))
        return result

    return wrapped


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    rows = [("import garchmc.cli", peak_mb())]
    for stage, module, name in STAGES:
        setattr(module, name, after(stage, getattr(module, name), rows))
    code = cli.main(["run", *argv])
    print("| stage | peak RSS (MB) | rise (MB) |")
    print("| ----- | ------------- | --------- |")
    previous = 0.0
    for stage, peak in rows:
        print(f"| {stage} | {peak:.1f} | {peak - previous:+.1f} |")
        previous = peak
    return code


if __name__ == "__main__":
    sys.exit(main())
