"""ESS-per-second benchmark of `garchmc run`, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-qgarch --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each run of `garchmc run` happens in a fresh interpreter (perfbench/child.py)
that imports the package from this checkout's `src/`; one child runs at a
time.  With `--trace 0` the children are untraced and the end-to-end metrics
are reported; with `--trace 1` untraced and traced children alternate, and
the per-layer metrics and the tracing overhead are reported.  An untraced
child times a fixed probe loop during its fit, and `fit_s` is rescaled by
those probe times to a nominal machine speed (`scaled_fit_s`).  Every run's
outputs are checked (perfbench/checks.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracer import WRITERS
from workloads import DATA_SEED, WORKLOADS, chain_seeds, input_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# A workload's run stops starting children, and kills a running one, this many
# seconds after it began, so that it ends within three minutes whatever happens.
RUN_DEADLINE_S = 165.0
# Duration of a workload's probe (child.probe_work) at the machine speed fit_s
# is scaled to; each workload's probe_calls make its probe take about this
# long on the 2-core Xeon VM the README's figures come from.
PROBE_NOMINAL_S = 0.004

E2E_UNITS = {
    "fit_s": "s",
    "ess_per_s": "1/s",
    "min_ess": "draws",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "model.target_calls": "count",
    "model.target_us": "us",
    "model.target_s": "s",
    "model.offsupport_frac": "ratio",
    "model.import_s": "s",
    "proposal.import_s": "s",
    "diagnostics.import_s": "s",
    "proposal.draw_us": "us",
    "proposal.log_density_us": "us",
    "sampler.mh_step_self_us": "us",
    "sampler.loop_self_s": "s",
    "proposal.refit_calls": "count",
    "proposal.refit_s": "s",
    "proposal.moment_rows": "count",
    "proposal.jittered": "count",
    "sampler.warmup_s": "s",
    "sampler.main_s": "s",
    "sampler.draws_per_s": "1/s",
    "sampler.accept_frac": "ratio",
    "sampler.plateau": "ratio",
    "diagnostics.summarize_s": "s",
    "data.load_s": "s",
    "data.rows": "count",
    "cli.write_samples_s": "s",
    "cli.write_other_s": "s",
    "cli.bytes_written": "bytes",
    "trace.fit_s": "s",
    "trace.overhead_frac": "ratio",
}
IMPORT_LAYERS = {
    "model.import_s": "garchmc.model",
    "proposal.import_s": "garchmc.proposal",
    "diagnostics.import_s": "garchmc.diagnostics",
}
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """A child imported `garchmc` from somewhere other than this checkout's `src/`."""


def run_child(run_dir: Path, tag: str, workload, cli_args: list[str], traced: bool,
              timeout: float) -> tuple[dict | None, float]:
    """One `garchmc run` in a fresh interpreter; returns (child record or None, wall seconds)."""
    result_path = run_dir / f"{tag}.json"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), str(result_path), "1" if traced else "0",
            str(workload.n_returns), str(workload.probe_calls), "--", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    start = time.perf_counter()
    with open(run_dir / f"{tag}.stderr", "w") as err:
        try:
            subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                           timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            pass
    wall = time.perf_counter() - start
    if not result_path.is_file():
        return None, wall
    record = json.loads(result_path.read_text())
    if Path(record["garchmc_file"]).resolve().parent != (SRC / "garchmc").resolve():
        raise SetupError(f"child imported garchmc from {record['garchmc_file']}, not from {SRC}")
    return record, wall


def import_times(stderr_path: Path) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime` output."""
    found = {}
    for line in stderr_path.read_text().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                found[name.strip()] = int(cumulative) * 1e-6
    return found


def bytes_written(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in checks.REPORT_FILES if (out_dir / name).is_file())


def layer_metrics(record: dict, untraced_fit_s: float, summary: dict, imports: dict, n_bytes: int,
                  samples: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced child; None where a layer is absent."""
    layers = record["trace"]["layers"]
    counts = record["trace"]["counts"]

    def get(layer, field):
        return layers[layer][field] if layer in layers else None

    def per_call_us(layer, field="total_s"):
        n = get(layer, "count")
        return get(layer, field) / n * 1e6 if n else None

    def total(*names):
        values = [get(name, "total_s") for name in names]
        return None if None in values else sum(values)

    target_calls = get("model.target", "count")
    warmup_s = get("sampler.warmup", "total_s")
    adaptive_s = get("sampler.run_adaptive", "total_s")
    main_s = adaptive_s - warmup_s if None not in (adaptive_s, warmup_s) else None
    mh_calls = get("sampler.mh_step", "count")
    refits = get("proposal.build_proposal", "count")
    return {
        "model.target_calls": target_calls,
        "model.target_us": per_call_us("model.target"),
        "model.target_s": get("model.target", "total_s"),
        "model.offsupport_frac": counts["target_offsupport"] / target_calls if target_calls else None,
        **{metric: imports.get(module) for metric, module in IMPORT_LAYERS.items()},
        "proposal.draw_us": per_call_us("proposal.draw"),
        "proposal.log_density_us": per_call_us("proposal.log_density"),
        "sampler.mh_step_self_us": per_call_us("sampler.mh_step", "self_s"),
        "sampler.loop_self_s": get("sampler.run_adaptive", "self_s"),
        "proposal.refit_calls": refits,
        "proposal.refit_s": total("proposal.estimate_moments", "proposal.build_proposal"),
        "proposal.moment_rows": counts["moment_rows"] if "proposal.estimate_moments" in layers else None,
        "proposal.jittered": counts["jittered"] if refits is not None else None,
        "sampler.warmup_s": warmup_s,
        "sampler.main_s": main_s,
        "sampler.draws_per_s": samples / main_s if main_s else None,
        "sampler.accept_frac": counts["mh_accepted"] / mh_calls if mh_calls else None,
        "sampler.plateau": summary["acceptance_plateau"] if summary else None,
        "diagnostics.summarize_s": get("diagnostics.summarize", "total_s"),
        "data.load_s": get("data.load", "total_s"),
        "data.rows": counts["data_rows"] if "data.load" in layers else None,
        "cli.write_samples_s": get("cli._write_samples_csv", "total_s"),
        "cli.write_other_s": total(*[w for w in WRITERS if w != "cli._write_samples_csv"], "cli._atomic_write"),
        "cli.bytes_written": n_bytes,
        "trace.fit_s": record["fit_s"],
        "trace.overhead_frac": record["fit_s"] / untraced_fit_s - 1.0,
    }


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def net_fit_s(record: dict) -> float:
    """The child's fit wall time less the time its probes took."""
    return record["fit_s"] - sum(record["probe_s"])


def scaled_fit_s(records: list[dict]) -> float | None:
    """Median over children of the fit time rescaled to the nominal machine speed.

    The shared host's speed drifts by 10-20% within seconds to minutes, more
    than a median over one run's children evens out.  The probes a child
    times during its fit measure the speed that fit got: each child's fit
    time is its net wall time times PROBE_NOMINAL_S over its mean probe time,
    the time the fit would have taken with the probe at PROBE_NOMINAL_S.
    """
    return median_or_none(net_fit_s(r) * PROBE_NOMINAL_S / statistics.mean(r["probe_s"])
                          for r in records if r["probe_s"])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload, seed: int, seeds: list[int]) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "workload": workload.name,
        "workload_seed": seed,
        "data_seed": DATA_SEED,
        "chain_seeds": seeds,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns its report: counts, metrics, per-child times, environment."""
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        input_path = run_dir / "input.csv"
        input_path.write_text(input_csv(workload), encoding="utf-8")
        seeds = chain_seeds(workload, seed)
        attempted = failed = 0
        failures: list[str] = []
        untraced, traced_metrics = [], []
        ess_by_seed: dict[int, float] = {}
        walls: list[float] = []
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE_S

        def attempt(tag, chain_seed, traced):
            nonlocal attempted, failed
            out_dir = run_dir / f"out-{tag}"
            record, wall = run_child(run_dir, tag, workload, workload.cli_args(input_path, out_dir, chain_seed), traced,
                                     timeout=max(1.0, deadline - time.perf_counter()))
            attempted += 1
            if record is None:
                stderr = (run_dir / f"{tag}.stderr").read_text().strip().splitlines()
                problems, summary = [f"child produced no result ({stderr[-1] if stderr else 'no output'})"], None
            else:
                problems, summary = checks.check_run(workload, out_dir, record["exit_code"])
            n_bytes = bytes_written(out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            if problems:
                failed += 1
                failures.extend(f"{tag}: {p}" for p in problems)
                return None, None, n_bytes, wall
            return record, summary, n_bytes, wall

        # A unit is one untraced child, or with tracing an untraced and a traced
        # child.  Start the next while the minimum is not met or it is expected
        # to end within the budget.
        minimum = 1 if trace else len(seeds)
        units = 0
        while time.perf_counter() < deadline and (
                units < minimum or time.perf_counter() - start + statistics.mean(walls) <= seconds):
            chain_seed = seeds[0] if trace else seeds[units % len(seeds)]
            record, summary, _, wall = attempt(f"u{units}", chain_seed, False)
            if record is not None:
                untraced.append(record)
                ess_by_seed[chain_seed] = checks.min_ess(summary)
            if trace:
                traced_record, summary, n_bytes, traced_wall = attempt(f"t{units}", chain_seed, True)
                wall += traced_wall
                if traced_record is not None and record is not None:
                    imports = import_times(run_dir / f"t{units}.stderr")
                    traced_metrics.append(layer_metrics(traced_record, net_fit_s(record), summary, imports,
                                                        n_bytes, workload.samples))
            walls.append(wall)
            units += 1

        if trace:
            metrics = {name: (median_or_none(m[name] for m in traced_metrics), unit)
                       for name, unit in LAYER_UNITS.items()}
        else:
            fit_s = scaled_fit_s(untraced)
            # ESS adds up over independent chains: report the pooled ESS per chain.
            min_ess = statistics.mean(ess_by_seed.values()) if ess_by_seed else None
            values = {
                "fit_s": fit_s,
                "ess_per_s": min_ess / fit_s if fit_s and min_ess else None,
                "min_ess": min_ess,
                "setup_s": median_or_none(r["setup_s"] for r in untraced),
                "peak_rss_mb": median_or_none(r["peak_rss_kb"] / 1024.0 for r in untraced),
            }
            metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
        report = {
            "workload": workload.name,
            "trace": trace,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "children": [{**{k: r[k] for k in ("setup_s", "fit_s", "peak_rss_kb")},
                          "probes": len(r["probe_s"]),
                          "probe_mean_s": statistics.mean(r["probe_s"]) if r["probe_s"] else None}
                         for r in untraced],
            "min_ess_by_chain_seed": {str(k): v for k, v in ess_by_seed.items()},
            "environment": environment(workload, seed, seeds),
        }
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
        return report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def print_report(report: dict) -> None:
    n = len(report["children"])
    print(f"workload {report['workload']}  trace {int(report['trace'])}  "
          f"runs attempted {report['attempted']}  failed {report['failed']}  "
          f"fail_frac {report['failed'] / report['attempted']:.4g} ratio")
    for name, m in report["metrics"].items():
        value = "absent" if m["value"] is None else format(m["value"], ".6g")
        print(f"  {name:<26} {value:>14} {m['unit']}")
    if not report["trace"]:
        fits = ", ".join(format(c["fit_s"], ".3f") for c in report["children"])
        probes = ", ".join("none" if c["probe_mean_s"] is None else format(c["probe_mean_s"] * 1e3, ".3f")
                           for c in report["children"])
        print(f"  (setup_s, peak_rss_mb: medians of {n} untraced runs; fit wall time per run: {fits} s)")
        print(f"  (fit_s: median of net fit time x {PROBE_NOMINAL_S * 1e3:g} ms / mean probe time;"
              f" mean probe time per run: {probes} ms)")
        print(f"  (min_ess: mean over chain seeds {report['min_ess_by_chain_seed']})")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(report["environment"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "garchmc" / "cli.py").is_file():
        print(f"no garchmc source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            reports.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
            print_report(reports[-1])
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
