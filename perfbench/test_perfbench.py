"""Self-tests of the benchmark: input generator, output checks, tracer.

Run from the repository root with

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = dict(burn_in=300, initial_pool=200, update_interval=100, samples=600)


def small(name):
    from dataclasses import replace

    return replace(WORKLOADS[name], **SMALL)


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_input_csv_is_deterministic(name):
    first = workloads.input_csv(WORKLOADS[name]).encode()
    assert first == workloads.input_csv(WORKLOADS[name]).encode()
    assert len(first.splitlines()) == 1 + WORKLOADS[name].n_returns + (WORKLOADS[name].input_kind == "prices")


def test_chain_seeds_follow_the_workload_seed():
    w = WORKLOADS["paper-qgarch"]
    assert workloads.chain_seeds(w, 1) == workloads.chain_seeds(w, 1)
    assert workloads.chain_seeds(w, 1) != workloads.chain_seeds(w, 2)
    assert workloads.chain_seeds(w, 1) != workloads.chain_seeds(WORKLOADS["long-qgarch"], 1)
    assert len(set(workloads.chain_seeds(w, 1))) == workloads.CHAINS


def test_simulator_follows_the_recursion():
    truth = workloads.NIKKEI225
    y = workloads.simulate_returns(truth, 50, np.random.default_rng(3))
    eps = np.random.default_rng(3).standard_normal(50)
    omega, alpha, beta, gamma = truth
    var = omega / (1.0 - (alpha + beta))
    for t in range(50):
        assert y[t] == math.sqrt(var) * eps[t]
        var = omega + gamma * y[t] + alpha * y[t] * y[t] + beta * var


def test_prices_round_trip_to_demeaned_returns():
    w = WORKLOADS["short-garch"]
    y = workloads.simulate_returns(w.truth, w.n_returns, np.random.default_rng(workloads.DATA_SEED))
    np.testing.assert_allclose(workloads.observed_returns(w), y - y.mean(), atol=1e-9)


# ------------------------------------------------------------ output checks


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """A small real `garchmc run` and its workload."""
    from garchmc.cli import main

    w = small("paper-qgarch")
    tmp = tmp_path_factory.mktemp("run")
    (tmp / "input.csv").write_text(workloads.input_csv(w))
    assert main(w.cli_args(tmp / "input.csv", tmp / "out", 5)) == 0
    return w, tmp / "out"


@pytest.fixture
def out_copy(good_run, tmp_path):
    w, out = good_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return w, copy


def failures(w, out):
    found, _ = checks.read_outputs(out, w.param_names, w.samples)
    return found


def test_good_run_passes(out_copy):
    assert failures(*out_copy) == []


def test_truncated_samples_csv_is_flagged(out_copy):
    w, out = out_copy
    path = out / "samples.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-10]) + "\n")
    assert any("rows, expected" in f for f in failures(w, out))


def test_half_written_row_is_flagged(out_copy):
    w, out = out_copy
    path = out / "samples.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    assert any("unparseable" in f for f in failures(w, out))


def test_off_support_row_is_flagged(out_copy):
    w, out = out_copy
    path = out / "samples.csv"
    lines = path.read_text().splitlines()
    lines[5] = "0.05,0.6,0.6,-0.1"  # alpha + beta > 1
    path.write_text("\n".join(lines) + "\n")
    assert any("outside the prior support" in f for f in failures(w, out))


def test_nan_in_summary_json_is_flagged(out_copy):
    w, out = out_copy
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    summary["parameters"]["beta"]["mean"] = float("nan")
    path.write_text(json.dumps(summary))
    assert any("summary.json" in f for f in failures(w, out))


def test_missing_file_and_bad_exit_are_flagged(out_copy):
    w, out = out_copy
    assert checks.check_run(w, out, 4)[0]
    (out / "nic.csv").unlink()
    assert any("missing" in f for f in failures(w, out))


def test_support_predicate_boundaries():
    rows = np.array([
        [0.1, 0.1, 0.8, 0.0],
        [0.1, 0.1, 0.9, 0.0],  # alpha + beta == 1
        [0.0, 0.1, 0.8, 0.0],  # omega == 0
        [0.1, 0.1, 0.8, -0.2],  # gamma**2 == 4 alpha omega
        [0.1, 0.1, 0.8, -0.21],
        [0.1, -0.01, 0.8, 0.0],
        [np.nan, 0.1, 0.8, 0.0],
    ])
    assert checks.in_support(rows).tolist() == [True, False, False, True, False, False, False]


def test_garch_likelihood_matches_package():
    import garchmc as g

    y = workloads.observed_returns(WORKLOADS["short-garch"])
    theta = np.array([[0.03, 0.09, 0.89], [0.1, 0.2, 0.7], [0.1, 0.5, 0.6]])
    got = checks.garch_log_likelihood(theta, y)
    series = g.ReturnSeries(y)
    for row, value in zip(theta[:2], got[:2]):
        want = g.log_likelihood(g.ModelParams(*row, 0.0, g.ModelKind.GARCH), series)
        assert abs(value - want) <= 1e-10 * abs(want)
    assert got[2] == -math.inf


def test_quadrature_reference_matches_a_coarse_grid():
    ref = checks.QUADRATURE["short-garch"]
    mean, sd = checks.quadrature_moments(workloads.observed_returns(WORKLOADS["short-garch"]),
                                         ref["center"], ref["cov"], points=40)
    assert np.all(np.abs(mean - ref["mean"]) <= 0.05 * sd)


def test_quadrature_check_flags_a_shifted_mean():
    w = WORKLOADS["short-garch"]
    summary = {"parameters": {name: {"mean": m, "jackknife_se": 0.005}
                              for name, m in zip(w.param_names, checks.QUADRATURE[w.name]["mean"])}}
    assert checks._quadrature(w, summary) == []
    summary["parameters"]["beta"]["mean"] += 0.03
    assert checks._quadrature(w, summary)


# ------------------------------------------------------------------- tracer


def test_traced_child_counts_every_layer(tmp_path):
    w = small("short-garch")
    (tmp_path / "input.csv").write_text(workloads.input_csv(w))
    record, _ = run.run_child(tmp_path, "t", w, w.cli_args(tmp_path / "input.csv", tmp_path / "out", 5), True,
                              timeout=60)
    assert record is not None and record["exit_code"] == 0
    assert record["probe_s"] == []  # a traced child is not probed
    trace = record["trace"]
    layers = trace["layers"]
    assert trace["absent"] == []
    p = len(w.param_names)
    assert layers["model.target"]["count"] == 1 + (w.burn_in + w.initial_pool) * p + 1 + w.samples
    assert layers["sampler.mh_step"]["count"] == w.samples
    assert layers["proposal.draw"]["count"] == w.samples
    assert layers["proposal.build_proposal"]["count"] == 1 + w.samples // w.update_interval
    assert trace["counts"]["data_rows"] == w.n_returns
    assert trace["counts"]["moment_rows"] == sum(
        w.initial_pool + k * w.update_interval for k in range(w.samples // w.update_interval + 1))
    assert layers["cli._atomic_write"]["count"] == 2  # summary.json and summary.txt
    for stats in layers.values():
        assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    imports = run.import_times(tmp_path / "t.stderr")
    assert all(imports[m] > 0 for m in run.IMPORT_LAYERS.values())


def test_fit_s_is_rescaled_by_the_probes():
    nominal = run.PROBE_NOMINAL_S
    at_nominal = [{"fit_s": 3.0 + 2 * nominal, "probe_s": [nominal, nominal]},
                  {"fit_s": 5.0 + nominal, "probe_s": [nominal]}]
    assert run.scaled_fit_s(at_nominal) == pytest.approx(4.0)
    # The same fits on a machine running at half speed take twice as long.
    slow = [{"fit_s": 2 * r["fit_s"], "probe_s": [2 * t for t in r["probe_s"]]} for r in at_nominal]
    assert run.scaled_fit_s(slow) == pytest.approx(4.0)
    assert run.scaled_fit_s([{"fit_s": 1.0, "probe_s": []}]) is None


def test_untraced_child_is_probed_during_the_fit(tmp_path):
    from dataclasses import replace

    w = replace(small("short-garch"), samples=8000)  # a fit of about a second
    (tmp_path / "input.csv").write_text(workloads.input_csv(w))
    record, wall = run.run_child(tmp_path, "u", w, w.cli_args(tmp_path / "input.csv", tmp_path / "out", 5), False,
                                 timeout=60)
    assert record is not None and record["exit_code"] == 0 and record["trace"] is None
    assert len(record["probe_s"]) >= int(record["fit_s"] / 0.2) - 1
    assert 0 < run.net_fit_s(record) < record["fit_s"] < wall


def test_missing_layer_is_reported_absent():
    tracer = Tracer()
    tracer._patch("sampler.gone", "garchmc.sampler", "no_such_function")
    assert tracer.absent == ["sampler.gone"]


# ----------------------------------------------------------------- contract


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-garch", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
