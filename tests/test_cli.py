import csv
import dataclasses
import json

import numpy as np
import pytest

from garchmc import (
    ChainConfig,
    ModelKind,
    ModelParams,
    MomentSnapshot,
    NonConvergenceError,
    ParamSummary,
    load_returns,
    news_impact_curve,
)
from garchmc.cli import _build_parser, main

RUN_FLAGS = [
    "--burn-in", "300",
    "--initial-pool", "200",
    "--update-interval", "100",
    "--samples", "600",
    "--seed", "5",
]


def simulate_file(tmp_path, name="returns.csv", seed=100, n=400):
    path = tmp_path / name
    code = main([
        "simulate",
        "--omega", "0.06219", "--alpha", "0.07872", "--beta", "0.89390", "--gamma", "-0.12403",
        "--n", str(n), "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def run_dir(tmp_path, input_path, out_name="out", extra=()):
    out = tmp_path / out_name
    code = main([
        "run",
        "--input", str(input_path),
        "--input-kind", "returns",
        "--out-dir", str(out),
        *RUN_FLAGS,
        *extra,
    ])
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) for c in row] for row in rows[1:]]


def test_simulate_writes_requested_count(tmp_path):
    path = simulate_file(tmp_path, n=137)
    returns = load_returns(path)
    assert len(returns) == 137


def test_simulate_deterministic(tmp_path):
    a = simulate_file(tmp_path, name="a.csv", seed=3)
    b = simulate_file(tmp_path, name="b.csv", seed=3)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_zero_length(tmp_path, capsys):
    code = main(["simulate", "--omega", "0.1", "--alpha", "0.1", "--beta", "0.8",
                 "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err


def test_simulate_rejects_off_support(tmp_path):
    code = main(["simulate", "--omega", "0.1", "--alpha", "0.6", "--beta", "0.6",
                 "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_simulate_negative_seed_is_data_error(tmp_path, capsys):
    out = tmp_path / "returns.csv"
    code = main(["simulate", "--omega", "0.1", "--alpha", "0.1", "--beta", "0.8", "--n", "10",
                 "--seed", "-1", "--out", str(out)])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err
    assert not out.exists()


def test_run_emits_all_output_files(tmp_path):
    out = run_dir(tmp_path, simulate_file(tmp_path))
    for name in ("samples.csv", "summary.json", "summary.txt", "acf.csv",
                 "acceptance.csv", "moments.json", "nic.csv"):
        assert (out / name).exists(), name

    header, rows = read_csv(out / "samples.csv")
    assert header == ["omega", "alpha", "beta", "gamma"]
    assert len(rows) == 600

    header, rows = read_csv(out / "acf.csv")
    assert header == ["lag", "omega", "alpha", "beta", "gamma"]
    assert len(rows) == 201 and rows[0][1:] == [1.0, 1.0, 1.0, 1.0]

    header, rows = read_csv(out / "acceptance.csv")
    assert header == ["window", "acceptance"]
    assert len(rows) == 6
    assert all(0.0 <= r[1] <= 1.0 for r in rows)

    moments = json.loads((out / "moments.json").read_text())
    assert moments["nu"] == 10.0
    assert [snap["t"] for snap in moments["snapshots"]] == [0, 100, 200, 300, 400, 500, 600]
    assert np.asarray(moments["snapshots"][0]["second_central"]).shape == (4, 4)
    snapshot_fields = [f.name for f in dataclasses.fields(MomentSnapshot)]
    assert all(list(snap) == snapshot_fields for snap in moments["snapshots"])

    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_samples"] == 600
    assert set(summary["parameters"]) == {"omega", "alpha", "beta", "gamma"}
    summary_fields = [f.name for f in dataclasses.fields(ParamSummary)]
    assert all(list(block) == summary_fields for block in summary["parameters"].values())


def test_run_missing_input_names_path(tmp_path, capsys):
    code = main(["run", "--input", str(tmp_path / "nope.csv"), "--input-kind", "returns",
                 "--out-dir", str(tmp_path / "out"), *RUN_FLAGS])
    assert code == 3
    assert "nope.csv" in capsys.readouterr().err


def test_run_deterministic_byte_identical(tmp_path):
    data = simulate_file(tmp_path)
    a = run_dir(tmp_path, data, out_name="a")
    b = run_dir(tmp_path, data, out_name="b")
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_run_csv_numbers_round_trip(tmp_path):
    out = run_dir(tmp_path, simulate_file(tmp_path))
    _, rows = read_csv(out / "samples.csv")
    for row in rows[:50]:
        for value in row:
            assert float(format(value, ".17g")) == value


def test_summary_txt_matches_json_exactly(tmp_path):
    out = run_dir(tmp_path, simulate_file(tmp_path))
    params = json.loads((out / "summary.json").read_text())["parameters"]
    lines = (out / "summary.txt").read_text().splitlines()
    for name, stats in params.items():
        row = next(line for line in lines if line.startswith(name))
        cells = row.split()
        assert float(cells[1]) == stats["mean"]
        assert float(cells[2]) == stats["sd"]
        assert float(cells[3]) == stats["jackknife_se"]
        assert float(cells[4]) == stats["two_tau_int"]
        assert float(cells[5]) == stats["two_tau_int_error"]


def test_run_prices_input_with_named_column(tmp_path):
    rng = np.random.default_rng(44)
    prices = 100.0 * np.exp(rng.normal(0.0, 0.01, 401).cumsum())
    path = tmp_path / "prices.csv"
    with open(path, "w") as fh:
        fh.write("date,close\n")
        for i, p in enumerate(prices):
            fh.write(f"2001-{i},{float(p)!r}\n")
    out = tmp_path / "out"
    code = main(["run", "--input", str(path), "--input-kind", "prices", "--column", "close",
                 "--out-dir", str(out), *RUN_FLAGS])
    assert code == 0
    _, rows = read_csv(out / "samples.csv")
    assert len(rows) == 600


def test_run_garch_model_flag(tmp_path):
    out = run_dir(tmp_path, simulate_file(tmp_path), extra=("--model", "garch"))
    header, _ = read_csv(out / "samples.csv")
    assert header == ["omega", "alpha", "beta"]


def test_run_freeze_after_flag_stops_proposal_updates(tmp_path):
    out = run_dir(tmp_path, simulate_file(tmp_path), extra=("--freeze-after", "300"))
    snaps = json.loads((out / "moments.json").read_text())["snapshots"]
    frozen = [s["proposal_sigma"] for s in snaps if s["t"] >= 300]
    assert len(frozen) >= 2
    for sigma in frozen[1:]:
        assert sigma == frozen[0]


def test_nic_csv_matches_posterior_mean_curve(tmp_path):
    out = run_dir(tmp_path, simulate_file(tmp_path), extra=("--nic-min", "-2", "--nic-max", "2", "--nic-points", "41"))
    _, rows = read_csv(out / "nic.csv")
    assert len(rows) == 41
    summary = json.loads((out / "summary.json").read_text())["parameters"]
    params = ModelParams(
        summary["omega"]["mean"], summary["alpha"]["mean"],
        summary["beta"]["mean"], summary["gamma"]["mean"], ModelKind.QGARCH,
    )
    curve = news_impact_curve(params, [row[0] for row in rows])
    np.testing.assert_allclose([row[1] for row in rows], curve[:, 1], rtol=1e-15)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["run", "--input-kind", "returns"])  # missing required flags
    assert err.value.code == 2


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import garchmc.cli as cli
    from garchmc import DegenerateCovarianceError

    def boom(config, returns):
        raise DegenerateCovarianceError("covariance collapsed")

    monkeypatch.setattr(cli, "run_adaptive", boom)
    code = main(["run", "--input", str(simulate_file(tmp_path)), "--input-kind", "returns",
                 "--out-dir", str(tmp_path / "out"), *RUN_FLAGS])
    assert code == 4
    assert "DegenerateCovarianceError" in capsys.readouterr().err


def test_bad_nic_grid_is_data_error(tmp_path, capsys):
    data = simulate_file(tmp_path)
    code = main(["run", "--input", str(data), "--input-kind", "returns",
                 "--out-dir", str(tmp_path / "o"), "--nic-min", "3", "--nic-max", "-3", *RUN_FLAGS])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err


def test_too_few_samples_is_data_error_before_the_fit(tmp_path, capsys, monkeypatch):
    import garchmc.cli as cli

    def never(config, returns):
        raise AssertionError("run_adaptive called")

    monkeypatch.setattr(cli, "run_adaptive", never)
    out = tmp_path / "o"
    code = main(["run", "--input", str(simulate_file(tmp_path)), "--input-kind", "returns",
                 "--out-dir", str(out), *RUN_FLAGS, "--samples", "1"])
    assert code == 3
    assert "--samples >= 100" in capsys.readouterr().err
    assert not out.exists()


def test_run_flag_defaults_are_chain_config_defaults():
    args = _build_parser().parse_args(["run", "--input", "x", "--out-dir", "y"])
    config = ChainConfig()
    flags = (args.burn_in, args.initial_pool, args.update_interval, args.samples, args.nu, args.seed)
    fields = (config.burn_in, config.initial_pool, config.update_interval, config.total_samples, config.nu, config.seed)
    assert flags == fields
    assert ModelKind(args.model) is config.kind


@pytest.mark.parametrize("flags", [
    ("--nu", "inf"),
    ("--nic-points", "1"),
    ("--nic-min", "3", "--nic-max", "-3"),
    ("--sigma1-sq", "inf"),
    ("--sigma1-sq", "0"),
    ("--freeze-after", "-1"),
    ("--seed", "-1"),
    ("--initial-pool", "1"),
], ids=["infinite-nu", "one-nic-point", "reversed-nic-grid", "infinite-sigma1-sq", "zero-sigma1-sq",
        "negative-freeze-after", "negative-seed", "one-state-pool"])
def test_bad_run_flags_are_data_errors_before_the_input_is_read(tmp_path, capsys, flags):
    out = tmp_path / "o"
    code = main(["run", "--input", str(tmp_path / "never-read.csv"), "--input-kind", "returns",
                 "--out-dir", str(out), *RUN_FLAGS, *flags])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err  # a read attempt would raise FileNotFoundError
    assert not out.exists()


def test_diagnostics_failure_keeps_the_chain(tmp_path, capsys, monkeypatch):
    import garchmc.cli as cli

    def fail(result, returns):
        raise NonConvergenceError("tau_int did not settle")

    monkeypatch.setattr(cli.diagnostics, "summarize", fail)
    out = tmp_path / "out"
    code = main(["run", "--input", str(simulate_file(tmp_path)), "--input-kind", "returns",
                 "--out-dir", str(out), *RUN_FLAGS])
    assert code == 4
    assert "NonConvergenceError" in capsys.readouterr().err
    _, rows = read_csv(out / "samples.csv")
    assert len(rows) == 600
    assert (out / "acceptance.csv").exists() and (out / "moments.json").exists()
    assert not (out / "summary.json").exists()


def test_flat_prices_need_an_explicit_initial_variance(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("close\n100\n100\n100\n100\n")
    code = main(["run", "--input", str(path), "--column", "close", "--out-dir", str(tmp_path / "o"), *RUN_FLAGS])
    assert code == 3
    assert "--sigma1-sq" in capsys.readouterr().err
