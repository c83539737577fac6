import contextlib
import csv
import dataclasses
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import garchmc.cli as cli
import garchmc.sampler as sampler
from garchmc import (
    ChainConfig,
    ChainResult,
    DegenerateCovarianceError,
    DomainError,
    ModelKind,
    ModelParams,
    MomentSnapshot,
    NonConvergenceError,
    ParamSummary,
    load_returns,
    news_impact_curve,
)

import reference

RUN_FLAGS = [
    "--burn-in", "300",
    "--initial-pool", "200",
    "--update-interval", "100",
    "--samples", "600",
    "--seed", "5",
]
REPORT_FILES = ("samples.csv", "summary.json", "summary.txt", "acf.csv", "acceptance.csv", "moments.json", "nic.csv")


def simulate_file(tmp_path, name="returns.csv", seed=100, n=400):
    path = tmp_path / name
    omega, alpha, beta, gamma = map(str, reference.FITS["nikkei225"])
    code = cli.main([
        "simulate", "--omega", omega, "--alpha", alpha, "--beta", beta, "--gamma", gamma,
        "--n", str(n), "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def call(*argv):
    """`garchmc <argv>` through `cli.main`: its exit status and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def run(tmp_path, *flags):
    """`garchmc run` on `simulate_file(tmp_path)` into `tmp_path / "o"` with `RUN_FLAGS`, then `flags`.

    A repeated flag takes its last value, so `flags` may name another
    input or out-dir.  Returns the exit status, stderr and the out-dir.
    """
    out = tmp_path / "o"
    code, err = call("run", "--input", str(simulate_file(tmp_path)), "--input-kind", "returns",
                     "--out-dir", str(out), *RUN_FLAGS, *flags)
    return code, err, out


def run_dir(tmp_path, *flags):
    """`run` that must succeed; returns its out-dir."""
    code, err, out = run(tmp_path, *flags)
    assert code == 0, err
    return out


def refuse(what):
    """A stand-in for `what` that fails the test if it is called."""

    def never(*args):
        raise AssertionError(f"{what} ran")

    return never


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


@pytest.mark.parametrize("flags, message", [
    (("--n", "0"), "DomainError"),
    (("--alpha", "0.6", "--beta", "0.6"), "DomainError: parameters outside the model support"),
    (("--omega", "0.06", "--alpha", "0.07", "--beta", "0.89", "--n", "50", "--sigma1-sq", "1.7e308", "--seed", "3"),
     "DomainError: the variance path overflows a float from initial variance 1.7e+308"),
    (("--seed", "-1"), "DomainError"),
    # beta = 0 and gamma^2 = 4 alpha omega: the variance's double root rounds below zero.
    (("--omega", "0.5468755603901019", "--alpha", "0.3366327592946544", "--beta", "0", "--gamma", "-0.8581287290026606",
      "--n", "3", "--seed", "0", "--sigma1-sq", "102.76678734294858"),
     "DomainError: conditional variance at step 2 rounds below zero"),
    (("--n", str(10**15)), f"DomainError: n = {10**15} needs {8 * 10**15} bytes"),
    (("--n", str(2**63)), f"DomainError: n = {2**63} needs {8 * 2**63} bytes"),
], ids=["zero-length", "off-support", "variance-overflow", "negative-seed", "below-zero-on-the-boundary",
        "too-many-to-hold", "past-numpy-index"])
def test_simulate_data_error_writes_no_file(tmp_path, flags, message):
    # Each case's flags replace those of a valid 10-step GARCH series.
    out = tmp_path / "returns.csv"
    code, err = call("simulate", "--omega", "0.1", "--alpha", "0.1", "--beta", "0.8", "--n", "10", *flags,
                     "--out", str(out))
    assert code == 3
    assert message in err
    assert not out.exists()


def test_simulate_stationary_variance_overflow_names_the_ratio(tmp_path):
    # No --sigma1-sq: the default omega / (1 - alpha - beta) is past the largest float.
    out = tmp_path / "sim" / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = call("simulate", "--omega", "1e307", "--alpha", "0.5", "--beta", "0.49", "--n", "5",
                         "--out", str(out))
    assert not caught
    assert code == 3
    assert "DomainError: stationary variance omega / (1 - alpha - beta) = 1e+307 / 0.01" in err
    assert "initial variance" not in err
    assert not out.parent.exists()


def test_run_emits_all_output_files(tmp_path):
    out = run_dir(tmp_path)
    # Exactly the report files: every temporary file was renamed into place.
    assert sorted(path.name for path in out.iterdir()) == sorted(REPORT_FILES)

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


def test_run_missing_input_names_path(tmp_path):
    code, err, _ = run(tmp_path, "--input", str(tmp_path / "nope.csv"))
    assert code == 3
    assert "nope.csv" in err


def test_run_deterministic_byte_identical(tmp_path):
    a = run_dir(tmp_path / "a")
    b = run_dir(tmp_path / "b")
    for name in REPORT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_csv_numbers_round_trip(tmp_path):
    out = run_dir(tmp_path)
    _, rows = read_csv(out / "samples.csv")
    for row in rows[:50]:
        for value in row:
            assert float(format(value, ".17g")) == value


def test_summary_txt_matches_json_exactly(tmp_path):
    out = run_dir(tmp_path)
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
    out = run_dir(tmp_path, "--input", str(path), "--input-kind", "prices", "--column", "close")
    _, rows = read_csv(out / "samples.csv")
    assert len(rows) == 600


def test_run_garch_model_flag(tmp_path):
    out = run_dir(tmp_path, "--model", "garch")
    header, _ = read_csv(out / "samples.csv")
    assert header == ["omega", "alpha", "beta"]


def test_run_freeze_after_flag_stops_proposal_updates(tmp_path):
    out = run_dir(tmp_path, "--freeze-after", "300")
    snaps = json.loads((out / "moments.json").read_text())["snapshots"]
    frozen = [s["proposal_sigma"] for s in snaps if s["t"] >= 300]
    assert len(frozen) >= 2
    for sigma in frozen[1:]:
        assert sigma == frozen[0]


def test_nic_csv_matches_posterior_mean_curve(tmp_path):
    out = run_dir(tmp_path, "--nic-min", "-2", "--nic-max", "2", "--nic-points", "41")
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
        cli.main(["run", "--input-kind", "returns"])  # missing required flags
    assert err.value.code == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(config, returns):
        raise DegenerateCovarianceError("covariance collapsed")

    monkeypatch.setattr(cli, "run_adaptive", boom)
    code, err, _ = run(tmp_path)
    assert code == 4
    assert "DegenerateCovarianceError" in err


def test_collinear_warm_up_is_a_numerical_failure(tmp_path, monkeypatch):
    def stuck(target, theta0, n_keep, n_discard, rng):
        return np.tile(theta0, (n_keep, 1))

    # Into a new out-dir, and into one that holds an earlier run's report.
    earlier = run_dir(tmp_path / "again")
    before = {path.name: path.read_bytes() for path in earlier.iterdir()}
    monkeypatch.setattr(sampler, "metropolis_warmup", stuck)
    for base in (tmp_path / "new", tmp_path / "again"):
        code, err, _ = run(base)
        assert code == 4
        assert "DegenerateCovarianceError: covariance is not positive definite" in err
        assert "Traceback" not in err
    assert not (tmp_path / "new" / "o").exists()
    # A run that fails before its first write leaves the out-dir as it was.
    assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before


def test_moments_that_overflow_are_a_numerical_failure(tmp_path):
    # The squares of the returns sum to a finite ~3e306, but the warm-up
    # settles at omega ~ 1e303, whose squared deviations overflow the
    # proposal's covariance.
    data = tmp_path / "huge.csv"
    values = np.random.default_rng(3).standard_normal(300) * 1e152
    data.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, out = run(tmp_path, "--input", str(data))
    assert code == 4
    assert "DegenerateCovarianceError: moments are not finite" in err
    assert not caught
    assert not out.exists()


def test_write_csv_golden_bytes(tmp_path):
    # Each cell is "%.17g", which differs from repr for most of these; a
    # round-trip test cannot see the difference.
    rows = np.array([
        [0.1, 1e-300, -2.5e17],
        [1.0 / 3.0, 5e-324, -0.0],
        [1.0, 2.0**53 + 2.0, 123456789.125],
    ])
    expected = (
        b"a,b,c\n"
        b"0.10000000000000001,1e-300,-2.5e+17\n"
        b"0.33333333333333331,4.9406564584124654e-324,-0\n"
        b"1,9007199254740994,123456789.125\n"
    )
    cli._write_csv(tmp_path / "array.csv", ("a", "b", "c"), rows)
    assert (tmp_path / "array.csv").read_bytes() == expected
    # An integer-valued index column prints as integers, as acceptance.csv's
    # windows and acf.csv's lags do; a NaN cell prints as acf.csv's
    # never-moved column does.
    indexed = np.column_stack([np.arange(1, 3), [0.1, np.nan]])
    cli._write_csv(tmp_path / "indexed.csv", ("window", "acceptance"), indexed)
    assert (tmp_path / "indexed.csv").read_bytes() == b"window,acceptance\n1,0.10000000000000001\n2,nan\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_csv_streams_rows(tmp_path):
    # A writer that builds the file text in memory peaks above the file's
    # size, three times this bound.  20k rows, not more: the writer runs
    # several times slower under tracemalloc.
    bound = 2**19
    table = np.random.default_rng(0).standard_normal((20_000, 4))
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "big.csv", ("a", "b", "c", "d"), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert (tmp_path / "big.csv").stat().st_size > 3 * bound
    assert (tmp_path / "big.csv").read_bytes().count(b"\n") == 20_001


def test_write_moments_json_streams_snapshots(tmp_path):
    # 1000 snapshots, as many as a 100k-draw run refitting every 100 draws
    # leaves: their indented JSON is 1.4 MB, and a writer that builds it as
    # one string peaks at ~6 MB, far above this bound.
    bound = 2**19
    rng = np.random.default_rng(0)
    snapshots = [
        MomentSnapshot(t, rng.standard_normal(4), rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        for t in range(100, 100_001, 100)
    ]
    result = ChainResult(np.empty((0, 4)), ("omega", "alpha", "beta", "gamma"), np.empty(0), snapshots)
    tracemalloc.start()
    try:
        cli._write_moments_json(tmp_path / "moments.json", result, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    payload = {"nu": 10.0, "snapshots": [vars(s) for s in snapshots]}
    want = json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
    assert (tmp_path / "moments.json").read_bytes() == want.encode()


@pytest.mark.parametrize("shape", [
    (0, 3),
    (1, 1),
    (cli._CSV_BLOCK_ROWS - 1, 4),
    (cli._CSV_BLOCK_ROWS, 4),
    (cli._CSV_BLOCK_ROWS + 1, 4),
    (2 * cli._CSV_BLOCK_ROWS + 7, 3),
])
def test_write_csv_block_bytes_equal_savetxt(tmp_path, shape):
    # The writer formats whole blocks of rows at once; each block boundary
    # and the last partial block must give np.savetxt's bytes.
    table = np.random.default_rng(shape[0]).standard_normal(shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 3.0, -12.0]
    flat = table.reshape(-1)
    k = min(len(special), flat.size)
    flat[:k] = special[:k]
    flat[flat.size - k :] = special[::-1][:k]
    header = [f"c{j}" for j in range(shape[1])]
    np.savetxt(tmp_path / "want.csv", table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    cli._write_csv(tmp_path / "got.csv", header, table)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_too_few_samples_is_data_error_before_the_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_adaptive", refuse("run_adaptive"))
    code, err, out = run(tmp_path, "--samples", "1")
    assert code == 3
    assert "--samples >= 100" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, pool, total", [
    (("--samples", str(10**17)), 200, 10**17),
    (("--initial-pool", str(10**15)), 10**15, 600),
], ids=["samples", "initial-pool"])
def test_store_too_large_to_hold_is_a_data_error_before_the_warm_up(tmp_path, monkeypatch, flags, pool, total):
    monkeypatch.setattr(sampler, "metropolis_warmup", refuse("the warm-up"))
    code, err, out = run(tmp_path, *flags)
    assert code == 3
    assert f"DomainError: initial_pool = {pool} plus total_samples = {total} needs {32 * (pool + total)} bytes" in err
    assert not out.exists()


def run_config(monkeypatch, tmp_path, *flags):
    """The `ChainConfig` that `garchmc run` hands to the sampler for `flags`."""
    seen = []

    def stop(config, returns):
        seen.append(config)
        raise DomainError("stop after the config is built")

    monkeypatch.setattr(cli, "run_adaptive", stop)
    code, _ = call("run", "--input", str(simulate_file(tmp_path)), "--input-kind", "returns",
                   "--out-dir", str(tmp_path / "o"), *flags)
    assert code == 3
    return seen[0]


def test_run_flag_defaults_are_chain_config_defaults(monkeypatch, tmp_path):
    args = cli._build_parser().parse_args(["run", "--input", "x", "--out-dir", "y"])
    assert {field.name for field in dataclasses.fields(ChainConfig)} <= set(vars(args))
    assert run_config(monkeypatch, tmp_path) == ChainConfig()


def test_run_flags_set_every_chain_config_field(monkeypatch, tmp_path):
    flags = {
        "--model": "garch", "--burn-in": "7", "--initial-pool": "11", "--update-interval": "13",
        "--samples": "170", "--nu": "4.5", "--seed": "19", "--sigma1-sq": "2.25", "--freeze-after": "23",
    }
    expected = ChainConfig(kind=ModelKind.GARCH, burn_in=7, initial_pool=11, update_interval=13, total_samples=170,
                           nu=4.5, seed=19, sigma1_sq=2.25, freeze_after=23)
    assert len(flags) == len(dataclasses.fields(ChainConfig))
    assert all(getattr(expected, f.name) != f.default for f in dataclasses.fields(ChainConfig))
    config = run_config(monkeypatch, tmp_path, *(item for pair in flags.items() for item in pair))
    assert config == expected
    assert config.kind is ModelKind.GARCH


@pytest.mark.parametrize("flags", [
    ("--nu", "inf"),
    ("--nu", "1e308"),
    ("--nu", "1e7"),
    ("--nic-points", "1"),
    ("--nic-min", "3", "--nic-max", "-3"),
    ("--sigma1-sq", "inf"),
    ("--sigma1-sq", "0"),
    ("--freeze-after", "-1"),
    ("--seed", "-1"),
    ("--initial-pool", "1"),
    ("--initial-pool", "4"),
    ("--model", "garch", "--initial-pool", "3"),
    ("--nic-max", "inf"),
    ("--nic-min=-inf",),
    ("--nic-min=-1e308", "--nic-max", "1e308"),
    ("--burn-in", "0"),
    ("--update-interval", "0"),
    # numpy refuses these grids outright (8 PB, and a length past its index type).
    ("--nic-points", str(10**15)),
    ("--nic-points", str(2**63)),
], ids=["infinite-nu", "overflowing-nu", "nu-above-ceiling", "one-nic-point", "reversed-nic-grid",
        "infinite-sigma1-sq", "zero-sigma1-sq", "negative-freeze-after", "negative-seed", "one-state-pool", "rank-deficient-qgarch-pool",
        "rank-deficient-garch-pool", "infinite-nic-max", "infinite-nic-min", "overflowing-nic-span",
        "no-burn-in", "no-update-interval", "nic-points-too-many-to-hold", "nic-points-past-numpy-index"])
def test_bad_run_flags_are_data_errors_before_the_input_is_read(tmp_path, flags):
    code, err, out = run(tmp_path, "--input", str(tmp_path / "never-read.csv"), *flags)
    assert code == 3
    assert "DomainError" in err  # a read attempt would raise FileNotFoundError
    assert not out.exists()


def test_out_dir_under_a_file_is_a_data_error_before_the_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_adaptive", refuse("the fit"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, err, _ = run(tmp_path, "--out-dir", str(blocker / "o"))
    assert code == 3
    assert f"{blocker} is not a writable directory" in err


@pytest.mark.parametrize("extra", [(), ("--sigma1-sq", "1")], ids=["default-sigma1-sq", "given-sigma1-sq"])
def test_returns_whose_squares_overflow_are_a_data_error(tmp_path, extra):
    data = tmp_path / "huge.csv"
    data.write_text("1e308\n-1e308\n1e308\n-1e308\n1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, _ = run(tmp_path, "--input", str(data), *extra)
    assert code == 3
    assert "DomainError: returns must have a finite sum of squares" in err
    assert not caught


def test_diagnostics_failure_keeps_the_chain(tmp_path, monkeypatch):
    def fail(result, returns):
        raise NonConvergenceError("tau_int did not settle")

    # Into a new out-dir, and into one that holds an earlier run's report.
    run_dir(tmp_path / "again")
    monkeypatch.setattr(cli.diagnostics, "summarize", fail)
    for base in (tmp_path / "new", tmp_path / "again"):
        code, err, out = run(base)
        assert code == 4
        assert "NonConvergenceError" in err
        _, rows = read_csv(out / "samples.csv")
        assert len(rows) == 600
        assert sorted(path.name for path in out.iterdir()) == ["acceptance.csv", "moments.json", "samples.csv"]


def stuck_at(point):
    """A `run_adaptive` stand-in whose chain never moves from `point`."""

    def stuck(config, returns):
        # Every candidate rejected: all draws equal the last warm-up state.
        return ChainResult(
            samples=np.tile(point, (config.total_samples, 1)),
            param_names=config.kind.param_names,
            acceptance_trace=np.zeros(config.total_samples // config.update_interval),
            moment_trace=[],
        )

    return stuck


def test_chain_that_never_moves_writes_every_report(tmp_path, monkeypatch):
    point = list(reference.FITS["nikkei225"])
    monkeypatch.setattr(cli, "run_adaptive", stuck_at(point))
    out = run_dir(tmp_path)
    # Exactly the report files: every temporary file was renamed into place.
    assert sorted(path.name for path in out.iterdir()) == sorted(REPORT_FILES)
    header, rows = read_csv(out / "acf.csv")
    assert header == ["lag", "omega", "alpha", "beta", "gamma"]
    assert len(rows) == 201 and all(np.isnan(row[1:]).all() for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert all(block["two_tau_int"] is None for block in summary["parameters"].values())
    assert [summary["parameters"][name]["mean"] for name in header[1:]] == point


def test_posterior_mean_off_the_support_fails_after_the_summary(tmp_path, monkeypatch):
    # alpha + beta = 1: no stationary variance, so no news impact curve.
    monkeypatch.setattr(cli, "run_adaptive", stuck_at([0.1, 0.5, 0.5, 0.0]))
    code, err, out = run(tmp_path)
    assert code == 3
    assert "DomainError: parameters outside the model support" in err
    assert sorted(path.name for path in out.iterdir()) == sorted(set(REPORT_FILES) - {"nic.csv"})


def test_news_impact_grid_that_overflows_fails_after_the_summary(tmp_path):
    # The grid's ends are finite, but alpha * y^2 at y = +-1e200 is not.
    # Into a new out-dir, and into one that holds an earlier run's report.
    run_dir(tmp_path / "again")
    for base in (tmp_path / "new", tmp_path / "again"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err, out = run(base, "--nic-min=-1e200", "--nic-max=1e200")
        assert not caught
        assert code == 3
        assert "DomainError: news impact curve is not finite at grid point 0, y = -1e+200" in err
        assert sorted(path.name for path in out.iterdir()) == sorted(set(REPORT_FILES) - {"nic.csv"})


def test_flat_prices_need_an_explicit_initial_variance(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("close\n100\n100\n100\n100\n")
    code, err, _ = run(tmp_path, "--input", str(path), "--input-kind", "prices", "--column", "close")
    assert code == 3
    assert "--sigma1-sq" in err
