"""Acceptance suite.

Every test prints one pass/fail line (run with `pytest -s` to see them
on success).  Criteria 1-4 share one full-scale chain run against
synthetic data generated from a QGARCH fit typical of daily equity-index
returns; the remaining criteria are self-contained oracles.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

import garchmc as g
from garchmc.cli import write_news_impact_csv

import reference

REFERENCE_FITS = {name: g.ModelParams(*fit) for name, fit in reference.FITS.items()}

TRUE = REFERENCE_FITS["nikkei225"]
DATA_SEED = 2024
CHAIN_SEED = 7
N_OBS = 2700


def check(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} {status}: {description}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


@dataclass
class RunBundle:
    returns: g.ReturnSeries
    result: g.ChainResult
    report: g.SummaryReport


def _full_run(freeze_after=None) -> RunBundle:
    returns = g.simulate_qgarch(TRUE, N_OBS, g.unconditional_variance(TRUE), seed=DATA_SEED)
    config = g.ChainConfig(
        kind=g.ModelKind.QGARCH,
        burn_in=5000,
        initial_pool=1000,
        update_interval=1000,
        total_samples=100_000,
        nu=10.0,
        seed=CHAIN_SEED,
        freeze_after=freeze_after,
    )
    result = g.run_adaptive(config, returns)
    return RunBundle(returns=returns, result=result, report=g.summarize(result, returns))


@pytest.fixture(scope="module")
def main_run() -> RunBundle:
    return _full_run()


@pytest.fixture(scope="module")
def frozen_run() -> RunBundle:
    return _full_run(freeze_after=50_000)


def test_criterion_1_parameter_recovery(main_run):
    truth = {"omega": TRUE.omega, "alpha": TRUE.alpha, "beta": TRUE.beta, "gamma": TRUE.gamma}
    zs = {}
    for name, summary in main_run.report.params.items():
        zs[name] = abs(summary.mean - truth[name]) / summary.sd
    ok = all(z <= 3.0 for z in zs.values()) and main_run.report.params["gamma"].mean < 0.0
    detail = " ".join(f"{k}:z={v:.2f}" for k, v in zs.items())
    check(1, "posterior means within 3 SD of generating values, gamma negative", ok, detail)


def test_criterion_2_autocorrelation_efficiency(main_run):
    two_taus = {name: s.two_tau_int for name, s in main_run.report.params.items()}
    ok = all(t < 5.0 for t in two_taus.values())

    perm = np.random.default_rng(99).permutation(main_run.result.samples.shape[0])
    shuffled_ok = True
    shuffled = {}
    for j, name in enumerate(main_run.result.param_names):
        tau, _ = g.integrated_autocorr_time(main_run.result.samples[perm, j])
        shuffled[name] = 2.0 * tau
        shuffled_ok &= 0.8 <= 2.0 * tau <= 1.2
    detail = " ".join(f"{k}:{v:.2f}/shuf {shuffled[k]:.2f}" for k, v in two_taus.items())
    check(2, "2*tau_int < 5 per parameter and ~1 after shuffling", ok and shuffled_ok, detail)


def test_criterion_3_acceptance_plateau(main_run, frozen_run):
    trace = main_run.result.acceptance_trace
    plateau = trace[-10:].mean()
    frozen_plateau = frozen_run.result.acceptance_trace[-10:].mean()
    rises = trace[0] < plateau
    ok = rises and plateau > 0.6 and frozen_plateau > 0.6

    # The proposal moments settle: the last two snapshots agree per entry
    # on the correlation scale.
    last, prev = main_run.result.moment_trace[-1], main_run.result.moment_trace[-2]
    scale = np.sqrt(np.outer(np.diag(last.second_central), np.diag(last.second_central)))
    drift = float(np.max(np.abs(last.second_central - prev.second_central) / scale))
    ok = ok and drift < 0.05
    detail = f"first={trace[0]:.3f} plateau={plateau:.3f} frozen={frozen_plateau:.3f} V-drift={drift:.4f}"
    check(3, "acceptance rises to a plateau above 0.6 that survives freezing", ok, detail)


def test_criterion_4_se_consistency(main_run):
    ratios = {name: s.se_consistency for name, s in main_run.report.params.items()}
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    detail = " ".join(f"{k}:{v:.2f}" for k, v in ratios.items())
    check(4, "jackknife SE within factor 2 of sqrt(2 tau_int / N) * SD", ok, detail)


def test_criterion_5_proposal_correctness():
    chol_seed = np.array([
        [1.10, 0.00, 0.00, 0.00],
        [-1.11, 1.18, 0.00, 0.00],
        [-1.06, 0.53, 0.97, 0.00],
        [-1.10, 0.34, 0.29, 1.06],
    ])
    v = chol_seed @ chol_seed.T  # dense, well-conditioned, no small entries
    mean = np.array([0.5, -1.0, 2.0, 0.0])
    nu = 10.0
    prop = g.build_proposal(g.MomentEstimate(mean, v), nu)
    rng = np.random.default_rng(5)
    draws = np.array([prop.draw(rng)[0] for _ in range(100_000)])

    expected_cov = nu / (nu - 2.0) * prop.sigma
    emp_cov = np.cov(draws, rowvar=False, ddof=1)
    cov_err = float(np.max(np.abs(emp_cov - expected_cov) / np.abs(expected_cov)))
    se = np.sqrt(np.diag(expected_cov) / draws.shape[0])
    mean_z = float(np.max(np.abs(draws.mean(axis=0) - mean) / se))

    one_d = g.build_proposal(g.MomentEstimate(np.zeros(1), np.array([[1.25]])), nu)
    total, _ = quad(lambda x: math.exp(one_d.log_density(np.array([x]))), -50.0, 50.0,
                    epsabs=1e-12, limit=200)
    quad_err = abs(total - 1.0)

    ok = mean_z <= 3.0 and cov_err <= 0.05 and quad_err <= 1e-6
    check(5, "t-proposal draws match (M, nu/(nu-2) Sigma); density integrates to 1",
          ok, f"mean_z={mean_z:.2f} cov_err={cov_err:.4f} quad_err={quad_err:.2e}")


def test_criterion_6_mh_correctness_oracle():
    mu, cov, target = reference.gaussian_2d()
    prop = g.build_proposal(g.MomentEstimate(np.array([0.9, -1.9]), 1.3 * cov), nu=8.0)
    rng = np.random.default_rng(11)
    x = mu.copy()
    lt, lg = target(x), prop.log_density(x)
    chain = np.empty((100_000, 2))
    for i in range(chain.shape[0]):
        x, _, lt, lg = g.mh_step(target, prop, x, rng,
                                 current_log_target=lt, current_log_proposal=lg)
        chain[i] = x

    zs = []
    for j in range(2):
        tau, _ = g.integrated_autocorr_time(chain[:, j])
        se = math.sqrt(2.0 * tau / chain.shape[0]) * chain[:, j].std(ddof=1)
        zs.append(abs(chain[:, j].mean() - mu[j]) / se)
    emp = np.cov(chain, rowvar=False, ddof=1)
    cov_err = float(np.max(np.abs(emp - cov) / np.abs(cov)))
    ok = max(zs) <= 3.0 and cov_err <= 0.10
    check(6, "independence MH recovers a known 2-D Gaussian target",
          ok, f"mean_z={max(zs):.2f} cov_err={cov_err:.4f}")


def test_criterion_7_likelihood_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        theta = reference.support_point(rng)
        params = g.ModelParams(*theta)
        y = rng.standard_normal(int(rng.integers(5, 60))) * rng.uniform(0.5, 2.0)
        s1 = rng.uniform(0.2, 3.0)
        got = g.log_likelihood(params, g.ReturnSeries(y), s1)
        (want,), _ = reference.log_likelihood([theta], y, s1)
        worst = max(worst, abs(got - want) / abs(want))
    check(7, "log-likelihood matches direct summation to 1e-12 relative",
          worst <= 1e-12, f"worst rel err={worst:.2e}")


def test_criterion_8_news_impact_curve(tmp_path):
    grid = np.linspace(-5.0, 5.0, 201)
    asymmetry_ok = True
    for name, params in REFERENCE_FITS.items():
        path = tmp_path / f"nic_{name}.csv"
        write_news_impact_csv(path, params, grid)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        y = np.array([float(r[0]) for r in rows])
        sig = np.array([float(r[1]) for r in rows])
        # index mirroring pairs -|y| with +|y| on the symmetric grid
        half = y.size // 2
        asymmetry_ok &= bool(np.all(sig[:half] > sig[::-1][:half]))

    nik = tmp_path / "nic_nikkei225.csv"
    rows = [line.split(",") for line in nik.read_text().splitlines()[1:]]
    y = np.array([float(r[0]) for r in rows])
    sig = np.array([float(r[1]) for r in rows])
    at_minus_1 = float(sig[np.argmin(np.abs(y + 1.0))])
    at_plus_1 = float(sig[np.argmin(np.abs(y - 1.0))])
    values_ok = abs(at_minus_1 - 2.295) <= 1e-3 and abs(at_plus_1 - 2.047) <= 1e-3
    ok = asymmetry_ok and values_ok
    check(8, "emitted news impact curves show the leverage asymmetry",
          ok, f"sigma2(-1)={at_minus_1:.4f} sigma2(+1)={at_plus_1:.4f}")


def test_criterion_9_diagnostics_oracles():
    rho = 0.5
    x = reference.ar1(100_000, rho, seed=1234)

    acf_vals = g.acf(x, 5)
    acf_err = max(abs(acf_vals[t] - rho**t) for t in range(1, 6))
    tau, _ = g.integrated_autocorr_time(x)
    # analytic: tau = 1/2 + rho/(1-rho) = 1.5, so 2 tau = 3
    tau_err = abs(2.0 * tau - 3.0) / 3.0
    ok = acf_err < 0.02 and tau_err < 0.10
    check(9, "AR(1) ACF matches rho^t and 2*tau_int matches 3",
          ok, f"acf_err={acf_err:.4f} 2tau={2 * tau:.3f}")


def test_criterion_10_efficiency_against_random_walk(monkeypatch):
    # The paper's claim: at equal target calls, the adaptive chain's min ESS
    # far exceeds that of a component-wise random-walk Metropolis whose steps
    # are tuned over the same discarded sweeps as the warm-up.
    returns = g.simulate_qgarch(TRUE, 300, g.unconditional_variance(TRUE), seed=1)
    config = g.ChainConfig(kind=g.ModelKind.QGARCH, burn_in=1000, initial_pool=500, update_interval=500,
                           total_samples=20_000, seed=1)
    calls = 0
    posterior = g.model.log_posterior_fn

    def counted(*args):
        target = posterior(*args)

        def call(theta):
            nonlocal calls
            calls += 1
            return target(theta)

        return call

    warmup = g.sampler.metropolis_warmup
    starts = []

    def recorded(target, theta0, *args):
        starts.append(theta0)
        return warmup(target, theta0, *args)

    monkeypatch.setattr(g.model, "log_posterior_fn", counted)
    monkeypatch.setattr(g.sampler, "metropolis_warmup", recorded)
    imh = g.run_adaptive(config, returns).samples
    imh_calls = calls
    # The random walk starts where the warm-up did.
    walk = reference.random_walk_metropolis(counted(returns, g.ModelKind.QGARCH), starts[0], imh_calls,
                                            config.burn_in, np.random.default_rng(config.seed))
    walk_calls = calls - imh_calls

    def min_ess(samples):
        return min(samples.shape[0] / (2.0 * g.integrated_autocorr_time(column)[0]) for column in samples.T)

    imh_ess, walk_ess = min_ess(imh), min_ess(walk)
    ratio = imh_ess / walk_ess
    ok = walk_calls == imh_calls and ratio >= 10.0
    check(10, "adaptive IMH min ESS at least 10x a random-walk Metropolis at equal target calls", ok,
          f"calls={imh_calls}/{walk_calls} min_ess={imh_ess:.0f}/{walk_ess:.0f} ratio={ratio:.1f}")
