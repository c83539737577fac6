import math

import numpy as np
import pytest

from garchmc import (
    ChainConfig,
    DomainError,
    MomentEstimate,
    ModelKind,
    ModelParams,
    build_proposal,
    metropolis_warmup,
    mh_step,
    run_adaptive,
    simulate_qgarch,
)

TRUE = ModelParams(0.06219, 0.07872, 0.89390, -0.12403, ModelKind.QGARCH)


def small_returns(seed=100, n=400):
    return simulate_qgarch(TRUE, n, 2.2714, seed=seed)


def small_config(**overrides):
    base = dict(
        kind=ModelKind.QGARCH,
        burn_in=300,
        initial_pool=200,
        update_interval=100,
        total_samples=600,
        nu=10.0,
        seed=5,
    )
    base.update(overrides)
    return ChainConfig(**base)


def test_warmup_samples_standard_normal():
    target = lambda v: -0.5 * float(v[0]) ** 2
    chain = metropolis_warmup(target, np.array([0.0]), 100_000, 2000, np.random.default_rng(3))
    assert abs(chain.mean()) < 0.05
    assert abs(chain.var() - 1.0) < 0.05


def test_warmup_accepts_when_ratio_is_one():
    # A flat target gives ratio 1 for every proposal, so nothing repeats.
    chain = metropolis_warmup(lambda v: 0.0, np.array([0.0]), 500, 0, np.random.default_rng(4))
    assert np.all(np.diff(chain[:, 0]) != 0.0)


def test_warmup_deterministic():
    target = lambda v: -0.5 * float(v @ v)
    a = metropolis_warmup(target, np.zeros(3), 200, 100, np.random.default_rng(9))
    b = metropolis_warmup(target, np.zeros(3), 200, 100, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_warmup_rejects_infinite_start():
    with pytest.raises(DomainError):
        metropolis_warmup(lambda v: -math.inf, np.zeros(2), 10, 10, np.random.default_rng(0))


def _gaussian_2d_target():
    mu = np.array([1.0, -2.0])
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    precision = np.linalg.inv(cov)

    def target(v):
        d = v - mu
        return -0.5 * float(d @ precision @ d)

    return mu, cov, target


def test_mh_step_always_accepts_when_target_equals_proposal():
    # With target == log g the MH ratio cancels to exactly one.
    prop = build_proposal(MomentEstimate(np.array([0.5, -0.5]), np.eye(2)), nu=6.0)
    rng = np.random.default_rng(21)
    x = prop.mean.copy()
    for _ in range(500):
        step = mh_step(prop.log_density, prop, x, rng)
        assert step.accepted
        x = step.theta


def test_mh_step_rejects_off_support_candidates():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=6.0)
    current = np.array([0.25, -0.125])
    target = lambda v: 0.0 if v is current else -math.inf
    rng = np.random.default_rng(22)
    x = current
    for _ in range(200):
        step = mh_step(target, prop, x, rng, current_log_target=0.0)
        assert not step.accepted
        assert step.theta is x or np.array_equal(step.theta, current)
        x = step.theta
    # rejected steps leave the state bit-identical
    np.testing.assert_array_equal(x, current)


class _StubProposal:
    """Fixed draw and densities so the accept ratio can be set by hand."""

    def __init__(self, candidate, log_g_candidate, log_g_current):
        self.candidate = np.asarray(candidate, dtype=float)
        self.log_g_candidate = log_g_candidate
        self.log_g_current = log_g_current

    def draw(self, rng):
        return self.candidate.copy()

    def log_density(self, theta):
        return self.log_g_candidate if np.array_equal(theta, self.candidate) else self.log_g_current


def test_mh_step_hand_ratio_above_one_always_accepts():
    # target ratio e^2 and proposal ratio e^-1 give acceptance e >= 1.
    stub = _StubProposal([1.0], log_g_candidate=0.5, log_g_current=-0.5)
    target = lambda v: 2.0 if v[0] == 1.0 else 0.0
    for seed in range(30):
        step = mh_step(target, stub, np.array([0.0]), np.random.default_rng(seed))
        assert step.accepted
        assert step.theta[0] == 1.0


def test_mh_step_caches_match_fresh_evaluation():
    mu, cov, target = _gaussian_2d_target()
    prop = build_proposal(MomentEstimate(mu, 1.5 * cov), nu=8.0)
    rng = np.random.default_rng(30)
    x = mu.copy()
    step = mh_step(target, prop, x, rng)
    assert step.log_target == target(step.theta)
    assert step.log_proposal == prop.log_density(step.theta)


def test_independence_mh_recovers_gaussian_target():
    # Short-chain version of the full correctness oracle in the
    # acceptance suite.
    mu, cov, target = _gaussian_2d_target()
    prop = build_proposal(MomentEstimate(np.array([0.9, -1.9]), 1.3 * cov), nu=8.0)
    rng = np.random.default_rng(31)
    x = mu.copy()
    lt, lg = target(x), prop.log_density(x)
    chain = np.empty((20_000, 2))
    for i in range(chain.shape[0]):
        x, _, lt, lg = mh_step(target, prop, x, rng, current_log_target=lt, current_log_proposal=lg)
        chain[i] = x
    np.testing.assert_allclose(chain.mean(axis=0), mu, atol=0.05)
    np.testing.assert_allclose(np.cov(chain, rowvar=False), cov, rtol=0.15)


def test_run_adaptive_shapes_and_traces():
    result = run_adaptive(small_config(), small_returns())
    assert result.samples.shape == (600, 4)
    assert result.param_names == ("omega", "alpha", "beta", "gamma")
    assert result.warmup_samples.shape == (200, 4)
    assert result.acceptance_trace.shape == (6,)
    assert np.all(result.acceptance_trace >= 0.0) and np.all(result.acceptance_trace <= 1.0)
    # snapshot at t=0 plus one per full window
    assert [snap.t for snap in result.moment_trace] == [0, 100, 200, 300, 400, 500, 600]
    for snap in result.moment_trace:
        assert snap.second_central.shape == (4, 4)


def test_run_adaptive_contains_exact_repeats():
    result = run_adaptive(small_config(), small_returns())
    repeats = np.all(result.samples[1:] == result.samples[:-1], axis=1)
    assert repeats.any()


def test_run_adaptive_deterministic():
    a = run_adaptive(small_config(), small_returns())
    b = run_adaptive(small_config(), small_returns())
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.acceptance_trace, b.acceptance_trace)


def test_run_adaptive_seed_changes_output():
    a = run_adaptive(small_config(), small_returns())
    b = run_adaptive(small_config(seed=6), small_returns())
    assert not np.array_equal(a.samples, b.samples)


def test_run_adaptive_freeze_after_stops_updates():
    result = run_adaptive(small_config(freeze_after=300), small_returns())
    sigmas = [snap.proposal_sigma for snap in result.moment_trace if snap.t >= 300]
    for sigma in sigmas[1:]:
        np.testing.assert_array_equal(sigma, sigmas[0])
    # before the freeze the proposal was still moving
    early = [snap.proposal_sigma for snap in result.moment_trace if snap.t < 300]
    assert not np.array_equal(early[0], early[-1])


def test_run_adaptive_partial_final_window():
    result = run_adaptive(small_config(total_samples=250), small_returns())
    assert result.samples.shape[0] == 250
    assert result.acceptance_trace.shape == (3,)  # 100, 100, 50


def test_run_adaptive_garch_kind_three_columns():
    config = small_config(kind=ModelKind.GARCH)
    result = run_adaptive(config, small_returns())
    assert result.samples.shape == (600, 3)
    assert result.param_names == ("omega", "alpha", "beta")


def test_chain_config_validation():
    with pytest.raises(DomainError):
        small_config(total_samples=0)
    with pytest.raises(DomainError):
        small_config(nu=2.0)
    with pytest.raises(DomainError):
        small_config(nu=math.inf)
    with pytest.raises(DomainError):
        small_config(freeze_after=-1)
    with pytest.raises(DomainError):
        small_config(seed=-1)
    with pytest.raises(DomainError):
        small_config(initial_pool=1)
    for sigma1_sq in (0.0, math.inf):
        with pytest.raises(DomainError):
            small_config(sigma1_sq=sigma1_sq)
    assert small_config(freeze_after=0).freeze_after == 0
