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
    jackknife_se,
    metropolis_warmup,
    mh_step,
    model,
    run_adaptive,
    simulate_qgarch,
    unconditional_variance,
)
from garchmc.proposal import MAX_REDRAWS, SPREAD

import reference

TRUE = ModelParams(*reference.FITS["nikkei225"], ModelKind.QGARCH)


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


def test_mh_step_always_accepts_when_target_equals_proposal():
    # With target == log g the MH ratio cancels to exactly one.
    prop = build_proposal(MomentEstimate(np.array([0.5, -0.5]), np.eye(2)), nu=6.0)
    rng = np.random.default_rng(21)
    x = prop.mean.copy()
    lg = prop.log_density(x)
    for _ in range(500):
        step = mh_step(prop.log_density, prop, x, rng, current_log_target=lg, current_log_proposal=lg)
        assert step.accepted
        x, lg = step.theta, step.log_proposal


def test_mh_step_rejects_off_support_candidates():
    prop = build_proposal(MomentEstimate(np.zeros(2), np.eye(2)), nu=6.0)
    current = np.array([0.25, -0.125])
    target = lambda v: 0.0 if v is current else -math.inf
    rng = np.random.default_rng(22)
    x = current
    for _ in range(200):
        step = mh_step(target, prop, x, rng, current_log_target=0.0, current_log_proposal=prop.log_density(x))
        assert not step.accepted
        assert step.theta is x or np.array_equal(step.theta, current)
        x = step.theta
    # rejected steps leave the state bit-identical
    np.testing.assert_array_equal(x, current)


def test_mh_step_rejects_a_candidate_past_the_redraw_cap():
    # The support holds almost none of the proposal's mass, so every draw
    # lands off it; the last one comes back for the target to reject.
    checked = 0

    def far(v):
        nonlocal checked
        checked += 1
        return v[0] > 1e3

    prop = build_proposal(MomentEstimate(np.zeros(1), np.eye(1)), nu=10.0, support=far)
    current = np.array([2e3])
    target = lambda v: -1e-3 * v[0] if far(v) else -math.inf
    lt, lg = target(current), prop.log_density(current)
    checked = 0
    step = mh_step(target, prop, current, np.random.default_rng(23), current_log_target=lt, current_log_proposal=lg)
    assert checked == MAX_REDRAWS + 2  # every draw, then the target's own test
    assert not step.accepted
    assert step.theta is current and step.log_target == lt and step.log_proposal == lg


def _truncated_normal_z(support, low=0.3, n=100_000):
    """Largest |z| of an IMH chain's mean and variance off those of N(0, 1) restricted to theta > low.

    The proposal is a t truncated to `support`.  z is in jackknife SE; the
    variance is the mean of (theta - exact mean)^2.  It is built through
    `build_proposal`, so its Sigma carries the sampler's SPREAD^2 = 1.44:
    the oracle and its negative control check truncation at the scale the
    sampler draws from.
    """
    target = lambda v: -0.5 * v[0] * v[0] if v[0] > low else -math.inf
    prop = build_proposal(MomentEstimate(np.array([1.0]), np.array([[0.5]])), nu=5.0, support=support)
    rng = np.random.default_rng(40)
    x = np.array([1.0])
    lt, lg = target(x), prop.log_density(x)
    chain = np.empty(n)
    for i in range(n):
        x, _, lt, lg = mh_step(target, prop, x, rng, current_log_target=lt, current_log_proposal=lg)
        chain[i] = x[0]
    mean, var = reference.truncated_normal_moments(low)
    squares = (chain - mean) ** 2
    return max(abs(chain.mean() - mean) / jackknife_se(chain), abs(squares.mean() - var) / jackknife_se(squares))


def test_truncated_proposal_samples_a_bounded_target_exactly():
    # Truncation redraws where the target is 0; the truncated density is a
    # constant multiple of g on the support, so the chain stays exact.
    assert _truncated_normal_z(lambda v: v[0] > 0.3) <= 4.0


def test_truncation_narrower_than_the_support_fails_the_oracle():
    # Negative control: a proposal that never reaches (0.3, 0.5] cannot
    # sample the target there, and the oracle above must see it.
    assert _truncated_normal_z(lambda v: v[0] > 0.5) > 4.0


class _StubProposal:
    """Fixed draw and densities so the accept ratio can be set by hand."""

    def __init__(self, candidate, log_g_candidate, log_g_current):
        self.candidate = np.asarray(candidate, dtype=float)
        self.log_g_candidate = log_g_candidate
        self.log_g_current = log_g_current

    def draw(self, rng):
        return self.candidate.copy(), self.log_g_candidate

    def log_density(self, theta):
        return self.log_g_candidate if np.array_equal(theta, self.candidate) else self.log_g_current


def test_mh_step_hand_ratio_above_one_always_accepts():
    # target ratio e^2 and proposal ratio e^-1 give acceptance e >= 1.
    stub = _StubProposal([1.0], log_g_candidate=0.5, log_g_current=-0.5)
    target = lambda v: 2.0 if v[0] == 1.0 else 0.0
    for seed in range(30):
        step = mh_step(target, stub, np.array([0.0]), np.random.default_rng(seed),
                       current_log_target=0.0, current_log_proposal=-0.5)
        assert step.accepted
        assert step.theta[0] == 1.0


def test_mh_step_caches_match_fresh_evaluation():
    mu, cov, target = reference.gaussian_2d()
    prop = build_proposal(MomentEstimate(mu, 1.5 * cov), nu=8.0)
    rng = np.random.default_rng(30)
    x = mu.copy()
    step = mh_step(target, prop, x, rng, current_log_target=target(x), current_log_proposal=prop.log_density(x))
    assert step.log_target == target(step.theta)
    assert step.log_proposal == prop.log_density(step.theta)


def test_independence_mh_recovers_gaussian_target():
    # Short-chain version of the full correctness oracle in the
    # acceptance suite.
    mu, cov, target = reference.gaussian_2d()
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
    assert result.acceptance_trace.shape == (6,)
    assert np.all(result.acceptance_trace >= 0.0) and np.all(result.acceptance_trace <= 1.0)
    # snapshot at t=0 plus one per full window
    assert [snap.t for snap in result.moment_trace] == [0, 100, 200, 300, 400, 500, 600]
    for snap in result.moment_trace:
        assert snap.second_central.shape == (4, 4)


def test_run_adaptive_snapshots_share_no_memory():
    # The running moments are merged window by window; an estimate updated
    # in place would rewrite the earlier snapshots that moments.json records.
    trace = run_adaptive(small_config(total_samples=250), small_returns()).moment_trace
    arrays = [(i, a) for i, snap in enumerate(trace) for a in vars(snap).values() if isinstance(a, np.ndarray)]
    for i, a in arrays:
        for j, b in arrays:
            assert i == j or not np.shares_memory(a, b)


def test_run_adaptive_draws_no_off_support_candidate(monkeypatch):
    # Calls counted as in acceptance criterion 10: the warm-up's, then one
    # for the pool's last state and one per draw.  Every main-phase
    # candidate lies on the support, so none of those reads -inf.
    values = []
    posterior = model.log_posterior_fn

    def counted(*args):
        target = posterior(*args)

        def call(theta):
            values.append(target(theta))
            return values[-1]

        return call

    monkeypatch.setattr(model, "log_posterior_fn", counted)
    config = small_config()
    run_adaptive(config, small_returns())
    warm_up = 1 + (config.burn_in + config.initial_pool) * 4
    assert len(values) == warm_up + 1 + config.total_samples
    assert -math.inf in values[:warm_up]  # the warm-up's random walk still steps off it
    assert -math.inf not in values[warm_up:]


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


@pytest.mark.parametrize("freeze_after", [None, 300])
def test_run_adaptive_proposal_sigma_is_the_spread_scaled_moments(freeze_after):
    # Each snapshot's proposal is fitted from its own second moment, bit for
    # bit, until adaptation stops; from then on every snapshot keeps the
    # last fitted sigma.
    config = small_config(freeze_after=freeze_after)
    trace = run_adaptive(config, small_returns()).moment_trace
    fitted = None
    for snap in trace:
        if freeze_after is None or snap.t < freeze_after:
            fitted = SPREAD**2 * (config.nu - 2.0) / config.nu * snap.second_central
        np.testing.assert_array_equal(snap.proposal_sigma, fitted)
    assert freeze_after is None or trace[-1].t > freeze_after


def test_run_adaptive_partial_final_window():
    result = run_adaptive(small_config(total_samples=250), small_returns())
    assert result.samples.shape[0] == 250
    assert result.acceptance_trace.shape == (3,)  # 100, 100, 50


def test_run_adaptive_garch_kind_three_columns():
    config = small_config(kind=ModelKind.GARCH)
    result = run_adaptive(config, small_returns())
    assert result.samples.shape == (600, 3)
    assert result.param_names == ("omega", "alpha", "beta")


# 80^3 and 100^3 GARCH grids move no mean by more than 0.006 posterior SD
# from the 60^3 one, and a third, 26^4 QGARCH grid none by more than 0.006
# from the second 20^4 one.
@pytest.mark.parametrize("params, s0, n, box, grids, half_width", [
    (ModelParams(0.1, 0.15, 0.8, 0.0, ModelKind.GARCH), 2.0, 200, 40, (60,), 8.0),
    (TRUE, unconditional_variance(TRUE), 300, 16, (20, 20), 7.0),
], ids=["garch", "qgarch"])
def test_run_adaptive_matches_quadrature_posterior(params, s0, n, box, grids, half_width):
    # Oracle: the chain's means against the grid's, within 3 jackknife SE.
    returns = simulate_qgarch(params, n, s0, seed=1)
    y = returns.values
    s1 = float(np.var(y, ddof=1))
    mean = reference.quadrature_mean(y, s1, len(params.kind.param_names), box, grids, half_width)

    config = ChainConfig(kind=params.kind, burn_in=1000, initial_pool=500, update_interval=500,
                         total_samples=20_000, seed=1, sigma1_sq=s1)
    samples = run_adaptive(config, returns).samples
    se = np.array([jackknife_se(column) for column in samples.T])
    assert np.all(np.abs(samples.mean(axis=0) - mean) <= 3.0 * se)


# 10**17 draws of four parameters are 3.2 EB, beyond any address space, so
# numpy's allocation fails; at 10**19 the byte count overflows numpy's index.
@pytest.mark.parametrize("total", [10**17, 10**19], ids=["memory-error", "index-overflow"])
def test_run_adaptive_too_long_to_hold_fails_before_the_warm_up(monkeypatch, total):
    import garchmc.sampler as sampler

    def never(*args):
        raise AssertionError("the warm-up ran")

    monkeypatch.setattr(sampler, "metropolis_warmup", never)
    with pytest.raises(DomainError, match=f"initial_pool = 200 plus total_samples = {total} needs {32 * (total + 200)} bytes"):
        run_adaptive(small_config(total_samples=total), small_returns())


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
    # Four QGARCH parameters need five states for a full-rank covariance.
    with pytest.raises(DomainError, match="initial_pool must be >= 5"):
        small_config(initial_pool=4)
    assert small_config(initial_pool=5).initial_pool == 5
    for sigma1_sq in (0.0, math.inf):
        with pytest.raises(DomainError):
            small_config(sigma1_sq=sigma1_sq)
    assert small_config(freeze_after=0).freeze_after == 0
