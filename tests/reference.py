"""Test references that share no code with garchmc.

Each oracle the suite checks the package against is written here once, with
numpy and the standard library only, so a fault in the package cannot also
sit in its reference.  Parameters come as rows of (omega, alpha, beta) for
GARCH or (omega, alpha, beta, gamma) for QGARCH; a GARCH row has gamma = 0.
"""

import math

import numpy as np


def _columns(theta):
    """omega, alpha, beta and gamma of one row or of rows, as one entry per row."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    return theta[:, 0], theta[:, 1], theta[:, 2], theta[:, 3] if theta.shape[1] > 3 else 0.0


def in_support(theta):
    """Which rows lie in the model support; NaN lies in none of it."""
    omega, alpha, beta, gamma = _columns(theta)
    with np.errstate(all="ignore"):  # infinite entries overflow the products
        inside = (omega > 0.0) & (alpha >= 0.0) & (beta >= 0.0) & (alpha + beta < 1.0)
        return inside & (gamma * gamma <= 4.0 * alpha * omega)


def variances(theta, y, sigma1_sq):
    """Yield the conditional variance of every row of theta at t = 0, 1, ..., n - 1.

    sigma2_t = omega + gamma * y_{t-1} + alpha * y_{t-1}^2 + beta * sigma2_{t-1},
    one step at a time, from sigma2_0 = sigma1_sq.
    """
    omega, alpha, beta, gamma = _columns(theta)
    sig = np.full(omega.shape, float(sigma1_sq))
    yield sig
    for t in range(1, len(y)):
        sig = omega + gamma * y[t - 1] + alpha * y[t - 1] ** 2 + beta * sig
        yield sig


def variance_path(theta, y, sigma1_sq):
    """The variance path at one parameter vector, as an array of len(y)."""
    return np.array([sig[0] for sig in variances([theta], y, sigma1_sq)])


def log_likelihood(theta, y, sigma1_sq):
    """Gaussian log-likelihood of y at each row of theta, and the sum of its terms' magnitudes.

    The terms -1/2 (log(2 pi sigma2_t) + y_t^2 / sigma2_t) are added in time
    order, holding one variance per row at a time.  Rows off the support
    read -inf.  The magnitudes bound the rounding of a sum that cancels.
    """
    y = np.asarray(y, dtype=float)
    total = size = 0.0
    with np.errstate(all="ignore"):  # off-support rows may go negative
        for yt, sig in zip(y, variances(theta, y, sigma1_sq)):
            term = np.log(2.0 * math.pi * sig) + yt**2 / sig
            total += term
            size += np.abs(term)
    return np.where(in_support(theta), -0.5 * total, -np.inf), 0.5 * size


def support_point(rng, gamma=True):
    """(omega, alpha, beta, gamma) drawn uniformly inside the support; gamma=False pins gamma at 0.0 without a draw."""
    omega = rng.uniform(0.01, 2.0)
    alpha = rng.uniform(0.0, 0.8)
    beta = rng.uniform(0.0, 0.99 - alpha)
    if not gamma:
        return omega, alpha, beta, 0.0
    return omega, alpha, beta, rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(alpha * omega)


def ar1(n, rho, seed):
    """n draws of x_t = rho x_{t-1} + e_t with standard normal e, after 200 discarded ones."""
    e = np.random.default_rng(seed).standard_normal(n + 200)
    x = np.empty(n + 200)
    x[0] = e[0]
    for t in range(1, n + 200):
        x[t] = rho * x[t - 1] + e[t]
    return x[200:]


def gaussian_2d():
    """A correlated 2-D Gaussian: its mean, its covariance and its log density up to a constant."""
    mu = np.array([1.0, -2.0])
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    precision = np.linalg.inv(cov)

    def target(v):
        d = v - mu
        return -0.5 * float(d @ precision @ d)

    return mu, cov, target


def random_walk_metropolis(target, theta0, n_calls, n_discard, rng):
    """Component-wise random-walk Metropolis that spends exactly n_calls target calls.

    Each sweep moves one component at a time by a Gaussian step, accepted
    with probability min(1, P'/P).  Steps start at 0.01, and over the first
    n_discard sweeps each doubles (halves) every 200 sweeps when its
    acceptance ran above 60% (below 40%).  Returns the state after each
    later sweep, the last one cut short where the calls, the start's
    included, run out.
    """
    x = np.array(theta0, dtype=float)
    lp = target(x)
    calls, sweep = 1, 0
    steps = np.full(x.size, 0.01)
    accepts = np.zeros(x.size)
    kept = []
    while calls < n_calls:
        for j in range(min(x.size, n_calls - calls)):
            proposed = x.copy()
            proposed[j] += steps[j] * rng.standard_normal()
            lp_new = target(proposed)
            calls += 1
            delta = lp_new - lp
            if delta >= 0.0 or rng.random() < math.exp(delta):
                x, lp = proposed, lp_new
                accepts[j] += 1
        sweep += 1
        if sweep > n_discard:
            kept.append(x)
        elif sweep % 200 == 0:
            steps[accepts > 120] *= 2.0
            steps[accepts < 80] *= 0.5
            accepts[:] = 0
    return np.array(kept)
