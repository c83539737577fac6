"""Test references that share no code with garchmc.

Each oracle the suite checks the package against is written here once, with
numpy and the standard library only, so a fault in the package cannot also
sit in its reference.  Parameters come as rows of (omega, alpha, beta) for
GARCH or (omega, alpha, beta, gamma) for QGARCH; a GARCH row has gamma = 0.
"""

import math

import numpy as np

# Posterior-mean QGARCH fits to three equity indexes' daily returns, as
# (omega, alpha, beta, gamma): test points typical of real data.
FITS = {
    "nikkei225": (0.06219, 0.07872, 0.89390, -0.12403),
    "dax": (0.03004, 0.09198, 0.89564, -0.08483),
    "hang_seng": (0.03202, 0.07638, 0.91168, -0.08678),
}


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


def grid_moments(theta, y, s1):
    """Mean and covariance of the rows of theta weighted by their reference likelihood."""
    # Blocks of at most 16k rows keep the recursion's vectors in cache.
    blocks = np.array_split(theta, len(theta) // 16384 + 1)
    log_density = np.concatenate([log_likelihood(block, y, s1)[0] for block in blocks])
    w = np.exp(log_density - log_density.max())
    w /= w.sum()
    mean = w @ theta
    centered = theta - mean
    return mean, (w * centered.T) @ centered


def mesh(*axes):
    """Every combination of the axes' points, one row each."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def quadrature_mean(y, s1, dim, box, grids, half_width):
    """The flat-prior posterior mean of the first `dim` of (omega, alpha, beta, gamma) by a midpoint rule.

    A box of `box` points per axis over the support (|gamma| <= 2 sqrt(alpha
    omega) < 2 sqrt(2 s1)) gives a first mean and covariance; each size in
    `grids` then places that many points per axis along the posterior's
    axes, mean + L z with |z_i| <= half_width and L L' the covariance.
    """
    u = (np.arange(box) + 0.5) / box
    axes = [2.0 * s1 * u, u, u, 2.0 * math.sqrt(2.0 * s1) * (2.0 * u - 1.0)][:dim]
    theta = mesh(*axes)
    mean, cov = grid_moments(theta, y, s1)
    for m in grids:
        z = half_width * ((np.arange(m) + 0.5) / (m / 2) - 1.0)
        theta = mean + mesh(*[z] * dim) @ np.linalg.cholesky(cov).T
        mean, cov = grid_moments(theta, y, s1)
    return mean


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


def naive_acf(x, max_lag):
    """Autocorrelation by direct summation: cov sums over overlapping pairs, divisor N."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    var = (centered**2).sum() / n
    out = np.empty(max_lag + 1)
    for t in range(max_lag + 1):
        out[t] = (centered[: n - t] * centered[t:]).sum() / n / var
    return out


def fsum_moments(arr):
    """Two-pass mean and N-1 covariance of the rows of arr, with exactly rounded sums."""
    rows = arr.tolist()
    n, p = len(rows), len(rows[0])
    mean = [math.fsum(r[i] for r in rows) / n for i in range(p)]
    cov = [
        [math.fsum((r[i] - mean[i]) * (r[j] - mean[j]) for r in rows) / (n - 1) for j in range(p)]
        for i in range(p)
    ]
    return np.array(mean), np.array(cov)


def truncated_normal_moments(low):
    """Mean and variance of a standard normal restricted to theta > low.

    With the inverse Mills ratio m = phi(low) / (1 - Phi(low)), where
    1 - Phi(low) = erfc(low / sqrt 2) / 2, the mean is m and the variance
    1 + low * m - m^2.
    """
    mills = math.exp(-0.5 * low * low) / math.sqrt(2.0 * math.pi) / (0.5 * math.erfc(low / math.sqrt(2.0)))
    return mills, 1.0 + low * mills - mills * mills


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
