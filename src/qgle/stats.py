"""Ergodicity diagnostics on simulated time series.

Estimators here are deliberately plain: biased (1/N) autocovariances with
batch standard errors, integrated-autocorrelation-corrected z-scores for
invariant-measure moments, Green-Kubo windowed and batch-means asymptotic
variances, and least-squares exponential rate fits on ensemble relaxation
curves.  Everything is pure over immutable arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import block_diag, expm

from .errors import NoSignalError

__all__ = [
    "AutocovEstimate",
    "SigmaEstimate",
    "GibbsMomentReport",
    "NoiseStationarityResult",
    "RateFit",
    "autocovariance",
    "integrated_autocorrelation_time",
    "gibbs_moment_test",
    "gibbs_quadrature_mean",
    "noise_stationarity_test",
    "clt_sigma",
    "geometric_rate_fit",
]

_QUADRATURE_POINTS = 20001  # rectangle rule of gibbs_quadrature_mean
_RATE_TAIL_FRACTION = 0.2  # trailing share of the means that estimates mu


@dataclass(frozen=True)
class AutocovEstimate:
    """Autocovariance per lag with contiguous-batch standard errors."""

    lags: np.ndarray
    values: np.ndarray       # (L+1,) scalar series or (L+1, d, d) vector series
    n_samples: int
    stderr: np.ndarray


def _lagged_products(xt, lag):
    """Products x_{t+lag,i} x_{t,j} of a contiguous (d, N) series as a
    (d, d, N - lag) array, time along the last axis."""
    n = xt.shape[-1]
    return xt[:, None, lag:] * xt[None, :, :n - lag]


def _batch_se(products, n_batches):
    """Standard error of the mean of a (possibly short) product series,
    from contiguous batches along the last axis."""
    n = products.shape[-1]
    if n < 2:
        return np.full(products.shape[:-1], np.inf)
    b = max(2, min(n_batches, n))
    edges = np.linspace(0, n, b + 1, dtype=int)
    means = np.add.reduceat(products, edges[:-1], axis=-1) / np.diff(edges)
    return means.std(axis=-1, ddof=1) / np.sqrt(b)


def autocovariance(series, max_lag, n_batches=32):
    """Biased (1/N) centered autocovariance up to max_lag.

    Scalar series give scalar values per lag; (N, d) series give (d, d)
    matrices C(tau) = E[(x_{t+tau} - xbar)(x_t - xbar)'].  Standard errors
    come from n_batches contiguous batches of the lagged product series.
    """
    series = np.asarray(series, dtype=float)
    n = series.shape[0]
    if max_lag < 0:
        raise ValueError(f"max_lag {max_lag} is negative")
    if n < 10 * max(1, max_lag):
        raise ValueError(f"series of length {n} is too short for max_lag {max_lag}")
    xt = np.atleast_2d(np.ascontiguousarray((series - series.mean(axis=0)).T))
    d = xt.shape[0]
    lags = np.arange(max_lag + 1)
    values = np.empty((max_lag + 1, d, d))
    stderr = np.empty((max_lag + 1, d, d))
    for lag in lags:
        prod = _lagged_products(xt, lag)
        values[lag] = prod.sum(axis=-1) / n
        stderr[lag] = _batch_se(prod, n_batches)
    if series.ndim == 1:
        values, stderr = values[:, 0, 0], stderr[:, 0, 0]
    return AutocovEstimate(lags=lags, values=values, n_samples=n, stderr=stderr)


def _positive_autocov(centered):
    """Autocovariances c_0, c_1, ... of a centered scalar series, stopping
    before the first negative lag (initial positive sequence) and at n/2.

    A zero-variance series stops at c_0.
    """
    n = centered.shape[0]
    acov = [centered @ centered / n]
    if acov[0] == 0:
        return np.asarray(acov)
    for lag in range(1, n // 2):
        value = centered[lag:] @ centered[:n - lag] / n
        if value < 0:
            break
        acov.append(value)
    return np.asarray(acov)


def integrated_autocorrelation_time(series):
    """tau_int = 1/2 + sum rho_k over the initial positive window (>= 1/2)."""
    series = np.asarray(series, dtype=float)
    acov = _positive_autocov(series - series.mean())
    if acov[0] == 0:
        return 0.5
    return 0.5 + float(acov[1:].sum() / acov[0])


def _corrected_z(series, target):
    """z-score of the series mean against a target, with an
    autocorrelation-corrected standard error."""
    series = np.asarray(series, dtype=float)
    n = series.shape[0]
    mean = series.mean()
    var = series.var()
    if var == 0:
        return 0.0 if mean == target else np.inf
    tau = integrated_autocorrelation_time(series)
    se = np.sqrt(var * 2.0 * tau / n)
    return float((mean - target) / se)


@dataclass(frozen=True)
class GibbsMomentReport:
    """Per-block z-scores of empirical moments against the Gibbs targets."""

    z_pp: np.ndarray
    z_ss: np.ndarray
    z_ps: np.ndarray
    z_observable: Optional[float]
    observable_mean: Optional[float]
    observable_target: Optional[float]
    n_samples: int

    @property
    def max_abs_z(self):
        zs = [np.abs(self.z_pp).max(), np.abs(self.z_ss).max(),
              np.abs(self.z_ps).max()]
        if self.z_observable is not None:
            zs.append(abs(self.z_observable))
        return float(max(zs))


def gibbs_quadrature_mean(observable, potential, beta):
    """1-D quadrature of int phi e^{-beta U} / int e^{-beta U} on the torus.

    Uniform rectangle rule on _QUADRATURE_POINTS points; spectrally accurate
    for smooth periodic integrands.
    """
    grid = np.linspace(0.0, 1.0, _QUADRATURE_POINTS, endpoint=False)[:, None]
    u_vals = np.asarray(potential(grid), dtype=float)
    weights = np.exp(-beta * (u_vals - u_vals.min()))
    phi = np.asarray(observable(grid), dtype=float)
    return float((phi * weights).sum() / weights.sum())


def gibbs_moment_test(traj, model, observable=None, burn_in=0.1):
    """z-scores for E[pp'] = beta^-1 M, E[ss'] = beta^-1 Q, E[ps'] = 0 and,
    on 1-d torus domains, E[phi(q)] against the quadrature of the Gibbs
    q-marginal.  Standard errors are autocorrelation-corrected.

    Diagnostic only: large z-scores are reported, not raised.
    """
    if not model.force.is_conservative:
        raise ValueError("Gibbs moment test needs a conservative force")
    if model.Q is None:
        raise ValueError("Gibbs moment test needs the auxiliary covariance Q")
    skip = int(burn_in * len(traj))
    p = traj.p[skip:]
    s = traj.s[skip:]
    q = traj.q[skip:]
    if p.shape[0] < 10:
        raise ValueError("post-burn-in series is too short")
    n = model.n
    x = np.ascontiguousarray(np.concatenate([p, s], axis=1).T)
    target = block_diag(model.mass, model.Q) / model.beta
    # x_i x_j equals x_j x_i exactly: fill i <= j and mirror
    z = np.empty(target.shape)
    for i, j in zip(*np.triu_indices(x.shape[0])):
        z[i, j] = z[j, i] = _corrected_z(x[i] * x[j], target[i, j])

    z_obs = obs_mean = obs_target = None
    if observable is not None:
        if not (model.domain.is_torus and n == 1):
            raise ValueError("observable quadrature target needs a 1-d torus")
        series = np.asarray(observable(q), dtype=float)
        obs_target = gibbs_quadrature_mean(observable, model.force.potential,
                                           model.beta)
        obs_mean = float(series.mean())
        z_obs = _corrected_z(series, obs_target)
    return GibbsMomentReport(z_pp=z[:n, :n], z_ss=z[n:, n:], z_ps=z[:n, n:],
                             z_observable=z_obs, observable_mean=obs_mean,
                             observable_target=obs_target,
                             n_samples=p.shape[0])


@dataclass(frozen=True)
class NoiseStationarityResult:
    """Deviation of the s-autocovariance from the stationary OU reference,
    normalized by the lag-0 scale beta^-1 |Q|."""

    lag_times: np.ndarray
    deviations: np.ndarray
    stderr: np.ndarray
    max_deviation: float


def noise_stationarity_test(s_path, coeffs, Q, beta, lags, dt, n_batches=32):
    """Compare empirical E[s(t+tau) s(t)'] with expm(-G22 tau) beta^-1 Q.

    ``s_path`` must come from a stationary start; ``lags`` are integer step
    lags.  Position-dependent coefficient fields are rejected: their random
    force is not stationary and the OU reference does not apply.
    """
    if not coeffs.constant:
        raise ValueError("noise stationarity reference needs constant "
                         "coefficients (position-dependent noise is "
                         "non-stationary)")
    s_path = np.atleast_2d(np.asarray(s_path, dtype=float))
    if s_path.shape[1] != coeffs.m:
        raise ValueError("s_path width does not match the coefficient field")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    _, _, _, g22 = coeffs.blocks(coeffs.gamma())
    lags = np.asarray(lags, dtype=int)
    scale = np.abs(Q).max() / beta
    n = s_path.shape[0]
    bad = lags[(lags < 0) | (lags >= n)]
    if bad.size:
        raise ValueError(f"lag {bad[0]} is negative or not below the path "
                         f"length {n}")
    st = np.ascontiguousarray(s_path.T)
    deviations = np.empty(lags.shape[0])
    stderr = np.empty(lags.shape[0])
    for idx, lag in enumerate(lags):
        ref = expm(-g22 * (lag * dt)) @ Q / beta
        prod = _lagged_products(st, lag)
        deviations[idx] = np.abs(prod.mean(axis=-1) - ref).max() / scale
        stderr[idx] = np.max(_batch_se(prod, n_batches)) / scale
    return NoiseStationarityResult(lag_times=lags * dt, deviations=deviations,
                                   stderr=stderr,
                                   max_deviation=float(deviations.max()))


@dataclass(frozen=True)
class SigmaEstimate:
    """Asymptotic variance of the time average, in time units."""

    sigma2: float
    stderr: float
    method: str
    params: dict = field(default_factory=dict)


def clt_sigma(series, method="green_kubo_window", dt=1.0, n_batches=32):
    """Asymptotic variance sigma^2 of T^-1/2 int phi dt for a sampled series.

    green_kubo_window: dt * (c_0 + 2 sum c_k) summed up to the first lag
    where the autocovariance estimate turns negative (initial positive
    sequence rule); the error estimate is the standard windowed-sum formula
    sigma^2 sqrt((4W + 2)/N).

    batch_means: dt * L * var(batch means) over n_batches batches of length
    L; stderr sigma^2 sqrt(2/(B - 1)).
    """
    series = np.asarray(series, dtype=float)
    n = series.shape[0]
    if n < 16:
        raise ValueError("series too short for an asymptotic variance")
    centered = series - series.mean()
    if np.all(centered == 0):
        return SigmaEstimate(0.0, 0.0, method, {"n": n})
    if method == "green_kubo_window":
        acov = _positive_autocov(centered)
        window = len(acov)
        sigma2 = dt * (acov[0] + 2.0 * acov[1:].sum())
        stderr = sigma2 * np.sqrt((4.0 * window + 2.0) / n)
        return SigmaEstimate(float(sigma2), float(stderr), method,
                             {"window": int(window), "n": n, "dt": dt})
    if method == "batch_means":
        b = n_batches
        length = n // b
        if length < 1:
            raise ValueError("series too short for the requested batch count")
        means = centered[:b * length].reshape(b, length).mean(axis=1)
        sigma2 = dt * length * means.var(ddof=1)
        stderr = sigma2 * np.sqrt(2.0 / (b - 1))
        return SigmaEstimate(float(sigma2), float(stderr), method,
                             {"n_batches": b, "batch_length": length, "dt": dt})
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class RateFit:
    """Exponential relaxation rate of an ensemble mean."""

    kappa: float
    r_squared: float
    window: tuple
    mu: float


def geometric_rate_fit(times, ensemble_values, mu=None):
    """Fit C e^{-kappa t} to |ensemble mean - mu| while it beats its noise.

    ``ensemble_values`` is (R, K) over R >= 2 trajectories on a common time
    grid.  The fit window runs from the start until the signal first drops
    below 3x its ensemble standard error; raises NoSignalError when the
    window is empty (ensemble already equilibrated).  When ``mu`` is None it
    is co-estimated from the trailing _RATE_TAIL_FRACTION of the means.
    """
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(ensemble_values, dtype=float))
    r, k = values.shape
    if r < 2:
        raise ValueError("need an ensemble, not a single trajectory")
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(r)
    if mu is None:
        tail = max(1, int(_RATE_TAIL_FRACTION * k))
        mu = float(mean[-tail:].mean())
    signal = np.abs(mean - mu)
    above = signal > 3.0 * se
    if not above.any():
        raise NoSignalError("ensemble mean never exceeds 3x its standard error")
    start = int(np.argmax(above))
    stop = start
    while stop < k and above[stop]:
        stop += 1
    if stop - start < 3:
        raise NoSignalError("signal window has fewer than 3 points")
    t = times[start:stop]
    y = np.log(signal[start:stop])
    coeffs = np.polyfit(t, y, 1)
    fitted = np.polyval(coeffs, t)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return RateFit(kappa=float(-coeffs[0]), r_squared=r2,
                   window=(start, stop), mu=mu)
