"""Reference computations of the benchmark's checks.

They use numpy and scipy only, never the program, so a check compares the
program's output with an independent derivation.
"""

from __future__ import annotations

import numpy as np


def batch_means_z(series, target, batch_counts=(32, 8)):
    """z-score of the series mean against ``target``.

    The standard error is the larger of the contiguous batch-means estimates
    over ``batch_counts``: the few-batch estimate guards against batches
    that are short against the correlation time, which would understate it.
    """
    series = np.asarray(series, dtype=float)
    ses = []
    for count in batch_counts:
        length = series.shape[0] // count
        means = series[:count * length].reshape(count, length).mean(axis=1)
        ses.append(means.std(ddof=1) / np.sqrt(count))
    return float((series.mean() - target) / max(ses))


def replica_means_z(values, target):
    """z-score of the mean of per-replica averages (R independent rows)."""
    values = np.asarray(values, dtype=float)
    per_replica = values.reshape(values.shape[0], -1).mean(axis=1)
    se = per_replica.std(ddof=1) / np.sqrt(per_replica.shape[0])
    return float((per_replica.mean() - target) / se)


def fft_autocov(series, max_lag):
    """Biased centered autocovariance by FFT, lags 0..max_lag.

    A scalar series gives a vector; an (N, d) series gives (max_lag+1, d, d)
    matrices C(tau)_ij = N^-1 sum_t x_{t+tau,i} x_{t,j}.
    """
    x = np.asarray(series, dtype=float)
    scalar = x.ndim == 1
    x = x.reshape(x.shape[0], -1)
    n = x.shape[0]
    x = x - x.mean(axis=0)
    spec = np.fft.rfft(x, n=2 * n, axis=0)
    cross = np.fft.irfft(spec[:, :, None] * np.conj(spec[:, None, :]),
                         n=2 * n, axis=0)[:max_lag + 1] / n
    return cross[:, 0, 0] if scalar else cross


def sym2_min_eig(r11, r12, r22):
    """Smallest eigenvalue of the symmetric 2x2 matrices [[r11, r12], [r12, r22]]."""
    mean = 0.5 * (r11 + r22)
    return mean - np.hypot(0.5 * (r11 - r22), r12)
