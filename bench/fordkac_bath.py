"""Workload ``fordkac_bath``: the explicit harmonic heat bath.

A particle in a harmonic well is coupled to finite baths whose spectra
approximate the exponential kernel c exp(-alpha t).  The job runs
``fordkac_vs_gle`` over growing bath sizes (velocity autocorrelation of
bath ensembles against the matched one-mode extended-variable model, with
bootstrap errors), evaluates each bath's kernel, and runs one long
``fordkac_simulate`` trajectory.  The Verlet loop is array-bound over
replicas x modes and shares no code with the extended-variable loop.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm

from qgle import (
    fordkac_kernel,
    fordkac_simulate,
    fordkac_spectrum_for_exponential,
    fordkac_vs_gle,
)
from qgle.config import parse_config

TAG = 4
SIZES = {
    # 256 replicas x 128 modes keeps the Verlet working set (about 1.5 MB)
    # inside a 2 MB L2, which steadies the timing; the single-replica long
    # trajectory carries the largest bath
    "full": {"m_list": [4, 32, 128], "replicas": 256, "T_cmp": 2.0,
             "long_modes": 256, "T_long": 20.0},
    "quick": {"m_list": [4, 64], "replicas": 64, "T_cmp": 1.5,
              "long_modes": 32, "T_long": 2.0},
}
DT_CMP = 2e-3
DT_LONG = 1e-3
STRIDE = 10
N_BOOT = 100
OMEGA_FACTOR = 20.0   # omega_max = OMEGA_FACTOR * alpha
LAGS = np.linspace(0.0, 2.0, 41)
Z_LIMIT = 6.0
# the largest bath's VACF discrepancy may exceed the smallest bath's by at
# most this many combined bootstrap errors (see check)
BOOT_LIMIT = 6.0


def make_inputs(seed, round_index, size):
    rng = np.random.default_rng([seed, round_index, TAG])
    sz = SIZES[size]
    c = float(rng.uniform(0.5, 1.5))
    alpha = float(rng.uniform(0.5, 1.5))
    beta = float(rng.uniform(0.8, 1.25))
    stiffness = float(rng.uniform(0.5, 2.0))
    config = {
        "model": {"domain": {"kind": "euclidean", "dim": 1}, "beta": beta,
                  "force": {"kind": "harmonic", "stiffness": [[stiffness]]}},
        "coefficients": {"kind": "prony", "modes": [[c, alpha]]},
        "fordkac": {"spectrum": {"kind": "exponential", "c": c,
                                 "alpha": alpha,
                                 "m_modes": sz["long_modes"],
                                 "omega_max": OMEGA_FACTOR * alpha},
                    "T": sz["T_long"], "dt": DT_LONG,
                    "q0": float(rng.normal(0.0, 1.0 / np.sqrt(beta * stiffness))),
                    "p0": float(rng.normal(0.0, 1.0 / np.sqrt(beta))),
                    "stride": STRIDE},
    }
    return {"config_text": json.dumps(config, indent=1), "c": c,
            "alpha": alpha, "beta": beta, "stiffness": stiffness,
            "seed": int(rng.integers(0, 2**31)), **sz}


def setup(rec, inputs):
    return rec.call(parse_config, inputs["config_text"])


def run(rec, cfg, inputs, out_dir):
    model, fk = cfg.model, cfg.fordkac
    c, alpha, beta = inputs["c"], inputs["alpha"], inputs["beta"]
    m_list, replicas = inputs["m_list"], inputs["replicas"]
    omega_max = fk["spectrum"]["omega_max"]
    steps_cmp = int(round(3.0 * inputs["T_cmp"] / DT_CMP))
    comparison = rec.call(
        fordkac_vs_gle, c, alpha, m_list, model.force, inputs["T_cmp"],
        replicas, inputs["seed"], beta=beta, dt=DT_CMP, omega_max=omega_max,
        stride=STRIDE, n_boot=N_BOOT,
        work={"replica_steps": replicas * steps_cmp * (1 + len(m_list)),
              "noise_draws": replicas * steps_cmp * (model.n + model.m),
              "bath_mode_steps": replicas * steps_cmp * sum(m_list)})
    spectra = {m: rec.call(fordkac_spectrum_for_exponential, c, alpha, m,
                           omega_max)
               for m in m_list + [fk["spectrum"]["m_modes"]]}
    kernels = {m: rec.call(fordkac_kernel, spectrum, LAGS)
               for m, spectrum in spectra.items()}
    bath = spectra[fk["spectrum"]["m_modes"]]
    steps_long = int(round(fk["T"] / fk["dt"]))
    traj = rec.call(fordkac_simulate, model.force, bath, beta, fk["dt"],
                    fk["T"], inputs["seed"], fk["q0"], fk["p0"],
                    stride=fk["stride"],
                    work={"replica_steps": steps_long,
                          "bath_mode_steps": steps_long * len(bath)})
    return {"comparison": comparison, "kernels": kernels, "traj": traj,
            "omega_max": omega_max, "steps_cmp": steps_cmp}


def kernel_error_bound(c, alpha, m_modes, omega_max, t):
    """Bound on |K_m(t) - c exp(-alpha t)| for the midpoint bath spectrum.

    K_m is the composite midpoint rule with h = omega_max / m for
    f(w) = A cos(w t) / (alpha^2 + w^2), A = 2 c alpha / pi, on
    [0, omega_max]; the exact integral over [0, inf) is c exp(-alpha t).
    Midpoint error <= omega_max h^2 / 24 max|f''| with
    max|f''| <= A (2 / alpha^4 + 2 t * 9 / (8 sqrt 3 alpha^3) + t^2 / alpha^2),
    and the truncated tail is at most (2 c / pi) arctan(alpha / omega_max).
    """
    a = 2.0 * c * alpha / np.pi
    h = omega_max / m_modes
    f2 = a * (2.0 / alpha**4 + 2.0 * t * 9.0 / (8.0 * np.sqrt(3.0) * alpha**3)
              + t**2 / alpha**2)
    return omega_max * h**2 / 24.0 * f2 + (2.0 * c / np.pi) * np.arctan(alpha / omega_max)


def vacf_lag0_se(c, alpha, beta, stiffness, t_sim, dt_out, replicas):
    """Standard error of the lag-0 velocity autocorrelation of the matched
    one-mode model, from its exact stationary autocovariance.

    x = (q, p, s) is a linear OU process dx = -B x dt + noise with
    B = [[0, -1, 0], [k, 0, -sqrt c], [0, sqrt c, alpha]] and stationary
    covariance diag(1/(beta k), 1/beta, 1/beta); C_pp(u) =
    [expm(-B u) Sigma]_pp.  The time average of p^2 over K samples has
    variance (2/K^2) sum_ij C_pp(|i-j| dt_out)^2 (Isserlis), and replicas
    are independent.
    """
    b = np.array([[0.0, -1.0, 0.0],
                  [stiffness, 0.0, -np.sqrt(c)],
                  [0.0, np.sqrt(c), alpha]])
    cov = np.diag([1.0 / (beta * stiffness), 1.0 / beta, 1.0 / beta])
    k = int(round(t_sim / dt_out)) + 1
    step = expm(-b * dt_out)
    cpp = np.empty(k)
    state = cov.copy()
    for i in range(k):
        cpp[i] = state[1, 1]
        state = step @ state
    weights = np.concatenate([[k], 2.0 * (k - np.arange(1, k))])
    var = 2.0 / k**2 * np.sum(weights * cpp**2)
    return float(np.sqrt(var / replicas))


def check(out, inputs):
    problems = []
    c, alpha, beta = inputs["c"], inputs["alpha"], inputs["beta"]
    traj, comparison = out["traj"], out["comparison"]

    drift = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
    if not drift <= 1e-4:
        problems.append(f"leapfrog relative energy drift {drift:.3e} > 1e-4")

    exact = c * np.exp(-alpha * LAGS)
    for m, values in out["kernels"].items():
        bound = kernel_error_bound(c, alpha, m, out["omega_max"], LAGS)
        excess = np.abs(values - exact) - bound
        if not excess.max() <= 0:
            problems.append(f"bath kernel (m={m}) exceeds its quadrature bound "
                            f"by {excess.max():.3e}")

    se = vacf_lag0_se(c, alpha, beta, inputs["stiffness"],
                      DT_CMP * out["steps_cmp"], DT_CMP * STRIDE,
                      inputs["replicas"])
    z = (comparison.gle_vacf[0] - 1.0 / beta) / se
    if not abs(z) <= Z_LIMIT:
        problems.append(f"GLE reference VACF(0) = {comparison.gle_vacf[0]:.4f} "
                        f"vs 1/beta = {1.0 / beta:.4f} (z = {z:.2f})")
    # fordkac_vs_gle's own verdict allows one combined bootstrap error and
    # flips with the random stream now and then (CHANGES.md), so the check
    # allows BOOT_LIMIT of them: it still rejects a large bath that is
    # grossly worse than a 4-mode one
    (_, small, _), (_, large, _) = comparison.rows[0], comparison.rows[-1]
    if not large <= small + BOOT_LIMIT * comparison.combined_error:
        rows = "; ".join(f"m={m}: {v:.4f} (se {e:.4f})" for m, v, e in comparison.rows)
        problems.append(f"largest bath is not closer to the GLE than the smallest: "
                        f"{rows}; combined error {comparison.combined_error:.4f}")
    return problems
