"""Workload ``posdep_ensemble``: configuration-dependent noise, tilted force.

The model is built from config text with expression entries on the 1-d
torus:

    Gamma(q) = [[0, -a(q)], [a(q), g(q)^2 / 2]],  Sigma(q) = [[0, 0], [0, g(q)]],
    a(q) = 2 + cos(2 pi q),  g(q) = 1 + 0.5 cos(2 pi q),
    F(q) = 0.5 + 2 pi sin(2 pi q)   (cos potential plus a constant tilt),

so the fluctuation-dissipation relation holds with Q = 1 while the force is
not conservative.  The job certifies the coefficients on a fine grid, runs
an Euler ensemble of hundreds of replicas from a displaced start with an
observable accumulator, one stride-1 stored-noise replica and one solo
replica of the ensemble's last index, and fits the relaxation rate of the
mean momentum.  Batched position-dependent coefficient and expression
evaluation, and the per-replica noise streams, carry the time.
"""

from __future__ import annotations

import json

import numpy as np

from qgle import (
    ExtendedState,
    IntegratorSpec,
    geometric_rate_fit,
    posdep_certificate_search,
    posdep_certificate_verify,
    simulate,
    simulate_ensemble,
    stability_margin,
    verify_fdt,
)
from qgle.config import parse_config

from refs import sym2_min_eig

TAG = 2
SIZES = {
    "full": {"replicas": 512, "n_steps": 6000, "grid": 4001},
    "quick": {"replicas": 128, "n_steps": 6000, "grid": 401},
}
DT = 0.005
STRIDE = 20
A_EXPR = "2+cos(2*pi*q1)"
G_EXPR = "1+0.5*cos(2*pi*q1)"
FORCE_EXPR = "0.5+2*pi*sin(2*pi*q1)"
# late-time window for the mean momentum: the displaced start has relaxed
# to well below the tilt-driven drift after half of the 30 time units
LATE_FRACTION = 0.5
SOLO_FRACTION = 4     # solo replicas run the first quarter of the steps


def a_of(q):
    return 2.0 + np.cos(2.0 * np.pi * q)


def g_of(q):
    return 1.0 + 0.5 * np.cos(2.0 * np.pi * q)


def force_of(q):
    return 0.5 + 2.0 * np.pi * np.sin(2.0 * np.pi * q)


def make_inputs(seed, round_index, size):
    rng = np.random.default_rng([seed, round_index, TAG])
    sz = SIZES[size]
    beta = float(rng.uniform(0.8, 1.25))
    config = {
        "model": {"domain": {"kind": "torus", "dim": 1}, "beta": beta,
                  "force": {"kind": "nonconservative",
                            "components": [FORCE_EXPR]}},
        "coefficients": {
            "kind": "position_dependent", "m": 1,
            "gamma": [["0", f"0-({A_EXPR})"],
                      [A_EXPR, f"0.5*({G_EXPR})*({G_EXPR})"]],
            "sigma": [["0", "0"], ["0", G_EXPR]],
            "Q": [[1.0]]},
        "integrator": {"scheme": "euler_maruyama", "dt": DT,
                       "n_steps": sz["n_steps"],
                       "seed": int(rng.integers(0, 2**32)),
                       "stride": STRIDE},
    }
    start = ExtendedState(q=[float(rng.uniform(0.0, 1.0))],
                          p=[float(rng.uniform(2.5, 3.5))], s=[0.0])
    grid = np.linspace(0.0, 1.0, sz["grid"], endpoint=False)[:, None]
    return {"config_text": json.dumps(config, indent=1), "beta": beta,
            "start": start, "grid": grid, "replicas": sz["replicas"]}


def setup(rec, inputs):
    return rec.call(parse_config, inputs["config_text"])


def momentum(q, p, s):
    return p[:, 0]


def run(rec, cfg, inputs, out_dir):
    model, integ = cfg.model, cfg.integrator
    coeffs, grid, start = model.coeffs, inputs["grid"], inputs["start"]
    replicas = inputs["replicas"]
    dim = model.n + model.m
    fdt_defect = rec.call(verify_fdt, coeffs, model.Q, grid)
    margin = rec.call(stability_margin, coeffs, grid)
    cert_c = rec.call(posdep_certificate_search, coeffs, grid)
    verification = rec.call(posdep_certificate_verify, coeffs, cert_c, grid)

    steps = integ.n_steps
    ens = rec.call(simulate_ensemble, model, integ, start, replicas,
                   observables={"p": momentum},
                   work={"replica_steps": replicas * steps,
                         "noise_draws": replicas * steps * dim})
    # solo replicas cover a prefix of the ensemble run: the streams are
    # sequential, so a shorter run reproduces the first stored states
    solo_steps = steps // SOLO_FRACTION
    solo_first = rec.call(
        simulate, model,
        IntegratorSpec(scheme=integ.scheme, dt=integ.dt, n_steps=solo_steps,
                       seed=integ.seed, store_noise=True, stride=1),
        start, traj_index=0,
        work={"replica_steps": solo_steps, "noise_draws": solo_steps * dim})
    solo_last = rec.call(
        simulate, model,
        IntegratorSpec(scheme=integ.scheme, dt=integ.dt, n_steps=solo_steps,
                       seed=integ.seed, stride=STRIDE),
        start, traj_index=replicas - 1,
        work={"replica_steps": solo_steps, "noise_draws": solo_steps * dim})
    fit = rec.call(geometric_rate_fit, ens.times, ens.p[:, :, 0],
                   work={"samples": ens.p.size})
    return {"model": model, "fdt_defect": fdt_defect, "margin": margin,
            "cert_c": cert_c, "verification": verification, "ens": ens,
            "solo_first": solo_first, "solo_last": solo_last, "fit": fit}


def euler_map_residual(traj, beta, dt):
    """Largest deviation of a stored-noise stride-1 path from the Euler map
    recomputed with the benchmark's own a(q), g(q) and F(q)."""
    q, p, s = traj.q[:-1, 0], traj.p[:-1, 0], traj.s[:-1, 0]
    xi = traj.noise[:, 1]
    a, g = a_of(q), g_of(q)
    q_next = np.mod(q + dt * p, 1.0)
    p_next = p + dt * (force_of(q) + a * s)
    s_next = s + dt * (-a * p - 0.5 * g * g * s) + np.sqrt(dt / beta) * g * xi
    dq = np.abs((traj.q[1:, 0] - q_next + 0.5) % 1.0 - 0.5)
    scale = 1.0 + max(np.abs(traj.p).max(), np.abs(traj.s).max())
    return max(dq.max(), np.abs(traj.p[1:, 0] - p_next).max() / scale,
               np.abs(traj.s[1:, 0] - s_next).max() / scale)


def check(out, inputs):
    problems = []
    beta, grid = inputs["beta"], inputs["grid"]
    ens, first, last = out["ens"], out["solo_first"], out["solo_last"]
    replicas = inputs["replicas"]

    residual = euler_map_residual(first, beta, DT)
    if not residual <= 1e-12:
        problems.append(f"stride-1 replica deviates from the Euler map by {residual:.3e}")
    k = len(last)
    for label, got, want in (
            ("first", (ens.q[0, :k], ens.p[0, :k], ens.s[0, :k]),
             (first.q[::STRIDE], first.p[::STRIDE], first.s[::STRIDE])),
            ("last", (ens.q[replicas - 1, :k], ens.p[replicas - 1, :k],
                      ens.s[replicas - 1, :k]),
             (last.q, last.p, last.s))):
        if any(x.shape != y.shape or not np.array_equal(x, y)
               for x, y in zip(got, want)):
            problems.append(f"ensemble replica ({label}) differs from its solo run")

    q = grid[:, 0]
    a, g = a_of(q), g_of(q)
    c = out["cert_c"]
    # R(q) = Gamma(q) C + C Gamma(q)' for Gamma = [[0, -a], [a, g^2/2]]
    h = 0.5 * g * g
    r11 = -2.0 * a * c[1, 0]
    r12 = -a * c[1, 1] + a * c[0, 0] + h * c[1, 0]
    r22 = 2.0 * (a * c[0, 1] + h * c[1, 1])
    closed = float(sym2_min_eig(r11, r12, r22).min())
    margin = out["verification"].margin
    if not (margin > 0 and abs(margin - closed) <= 1e-10 * max(1.0, np.abs(c).max())):
        problems.append(f"certificate grid margin {margin!r} vs closed form {closed!r}")
    # Gamma has complex eigenvalues with real part g^2/4 since a > g^2/4
    stab = float((0.25 * g * g).min())
    if not abs(out["margin"] - stab) <= 1e-10:
        problems.append(f"stability margin {out['margin']!r} vs closed form {stab!r}")
    if not out["fdt_defect"] <= 1e-12:
        problems.append(f"verify_fdt defect {out['fdt_defect']:.3e} is not at roundoff")

    acc = ens.meta["observables"]["p"]
    if acc.count != ens.p.size or \
            not abs(acc.mean - ens.p.mean()) <= 1e-12 * (1.0 + np.abs(ens.p).max()):
        problems.append(f"accumulator mean {acc.mean!r} != numpy mean {ens.p.mean()!r}")

    late = ens.p[:, int(LATE_FRACTION * ens.p.shape[1]):, 0].mean(axis=1)
    mean_late = late.mean()
    se_late = late.std(ddof=1) / np.sqrt(late.shape[0])
    if not mean_late > 0:
        problems.append(f"late-time mean momentum {mean_late:.4f} "
                        f"(se {se_late:.4f}) does not follow the tilt")
    fit = out["fit"]
    if not (np.isfinite(fit.kappa) and fit.kappa > 0):
        problems.append(f"relaxation rate {fit.kappa!r} is not positive")
    return problems
