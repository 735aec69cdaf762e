"""Workload ``kernel_sweep``: full certification of a family of Prony models.

Each round draws a family of constant-coefficient Prony kernels with one to
24 modes and n in {1, 2} (up to 32 auxiliary variables).  The benchmark writes each model's
Prony embedding under a seeded orthogonal rotation of the auxiliary block
(dense matrices, still Q = I) as config text of kind ``constant``, so that
``parse_config`` solves for Q.  Every model is certified (``solve_fdt_Q``,
``verify_fdt``, ``purecolor_check``, ``stability_margin``, Hoermander modes
ii and iii, ``lyapunov_matrix_const``, ``kernel_eval`` on a lag grid) and
then gets a short zero-force, Gibbs-started splitting ensemble and
``gibbs_moment_test``.  The dense Kronecker solves of ``model`` and
``ergodicity`` carry the time here and nowhere else.

``unbounded_certificate`` is left out: it raises for every model whose
auxiliary dimension differs from n (see CHANGES.md).
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from qgle import (
    GibbsInit,
    MemoryKernel,
    NOT_APPLICABLE,
    Trajectory,
    gibbs_moment_test,
    hormander_const_check,
    kernel_eval,
    lyapunov_matrix_const,
    purecolor_check,
    simulate_ensemble,
    solve_fdt_Q,
    stability_margin,
    verify_fdt,
)
from qgle.config import parse_config

from refs import replica_means_z

TAG = 3
# (n, number of Prony modes); the auxiliary dimension is m = n * modes
SIZES = {
    "full": {"family": [(1, 1), (1, 2), (1, 4), (1, 8), (1, 12), (1, 16),
                        (1, 24), (2, 1), (2, 2), (2, 4), (2, 8), (2, 12),
                        (2, 16)],
             "replicas": 64, "n_steps": 400},
    "quick": {"family": [(1, 1), (1, 3), (1, 8), (2, 1), (2, 4)],
              "replicas": 32, "n_steps": 200},
}
DT = 0.05
STRIDE = 5
LAGS = np.linspace(0.0, 5.0, 16)
Z_LIMIT = 6.5        # |z| bound of the pooled moments (t with R - 1 dof)


def prony_embedding(n, modes, rotation):
    """Gamma and Sigma of a Prony kernel, auxiliary block rotated by U:
    Gamma = T Gamma0 T', Sigma = T Sigma0 with T = diag(I_n, U)."""
    m = n * len(modes)
    dim = n + m
    gamma = np.zeros((dim, dim))
    sigma = np.zeros((dim, dim))
    for i, (c, alpha) in enumerate(modes):
        rows = slice(n + i * n, n + (i + 1) * n)
        gamma[:n, rows] = -np.sqrt(c) * np.eye(n)
        gamma[rows, :n] = np.sqrt(c) * np.eye(n)
        gamma[rows, rows] = alpha * np.eye(n)
        sigma[rows, rows] = np.sqrt(2.0 * alpha) * np.eye(n)
    t = np.eye(dim)
    t[n:, n:] = rotation
    return t @ gamma @ t.T, t @ sigma


def random_rotation(rng, m):
    z = rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def make_inputs(seed, round_index, size):
    rng = np.random.default_rng([seed, round_index, TAG])
    sz = SIZES[size]
    models = []
    for n, k in sz["family"]:
        modes = [(float(rng.uniform(0.2, 2.0)),
                  float(np.exp(rng.uniform(np.log(0.3), np.log(10.0)))))
                 for _ in range(k)]
        gamma, sigma = prony_embedding(n, modes, random_rotation(rng, n * k))
        beta = float(rng.uniform(0.5, 2.0))
        config = {
            "model": {"domain": {"kind": "torus", "dim": n}, "beta": beta,
                      "force": {"kind": "zero"}},
            "coefficients": {"kind": "constant", "m": n * k,
                             "gamma": gamma.tolist(), "sigma": sigma.tolist()},
            "integrator": {"scheme": "semi_exact_splitting", "dt": DT,
                           "n_steps": sz["n_steps"],
                           "seed": int(rng.integers(0, 2**32)),
                           "stride": STRIDE},
        }
        models.append({"config_text": json.dumps(config), "n": n,
                       "modes": modes, "beta": beta})
    return {"models": models, "replicas": sz["replicas"]}


def setup(rec, inputs):
    return [rec.call(parse_config, spec["config_text"])
            for spec in inputs["models"]]


def certify_and_sample(rec, cfg, replicas):
    model, integ = cfg.model, cfg.integrator
    coeffs = model.coeffs
    out = {"model": model}
    out["fdt"] = rec.call(solve_fdt_Q, coeffs)
    out["fdt_defect"] = rec.call(verify_fdt, coeffs, out["fdt"].Q)
    out["purecolor"] = rec.call(purecolor_check, coeffs, out["fdt"].Q)
    out["margin"] = rec.call(stability_margin, coeffs)
    out["hormander"] = [rec.call(hormander_const_check, coeffs, mode)
                        for mode in ("ii", "iii")]
    out["lyapunov"] = rec.call(lyapunov_matrix_const, coeffs.gamma())
    kernel = rec.call(MemoryKernel.from_coeffs, coeffs)
    out["kernel"] = np.stack([rec.call(kernel_eval, kernel, tau)
                              for tau in LAGS])
    steps = integ.n_steps
    ens = rec.call(simulate_ensemble, model, integ, GibbsInit(), replicas,
                   work={"replica_steps": replicas * steps,
                         "noise_draws": replicas * steps * (model.n + model.m)})
    pooled = Trajectory(times=np.arange(ens.q.shape[0] * ens.q.shape[1]),
                        q=ens.q.reshape(-1, model.n),
                        p=ens.p.reshape(-1, model.n),
                        s=ens.s.reshape(-1, model.m), noise=None)
    out["moments"] = rec.call(gibbs_moment_test, pooled, model, burn_in=0.0,
                              work={"samples": len(pooled)})
    out["ens"] = ens
    return out


def run(rec, cfgs, inputs, out_dir):
    return [certify_and_sample(rec, cfg, inputs["replicas"]) for cfg in cfgs]


def check_model(out, spec):
    problems = []
    n, modes, beta = spec["n"], spec["modes"], spec["beta"]
    model = out["model"]
    m = model.m
    gamma = model.coeffs.gamma()
    if not np.abs(out["fdt"].Q - np.eye(m)).max() <= 1e-9:
        problems.append(f"Q differs from I by {np.abs(out['fdt'].Q - np.eye(m)).max():.3e}")
    if not out["fdt_defect"] <= 1e-9 * max(1.0, np.abs(gamma).max()):
        problems.append(f"verify_fdt defect {out['fdt_defect']:.3e}")
    if out["purecolor"] is NOT_APPLICABLE or not out["purecolor"] <= 1e-9:
        problems.append(f"pure-colour constraint violated: {out['purecolor']!r}")
    if not out["margin"] > 0:
        problems.append(f"stability margin {out['margin']!r} is not positive")
    for cert in out["hormander"]:
        if not cert.satisfied:
            problems.append(f"Hoermander {cert.witness.get('mode')} unsatisfied: {cert.notes}")

    x = solve_continuous_lyapunov(gamma.T, np.eye(n + m))
    x = 0.5 * (x + x.T)
    min_eig = np.linalg.eigvalsh(x).min()
    c_ref, lam_ref = x / min_eig, 1.0 / min_eig
    lyap = out["lyapunov"]
    if not (np.abs(lyap.C - c_ref).max() <= 1e-7 * np.abs(c_ref).max()
            and abs(lyap.lam - lam_ref) <= 1e-7 * lam_ref):
        problems.append("Lyapunov matrix differs from scipy's solve_continuous_lyapunov "
                        f"by {np.abs(lyap.C - c_ref).max():.3e}")

    sums = np.array([sum(c * np.exp(-a * tau) for c, a in modes) for tau in LAGS])
    ref = sums[:, None, None] * np.eye(n)
    total = sum(c for c, _ in modes)
    if not np.abs(out["kernel"] - ref).max() <= 1e-9 * total:
        problems.append(f"kernel_eval differs from sum c_i exp(-alpha_i t) by "
                        f"{np.abs(out['kernel'] - ref).max():.3e}")

    ens = out["ens"]
    pp = beta * np.sum(ens.p ** 2, axis=-1) / n
    ss = beta * np.sum(ens.s ** 2, axis=-1) / m     # Q = I
    for label, values in (("p^2", pp), ("s^2", ss)):
        z = replica_means_z(values, 1.0)
        if not abs(z) <= Z_LIMIT:
            problems.append(f"pooled beta E[{label}] z = {z:.2f}")
    report = out["moments"]
    if report.n_samples != ens.p.shape[0] * ens.p.shape[1] or \
            not np.isfinite(report.max_abs_z):
        problems.append("gibbs_moment_test report is incomplete")
    return problems


def check(outs, inputs):
    problems = []
    for index, (out, spec) in enumerate(zip(outs, inputs["models"])):
        problems.extend(f"model {index} (n={spec['n']}, modes={len(spec['modes'])}): {p}"
                        for p in check_model(out, spec))
    return problems
