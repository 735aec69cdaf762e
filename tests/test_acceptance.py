"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not tuned at runtime.
"""

import os
import time

import numpy as np
import pytest

from qgle.cli import dispatch
from qgle.ergodicity import (
    drift_samples,
    hormander_const_check,
    lyapunov_drift_constants,
    lyapunov_matrix_const,
    unbounded_certificate,
)
from qgle.fordkac import (
    fordkac_simulate,
    fordkac_spectrum_for_exponential,
    fordkac_vs_gle,
)
from qgle.kernels import coeffs_from_prony
from qgle.model import (
    CoefficientField,
    Domain,
    ExtendedState,
    ForceField,
    ModelSpec,
    purecolor_check,
    solve_fdt_Q,
    verify_fdt,
)
from qgle.simulate import (
    GibbsInit,
    IntegratorSpec,
    colored_noise_path,
    ide_residual_check,
    simulate,
    simulate_ensemble,
)
from qgle.stats import (
    clt_sigma,
    geometric_rate_fit,
    gibbs_quadrature_mean,
    integrated_autocorrelation_time,
    noise_stationarity_test,
)

from conftest import (
    EXAMPLE_GAMMA_ENTRIES,
    EXAMPLE_SIGMA_ENTRIES,
    prony_model,
    random_prony_modes,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number:2d} ({name}): {detail} "
          f"[{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def corrected_se(series):
    tau = integrated_autocorrelation_time(series)
    return np.sqrt(series.var() * 2.0 * tau / series.shape[0])


def test_criterion_01_figure_reproduction(tmp_path):
    start = time.perf_counter()
    code = dispatch(["figure-eigs", "--config",
                     os.path.join(CONFIG_DIR, "example_torus.json"),
                     "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    rows = (tmp_path / "figure_eigs.csv").read_text().splitlines()
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    mid = data[np.argmin(np.abs(data[:, 0] - 0.5))]
    ok = (code == 0 and data.shape[0] == 1001
          and np.all(data[:, 1:] > 0)
          and abs(mid[1] - 0.3241) <= 1e-3
          and abs(data[0, 1] - 1.0) <= 1e-9
          and abs(data[0, 2] - 1.0) <= 1e-9
          and np.argmin(data[:, 1]) == np.argmin(np.abs(data[:, 0] - 0.5)))
    report(1, "figure reproduction", ok,
           f"min eig {mid[1]:.4f} at q=0.5, eigs at q=0 = "
           f"({data[0, 1]:.9f}, {data[0, 2]:.9f})", elapsed, 1.0)


def test_criterion_02_fdt_algebra():
    start = time.perf_counter()
    worst_fdt = worst_pure = 0.0
    rng = np.random.default_rng(2024)
    for _ in range(100):
        coeffs, _ = coeffs_from_prony(random_prony_modes(rng))
        result = solve_fdt_Q(coeffs)
        worst_fdt = max(worst_fdt, verify_fdt(coeffs, result.Q))
        worst_pure = max(worst_pure, purecolor_check(coeffs, result.Q))
    elapsed = time.perf_counter() - start
    ok = worst_fdt <= 1e-10 and worst_pure <= 1e-10
    report(2, "FDT algebra", ok,
           f"100 systems, max relation defect {worst_fdt:.2e}, "
           f"max coupling violation {worst_pure:.2e}", elapsed, 1.0)


def test_criterion_03_discrete_ide_equivalence():
    start = time.perf_counter()
    residuals = []
    rng = np.random.default_rng(99)
    example_coeffs = CoefficientField(1, 1,
                                      gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                                      sigma_entries=EXAMPLE_SIGMA_ENTRIES)
    force = ForceField.from_potential_expr("cos(2*pi*q1)", 1)
    for run in range(10):
        if run < 5:
            coeffs, q_mat = coeffs_from_prony(random_prony_modes(rng))
            model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1),
                              beta=1.0, force=force, coeffs=coeffs, Q=q_mat)
        else:
            model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1),
                              beta=1.0, force=force, coeffs=example_coeffs,
                              Q=np.eye(1))
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=1000,
                               seed=run, store_noise=True)
        traj = simulate(model, integ, GibbsInit())
        residuals.append(ide_residual_check(model, traj))
    elapsed = time.perf_counter() - start
    ok = max(residuals) <= 1e-10
    report(3, "discrete IDE equivalence", ok,
           f"10 trajectories, max residual {max(residuals):.2e}", elapsed, 5.0)


def test_criterion_04_invariant_measure():
    start = time.perf_counter()
    model = prony_model(potential="cos(2*pi*q1)")
    integ = IntegratorSpec("semi_exact_splitting", dt=1e-2, n_steps=1_000_000,
                           seed=20, stride=1)
    traj = simulate(model, integ, GibbsInit())
    checks = []
    for series, target, label in (
            (traj.p[:, 0] ** 2, 1.0, "E[p^2]"),
            (traj.s[:, 0] ** 2, 1.0, "E[s^2]")):
        se = corrected_se(series)
        checks.append((label, series.mean(), target, se,
                       abs(series.mean() - target) <= 3 * se))
    cos_series = np.cos(2 * np.pi * traj.q[:, 0])
    target = gibbs_quadrature_mean(lambda q: np.cos(2 * np.pi * q[:, 0]),
                                   model.force.potential, model.beta)
    se = corrected_se(cos_series)
    checks.append(("E[cos 2 pi q]", cos_series.mean(), target, se,
                   abs(cos_series.mean() - target) <= 3 * se))
    elapsed = time.perf_counter() - start
    ok = all(c[-1] for c in checks)
    detail = "; ".join(f"{label} = {mean:.4f} vs {tgt:.4f} (se {se:.4f})"
                       for label, mean, tgt, se, _ in checks)
    report(4, "invariant measure", ok, detail, elapsed, 60.0)


def test_criterion_05_noise_stationarity():
    start = time.perf_counter()
    alpha = 1.0
    model = prony_model(modes=((1.0, alpha),), potential="cos(2*pi*q1)")
    integ = IntegratorSpec("euler_maruyama", dt=1e-2, n_steps=1_000_000,
                           seed=31, store_noise=True, stride=1000)
    traj = simulate(model, integ, GibbsInit())
    # the colored-noise process of the trajectory's own increments: an
    # autonomous OU started from the Gibbs-distributed s(0)
    eta = colored_noise_path(model.coeffs, model.beta, integ.dt, traj.noise,
                             traj.s[0])
    lags = np.arange(0, int(3.0 / alpha / integ.dt) + 1, 10)
    result = noise_stationarity_test(eta, model.coeffs, model.Q, model.beta,
                                     lags, integ.dt)
    elapsed = time.perf_counter() - start
    ok = result.max_deviation <= 0.05
    report(5, "noise stationarity", ok,
           f"max relative deviation {result.max_deviation:.4f} over "
           f"{lags.size} lags up to 3/alpha", elapsed, 60.0)


def test_criterion_06_hypoellipticity_checker():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    all_ok = True
    for _ in range(50):
        coeffs, _ = coeffs_from_prony(random_prony_modes(rng))
        all_ok &= hormander_const_check(coeffs, "ii").satisfied
        all_ok &= hormander_const_check(coeffs, "iii").satisfied
    m = 3
    gamma = np.zeros((1 + m, 1 + m))
    gamma[1:, 1:] = np.diag([1.0, 2.0, 3.0])
    gamma[1:, 0] = 1.0  # momentum feeds the auxiliaries, but not back
    sigma = np.zeros((1 + m, 1 + m))
    sigma[1:, 1:] = np.eye(m)
    degenerate = CoefficientField(1, m, gamma=gamma, sigma=sigma)
    cert = hormander_const_check(degenerate, "ii")
    degenerate_ok = (not cert.satisfied
                     and cert.witness["achieved_rank"] == m)
    elapsed = time.perf_counter() - start
    ok = all_ok and degenerate_ok
    report(6, "hypoellipticity checker", ok,
           f"50 systems satisfied via modes ii and iii; degenerate system "
           f"achieved rank {cert.witness['achieved_rank']} (= m = {m}), "
           f"unsatisfied", elapsed, 1.0)


def test_criterion_07_lyapunov_certificates():
    start = time.perf_counter()
    from conftest import random_stable_gamma
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        gamma = random_stable_gamma(rng, int(rng.integers(2, 6)))
        worst = max(worst, lyapunov_matrix_const(gamma).residual)

    model = prony_model(potential="cos(2*pi*q1)")
    lyap = lyapunov_matrix_const(model.coeffs.gamma())
    samples = drift_samples(model, radius=60.0)  # beyond the force/friction
    drift = lyapunov_drift_constants(model, lyap.C, l=1, samples=samples)

    bench = CoefficientField(1, 1, gamma=[[0.0, -1.0], [1.0, 1.0]],
                             sigma=[[0.0, 0.0], [0.0, np.sqrt(2.0)]])
    cert = unbounded_certificate(bench, np.eye(1), growth_E=1.0, hbar=1.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and drift.a > 0 and cert.satisfied and cert.margin > 0
    report(7, "Lyapunov certificates", ok,
           f"dense-solve residual <= {worst:.2e} on 100 systems; torus drift "
           f"a = {drift.a:.3f}; unbounded witness A={cert.witness['A']:g}, "
           f"B={cert.witness['B']:g}, margin {cert.margin:.3f}",
           elapsed, 10.0)


def test_criterion_08_clt_variance():
    start = time.perf_counter()
    gamma_fric = beta = 1.0
    coeffs = CoefficientField(
        1, 1, gamma=[[gamma_fric, 0.0], [0.0, 1.0]],
        sigma=[[np.sqrt(2.0 * gamma_fric), 0.0], [0.0, np.sqrt(2.0)]])
    model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=beta,
                      force=ForceField.zero(1), coeffs=coeffs, Q=np.eye(1))
    # the exact friction/noise map makes the momentum chain exact in law at
    # any step, so a coarse step buys independent samples without bias
    integ = IntegratorSpec("semi_exact_splitting", dt=5e-2,
                           n_steps=1_000_000, seed=8)
    ens = simulate_ensemble(model, integ, GibbsInit(), n_replicas=10)
    target = 2.0 / (beta * gamma_fric)
    agreements = 0
    gk_values = []
    for r in range(10):
        series = ens.p[r, :, 0]
        gk = clt_sigma(series, "green_kubo_window", dt=integ.dt)
        bm = clt_sigma(series, "batch_means", dt=integ.dt)
        gk_values.append(gk.sigma2)
        if abs(gk.sigma2 - bm.sigma2) <= 2 * np.hypot(gk.stderr, bm.stderr):
            agreements += 1
    elapsed = time.perf_counter() - start
    benchmark = gk_values[0]
    ok = (abs(benchmark - target) <= 0.1 * target
          and abs(np.median(gk_values) - target) <= 0.1 * target
          and agreements >= 8)
    report(8, "CLT variance", ok,
           f"sigma^2 = {benchmark:.3f} vs 2/(beta gamma) = {target:.1f} "
           f"(all-seed range {min(gk_values):.3f}..{max(gk_values):.3f}); "
           f"estimators agree in {agreements}/10 seeds", elapsed, 60.0)


def test_criterion_09_geometric_convergence():
    start = time.perf_counter()
    model = prony_model(modes=((9.0, 3.0),), potential="0.5*cos(2*pi*q1)")
    mu = gibbs_quadrature_mean(lambda q: np.cos(2 * np.pi * q[:, 0]),
                               model.force.potential, model.beta)
    integ = IntegratorSpec("semi_exact_splitting", dt=5e-3, n_steps=3200,
                           seed=4, stride=4)
    ens = simulate_ensemble(model, integ,
                            ExtendedState(q=[0.0], p=[0.0], s=[0.0]),
                            n_replicas=256)
    observable = np.cos(2 * np.pi * ens.q[:, :, 0])
    window = ens.times >= 0.5  # past the hypoelliptic start-up plateau
    fit = geometric_rate_fit(ens.times[window], observable[:, window], mu=mu)
    elapsed = time.perf_counter() - start
    ok = fit.kappa > 0 and fit.r_squared >= 0.9
    report(9, "geometric convergence", ok,
           f"kappa = {fit.kappa:.2f}, R^2 = {fit.r_squared:.3f} over "
           f"{fit.window[1] - fit.window[0]} fitted points", elapsed, 120.0)


def test_criterion_10_fordkac_thermodynamic_limit():
    start = time.perf_counter()
    force = ForceField.harmonic([[1.0]])
    comparison = fordkac_vs_gle(1.0, 1.0, [16, 64, 256], force, T=5.0,
                                n_ensemble=256, seed=15)
    spectrum = fordkac_spectrum_for_exponential(1.0, 1.0, 16, 20.0)
    traj = fordkac_simulate(force, spectrum, 1.0, 1e-3, 10.0, 3,
                            q0=0.5, p0=0.5)
    drift = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
    elapsed = time.perf_counter() - start
    rows = "; ".join(f"m={m}: {metric:.4f} (se {err:.4f})"
                     for m, metric, err in comparison.rows)
    ok = comparison.passed and drift <= 1e-4
    report(10, "Ford-Kac thermodynamic limit", ok,
           f"{rows}; combined error {comparison.combined_error:.4f}; "
           f"energy drift {drift:.2e}", elapsed, 300.0)
