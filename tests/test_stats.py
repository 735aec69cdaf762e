import numpy as np
import pytest

from qgle.errors import NoSignalError
from qgle.kernels import coeffs_from_prony
from qgle.model import CoefficientField, Domain, ForceField, ModelSpec
from qgle.simulate import GibbsInit, IntegratorSpec, simulate
from qgle.stats import (
    autocovariance,
    clt_sigma,
    geometric_rate_fit,
    gibbs_moment_test,
    gibbs_quadrature_mean,
    integrated_autocorrelation_time,
    noise_stationarity_test,
)

from conftest import prony_model


def ar1(rng, n, rho, scale=1.0):
    x = np.empty(n)
    x[0] = rng.standard_normal() * scale / np.sqrt(1 - rho * rho)
    eps = rng.standard_normal(n) * scale
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    return x


class TestAutocovariance:
    def test_constant_series_vanishes(self):
        est = autocovariance(np.full(1000, 3.7), max_lag=5)
        assert np.allclose(est.values, 0.0)

    def test_white_noise(self):
        rng = np.random.default_rng(0)
        est = autocovariance(rng.standard_normal(200_000), max_lag=5)
        assert est.values[0] == pytest.approx(1.0, abs=0.02)
        for lag in range(1, 6):
            assert abs(est.values[lag]) <= 3 * est.stderr[lag]

    def test_ar1_decay(self):
        rng = np.random.default_rng(1)
        rho = 0.9
        x = ar1(rng, 400_000, rho)
        est = autocovariance(x, max_lag=8)
        for lag in range(9):
            target = rho ** lag / (1 - rho * rho)
            assert abs(est.values[lag] - target) <= 4 * max(est.stderr[lag], 1e-12)

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(2)
        x = ar1(rng, 5000, 0.5)
        a = autocovariance(x, max_lag=10)
        b = autocovariance(x[::-1], max_lag=10)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_vector_series_lag_zero_psd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5000, 2)) @ np.array([[1.0, 0.3], [0.0, 0.5]])
        est = autocovariance(x, max_lag=2)
        assert np.allclose(est.values[0], est.values[0].T)
        assert np.linalg.eigvalsh(est.values[0]).min() > 0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            autocovariance(np.arange(50.0), max_lag=10)


class TestCltSigma:
    def test_iid_normal(self):
        rng = np.random.default_rng(4)
        est = clt_sigma(rng.standard_normal(1_000_000))
        assert est.sigma2 == pytest.approx(1.0, rel=0.05)

    def test_ar1_analytic_value(self):
        # long-run variance of AR(1): var * (1+rho)/(1-rho) = 4 for rho = 1/2
        rng = np.random.default_rng(5)
        x = ar1(rng, 400_000, 0.5)
        est = clt_sigma(x, "green_kubo_window")
        assert est.sigma2 == pytest.approx(4.0, rel=0.05)

    def test_ar1_brute_force_oracle(self):
        # independent oracle: variance of scaled means over long batches
        rng = np.random.default_rng(6)
        length = 4000
        segments = np.array([ar1(rng, length, 0.5).mean() for _ in range(400)])
        oracle = length * segments.var(ddof=1)
        assert oracle == pytest.approx(4.0, rel=0.2)

    def test_methods_agree_within_error_bars(self):
        agreements = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = ar1(rng, 100_000, 0.5)
            gk = clt_sigma(x, "green_kubo_window")
            bm = clt_sigma(x, "batch_means")
            if abs(gk.sigma2 - bm.sigma2) <= 2 * np.hypot(gk.stderr, bm.stderr):
                agreements += 1
        assert agreements >= 8

    def test_constant_series_gives_zero(self):
        est = clt_sigma(np.full(1000, 2.0))
        assert est.sigma2 == 0.0

    def test_time_units(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100_000)
        assert clt_sigma(x, dt=0.1).sigma2 == pytest.approx(
            0.1 * clt_sigma(x, dt=1.0).sigma2)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            clt_sigma(np.arange(5.0))

    def test_langevin_momentum_variance(self):
        # white-noise-limit momentum block: sigma^2 = 2/(beta gamma)
        gamma_fric, beta = 1.0, 1.0
        coeffs = CoefficientField(
            1, 1, gamma=[[gamma_fric, 0.0], [0.0, 1.0]],
            sigma=[[np.sqrt(2 * gamma_fric), 0.0], [0.0, np.sqrt(2.0)]])
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1),
                          beta=beta, force=ForceField.zero(1), coeffs=coeffs,
                          Q=np.eye(1))
        integ = IntegratorSpec("semi_exact_splitting", dt=1e-2,
                               n_steps=200_000, seed=9)
        traj = simulate(model, integ, GibbsInit())
        est = clt_sigma(traj.p[:, 0], "green_kubo_window", dt=1e-2)
        assert est.sigma2 == pytest.approx(2.0, rel=0.2)


class TestGibbsMomentTest:
    def test_direct_sampler_calibration(self):
        # iid draws from the exact Gibbs measure must pass at the 3-sigma
        # level in at least 99% of repetitions (here: >= 97/100)
        model = prony_model(potential="cos(2*pi*q1)", beta=1.0)
        from qgle.simulate import sample_gibbs, Trajectory
        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q, p, s = sample_gibbs(model, rng, size=4000)
            traj = Trajectory(times=np.arange(4000.0), q=q, p=p, s=s,
                              noise=None, meta={})
            report = gibbs_moment_test(traj, model,
                                       observable=lambda q: np.cos(2 * np.pi * q[:, 0]),
                                       burn_in=0.0)
            if report.max_abs_z <= 3.0:
                passes += 1
        assert passes >= 97

    def test_quadrature_target_matches_bessel_ratio(self):
        from scipy.special import iv
        model = prony_model(potential="cos(2*pi*q1)", beta=1.3)
        target = gibbs_quadrature_mean(lambda q: np.cos(2 * np.pi * q[:, 0]),
                                       model.force.potential, 1.3)
        assert target == pytest.approx(-iv(1, 1.3) / iv(0, 1.3), abs=1e-6)

    def test_non_equilibrium_model_reports_large_z(self):
        # wrong temperature in the report target: diagnostic, not an error
        model = prony_model(potential=None, beta=1.0)
        hot = ModelSpec(domain=model.domain, mass=model.mass, beta=4.0,
                        force=model.force, coeffs=model.coeffs, Q=model.Q)
        integ = IntegratorSpec("semi_exact_splitting", dt=1e-2,
                               n_steps=20_000, seed=1)
        traj = simulate(model, integ, GibbsInit())
        report = gibbs_moment_test(traj, hot)
        assert report.max_abs_z > 3.0

    def test_symmetric_blocks_are_exactly_symmetric(self):
        from qgle.simulate import Trajectory
        from qgle.stats import _corrected_z
        mass = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        q_aux = np.array([[1.0, 0.4], [0.4, 0.8]])
        model = ModelSpec(domain=Domain("torus", 3), mass=mass, beta=1.0,
                          force=ForceField.zero(3),
                          coeffs=CoefficientField(3, 2, gamma=np.eye(5),
                                                  sigma=np.eye(5)),
                          Q=q_aux)
        rng = np.random.default_rng(3)
        p = rng.standard_normal((3000, 3)) @ np.linalg.cholesky(mass).T
        s = rng.standard_normal((3000, 2)) @ np.linalg.cholesky(q_aux).T
        traj = Trajectory(times=np.arange(3000.0), q=rng.random((3000, 3)),
                          p=p, s=s, noise=None, meta={})
        report = gibbs_moment_test(traj, model, burn_in=0.0)
        for z, x, target in ((report.z_pp, p, mass), (report.z_ss, s, q_aux)):
            assert np.array_equal(z, z.T)
            # the mirrored lower triangle keeps the value of a direct fill
            for i in range(x.shape[1]):
                for j in range(i):
                    assert z[i, j] == _corrected_z(x[:, i] * x[:, j],
                                                   target[i, j])

    def test_empty_post_burn_in_rejected(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=5, seed=0)
        traj = simulate(model, integ, GibbsInit())
        with pytest.raises(ValueError):
            gibbs_moment_test(traj, model, burn_in=0.99)


class TestNoiseStationarity:
    def make_exact_ou(self, alpha, beta, dt, n, seed):
        rng = np.random.default_rng(seed)
        decay = np.exp(-alpha * dt)
        std = np.sqrt((1 - decay**2) / beta)
        s = np.empty((n, 1))
        s[0, 0] = rng.standard_normal() / np.sqrt(beta)
        shocks = rng.standard_normal(n) * std
        for i in range(1, n):
            s[i, 0] = decay * s[i - 1, 0] + shocks[i]
        return s

    def test_exact_ou_path_matches_reference(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        dt = 0.02
        s = self.make_exact_ou(1.0, 1.0, dt, 300_000, 0)
        lags = np.arange(0, int(3.0 / dt) + 1, 15)
        result = noise_stationarity_test(s, coeffs, q_mat, 1.0, lags, dt)
        assert result.max_deviation <= 0.05

    def test_lag_zero_compares_against_marginal(self):
        coeffs, q_mat = coeffs_from_prony([(2.0, 0.5)])
        beta = 2.0
        s = self.make_exact_ou(0.5, beta, 0.05, 100_000, 1)
        result = noise_stationarity_test(s, coeffs, q_mat, beta, [0], 0.05)
        assert result.deviations[0] <= 0.05

    def test_position_dependent_rejected(self):
        from conftest import EXAMPLE_GAMMA_ENTRIES, EXAMPLE_SIGMA_ENTRIES
        coeffs = CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                                  sigma_entries=EXAMPLE_SIGMA_ENTRIES)
        with pytest.raises(ValueError):
            noise_stationarity_test(np.zeros((100, 1)), coeffs, np.eye(1),
                                    1.0, [0], 0.01)

    def test_deviation_shrinks_with_budget(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        dt = 0.02
        lags = np.arange(0, 80, 8)
        wins = 0
        for seed in range(10):
            small = noise_stationarity_test(
                self.make_exact_ou(1.0, 1.0, dt, 20_000, seed),
                coeffs, q_mat, 1.0, lags, dt)
            big = noise_stationarity_test(
                self.make_exact_ou(1.0, 1.0, dt, 80_000, 1000 + seed),
                coeffs, q_mat, 1.0, lags, dt)
            if big.max_deviation <= small.max_deviation:
                wins += 1
        assert wins >= 7


class TestGeometricRateFit:
    def synthetic_ensemble(self, rng, rate, n_traj=64, n_t=200, noise=0.01):
        t = np.linspace(0.0, 6.0, n_t)
        mean = np.exp(-rate * t)
        values = mean[None, :] + noise * rng.standard_normal((n_traj, n_t))
        return t, values

    def test_recovers_ou_relaxation_rate(self):
        rng = np.random.default_rng(0)
        t, values = self.synthetic_ensemble(rng, rate=1.0)
        fit = geometric_rate_fit(t, values, mu=0.0)
        assert fit.kappa == pytest.approx(1.0, rel=0.15)
        assert fit.r_squared >= 0.9

    def test_equilibrated_ensemble_raises_no_signal(self):
        rng = np.random.default_rng(1)
        values = 0.01 * rng.standard_normal((64, 100))
        with pytest.raises(NoSignalError):
            geometric_rate_fit(np.linspace(0, 1, 100), values, mu=0.0)

    def test_two_timescale_late_window(self):
        # late-time fit on bi-exponential data recovers the slow rate
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 8.0, 400)
        mean = 0.5 * np.exp(-10.0 * t) + 0.5 * np.exp(-1.0 * t)
        values = mean[None, :] + 0.002 * rng.standard_normal((128, 400))
        late = t >= 1.0
        fit = geometric_rate_fit(t[late], values[:, late], mu=0.0)
        assert fit.kappa == pytest.approx(1.0, rel=0.25)

    def test_tail_estimates_mu(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 10.0, 300)
        mean = 0.7 + np.exp(-2.0 * t)
        values = mean[None, :] + 0.01 * rng.standard_normal((64, 300))
        fit = geometric_rate_fit(t, values)
        assert fit.mu == pytest.approx(0.7, abs=0.02)
        assert fit.kappa == pytest.approx(2.0, rel=0.25)


def test_integrated_autocorrelation_time_values():
    rng = np.random.default_rng(8)
    assert integrated_autocorrelation_time(rng.standard_normal(100_000)) == \
        pytest.approx(0.5, abs=0.05)
    rho = 0.8
    x = ar1(rng, 400_000, rho)
    # tau_int = 1/2 + rho/(1-rho) = 4.5
    assert integrated_autocorrelation_time(x) == pytest.approx(4.5, rel=0.1)
