import numpy as np
import pytest
from scipy.linalg import expm

from qgle.errors import UnstableError
from qgle.kernels import (
    FordKacSpectrum,
    MemoryKernel,
    coeffs_from_prony,
    fordkac_kernel,
    fordkac_spectrum_for_exponential,
    kernel_eval,
    noise_covariance_eval,
    noneq_kernels,
    spectral_density,
)
from qgle.model import solve_fdt_Q

from conftest import random_prony_modes


class TestKernelEval:
    def test_matrix_exp_at_zero(self):
        kernel = MemoryKernel(n=1, delta_part=np.zeros((1, 1)),
                              colored_kind="matrix_exp",
                              g12=[[-1.0]], g22=[[0.7]], g21=[[1.0]])
        assert kernel_eval(kernel, 0.0) == pytest.approx(np.ones((1, 1)))

    def test_prony_values(self):
        kernel = MemoryKernel.from_prony([(2.0, 3.0)])
        assert kernel_eval(kernel, 0.0) == pytest.approx(np.array([[2.0]]))
        assert kernel_eval(kernel, np.log(2.0) / 3.0) == pytest.approx(np.array([[1.0]]))

    def test_zero_coupling_gives_zero(self):
        kernel = MemoryKernel(n=1, delta_part=np.zeros((1, 1)),
                              colored_kind="matrix_exp",
                              g12=[[0.0]], g22=[[1.0]], g21=[[1.0]])
        for tau in (0.0, 0.5, 3.0):
            assert np.all(kernel_eval(kernel, tau) == 0.0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(MemoryKernel.from_prony([(1.0, 1.0)]), -0.1)

    def test_round_trip_matches_prony_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            modes = random_prony_modes(rng)
            coeffs, _ = coeffs_from_prony(modes)
            kernel = MemoryKernel.from_coeffs(coeffs)
            for tau in np.arange(0.0, 5.01, 0.1):
                expected = sum(c * np.exp(-a * tau) for c, a in modes)
                assert kernel_eval(kernel, tau)[0, 0] == pytest.approx(
                    expected, abs=1e-10)

    def test_delta_part_accessor(self):
        kernel = MemoryKernel(n=1, delta_part=[[0.4]], colored_kind="prony",
                              modes=((1.0, 1.0),))
        assert kernel.delta_part == pytest.approx(np.array([[0.4]]))


class TestNoiseCovariance:
    def test_equals_kernel_under_coupling_constraint(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            modes = random_prony_modes(rng)
            coeffs, q_mat = coeffs_from_prony(modes)
            kernel = MemoryKernel.from_coeffs(coeffs)
            beta = rng.uniform(0.5, 3.0)
            for tau in (0.0, 0.3, 1.7):
                cov = noise_covariance_eval(coeffs, q_mat, beta, tau)
                assert np.allclose(cov, kernel_eval(kernel, tau) / beta,
                                   atol=1e-12)

    def test_long_lag_decay(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 0.8)])
        tau = 30.0 / 0.8
        assert np.abs(noise_covariance_eval(coeffs, q_mat, 1.0, tau)).max() < 1e-10

    def test_point_value(self):
        coeffs = None
        from qgle.model import CoefficientField
        coeffs = CoefficientField(1, 1, gamma=[[0.0, -1.0], [1.0, 1.0]],
                                  sigma=[[0.0, 0.0], [0.0, np.sqrt(2.0)]])
        value = noise_covariance_eval(coeffs, np.ones((1, 1)), 2.0, 0.0)
        assert value == pytest.approx(np.array([[0.5]]))

    def test_symmetric_psd_at_zero_lag(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0), (2.0, 0.5)])
        cov = noise_covariance_eval(coeffs, q_mat, 1.0, 0.0)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12


class TestCoeffsFromProny:
    def test_single_mode_blocks(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        assert np.allclose(coeffs.gamma(), [[0.0, -1.0], [1.0, 1.0]])
        assert coeffs.sigma()[1, 1] == pytest.approx(np.sqrt(2.0))
        assert np.allclose(q_mat, np.eye(1))
        kernel = MemoryKernel.from_coeffs(coeffs)
        assert kernel_eval(kernel, 1.0)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_two_modes_sum_at_zero(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0), (4.0, 2.0)])
        kernel = MemoryKernel.from_coeffs(coeffs)
        assert kernel_eval(kernel, 0.0)[0, 0] == pytest.approx(5.0)

    def test_nonpositive_mode_rejected(self):
        with pytest.raises(ValueError):
            coeffs_from_prony([(0.0, 1.0)])

    def test_fdt_holds_with_identity_q(self):
        from qgle.model import verify_fdt
        coeffs, q_mat = coeffs_from_prony([(2.0, 0.5), (0.3, 4.0)])
        assert verify_fdt(coeffs, q_mat) <= 1e-12

    def test_multidimensional_embedding(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 2.0)], n=2)
        assert coeffs.m == 2
        kernel = MemoryKernel.from_coeffs(coeffs)
        assert np.allclose(kernel_eval(kernel, 0.5), np.exp(-1.0) * np.eye(2))


class TestFordKacKernel:
    def test_sum_at_zero(self):
        spectrum = FordKacSpectrum(((1.0, 2.0), (0.5, 3.0)))
        assert fordkac_kernel(spectrum, 0.0) == pytest.approx(1.5)

    def test_single_cosine(self):
        spectrum = FordKacSpectrum(((1.0, np.pi),))
        assert fordkac_kernel(spectrum, 1.0) == pytest.approx(-1.0)

    def test_empty_spectrum(self):
        assert fordkac_kernel(FordKacSpectrum(()), 1.3) == 0.0

    def test_even_in_time(self):
        spectrum = FordKacSpectrum(((1.0, 2.0), (0.5, 3.3), (0.1, 7.0)))
        ts = np.linspace(0.0, 5.0, 23)
        assert np.array_equal(fordkac_kernel(spectrum, ts),
                              fordkac_kernel(spectrum, -ts))


class TestFordKacSpectrumForExponential:
    def test_value_at_zero_within_tail_bound(self):
        spectrum = fordkac_spectrum_for_exponential(1.0, 1.0, 400, 50.0)
        assert abs(fordkac_kernel(spectrum, 0.0) - 1.0) <= 0.02

    def test_single_mode_cannot_match(self):
        spectrum = fordkac_spectrum_for_exponential(1.0, 1.0, 1, 50.0)
        ts = np.linspace(0.0, 5.0, 101)
        err = np.abs(fordkac_kernel(spectrum, ts) - np.exp(-ts)).max()
        assert err > 0.5

    def test_refinement_reduces_error(self):
        ts = np.linspace(0.0, 5.0, 101)
        errors = []
        for m in (25, 50, 100, 200):
            spectrum = fordkac_spectrum_for_exponential(1.0, 1.0, m, 50.0)
            errors.append(np.abs(fordkac_kernel(spectrum, ts) - np.exp(-ts)).max())
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fordkac_spectrum_for_exponential(-1.0, 1.0, 10, 10.0)
        with pytest.raises(ValueError):
            fordkac_spectrum_for_exponential(1.0, 1.0, 0, 10.0)


class TestSpectralDensity:
    def test_single_mode_at_origin(self):
        assert spectral_density(MemoryKernel.from_prony([(1.0, 1.0)]), 0.0) == \
            pytest.approx(1.0 / np.pi)

    def test_even(self):
        kernel = MemoryKernel.from_prony([(1.0, 1.0), (0.3, 2.5)])
        ks = np.linspace(0.0, 10.0, 31)
        assert np.allclose(spectral_density(kernel, ks),
                           spectral_density(kernel, -ks))

    def test_integrates_to_total_weight(self):
        kernel = MemoryKernel.from_prony([(1.0, 1.0)])
        ks = np.linspace(-100.0, 100.0, 200_001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        integral = trapezoid(spectral_density(kernel, ks), ks)
        assert integral == pytest.approx(1.0, abs=1e-2)

    def test_positive_at_random_points(self):
        rng = np.random.default_rng(4)
        kernel = MemoryKernel.from_prony(random_prony_modes(rng))
        ks = rng.uniform(-50.0, 50.0, size=1000)
        assert np.all(spectral_density(kernel, ks) > 0.0)

    def test_matrix_exp_kernel_rejected(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0)])
        with pytest.raises(ValueError):
            spectral_density(MemoryKernel.from_coeffs(coeffs), 0.0)


class TestNoneqKernels:
    def test_equilibrium_recovery(self):
        # same blocks on both branches with the coupling constraint (Q = I)
        g12 = np.array([[-0.8]])
        g21 = -g12.T
        g22 = np.array([[1.3]])
        pair = noneq_kernels((np.zeros((1, 1)), g12, g21, g22), (g12, g22),
                             (np.zeros((1, 1)), g22 + g22.T))
        for t in (0.0, 0.4, 2.0):
            assert np.allclose(pair.k1(t), pair.k2(t), atol=1e-12)

    def test_noise_covariance_psd_at_zero(self):
        rng = np.random.default_rng(6)
        g12 = rng.standard_normal((2, 2))
        g22 = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        pair = noneq_kernels((np.zeros((2, 2)), np.zeros((2, 2)),
                              np.zeros((2, 2)), np.eye(2)),
                             (g12, 0.5 * (g22 + g22.T)),
                             (np.zeros((2, 2)), np.eye(2)))
        k2_zero = pair.k2(0.0)
        assert np.allclose(k2_zero, k2_zero.T)
        assert np.linalg.eigvalsh(k2_zero).min() >= -1e-12

    def test_pure_white_noise_pair(self):
        s11 = np.array([[0.7]])
        pair = noneq_kernels(
            (np.zeros((1, 1)),) * 4,
            (np.zeros((1, 1)), np.zeros((1, 1))),
            (s11, np.zeros((1, 1))))
        assert np.all(pair.k1(1.0) == 0.0)
        assert np.all(pair.k2(1.0) == 0.0)
        assert np.allclose(pair.k2_delta, 2.0 * s11)
        assert pair.coeffs.n == 1 and pair.coeffs.m == 2

    def test_unstable_branch_rejected(self):
        with pytest.raises(UnstableError):
            noneq_kernels((np.zeros((1, 1)), [[1.0]], [[1.0]], [[-1.0]]),
                          ([[0.0]], [[1.0]]),
                          (np.zeros((1, 1)), [[1.0]]))

    def test_stacked_field_blocks(self):
        g12_1 = np.array([[-0.5]])
        pair = noneq_kernels(
            (np.zeros((1, 1)), g12_1, -g12_1.T, [[1.0]]),
            ([[0.3]], [[2.0]]),
            ([[0.1]], [[2.0]]))
        gamma = pair.coeffs.gamma()
        assert gamma.shape == (3, 3)
        assert gamma[0, 1] == pytest.approx(-0.5)
        assert gamma[0, 2] == pytest.approx(0.3)
        assert gamma[2, 1] == 0.0


def test_cosine_transform_identity_oracle():
    # the quadrature target: int_0^inf (2 a / pi) cos(w t) / (a^2 + w^2) dw
    # equals e^{-a t}; verified here by direct numerical integration
    from scipy.integrate import quad
    for t in (0.0, 0.5, 2.0):
        value, _ = quad(lambda w: (2.0 / np.pi) / (1.0 + w**2),
                        0.0, np.inf, weight="cos", wvar=t, limit=400)
        assert value == pytest.approx(np.exp(-t), abs=1e-6)
