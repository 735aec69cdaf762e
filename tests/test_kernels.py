import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from qgle.errors import UnstableError
from qgle.fordkac import (
    FordKacSpectrum,
    fordkac_kernel,
    fordkac_spectrum_for_exponential,
)
from qgle.kernels import (
    MemoryKernel,
    coeffs_from_prony,
    kernel_eval,
    noise_covariance_eval,
    noneq_kernels,
    spectral_density,
)
from qgle.model import solve_fdt_Q

from conftest import random_prony_modes, random_rotation, rotate_auxiliary


class TestKernelEval:
    def test_matrix_exp_at_zero(self):
        kernel = MemoryKernel(np.zeros((1, 1)), [[-1.0]], [[0.7]], [[1.0]])
        assert kernel_eval(kernel, 0.0) == pytest.approx(np.ones((1, 1)))

    def test_prony_values(self):
        kernel = MemoryKernel.from_prony([(2.0, 3.0)])
        assert kernel_eval(kernel, 0.0) == pytest.approx(np.array([[2.0]]))
        assert kernel_eval(kernel, np.log(2.0) / 3.0) == pytest.approx(np.array([[1.0]]))

    def test_zero_coupling_gives_zero(self):
        kernel = MemoryKernel(np.zeros((1, 1)), [[0.0]], [[1.0]], [[1.0]])
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
        kernel = MemoryKernel([[0.4]], [[-1.0]], [[1.0]], [[1.0]])
        assert kernel.delta_part == pytest.approx(np.array([[0.4]]))
        assert kernel.n == 1

    @pytest.mark.parametrize("blocks, field", [
        (([[0.0, 0.0]], [[-1.0]], [[1.0]], [[1.0]]), "delta_part"),
        ((np.zeros((1, 1)), [[-0.5]], np.eye(2), [[1.0]]), "g22"),
        ((np.zeros((1, 1)), [[-0.5]], [[1.0]], [[1.0, 2.0]]), "g21"),
        ((np.zeros((1, 1)), np.zeros((1, 1, 1)), [[1.0]], [[1.0]]), "g12"),
    ])
    def test_block_shapes_are_checked(self, blocks, field):
        with pytest.raises(ValueError) as err:
            MemoryKernel(*blocks)
        assert err.value.path == (field,)


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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("n_modes", [1, 2, 4])
class TestAuxiliaryRotation:
    """The auxiliary variables are defined up to s -> U s (U orthogonal),
    which maps Gamma -> T Gamma T', Sigma -> T Sigma and Q -> U Q U' with
    T = diag(I_n, U); the kernel and the noise covariance must not move."""

    LAGS = (0.0, 0.4, 1.3, 5.0)

    def rotated(self, n, n_modes, seed):
        rng = np.random.default_rng([seed, n, n_modes])
        modes = zip(rng.uniform(0.1, 5.0, n_modes),
                    rng.uniform(0.1, 5.0, n_modes))
        coeffs, q_mat = coeffs_from_prony(modes, n=n)
        u = random_rotation(rng, coeffs.m)
        return rng, coeffs, q_mat, rotate_auxiliary(coeffs, u), u

    def test_kernel_eval_is_invariant(self, n, n_modes):
        _, coeffs, _, turned, _ = self.rotated(n, n_modes, 31)
        kernel = MemoryKernel.from_coeffs(coeffs)
        kernel_turned = MemoryKernel.from_coeffs(turned)
        for tau in self.LAGS:
            expected = kernel_eval(kernel, tau)
            assert np.allclose(kernel_eval(kernel_turned, tau), expected,
                               rtol=1e-10, atol=1e-12)

    def test_spectral_density_is_invariant(self, n, n_modes):
        _, coeffs, _, turned, _ = self.rotated(n, n_modes, 33)
        ks = np.array([0.0, 0.3, 2.0, 15.0])
        expected = spectral_density(MemoryKernel.from_coeffs(coeffs), ks)
        got = spectral_density(MemoryKernel.from_coeffs(turned), ks)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_noise_covariance_eval_is_invariant(self, n, n_modes):
        rng, coeffs, q_mat, turned, u = self.rotated(n, n_modes, 32)
        # the FDT solution Q = I, and a general SPD Q rotated with s
        a = rng.standard_normal((coeffs.m, coeffs.m))
        q_general = a @ a.T + coeffs.m * np.eye(coeffs.m)
        beta = rng.uniform(0.5, 3.0)
        for q_aux in (q_mat, q_general):
            for tau in self.LAGS:
                expected = noise_covariance_eval(coeffs, q_aux, beta, tau)
                got = noise_covariance_eval(turned, u @ q_aux @ u.T, beta, tau)
                assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


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
        integral = trapezoid(spectral_density(kernel, ks), ks, axis=0)
        assert integral == pytest.approx(np.ones((1, 1)), abs=1e-2)

    def test_positive_at_random_points(self):
        rng = np.random.default_rng(4)
        kernel = MemoryKernel.from_prony(random_prony_modes(rng))
        ks = rng.uniform(-50.0, 50.0, size=1000)
        assert np.all(spectral_density(kernel, ks) > 0.0)

    def test_from_coeffs_and_from_prony_agree(self):
        modes = [(1.0, 1.0), (0.3, 2.5)]
        coeffs, _ = coeffs_from_prony(modes, n=2)
        ks = np.linspace(-8.0, 8.0, 17)
        density = spectral_density(MemoryKernel.from_coeffs(coeffs), ks)
        assert density.shape == (17, 2, 2)
        assert np.array_equal(
            density, spectral_density(MemoryKernel.from_prony(modes, n=2), ks))
        prony_sum = sum(c * a / (np.pi * (a**2 + ks**2)) for c, a in modes)
        assert np.allclose(density, prony_sum[:, None, None] * np.eye(2),
                           rtol=1e-14, atol=1e-16)

    def test_cosine_transform_oracle(self):
        # a non-diagonal kernel whose G22 has complex eigenvalues 0.75 +- 1.98i;
        # past t = 60 the kernel is below e^-45
        kernel = MemoryKernel(np.zeros((1, 1)), [[-1.0, 0.3]],
                              [[1.0, -2.0], [2.0, 0.5]], [[0.8], [0.1]])
        for k in (0.0, 0.7, 3.0):
            value, _ = quad(lambda t: kernel_eval(kernel, t)[0, 0], 0.0, 60.0,
                            weight="cos", wvar=k, limit=400)
            assert spectral_density(kernel, k)[0, 0] == pytest.approx(
                value / np.pi, rel=1e-9, abs=1e-11)


class TestNoneqKernels:
    def test_equilibrium_recovery(self):
        # same blocks on both branches with the coupling constraint (Q = I)
        g12 = np.array([[-0.8]])
        g21 = -g12.T
        g22 = np.array([[1.3]])
        pair = noneq_kernels((np.zeros((1, 1)), g12, g21, g22), (g12, g22),
                             (np.zeros((1, 1)), g22 + g22.T))
        for t in (0.0, 0.4, 2.0):
            assert np.allclose(kernel_eval(pair.k1, t),
                               kernel_eval(pair.k2, t), atol=1e-12)

    def test_noise_covariance_psd_at_zero(self):
        rng = np.random.default_rng(6)
        g12 = rng.standard_normal((2, 2))
        g22 = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        pair = noneq_kernels((np.zeros((2, 2)), np.zeros((2, 2)),
                              np.zeros((2, 2)), np.eye(2)),
                             (g12, 0.5 * (g22 + g22.T)),
                             (np.zeros((2, 2)), np.eye(2)))
        k2_zero = kernel_eval(pair.k2, 0.0)
        assert np.allclose(k2_zero, k2_zero.T)
        assert np.linalg.eigvalsh(k2_zero).min() >= -1e-12

    def test_pure_white_noise_pair(self):
        s11 = np.array([[0.7]])
        pair = noneq_kernels(
            (np.zeros((1, 1)),) * 4,
            (np.zeros((1, 1)), np.zeros((1, 1))),
            (s11, np.zeros((1, 1))))
        assert np.all(kernel_eval(pair.k1, 1.0) == 0.0)
        assert np.all(kernel_eval(pair.k2, 1.0) == 0.0)
        assert np.allclose(pair.k2.delta_part, 2.0 * s11)
        assert pair.coeffs.n == 1 and pair.coeffs.m == 2

    def test_unstable_branch_rejected(self):
        with pytest.raises(UnstableError):
            noneq_kernels((np.zeros((1, 1)), [[1.0]], [[1.0]], [[-1.0]]),
                          ([[0.0]], [[1.0]]),
                          (np.zeros((1, 1)), [[1.0]]))

    @pytest.mark.parametrize("g1, g2, sigma, path", [
        # a (1, 1) G12 beside a 2 x 2 G22 was broadcast into the stacked Gamma
        (([[0.0]], [[-0.5]], [[0.5]], np.eye(2)), ([[0.3]], [[2.0]]),
         ([[0.1]], [[2.0]]), ("gamma1", "g22")),
        (([[0.0]], [[-0.5]], [[0.5]], [[1.0]]), ([[0.3, 0.1]], [[2.0]]),
         ([[0.1]], [[2.0]]), ("gamma2", "g12")),
        (([[0.0]], [[-0.5]], [[0.5]], [[1.0]]), ([[0.3]], np.eye(2)),
         ([[0.1]], [[2.0]]), ("gamma2", "g22")),
        (([[0.0]], [[-0.5]], [[0.5]], [[1.0]]), ([[0.3]], [[2.0]]),
         (np.eye(2), [[2.0]]), ("sigma", "s11")),
        (([[0.0]], [[-0.5]], [[0.5]], [[1.0]]), ([[0.3]], [[2.0]]),
         ([[0.1]], np.eye(2)), ("sigma", "s22")),
    ])
    def test_block_shape_errors_name_the_block(self, g1, g2, sigma, path):
        with pytest.raises(ValueError) as err:
            noneq_kernels(g1, g2, sigma)
        assert err.value.path == path

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
    for t in (0.0, 0.5, 2.0):
        value, _ = quad(lambda w: (2.0 / np.pi) / (1.0 + w**2),
                        0.0, np.inf, weight="cos", wvar=t, limit=400)
        assert value == pytest.approx(np.exp(-t), abs=1e-6)
