import numpy as np
import pytest

from qgle.errors import InfeasibleError, SearchExhaustedError, UnstableError
from qgle.ergodicity import (
    drift_samples,
    hormander_const_check,
    lyapunov_drift_constants,
    lyapunov_matrix_const,
    posdep_certificate_search,
    posdep_certificate_verify,
    potential_growth_check,
    schur_psd,
    unbounded_certificate,
)
from qgle.kernels import coeffs_from_prony
from qgle.model import (PD_EIG_TOL, CoefficientField, Domain, ForceField,
                        ModelSpec, default_grid, purecolor_check,
                        stability_margin, verify_fdt)

from conftest import (
    EXAMPLE_C,
    prony_model,
    random_prony_modes,
    random_rotation,
    random_stable_gamma,
    rotate_auxiliary,
)


class TestSchurPsd:
    def test_identity_blocks(self):
        result = schur_psd(np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert result.pd and result.psd
        assert result.margin == pytest.approx(1.0)

    def test_zero_corner_with_coupling_fails(self):
        # complement against the lower-right block is -v A22^-1 v' < 0
        result = schur_psd(np.zeros((1, 1)), np.array([[1.0, 0.0]]), np.eye(2))
        assert not result.psd and not result.pd
        assert result.item == "i"
        assert result.margin < 0

    def test_generalized_inverse_range_condition(self):
        # columns of A12' leave the range of the singular A22
        result = schur_psd(np.zeros((1, 1)), np.array([[0.0, 1.0]]),
                           np.diag([1.0, 0.0]))
        assert result.item == "iii"
        assert not result.psd

    def test_singular_but_consistent_is_psd(self):
        # A = [[1, 1, 0], [1, 1, 0], [0, 0, 0]］-like: rank-1 psd
        result = schur_psd(np.array([[1.0]]), np.array([[1.0, 0.0]]),
                           np.diag([1.0, 0.0]))
        assert result.psd and not result.pd

    def test_asymmetric_block_rejected(self):
        with pytest.raises(ValueError):
            schur_psd(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 1)),
                      np.array([[1.0]]))


class TestHormander:
    def test_prony_mode_iii_satisfied(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0), (0.5, 2.0)])
        cert = hormander_const_check(coeffs, "iii")
        assert cert.satisfied
        assert cert.witness["rank_sigma2"] == 2
        assert cert.witness["rank_gamma12"] == 1

    def test_prony_mode_ii_satisfied(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0), (0.5, 2.0)])
        cert = hormander_const_check(coeffs, "ii")
        assert cert.satisfied
        assert cert.margin == 0.0

    def test_degenerate_coupling_achieves_rank_m(self):
        # no momentum coupling and no white block: iterates stay in the
        # auxiliary subspace
        m = 2
        gamma = np.zeros((1 + m, 1 + m))
        gamma[1:, 1:] = np.diag([1.0, 2.0])
        gamma[1:, 0] = 1.0  # G21 nonzero, G12 = 0
        sigma = np.zeros((1 + m, 1 + m))
        sigma[1:, 1:] = np.eye(m)
        coeffs = CoefficientField(1, m, gamma=gamma, sigma=sigma)
        cert = hormander_const_check(coeffs, "ii")
        assert not cert.satisfied
        assert cert.witness["achieved_rank"] == m

    def test_full_rank_diffusion_mode_ii(self):
        coeffs = CoefficientField(1, 1, gamma=[[1.0, 0.0], [0.0, 1.0]],
                                  sigma=np.sqrt(2.0) * np.eye(2))
        assert hormander_const_check(coeffs, "ii").satisfied

    def test_mode_i_with_linear_force(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0)])
        cert = hormander_const_check(coeffs, "i", H=np.eye(1))
        assert cert.satisfied
        assert cert.witness["achieved_rank"] == 3

    def test_mode_i_requires_H(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0)])
        with pytest.raises(ValueError):
            hormander_const_check(coeffs, "i")

    def test_mode_iii_implies_mode_ii_on_random_systems(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            coeffs, _ = coeffs_from_prony(random_prony_modes(rng))
            ciii = hormander_const_check(coeffs, "iii")
            cii = hormander_const_check(coeffs, "ii")
            assert ciii.satisfied
            assert cii.satisfied  # implication on this family


class TestLyapunovMatrixConst:
    def test_identity_drift(self):
        result = lyapunov_matrix_const(np.eye(2))
        assert np.allclose(result.C, np.eye(2))
        assert result.lam == pytest.approx(2.0)

    def test_prony_drift(self):
        gamma = np.array([[0.0, -1.0], [1.0, 1.0]])
        result = lyapunov_matrix_const(gamma)
        defect = gamma.T @ result.C + result.C @ gamma - result.lam * np.eye(2)
        assert np.abs(defect).max() <= 1e-9 * result.lam
        assert np.linalg.eigvalsh(result.C).min() == pytest.approx(1.0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableError):
            lyapunov_matrix_const(np.diag([-1.0, 1.0]))

    def test_residual_on_random_stable_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            gamma = random_stable_gamma(rng, dim)
            result = lyapunov_matrix_const(gamma)
            # independent re-verification by matrix multiplication
            defect = gamma.T @ result.C + result.C @ gamma \
                - result.lam * np.eye(dim)
            assert np.abs(defect).max() / max(1.0, result.lam) <= 1e-9
            assert np.linalg.eigvalsh(result.C).min() > 0


class TestDriftConstants:
    def test_torus_prony_model_is_feasible(self):
        model = prony_model(potential="0.2*cos(2*pi*q1)")
        lyap = lyapunov_matrix_const(model.coeffs.gamma())
        result = lyapunov_drift_constants(model, lyap.C, l=1)
        assert result.a > 0
        # returned pair satisfies the inequality on a fresh sample set
        q, p, s = drift_samples(model, n_samples=512, seed=123)
        from qgle.ergodicity import _Candidate, _apply_generator
        cand = _Candidate(lyap.C, 1)
        k_vals = cand.value(q, p, s)
        l_vals = _apply_generator(model, cand, q, p, s)
        assert np.all(l_vals <= -result.a * k_vals + result.b + 1e-9)

    def test_higher_power_feasible(self):
        model = prony_model(potential="0.2*cos(2*pi*q1)")
        lyap = lyapunov_matrix_const(model.coeffs.gamma())
        assert lyapunov_drift_constants(model, lyap.C, l=2).a > 0

    def test_no_dissipation_is_infeasible(self):
        coeffs = CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                  sigma=np.zeros((2, 2)))
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=ForceField.zero(1), coeffs=coeffs, Q=np.eye(1))
        with pytest.raises(InfeasibleError):
            lyapunov_drift_constants(model, np.eye(2), l=1)

    def test_shape_gate(self):
        model = prony_model(potential=None)
        with pytest.raises(ValueError):
            lyapunov_drift_constants(
                model, np.eye(2), l=1,
                samples=(np.zeros((16, 2)), np.zeros((16, 1)), np.zeros((16, 1))))

    def test_analytic_generator_matches_finite_differences(self):
        # the fd cross-check runs inside the call; also verify explicitly
        from qgle.ergodicity import _Candidate, _apply_generator, _fd_generator
        model = prony_model(potential="cos(2*pi*q1)", beta=1.7)
        lyap = lyapunov_matrix_const(model.coeffs.gamma())
        cand = _Candidate(lyap.C, 2)
        rng = np.random.default_rng(3)
        for _ in range(3):
            q = rng.random((1, 1))
            p = rng.standard_normal((1, 1))
            s = rng.standard_normal((1, 1))
            analytic = _apply_generator(model, cand, q, p, s)[0]
            fd = _fd_generator(model, cand, q[0], p[0], s[0])
            assert analytic == pytest.approx(fd, rel=1e-6)

    def test_euclidean_family(self):
        model = prony_model(potential=None, domain_kind="euclidean")
        force = ForceField.harmonic(np.eye(1))
        model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=force, coeffs=model.coeffs,
                          Q=model.Q)
        gamma = model.coeffs.gamma()
        g21 = gamma[1:, :1]
        a_w, b_w = 2.0, 8.0
        c_ab = np.block([[b_w * np.eye(1), a_w * g21.T],
                         [a_w * g21, b_w * np.eye(1)]])
        result = lyapunov_drift_constants(model, c_ab, l=1,
                                          potential_weight=b_w * 1.0)
        assert result.a > 0


class TestUnboundedCertificate:
    def test_white_block_branch(self):
        coeffs = CoefficientField(1, 1, gamma=np.eye(2),
                                  sigma=np.sqrt(2.0) * np.eye(2))
        cert = unbounded_certificate(coeffs, np.eye(1), growth_E=1.0)
        assert cert.satisfied
        assert cert.witness["A"] == 0.0
        assert cert.witness["B"] == 2.0
        assert cert.margin > 0

    def test_pure_colored_branch(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        cert = unbounded_certificate(coeffs, q_mat, growth_E=1.0, hbar=1.0)
        assert cert.satisfied
        assert cert.margin > 0
        assert (cert.witness["A"], cert.witness["B"]) == (2.0, 8.0)
        # re-verify the witness by direct eigenvalue computation
        from qgle.ergodicity import _chat_matrix, _rtilde_matrix
        a_w, b_w = cert.witness["A"], cert.witness["B"]
        gamma = coeffs.gamma()
        g12, g21, g22 = gamma[:1, 1:], gamma[1:, :1], gamma[1:, 1:]
        chat = _chat_matrix(1, 1, a_w, b_w, g21, np.eye(1))
        assert np.linalg.eigvalsh(chat).min() > 0
        for sign in (1.0, -1.0):
            mat = _rtilde_matrix(1, 1, a_w, b_w, 1.0, 1.0, sign, g12, g21,
                                 g22, np.eye(1))
            assert np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() > 0

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2)])
    def test_pure_colored_branch_is_rotation_invariant(self, n, k):
        witness = {(1, 2): (1.0, 8.0), (1, 3): (1.0, 16.0),
                   (2, 2): (1.0, 4.0)}[n, k]
        rng = np.random.default_rng(10 * n + k)
        modes = list(zip(rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 4.0, k)))
        coeffs, q_mat = coeffs_from_prony(modes, n=n)
        cert = unbounded_certificate(coeffs, q_mat, growth_E=1.0, hbar=1.0)
        assert cert.satisfied and cert.margin > 0
        rotated = rotate_auxiliary(coeffs, random_rotation(rng, coeffs.m))
        turned = unbounded_certificate(rotated, q_mat, growth_E=1.0, hbar=1.0)
        assert turned.satisfied
        # the witnesses are powers of two: exact on any BLAS build
        assert (cert.witness["A"], cert.witness["B"]) == witness
        assert (turned.witness["A"], turned.witness["B"]) == witness
        assert turned.margin == pytest.approx(cert.margin, abs=1e-10)

    def test_white_block_branch_with_two_modes(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0), (0.5, 3.0)])
        gamma, sigma = coeffs.gamma().copy(), coeffs.sigma().copy()
        gamma[0, 0], sigma[0, 0] = 0.5, 1.0  # white friction with S1 S1' = 2 G11
        white = CoefficientField(1, 2, gamma=gamma, sigma=sigma)
        cert = unbounded_certificate(white, q_mat, growth_E=1.0)
        assert cert.satisfied and cert.margin > 0
        assert (cert.witness["A"], cert.witness["B"]) == (0.0, 4.0)

    def test_pure_colored_search_doubles_A_in_the_outer_loop(self):
        # -I + A G21' G21 > 0 first at A = 2, but no B works there; the
        # first witness is the smallest B at the next A
        coeffs, q_mat = coeffs_from_prony([(0.7, 2.0)])
        cert = unbounded_certificate(coeffs, q_mat, growth_E=0.3, hbar=0.5)
        assert (cert.witness["A"], cert.witness["B"]) == (4.0, 16.0)

    @pytest.mark.parametrize("hbar, witness", [(1.0, (4.0, 32.0)),
                                               (3.0, (4.0, 128.0))])
    def test_pure_colored_witness_clears_rounding_noise(self, hbar, witness):
        # with no tolerance the search accepted B = 2^55 (hbar = 1), where
        # the forms' entries are so large that a positive least eigenvalue
        # is rounding noise; each form of the witness must clear
        # PD_EIG_TOL relative to its max-norm
        from qgle.ergodicity import _chat_matrix, _rtilde_matrix
        coeffs, q_mat = coeffs_from_prony(
            [(0.6928553041537995, 2.2474725185404023)])
        cert = unbounded_certificate(coeffs, q_mat, growth_E=0.3, hbar=hbar)
        a_w, b_w = cert.witness["A"], cert.witness["B"]
        assert (a_w, b_w) == witness
        g12, g21, g22 = (coeffs.gamma()[:1, 1:], coeffs.gamma()[1:, :1],
                         coeffs.gamma()[1:, 1:])
        forms = [_chat_matrix(1, 1, a_w, b_w, g21, np.eye(1))] + [
            _rtilde_matrix(1, 1, a_w, b_w, 0.3, hbar, sign, g12, g21, g22,
                           np.eye(1)) for sign in (1.0, -1.0)]
        for form in forms:
            sym = 0.5 * (form + form.T)
            assert (np.linalg.eigvalsh(sym).min()
                    > PD_EIG_TOL * max(1.0, np.abs(form).max()))
        assert cert.margin == pytest.approx(min(
            np.linalg.eigvalsh(0.5 * (f + f.T)).min() for f in forms))

    @pytest.mark.parametrize("gamma, hbar, branch", [
        ([[1.0, 0.0], [0.0, -1.0]], None, "white-block"),
        ([[0.0, 0.0], [1.0, -1.0]], 1.0, "pure-colored")])
    def test_exhausted_search_names_its_branch(self, gamma, hbar, branch):
        # G22 = -1: no B makes the auxiliary drift block positive
        coeffs = CoefficientField(1, 1, gamma=np.array(gamma), sigma=np.eye(2))
        with pytest.raises(SearchExhaustedError, match=f"{branch} branch"):
            unbounded_certificate(coeffs, np.eye(1), growth_E=1.0, hbar=hbar)

    def test_drift_forms_are_the_generator_of_the_base_form(self):
        # with E = hbar = 0 and no force, x' R x = -x' C_hat f(x), the
        # quadratic part of -1/2 L(x' C_hat x); n = 2, m = 3
        from qgle.ergodicity import _chat_matrix, _rhat_matrix, _rtilde_matrix
        rng = np.random.default_rng(4)
        n, m = 2, 3
        g11, g12, g21, g22 = (rng.standard_normal(shape) for shape in
                              ((n, n), (n, m), (m, n), (m, m)))
        w = rng.standard_normal((m, m))
        q_inv = w @ w.T + np.eye(m)

        def generator_form(x, A, B, g11, g12, q_inv):
            p, s = x[n:2 * n], x[2 * n:]
            f = np.concatenate([p, -g11 @ p - g12 @ s, -g21 @ p - g22 @ s])
            return -x @ _chat_matrix(n, m, A, B, g21, q_inv) @ f

        # R_hat at A = 0, the white-block branch's only A
        rhat = _rhat_matrix(n, m, 0.0, 1.7, 0.0, g11, g12, g21, g22, q_inv)
        # R_tilde for G11 = 0 and the pure-colored constraint G12 Q = -G21'
        rtilde = _rtilde_matrix(n, m, 0.6, 1.7, 0.0, 0.0, 1.0, -g21.T, g21,
                                g22, np.eye(m))
        for x in rng.standard_normal((5, 2 * n + m)):
            assert x @ rhat @ x == pytest.approx(
                generator_form(x, 0.0, 1.7, g11, g12, q_inv), rel=1e-10)
            assert x @ rtilde @ x == pytest.approx(
                generator_form(x, 0.6, 1.7, np.zeros((n, n)), -g21.T,
                               np.eye(m)), rel=1e-10)

    def test_singular_coupling_exhausts(self):
        # G21 = 0: G21' G21 is singular, so no A makes -I + A G21' G21 > 0
        coeffs = CoefficientField(1, 1, gamma=np.array([[0.0, 0.0], [0.0, 1.0]]),
                                  sigma=np.diag([0.0, np.sqrt(2.0)]))
        with pytest.raises(SearchExhaustedError):
            unbounded_certificate(coeffs, np.eye(1), growth_E=1.0, hbar=1.0)

    def test_mixed_white_block_rejected(self):
        # G11 neither zero nor full rank requires n >= 2
        gamma2 = np.zeros((4, 4))
        gamma2[0, 0] = 1.0  # rank 1 of a 2x2 white block
        gamma2[2:, 2:] = np.eye(2)
        coeffs2 = CoefficientField(2, 2, gamma=gamma2, sigma=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            unbounded_certificate(coeffs2, np.eye(2), growth_E=1.0, hbar=1.0)


class TestAuxiliaryRotationInvariance:
    """s -> U s with U orthogonal maps a Prony model to an equivalent one
    (Gamma -> T Gamma T', Sigma -> T Sigma, T = diag(I_n, U), Q = I stays);
    the constant-coefficient verdicts must not see the change."""

    @staticmethod
    def systems(count=40):
        rng = np.random.default_rng(33)
        for _ in range(count):
            n = int(rng.integers(1, 3))
            coeffs, q_mat = coeffs_from_prony(random_prony_modes(rng), n=n)
            rotated = rotate_auxiliary(coeffs, random_rotation(rng, coeffs.m))
            yield coeffs, rotated, q_mat

    @pytest.mark.parametrize("mode", ["ii", "iii"])
    def test_hormander(self, mode):
        for coeffs, rotated, _ in self.systems():
            cert = hormander_const_check(coeffs, mode)
            turned = hormander_const_check(rotated, mode)
            assert (turned.satisfied, turned.margin, turned.witness) == (
                cert.satisfied, cert.margin, cert.witness)

    def test_stability_margin_and_lyapunov_rate(self):
        for coeffs, rotated, _ in self.systems():
            assert stability_margin(rotated) == pytest.approx(
                stability_margin(coeffs), rel=1e-12)
            assert lyapunov_matrix_const(rotated.gamma()).lam == pytest.approx(
                lyapunov_matrix_const(coeffs.gamma()).lam, rel=1e-12)

    def test_fdt_and_purecolor_defects_stay_at_roundoff(self):
        for coeffs, rotated, q_mat in self.systems():
            tol = 1e-12 * max(1.0, np.abs(coeffs.gamma()).max())
            for check in (verify_fdt, purecolor_check):
                assert check(coeffs, q_mat) <= tol
                assert check(rotated, q_mat) <= tol


class TestPosdepCertificates:
    def test_example_matrix_reproduces_figure_values(self, example_coeffs):
        grid = np.linspace(0.0, 1.0, 1001)[:, None]
        result = posdep_certificate_verify(example_coeffs, EXAMPLE_C, grid)
        assert np.allclose(result.eigenvalues[0], [1.0, 1.0], atol=1e-9)
        mid = result.eigenvalues[500]
        assert mid[0] == pytest.approx(1.0 - np.sqrt(37.0) / 9.0, abs=1e-9)
        assert mid[1] == pytest.approx(1.0 + np.sqrt(37.0) / 9.0, abs=1e-9)
        assert result.margin == pytest.approx(0.3241, abs=1e-3)
        worst = np.argmin(result.eigenvalues.min(axis=1))
        assert grid[worst, 0] == pytest.approx(0.5)
        # both curves strictly positive everywhere
        assert np.all(result.eigenvalues > 0)

    def test_constant_coefficients_match_direct_eigenvalues(self):
        rng = np.random.default_rng(9)
        gamma = random_stable_gamma(rng, 3)
        coeffs = CoefficientField(1, 2, gamma=gamma, sigma=np.eye(3))
        c_mat = np.eye(3) + 0.1
        grid = np.zeros((1, 1))
        result = posdep_certificate_verify(coeffs, c_mat, grid)
        direct = np.linalg.eigvalsh(gamma @ c_mat + c_mat @ gamma.T).min()
        assert result.margin == pytest.approx(direct, abs=1e-10)

    def test_search_on_constant_reduces_to_dense_solve(self):
        rng = np.random.default_rng(10)
        gamma = random_stable_gamma(rng, 2)
        coeffs = CoefficientField(1, 1, gamma=gamma, sigma=np.eye(2))
        c_search = posdep_certificate_search(coeffs, np.zeros((3, 1)))
        # same equation orientation: Gamma C + C Gamma' = I
        lyap = lyapunov_matrix_const(gamma.T)
        assert np.allclose(c_search * lyap.lam, lyap.C, rtol=1e-8)

    def test_search_on_example_finds_positive_margin(self, example_coeffs):
        grid = default_grid(Domain("torus", 1))
        c_mat = posdep_certificate_search(example_coeffs, grid)
        result = posdep_certificate_verify(example_coeffs, c_mat, grid)
        assert result.margin > 0

    def test_search_fails_on_pointwise_unstable_field(self):
        # friction becomes negative definite near q = 1/2: no C can work
        entries_g = [["0-1+2*cos(2*pi*q1)", "0"], ["0", "1"]]
        entries_s = [["0", "0"], ["0", "1"]]
        coeffs = CoefficientField(1, 1, gamma_entries=entries_g,
                                  sigma_entries=entries_s)
        grid = default_grid(Domain("torus", 1), 41)
        with pytest.raises(SearchExhaustedError):
            posdep_certificate_search(coeffs, grid)

    @pytest.mark.parametrize("grid, message", [
        (np.random.default_rng(5).random((50, 2)), "grid dimension"),
        (np.zeros((0, 1)), "nonempty")])
    def test_grid_of_the_wrong_shape_is_rejected(self, example_coeffs, grid,
                                                  message):
        # a 50 x 2 grid on the 1-d torus used to be read from column 0, and
        # an empty grid used to fail inside LAPACK
        with pytest.raises(ValueError, match=message):
            posdep_certificate_verify(example_coeffs, EXAMPLE_C, grid)
        with pytest.raises(ValueError, match=message):
            posdep_certificate_search(example_coeffs, grid)


class TestPotentialGrowth:
    @staticmethod
    def quadratic():
        def v(q):
            return 0.5 * np.sum(q * q, axis=-1)

        def dv(q):
            return q
        return v, dv

    def test_quadratic_potential(self):
        v, dv = self.quadratic()
        cert = potential_growth_check(v, dv, 1, radii=[1.0, 2.0, 4.0, 8.0],
                                      trial_D=[0.5, 1.0, 2.0])
        assert cert.satisfied
        assert cert.witness["D"] == pytest.approx(1.0)
        assert cert.witness["E"] == pytest.approx(0.5)
        assert cert.witness["F"] == pytest.approx(0.0, abs=1e-12)
        assert "sampled" in cert.notes

    def test_flat_potential_unsatisfied(self):
        def v(q):
            return np.ones(q.shape[0])

        def dv(q):
            return np.zeros_like(q)
        cert = potential_growth_check(v, dv, 1, radii=[1.0, 2.0, 4.0],
                                      trial_D=[0.5, 1.0])
        assert not cert.satisfied

    def test_quartic_radius_limited_at_matched_exponent(self):
        def v(q):
            return 0.25 * np.sum(q**4, axis=-1)

        def dv(q):
            return q**3
        cert = potential_growth_check(v, dv, 1, radii=[1.0, 2.0, 4.0],
                                      trial_D=[1.0, 2.0, 4.0])
        assert cert.satisfied
        assert cert.witness["D"] < 4.0
        assert cert.witness["E"] > 0
        assert "radius-limited" in cert.notes and "D = 4" in cert.notes

    def test_force_bound_witness(self):
        v, dv = self.quadratic()
        cert = potential_growth_check(v, dv, 1, radii=[1.0, 2.0],
                                      trial_D=[1.0],
                                      force=lambda q: -q + 0.5)
        # <q, F> + <q, grad V> = 0.5 sum(q) <= G
        assert cert.witness["G"] == pytest.approx(1.0)


def test_certificate_margin_semantics():
    coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
    cert = hormander_const_check(coeffs, "iii")
    # rank checks: satisfied at margin zero (achieved == required)
    assert cert.satisfied and cert.margin == 0.0
    growth = potential_growth_check(
        lambda q: 0.5 * np.sum(q * q, axis=-1), lambda q: q, 1,
        radii=[1.0, 2.0], trial_D=[1.0])
    assert growth.satisfied == (growth.margin > 0)
