import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgle.errors import (
    InconsistentError,
    NonConservativeError,
    NoSolutionError,
    NotPositiveError,
)
from qgle.expressions import ExpressionError, Num, compile_exprs, parse_expr
from qgle.kernels import coeffs_from_prony
from qgle.model import (
    NOT_APPLICABLE,
    CoefficientField,
    Domain,
    ExtendedState,
    ForceField,
    ModelSpec,
    default_grid,
    gibbs_log_density,
    purecolor_check,
    solve_fdt_Q,
    stability_margin,
    verify_fdt,
)

from conftest import (
    EXAMPLE_C,
    EXAMPLE_GAMMA_ENTRIES,
    EXAMPLE_SIGMA_ENTRIES,
    random_prony_modes,
    random_rotation,
    rotate_auxiliary,
)


def constant_field(gamma, sigma, n=1):
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    m = gamma.shape[0] - n
    return CoefficientField(n, m, gamma=gamma, sigma=sigma)


class TestSolveFdtQ:
    def test_decoupled_identity_case(self):
        coeffs = constant_field(np.eye(2), np.sqrt(2.0) * np.eye(2))
        result = solve_fdt_Q(coeffs)
        assert result.Q == pytest.approx(np.ones((1, 1)))
        assert result.max_residual == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("gam,alpha", [(0.5, 1.0), (2.0, 0.3), (-1.3, 2.5)])
    def test_skew_coupling_gives_unit_q(self, gam, alpha):
        # blocks: coupling -g / +g, auxiliary drift a, auxiliary noise sqrt(2a)
        coeffs = constant_field([[0.0, -gam], [gam, alpha]],
                                [[0.0, 0.0], [0.0, np.sqrt(2 * alpha)]])
        result = solve_fdt_Q(coeffs)
        assert result.Q == pytest.approx(np.ones((1, 1)))

    def test_inconsistent_blocks_are_rejected(self):
        # auxiliary block forces Q = 1/2 while the coupling block needs Q = 1
        coeffs = constant_field([[0.0, -1.0], [1.0, 1.0]],
                                [[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InconsistentError):
            solve_fdt_Q(coeffs)

    @pytest.mark.parametrize("g22", [np.diag([1.0, -1.0]),
                                     np.array([[0.0, 1.0], [-1.0, 0.0]])])
    def test_eigenvalue_pair_summing_to_zero_has_no_solution(self, g22):
        # the auxiliary Lyapunov operator is singular: lambda_i + lambda_j = 0
        gamma = np.zeros((3, 3))
        gamma[1:, 1:] = g22
        coeffs = constant_field(gamma, np.eye(3))
        with pytest.raises(NoSolutionError):
            solve_fdt_Q(coeffs)

    def test_rotated_dense_prony_embedding_gives_unit_q(self):
        # 24 modes, dense after a random rotation of the auxiliary block
        rng = np.random.default_rng(24)
        modes = list(zip(rng.uniform(0.2, 2.0, 24), rng.uniform(0.3, 10.0, 24)))
        coeffs, _ = coeffs_from_prony(modes)
        rotated = rotate_auxiliary(coeffs, random_rotation(rng, 24))
        result = solve_fdt_Q(rotated)
        assert np.abs(result.Q - np.eye(24)).max() <= 1e-9


class TestVerifyFdt:
    def test_solver_postcondition(self):
        coeffs, _ = coeffs_from_prony([(2.0, 0.7), (1.0, 3.0)])
        q_mat = solve_fdt_Q(coeffs).Q
        assert verify_fdt(coeffs, q_mat) <= 1e-12

    def test_position_dependent_example_on_grid(self, example_coeffs):
        grid = default_grid(Domain("torus", 1), 101)
        assert verify_fdt(example_coeffs, np.ones((1, 1)), grid) <= 1e-12

    def test_noise_perturbation_grows_quadratically(self):
        eps = 1e-3
        entries = [row[:] for row in EXAMPLE_SIGMA_ENTRIES]
        entries[1][1] = repr(float(np.sqrt(2.0) + eps))
        coeffs = CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                                  sigma_entries=entries)
        grid = default_grid(Domain("torus", 1), 101)
        residual = verify_fdt(coeffs, np.ones((1, 1)), grid)
        assert residual == pytest.approx(2 * np.sqrt(2.0) * eps + eps**2, rel=1e-9)


class TestPurecolor:
    def test_example_satisfies_constraint(self, example_coeffs):
        grid = default_grid(Domain("torus", 1), 101)
        assert purecolor_check(example_coeffs, np.ones((1, 1)), grid) == 0.0

    def test_violation_magnitude(self):
        coeffs = constant_field([[0.0, -2.0], [1.0, 1.0]],
                                [[0.0, 0.0], [0.0, np.sqrt(2.0)]])
        assert purecolor_check(coeffs, np.ones((1, 1))) == pytest.approx(1.0)

    def test_white_block_returns_marker(self):
        coeffs = constant_field([[1.0, -1.0], [1.0, 1.0]],
                                [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]])
        assert purecolor_check(coeffs, np.ones((1, 1))) is NOT_APPLICABLE


class TestStabilityMargin:
    def test_identity(self):
        coeffs = constant_field(np.eye(2), np.sqrt(2.0) * np.eye(2))
        assert stability_margin(coeffs) == pytest.approx(1.0)

    def test_example_has_margin_half(self, example_coeffs):
        # eigenvalues solve l^2 - l + g^2 = 0 with g in [1, 3]: real part 1/2
        grid = default_grid(Domain("torus", 1), 101)
        assert stability_margin(example_coeffs, grid) == pytest.approx(0.5, abs=1e-12)

    def test_unstable_direction_detected(self):
        coeffs = constant_field(np.diag([-1.0, 1.0]), np.zeros((2, 2)))
        assert stability_margin(coeffs) == pytest.approx(-1.0)


class TestGibbsLogDensity:
    def make_model(self, beta=1.0, potential=None):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        force = (ForceField.zero(1) if potential is None
                 else ForceField.from_potential_expr(potential, 1))
        return ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                         beta=beta, force=force, coeffs=coeffs, Q=q_mat)

    def test_origin_is_zero(self):
        model = self.make_model()
        state = ExtendedState(q=[0.0], p=[0.0], s=[0.0])
        assert gibbs_log_density(state, model) == 0.0

    def test_momentum_quadratic(self):
        model = self.make_model()
        state = ExtendedState(q=[0.0], p=[1.0], s=[0.0])
        assert gibbs_log_density(state, model) == pytest.approx(-0.5)

    def test_potential_and_beta(self):
        model = self.make_model(beta=2.0, potential="q1*q1/2")
        state = ExtendedState(q=[1.0], p=[0.0], s=[0.0])
        assert gibbs_log_density(state, model) == pytest.approx(-1.0)

    def test_nonconservative_rejected(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        force = ForceField.nonconservative(1, lambda q: np.ones_like(q))
        model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=force, coeffs=coeffs, Q=q_mat)
        with pytest.raises(NonConservativeError):
            gibbs_log_density(ExtendedState(q=[0.0], p=[0.0], s=[0.0]), model)

    def test_torus_shift_invariance(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=ForceField.from_potential_expr("cos(2*pi*q1)", 1),
                          coeffs=coeffs, Q=q_mat)
        state = ExtendedState(q=[0.3], p=[0.4], s=[-0.7])
        shifted = ExtendedState(q=[1.3], p=[0.4], s=[-0.7])
        assert gibbs_log_density(state, model) == pytest.approx(
            gibbs_log_density(shifted, model), abs=1e-12)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fdt_round_trip_on_random_prony_systems(self, seed):
        rng = np.random.default_rng(seed)
        coeffs, q_built = coeffs_from_prony(random_prony_modes(rng))
        result = solve_fdt_Q(coeffs)
        assert np.allclose(result.Q, q_built, atol=1e-12)
        assert verify_fdt(coeffs, result.Q) <= 1e-10
        assert purecolor_check(coeffs, result.Q) <= 1e-10

    def test_margin_positive_and_eigs_match_charpoly_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            modes = random_prony_modes(rng, max_modes=3)
            coeffs, _ = coeffs_from_prony(modes)
            gamma = coeffs.gamma()
            margin = stability_margin(coeffs)
            assert margin > 0
            # auxiliary drift block decays exactly at the mode rates
            alphas = [a for _, a in modes]
            _, _, _, g22 = coeffs.blocks(gamma)
            assert np.linalg.eigvals(g22).real.min() == pytest.approx(
                min(alphas), abs=1e-12)
            # characteristic polynomial via Newton's identities on traces
            dim = gamma.shape[0]
            powers = [np.eye(dim)]
            for _ in range(dim):
                powers.append(powers[-1] @ gamma)
            traces = [np.trace(p) for p in powers]
            coeffs_poly = [1.0]
            for k in range(1, dim + 1):
                acc = traces[k]
                for i in range(1, k):
                    acc += coeffs_poly[i] * traces[k - i]
                coeffs_poly.append(-acc / k)
            roots = np.roots(coeffs_poly)
            assert margin == pytest.approx(roots.real.min(), abs=1e-9)


def test_mass_must_be_spd():
    coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
    with pytest.raises(Exception):
        ModelSpec(domain=Domain("torus", 1), mass=-np.eye(1), beta=1.0,
                  force=ForceField.zero(1), coeffs=coeffs, Q=q_mat)


def test_gradient_consistency_enforced():
    with pytest.raises(ValueError):
        ForceField("conservative", 1,
                   force=lambda q: -2 * q,
                   potential=lambda q: 0.5 * np.sum(q * q, axis=-1),
                   grad_potential=lambda q: 2 * q)  # claims U' = 2q for U = q^2/2


def test_extended_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        ExtendedState(q=[np.nan], p=[0.0], s=[0.0])


def test_literal_entries_evaluate_like_compiled_expressions():
    # "0", "1" and "1.414..." parse to Num: they are written as constants
    # (zeros left to the zero fill) instead of evaluated per call, with the
    # bits of evaluating every entry as an expression of its own
    coeffs = CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                              sigma_entries=EXAMPLE_SIGMA_ENTRIES)
    grid = np.random.default_rng(3).random((37, 1))
    for field, rows, (positions, evaluator) in (
            (coeffs.gamma, EXAMPLE_GAMMA_ENTRIES, coeffs._gamma),
            (coeffs.sigma, EXAMPLE_SIGMA_ENTRIES, coeffs._sigma)):
        want = np.empty((37, 2, 2))
        for i in range(2):
            for j in range(2):
                want[:, i, j] = compile_exprs([parse_expr(rows[i][j])])(grid)[:, 0]
        assert field(grid).tobytes() == want.tobytes()
        assert field(grid[5]).tobytes() == want[5].tobytes()
        assert all(rows[i][j] != "0" for i, j in positions)
        assert [value is not None for value in evaluator.constants] == [
            isinstance(tree, Num) for tree in evaluator.trees]


def test_mass_inverse_is_computed_once_and_read_only():
    model = ModelSpec(domain=Domain("torus", 2),
                      mass=[[2.0, 0.3], [0.3, 1.5]], beta=1.0,
                      force=ForceField.zero(2),
                      coeffs=CoefficientField(2, 2, gamma=np.eye(4),
                                              sigma=np.eye(4) * 2 ** 0.5))
    assert model.mass_inv is model.mass_inv
    assert np.array_equal(model.mass_inv, np.linalg.inv(model.mass))
    with pytest.raises(ValueError):
        model.mass_inv[0, 0] = 1.0


def _posdep_field(entry):
    """A 1+1 field whose Gamma[0][1] entry is ``entry``."""
    return CoefficientField(1, 1, gamma_entries=[["0", entry], ["1", "1"]],
                            sigma_entries=[["0", "0"], ["0", "1"]])


class TestChecksAtConstruction:
    """Each model object screens its own inputs when it is built, so a
    model built in Python meets the checks a config file meets."""

    def test_singular_coefficient_entry_is_refused(self):
        with pytest.raises(ExpressionError) as err:
            CoefficientField(1, 1, gamma_entries=[["1/(q1-q1)", "0"],
                                                  ["0", "1"]],
                             sigma_entries=[["0", "0"], ["0", "1"]])
        assert err.value.path == ("gamma", 0, 0)

    def test_singular_potential_is_refused(self):
        with pytest.raises(ExpressionError) as err:
            ForceField.from_potential_expr("1/(q1-q1)", 1)
        assert err.value.path == ("potential",)

    def test_component_beyond_the_dimension_is_refused(self):
        with pytest.raises(ExpressionError) as err:
            ForceField.nonconservative(1, ["q2"])
        assert err.value.path == ("components", 0)

    @pytest.mark.parametrize("potential, entry, path", [
        ("q1*q1", "1", ("force", "potential")),
        ("cos(2*pi*q1)", "2+q1", ("coeffs", "gamma", 0, 1)),
    ])
    def test_torus_model_names_the_entry_that_is_not_periodic(
            self, potential, entry, path):
        force = ForceField.from_potential_expr(potential, 1)
        coeffs = _posdep_field(entry)
        ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1), beta=1.0,
                  force=force, coeffs=coeffs)
        with pytest.raises(ExpressionError) as err:
            ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                      force=force, coeffs=coeffs)
        assert err.value.path == path

    def test_smooth_quotient_builds_on_both_domains(self):
        # the division screen runs over R^n on every domain; periodicity
        # is the torus's own screen
        for kind, entry in (("euclidean", "1/(2+cos(q1))"),
                            ("torus", "1/(2+cos(2*pi*q1))")):
            ForceField.from_potential_expr(entry, 1)
            ModelSpec(domain=Domain(kind, 1), mass=np.eye(1), beta=1.0,
                      force=ForceField.from_potential_expr(entry, 1),
                      coeffs=_posdep_field(entry))

    @pytest.mark.parametrize("build, path", [
        (lambda: Domain("sphere", 1), ("kind",)),
        (lambda: Domain("torus", 0), ("dim",)),
        (lambda: ForceField.harmonic([[-1.0]]), ("stiffness",)),
        (lambda: ForceField.nonconservative(2, ["q1"]), ("components",)),
        (lambda: CoefficientField(1, 0, gamma=np.eye(1), sigma=np.eye(1)),
         ("m",)),
        (lambda: _posdep_field(True), ("gamma", 0, 1)),
        (lambda: _posdep_field(float("nan")), ("gamma", 0, 1)),
        (lambda: ModelSpec(domain=Domain("torus", 1), mass=np.eye(1),
                           beta=0.0, force=ForceField.zero(1),
                           coeffs=_posdep_field("1")), ("beta",)),
    ])
    def test_range_errors_name_their_field(self, build, path):
        with pytest.raises((ValueError, NotPositiveError)) as err:
            build()
        assert err.value.path == path
