import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from qgle.errors import IntegrationBlowupError, NonConservativeError
from qgle.fordkac import (
    FordKacSpectrum,
    fordkac_ensemble,
    fordkac_simulate,
    fordkac_vs_gle,
    velocity_autocorrelation,
)
from qgle.kernels import coeffs_from_prony
from qgle.model import (
    CoefficientField,
    Domain,
    ExtendedState,
    ForceField,
    ModelSpec,
)
from qgle.simulate import (
    GibbsInit,
    IntegratorSpec,
    Trajectory,
    _SplittingCache,
    _ou_step,
    _philox,
    colored_noise_path,
    ide_residual_check,
    model_fingerprint,
    read_noise_sidecar,
    replay_trajectory,
    sample_gibbs,
    simulate,
    simulate_ensemble,
    step_euler,
    step_splitting,
    trajectory_to_csv,
    write_noise_sidecar,
)
from qgle.stats import integrated_autocorrelation_time

from conftest import EXAMPLE_GAMMA_ENTRIES, EXAMPLE_SIGMA_ENTRIES, prony_model


def oscillator():
    """Frictionless, noiseless harmonic oscillator."""
    return ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1), beta=1.0,
                     force=ForceField.harmonic([[1.0]]),
                     coeffs=CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                             sigma=np.zeros((2, 2))),
                     Q=np.eye(1))


OSCILLATOR_START = ExtendedState(q=[1.0], p=[0.0], s=[0.0])
BLOWUPS = [("semi_exact_splitting", 2.006, 4588),
           ("euler_maruyama", 0.5, 6363),
           ("euler_maruyama", 10.0, 308)]


def free_model(n=1, m=1):
    coeffs = CoefficientField(n, m, gamma=np.zeros((n + m, n + m)),
                              sigma=np.zeros((n + m, n + m)))
    return ModelSpec(domain=Domain("euclidean", n), mass=np.eye(n), beta=1.0,
                     force=ForceField.zero(n), coeffs=coeffs, Q=np.eye(m))


class TestStepEuler:
    def test_free_flight(self):
        model = free_model()
        state = ExtendedState(q=[0.1], p=[2.0], s=[0.5])
        out = step_euler(model, state, 0.25, np.zeros(2))
        assert out.q == pytest.approx([0.6])
        assert out.p == pytest.approx([2.0])
        assert out.s == pytest.approx([0.5])

    def test_wrong_noise_length(self):
        model = free_model()
        state = ExtendedState(q=[0.0], p=[0.0], s=[0.0])
        with pytest.raises(ValueError):
            step_euler(model, state, 0.1, np.zeros(3))

    def test_harmonic_energy_error_is_first_order(self):
        # explicit scheme on the deterministic oscillator: energy error
        # after T = 1 halves when the step halves
        coeffs = CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                  sigma=np.zeros((2, 2)))
        model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=ForceField.harmonic(np.eye(1)),
                          coeffs=coeffs, Q=np.eye(1))

        def energy_error(dt):
            integ = IntegratorSpec("euler_maruyama", dt=dt,
                                   n_steps=int(round(1.0 / dt)), seed=0)
            traj = simulate(model, integ,
                            ExtendedState(q=[1.0], p=[0.0], s=[0.0]))
            energy = 0.5 * traj.p[:, 0] ** 2 + 0.5 * traj.q[:, 0] ** 2
            return np.abs(energy - energy[0]).max()

        ratio = energy_error(1e-3) / energy_error(5e-4)
        assert 1.8 <= ratio <= 2.2

    def test_uses_prestep_coefficients(self):
        # position-dependent friction must be evaluated at the old q
        coeffs = CoefficientField(
            1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
            sigma_entries=EXAMPLE_SIGMA_ENTRIES)
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=ForceField.zero(1), coeffs=coeffs, Q=np.eye(1))
        state = ExtendedState(q=[0.25], p=[1.0], s=[0.3])
        dt = 0.01
        out = step_euler(model, state, dt, np.zeros(2))
        gamma = coeffs.gamma(np.array([0.25]))
        expected_p = 1.0 - dt * (gamma[0, 0] * 1.0 + gamma[0, 1] * 0.3)
        expected_s = 0.3 - dt * (gamma[1, 0] * 1.0 + gamma[1, 1] * 0.3)
        assert out.p == pytest.approx([expected_p])
        assert out.s == pytest.approx([expected_s])


class TestStepSplitting:
    def test_reduces_to_velocity_verlet_without_noise(self):
        coeffs = CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                  sigma=np.zeros((2, 2)))
        model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=ForceField.harmonic(np.eye(1)),
                          coeffs=coeffs, Q=np.eye(1))
        dt = 0.1
        state = ExtendedState(q=[1.0], p=[0.0], s=[0.0])
        out = step_splitting(model, state, dt, np.zeros(2))
        # velocity verlet by hand
        p_half = 0.0 + 0.5 * dt * (-1.0)
        q_new = 1.0 + dt * p_half
        p_new = p_half + 0.5 * dt * (-q_new)
        assert out.q == pytest.approx([q_new])
        assert out.p == pytest.approx([p_new])

    def test_harmonic_energy_error_is_second_order(self):
        # with no friction or noise the scheme is velocity Verlet
        coeffs = CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                  sigma=np.zeros((2, 2)))
        model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=ForceField.harmonic(np.eye(1)),
                          coeffs=coeffs, Q=np.eye(1))

        def energy_error(dt):
            integ = IntegratorSpec("semi_exact_splitting", dt=dt,
                                   n_steps=int(round(1.0 / dt)), seed=0)
            traj = simulate(model, integ,
                            ExtendedState(q=[1.0], p=[0.0], s=[0.0]))
            energy = 0.5 * traj.p[:, 0] ** 2 + 0.5 * traj.q[:, 0] ** 2
            return np.abs(energy - energy[0]).max()

        ratio = energy_error(1e-2) / energy_error(5e-3)
        assert 3.6 <= ratio <= 4.4

    def test_exact_ou_mean_and_covariance(self):
        model = prony_model(potential=None)
        dt = 0.37
        cache = _SplittingCache(model, dt)
        gamma = model.coeffs.gamma()
        sigma = model.coeffs.sigma()
        assert np.allclose(cache.decay, expm(-gamma * dt), atol=1e-13)
        # 10-point Gauss-Legendre quadrature of the covariance integrand
        x, w = leggauss(10)
        nodes = 0.5 * dt * (x + 1.0)
        weights = 0.5 * dt * w
        quad = np.zeros((2, 2))
        for u, wt in zip(nodes, weights):
            e = expm(-gamma * u)
            quad += wt * (e @ sigma @ sigma.T @ e.T) / model.beta
        assert np.abs(cache.cov - quad).max() <= 1e-10

    def test_one_step_difference_from_euler_shrinks_quadratically(self):
        model = prony_model()
        rng = np.random.default_rng(0)

        def mean_square(dt):
            total = 0.0
            for _ in range(100):
                state = ExtendedState(q=rng.random(1),
                                      p=rng.standard_normal(1),
                                      s=rng.standard_normal(1))
                xi = rng.standard_normal(2)
                a = step_euler(model, state, dt, xi)
                b = step_splitting(model, state, dt, xi)
                total += np.sum((a.p - b.p) ** 2 + (a.s - b.s) ** 2
                                + (a.q - b.q) ** 2)
            return total / 100

        assert mean_square(1e-2) / mean_square(5e-3) >= 3.5

    def test_free_ou_marginal_moments(self):
        # with no force the (p, s) chain is the exact OU chain
        model = prony_model(potential=None)
        integ = IntegratorSpec("semi_exact_splitting", dt=1e-2,
                               n_steps=100_000, seed=11)
        traj = simulate(model, integ, GibbsInit())
        for series, target in ((traj.p[:, 0] ** 2, 1.0),
                               (traj.s[:, 0] ** 2, 1.0),
                               (traj.p[:, 0] * traj.s[:, 0], 0.0)):
            n = series.shape[0]
            tau = integrated_autocorrelation_time(series)
            se = np.sqrt(series.var() * 2 * tau / n)
            assert abs(series.mean() - target) <= 3 * se


def _two_dim_mass_model():
    gamma = np.array([[0.3, 0.1, -1.0, 0.0], [0.0, 0.2, 0.0, -0.7],
                      [1.0, 0.0, 2.0, 0.1], [0.0, 0.7, 0.0, 1.5]])
    force = ForceField.from_potential_expr(
        "cos(2*pi*q1)*sin(2*pi*q2)+0.3*cos(2*pi*q2)", 2)
    return ModelSpec(domain=Domain("torus", 2),
                     mass=np.array([[2.0, 0.3], [0.3, 1.5]]), beta=0.7,
                     force=force,
                     coeffs=CoefficientField(2, 2, gamma=gamma,
                                             sigma=np.diag([0.4, 0.3, 1.2, 1.0])))


def _posdep_model():
    coeffs = CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                              sigma_entries=EXAMPLE_SIGMA_ENTRIES)
    return ModelSpec(domain=Domain("torus", 1), mass=np.array([[1.3]]),
                     beta=1.0,
                     force=ForceField.from_potential_expr("cos(2*pi*q1)", 1),
                     coeffs=coeffs, Q=np.eye(1))


@pytest.mark.parametrize("make_model, scheme, step", [
    (prony_model, "semi_exact_splitting", step_splitting),
    (_two_dim_mass_model, "semi_exact_splitting", step_splitting),
    (_posdep_model, "euler_maruyama", step_euler),
], ids=["torus_identity_mass", "mass_matrix", "euler_position_dependent"])
def test_single_steps_compose_to_the_run(make_model, scheme, step):
    # each single step is a fresh one-step run, so a force or state carried
    # into the next step of a long run with the wrong value shows here; 9000
    # steps cross a chunk boundary.  A run transforms a whole chunk of
    # increments by one many-row matrix product, which rounds differently
    # from the one-row product of a single step, so every stored increment
    # has one nonzero component: then each kick is a single exact product
    model = make_model()
    dim, n_steps = model.n + model.m, 9000
    noise = np.zeros((n_steps, dim))
    noise[np.arange(n_steps), np.arange(n_steps) % dim] = \
        np.random.default_rng(21).standard_normal(n_steps)
    start = Trajectory(
        times=np.zeros(1), q=np.full((1, model.n), 0.3),
        p=np.full((1, model.n), 0.5), s=np.full((1, model.m), -0.2),
        noise=noise, meta={"scheme": scheme, "dt": 0.01, "n_steps": n_steps,
                           "stride": 3})
    traj = replay_trajectory(model, start)
    assert len(traj) == n_steps // 3 + 1
    state = traj.state(0)
    for k, xi in enumerate(noise, start=1):
        state = step(model, state, 0.01, xi)
        if k % 3 == 0:
            i = k // 3
            assert np.array_equal(state.q, traj.q[i]), k
            assert np.array_equal(state.p, traj.p[i]), k
            assert np.array_equal(state.s, traj.s[i]), k


def reference_extended(model, scheme, dt, n_steps, stride, q, p, s, noise):
    """Plain stepping of the extended SDE: fresh arrays for every
    expression, the force recomputed from scratch at every use, in the
    floating-point order the ``simulate`` docstring documents.  The library's
    in-place bodies must reproduce its times, q, p and s bit for bit.

    ``noise`` is (R, n_steps, n+m).  The increments of each 4096-step block
    are transformed by one matrix product, as in the library, because a
    many-row product rounds differently from a one-row product.  For the
    same reason the Euler step multiplies by contiguous copies of Gamma' and
    Sigma' and the splitting step by transposed views, as the library does:
    a one-row product against a view can round differently.
    """
    n = model.n
    minv = model.mass_inv
    identity = np.array_equal(minv, np.eye(n))
    coeffs = model.coeffs
    half = 0.5 * dt
    sqrt_kick = np.sqrt(dt / model.beta)

    def velocity(p):
        return p if identity else p @ minv.T

    def wrap(q):
        return np.mod(q, 1.0) if model.domain.is_torus else q

    if scheme == "semi_exact_splitting":
        cache = _SplittingCache(model, dt)
    elif coeffs.constant:
        gamma_t = np.ascontiguousarray(coeffs.gamma().T)
        sigma_t = np.ascontiguousarray(coeffs.sigma().T)
    qs, ps, ss = [q], [p], [s]
    for start in range(0, n_steps, 4096):
        block = noise[:, start:start + 4096]
        if scheme == "semi_exact_splitting":
            kicks = block @ cache.factor.T
        elif coeffs.constant:
            kicks = sqrt_kick * (block @ sigma_t)
        for k in range(block.shape[1]):
            if scheme == "semi_exact_splitting":
                p = p + half * model.force(q)
                q = wrap(q + half * velocity(p))
                z = np.concatenate([p, s], axis=1) @ cache.decay.T + kicks[:, k]
                p, s = z[:, :n], z[:, n:]
                q = wrap(q + half * velocity(p))
                p = p + half * model.force(q)
            else:
                zh = np.concatenate([velocity(p), s], axis=1)
                if coeffs.constant:
                    drift = zh @ gamma_t
                    kick = kicks[:, k]
                else:
                    drift = np.einsum("rij,rj->ri", coeffs.gamma(q), zh)
                    kick = np.einsum("rij,rj->ri", coeffs.sigma(q),
                                     block[:, k]) * sqrt_kick
                force = model.force(q)
                q = wrap(q + dt * velocity(p))
                z = np.concatenate([p, s], axis=1) - dt * drift + kick
                p, s = z[:, :n] + dt * force, z[:, n:]
            if (start + k + 1) % stride == 0:
                qs.append(q)
                ps.append(p)
                ss.append(s)
    times = np.arange(len(qs)) * (dt * stride)
    return times, np.stack(qs, axis=1), np.stack(ps, axis=1), \
        np.stack(ss, axis=1)


def _tilted_force(n):
    """Non-conservative: a periodic force plus a constant tilt (and a
    rotation for n = 2)."""
    def force(q):
        f = 0.5 - np.sin(2 * np.pi * q)
        if n == 2:
            f = f + 0.3 * np.cos(2 * np.pi * q[:, ::-1]) * np.array([1.0, -1.0])
        return f
    return ForceField.nonconservative(n, force)


def _constant_model(domain, n, mass, force):
    rng = np.random.default_rng(40 + n)
    dim = n + 1
    gamma = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    sigma = np.diag(rng.uniform(0.3, 1.2, dim))
    return ModelSpec(domain=Domain(domain, n), mass=np.asarray(mass),
                     beta=0.8, force=force,
                     coeffs=CoefficientField(n, 1, gamma=gamma, sigma=sigma))


def _posdep_tilted_model():
    model = _posdep_model()
    return ModelSpec(domain=model.domain, mass=model.mass, beta=model.beta,
                     force=_tilted_force(1), coeffs=model.coeffs, Q=model.Q)


def _posdep_dim3_model():
    """n = 1, m = 2 on the torus: rows of three terms, so the einsum of
    Gamma(q) and Sigma(q) with (M^-1 p, s) and the increments sums more
    than two products per row."""
    coeffs = CoefficientField(
        1, 2,
        gamma_entries=[["0.2", "0-(2+cos(2*pi*q1))", "0.5*sin(2*pi*q1)"],
                       ["2+cos(2*pi*q1)", "1+0.3*cos(2*pi*q1)", "0.1"],
                       ["0-0.5*sin(2*pi*q1)", "0", "1.5"]],
        sigma_entries=[["0.6", "0", "0"],
                       ["0", "1+0.5*cos(2*pi*q1)", "0.2*sin(2*pi*q1)"],
                       ["0", "0", "1.7"]])
    return ModelSpec(domain=Domain("torus", 1), mass=np.array([[1.3]]),
                     beta=0.9,
                     force=ForceField.from_potential_expr(
                         "cos(2*pi*q1)+0.2*sin(4*pi*q1)", 1),
                     coeffs=coeffs)


MASS2 = [[2.0, 0.3], [0.3, 1.5]]
REFERENCE_CASES = {
    "split-torus-1-expression": (prony_model, "semi_exact_splitting"),
    "split-torus-2-mass-expression": (_two_dim_mass_model,
                                      "semi_exact_splitting"),
    "split-euclid-1-mass-harmonic": (lambda: _constant_model(
        "euclidean", 1, [[1.3]], ForceField.harmonic([[1.5]])),
        "semi_exact_splitting"),
    "split-euclid-2-mass-zero": (lambda: _constant_model(
        "euclidean", 2, MASS2, ForceField.zero(2)), "semi_exact_splitting"),
    "split-torus-1-nonconservative": (lambda: _constant_model(
        "torus", 1, [[1.0]], _tilted_force(1)), "semi_exact_splitting"),
    "euler-torus-2-mass-expression": (_two_dim_mass_model, "euler_maruyama"),
    "euler-euclid-1-mass-harmonic": (lambda: _constant_model(
        "euclidean", 1, [[1.3]], ForceField.harmonic([[1.5]])),
        "euler_maruyama"),
    "euler-euclid-2-zero": (lambda: _constant_model(
        "euclidean", 2, np.eye(2), ForceField.zero(2)), "euler_maruyama"),
    "euler-torus-2-nonconservative": (lambda: _constant_model(
        "torus", 2, MASS2, _tilted_force(2)), "euler_maruyama"),
    "euler-posdep-torus-1-expression": (_posdep_model, "euler_maruyama"),
    "euler-posdep-torus-1-nonconservative": (_posdep_tilted_model,
                                             "euler_maruyama"),
    "euler-posdep-torus-1-aux-2-expression": (_posdep_dim3_model,
                                              "euler_maruyama"),
}


# (replicas, stride) per case; 300 position-dependent replicas span several
# noise-budget chunks (218 steps each at n+m = 2, 145 at n+m = 3)
REFERENCE_RUNS = [
    pytest.param(case, replicas, stride, id=f"{replicas}-{stride}-{case}")
    for case in REFERENCE_CASES
    for replicas, stride in [(1, 3), (3, 1)]
    + ([(300, 7)] if "posdep" in case else [])]


@pytest.mark.parametrize("case, replicas, stride", REFERENCE_RUNS)
def test_runs_match_reference_steps_bitwise(case, replicas, stride):
    # 4100 steps cross the 4096-step chunk boundary
    make_model, scheme = REFERENCE_CASES[case]
    model = make_model()
    n_steps = 4100
    integ = IntegratorSpec(scheme, dt=0.01, n_steps=n_steps, seed=17,
                           store_noise=True, stride=stride)
    start = ExtendedState(q=np.linspace(0.3, 0.6, model.n),
                          p=np.linspace(0.5, -0.4, model.n),
                          s=np.full(model.m, -0.2))
    if replicas == 1:
        single = simulate(model, integ, start)
        noise = single.noise[None]
        replayed = replay_trajectory(model, single)
        runs = [(t.times, t.q[None], t.p[None], t.s[None])
                for t in (single, replayed)]
    else:
        # replica r's increments are the leading draws of its stream
        noise = np.stack([
            _philox(integ.seed, r).standard_normal((n_steps, model.n + model.m))
            for r in range(replicas)])
        result = simulate_ensemble(model, integ, start, replicas)
        runs = [(result.times, result.q, result.p, result.s)]
    times, qs, ps, ss = reference_extended(
        model, scheme, integ.dt, n_steps, stride,
        np.tile(model.domain.reduce(start.q), (replicas, 1)),
        np.tile(start.p, (replicas, 1)), np.tile(start.s, (replicas, 1)),
        noise)
    for got in runs:
        for a, b in zip(got, (times, qs, ps, ss)):
            assert_same_bytes(a, b)


class TestSimulate:
    def test_zero_steps_echo_initial(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=0.1, n_steps=0, seed=0)
        state = ExtendedState(q=[0.2], p=[0.3], s=[0.4])
        traj = simulate(model, integ, state)
        assert len(traj) == 1
        assert traj.q[0] == pytest.approx([0.2])
        assert traj.p[0] == pytest.approx([0.3])

    def test_same_seed_bit_identical(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=500, seed=5)
        a = simulate(model, integ, GibbsInit())
        b = simulate(model, integ, GibbsInit())
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.s, b.s)

    def test_stride_thins_output(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=100, seed=5,
                               stride=10)
        traj = simulate(model, integ, GibbsInit())
        assert len(traj) == 11
        assert traj.times[1] == pytest.approx(1e-2)

    def test_noise_regenerates_trajectory_bit_exactly(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=300, seed=9,
                               store_noise=True)
        traj = simulate(model, integ, GibbsInit())
        replayed = replay_trajectory(model, traj)
        assert np.array_equal(replayed.q, traj.q)
        assert np.array_equal(replayed.p, traj.p)
        assert np.array_equal(replayed.s, traj.s)

    def test_momentum_moment_matches_gibbs(self):
        model = prony_model(potential=None, beta=2.0)
        integ = IntegratorSpec("semi_exact_splitting", dt=1e-2,
                               n_steps=50_000, seed=3)
        traj = simulate(model, integ, GibbsInit(),
                        observables={"p2": lambda q, p, s: p[:, 0] ** 2})
        acc = traj.meta["observables"]["p2"]
        series = traj.p[:, 0] ** 2
        tau = integrated_autocorrelation_time(series)
        se = np.sqrt(series.var() * 2 * tau / series.shape[0])
        assert abs(acc.mean - 0.5) <= 3 * se

    def test_blowup_reports_step_index(self):
        # the frictionless, noiseless oscillator from q = 1, p = 0 diverges
        # at these exact steps; 4588 lies in the second 4096-step chunk
        for scheme, dt, index in BLOWUPS:
            integ = IntegratorSpec(scheme, dt=dt, n_steps=10_000, seed=0)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(IntegrationBlowupError) as err:
                    simulate(oscillator(), integ, OSCILLATOR_START)
            assert err.value.step_index == index

    @pytest.mark.parametrize("scheme, dt, index", BLOWUPS)
    def test_blowup_warns_like_a_per_step_check(self, scheme, dt, index):
        integ = IntegratorSpec(scheme, dt=dt, n_steps=10_000, seed=0)
        with pytest.warns(RuntimeWarning, match="encountered"):
            with pytest.raises(IntegrationBlowupError) as err:
                simulate(oscillator(), integ, OSCILLATOR_START)
        assert err.value.step_index == index
        # a caller that raises on overflow stops at the overflowing step
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError):
                simulate(oscillator(), integ, OSCILLATOR_START)

    def test_blowup_is_reported_before_a_later_step_raises(self):
        def strict_force(q):
            if not np.isfinite(q).all():
                raise ValueError("non-finite position")
            return -q

        base = oscillator()
        model = ModelSpec(domain=base.domain, mass=base.mass, beta=base.beta,
                          force=ForceField.nonconservative(1, strict_force),
                          coeffs=base.coeffs, Q=base.Q)
        integ = IntegratorSpec("euler_maruyama", dt=10.0, n_steps=1000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowupError) as err:
                simulate(model, integ, OSCILLATOR_START)
        assert err.value.step_index == 308

    def test_position_dependent_blowup_reports_step_and_warning(self):
        # exp(q1) overflows once q drifts past 709.78; s is exactly zero
        # until then, so the einsum of Gamma(q) with (p, s) forms 0 * inf
        # beside the zero entry of the row, a nan that warns nothing
        coeffs = CoefficientField(
            1, 1, gamma_entries=[["0", "0"], ["0", "exp(q1)"]],
            sigma_entries=[["0.5", "0"], ["0", "0"]])
        model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=ForceField.zero(1), coeffs=coeffs)
        start = ExtendedState(q=[0.0], p=[6.0], s=[0.0])
        integ = IntegratorSpec("euler_maruyama", dt=0.5, n_steps=10_000,
                               seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationBlowupError) as err:
                simulate(model, integ, start)
        assert err.value.step_index == 6312  # in the second 4096-step chunk
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "overflow encountered in exp")]
        before = simulate(model, IntegratorSpec(
            "euler_maruyama", dt=0.5, n_steps=6311, seed=2), start)
        assert np.all(before.s == 0.0)
        with np.errstate(over="ignore"):
            gamma = coeffs.gamma(before.q[-1])
        assert gamma[1, 0] == 0.0 and gamma[1, 1] == np.inf
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                simulate(model, integ, start)

    @pytest.mark.parametrize("scheme", ["euler_maruyama",
                                        "semi_exact_splitting"])
    def test_overflow_without_blowup_is_reported(self, scheme):
        # exp overflows once q passes 0.89, after the first step, yet the
        # force stays finite
        def force(q):
            return -q - 1.0 / (1.0 + np.exp(800.0 * q))

        base = oscillator()
        model = ModelSpec(domain=base.domain, mass=base.mass, beta=base.beta,
                          force=ForceField.nonconservative(1, force),
                          coeffs=base.coeffs, Q=base.Q)
        integ = IntegratorSpec(scheme, dt=0.01, n_steps=5000)
        start = ExtendedState(q=[0.0], p=[1.0], s=[0.0])
        with np.errstate(over="ignore"):
            quiet = simulate(model, integ, start)
        with pytest.warns(RuntimeWarning, match="overflow"):
            loud = simulate(model, integ, start)
        assert np.array_equal(loud.q, quiet.q)
        assert np.array_equal(loud.p, quiet.p)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                simulate(model, integ, start)

    @pytest.mark.parametrize("scheme", ["euler_maruyama",
                                        "semi_exact_splitting"])
    def test_finite_run_raises_no_warning(self, scheme):
        integ = IntegratorSpec(scheme, dt=0.01, n_steps=9000, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate(oscillator(), integ, OSCILLATOR_START)
        assert np.isfinite(traj.p).all()

    def test_ensemble_matches_individual_runs(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=200, seed=17)
        ens = simulate_ensemble(model, integ, GibbsInit(), n_replicas=3)
        for r in range(3):
            solo = simulate(model, integ, GibbsInit(), traj_index=r)
            assert np.array_equal(ens.q[r], solo.q)
            assert np.array_equal(ens.p[r], solo.p)

    def test_position_dependent_noise_memory_is_bounded(self):
        # the noise of a chunk is held once, in a buffer of at most 2^17
        # values (1 MiB); 256 replicas x 4096 steps x 2 held whole (and
        # once more while stacked) would be about 33 MB
        model = _posdep_model()
        integ = IntegratorSpec("euler_maruyama", dt=0.01, n_steps=4100,
                               seed=5, stride=4100)
        start = ExtendedState(q=[0.3], p=[0.5], s=[-0.2])
        simulate_ensemble(model, integ, start, 2)  # builds the evaluator
        tracemalloc.start()
        try:
            simulate_ensemble(model, integ, start, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak

    def test_wide_splitting_ensemble_groups_noise_by_4096_steps(self):
        # at n+m = 34 the rows of a product of up to about 48 rows round
        # differently from the same rows of a 4096-row product, so the
        # 20-step tail of 4116 steps pins the library's grouping of each
        # replica's increments to that of the reference: whole 4096-step
        # chunks whatever the number of replicas.  (Solo runs are no
        # reference here: their one-row products of the state round
        # differently from the 8-row products of the ensemble.)
        model = prony_model(modes=[(0.2 + 0.05 * i, 0.5 + 0.1 * i)
                                   for i in range(33)])
        replicas, n_steps, stride = 8, 4116, 41
        integ = IntegratorSpec("semi_exact_splitting", dt=0.01,
                               n_steps=n_steps, seed=23, stride=stride)
        start = ExtendedState(q=[0.3], p=[0.5], s=np.full(33, -0.2))
        ens = simulate_ensemble(model, integ, start, replicas)
        noise = np.stack([_philox(integ.seed, r).standard_normal((n_steps, 34))
                          for r in range(replicas)])
        expected = reference_extended(
            model, integ.scheme, integ.dt, n_steps, stride,
            np.full((replicas, 1), 0.3), np.full((replicas, 1), 0.5),
            np.full((replicas, 33), -0.2), noise)
        for a, b in zip((ens.times, ens.q, ens.p, ens.s), expected):
            assert_same_bytes(a, b)

    def test_torus_reduction_does_not_change_momenta(self):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        force = ForceField.from_potential_expr("cos(2*pi*q1)", 1)
        torus = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=force, coeffs=coeffs, Q=q_mat)
        plane = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                          beta=1.0, force=force, coeffs=coeffs, Q=q_mat)
        integ = IntegratorSpec("euler_maruyama", dt=1e-2, n_steps=300, seed=2)
        start = ExtendedState(q=[0.9], p=[2.5], s=[0.0])
        a = simulate(torus, integ, start)
        b = simulate(plane, integ, start)
        assert np.allclose(a.p, b.p, atol=1e-9)
        assert np.allclose(a.s, b.s, atol=1e-9)
        assert np.allclose(np.cos(2 * np.pi * a.q), np.cos(2 * np.pi * b.q),
                           atol=1e-9)

    def test_gibbs_sampler_needs_torus_for_free_q(self):
        model = prony_model(domain_kind="euclidean", potential=None)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gibbs(model, rng, size=4)
        q, p, s = sample_gibbs(model, rng, size=4, q0=np.zeros(1))
        assert q.shape == (4, 1)


class TestIdeResidual:
    def run_residual(self, model, n_steps=1000, seed=4):
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=n_steps,
                               seed=seed, store_noise=True)
        initial = (GibbsInit() if model.domain.is_torus
                   else ExtendedState(q=np.zeros(model.n), p=np.ones(model.n),
                                      s=np.zeros(model.m)))
        traj = simulate(model, integ, initial)
        return ide_residual_check(model, traj)

    def test_constant_coefficients(self):
        model = prony_model(modes=((1.0, 1.0), (0.4, 2.5)))
        assert self.run_residual(model) <= 1e-10

    def test_position_dependent_example(self):
        coeffs = CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                                  sigma_entries=EXAMPLE_SIGMA_ENTRIES)
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=ForceField.from_potential_expr("cos(2*pi*q1)", 1),
                          coeffs=coeffs, Q=np.eye(1))
        assert self.run_residual(model) <= 1e-10

    def test_zero_auxiliary_drift_reduces_to_summation(self):
        coeffs = CoefficientField(1, 1, gamma=[[0.0, -1.0], [1.0, 0.0]],
                                  sigma=[[0.0, 0.0], [0.0, 1.0]])
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=ForceField.zero(1), coeffs=coeffs, Q=None)
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=500, seed=1,
                               store_noise=True)
        traj = simulate(model, integ,
                        ExtendedState(q=[0.0], p=[1.0], s=[0.0]))
        assert ide_residual_check(model, traj) <= 1e-12

    def test_requires_stored_noise(self):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=1e-3, n_steps=10, seed=0)
        traj = simulate(model, integ, GibbsInit())
        with pytest.raises(ValueError):
            ide_residual_check(model, traj)

    def test_requires_euler_scheme(self):
        model = prony_model()
        integ = IntegratorSpec("semi_exact_splitting", dt=1e-3, n_steps=10,
                               seed=0, store_noise=True)
        traj = simulate(model, integ, GibbsInit())
        with pytest.raises(ValueError):
            ide_residual_check(model, traj)


class TestColoredNoisePath:
    def test_exact_path_is_stationary_ou(self):
        coeffs, _ = coeffs_from_prony([(1.0, 1.0)])
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((20_000, 2))
        eta0 = rng.standard_normal(1)
        path = colored_noise_path(coeffs, 1.0, 0.05, noise, eta0)
        assert path.shape == (20_001, 1)
        # lag-1 autoregression factor equals the exact decay
        rho = np.mean(path[1:, 0] * path[:-1, 0]) / np.mean(path[:-1, 0] ** 2)
        assert rho == pytest.approx(np.exp(-0.05), abs=0.02)

    @pytest.mark.parametrize("n, modes", [
        (1, [(1.0, 1.0)]), (1, [(0.3, 0.7), (1.2, 3.0), (2.0, 0.5)]),
        (2, [(1.0, 1.0)])])
    def test_exact_path_matches_plain_one_row_products(self, n, modes):
        # the plain map decay @ eta + factor @ xi, one row at a time
        coeffs, _ = coeffs_from_prony(modes, n=n)
        rng = np.random.default_rng(len(modes) + n)
        noise = rng.standard_normal((3000, n + coeffs.m))
        eta0 = rng.standard_normal(coeffs.m)
        path = colored_noise_path(coeffs, 0.9, 0.01, noise, eta0)
        _, _, _, g22 = coeffs.blocks(coeffs.gamma())
        _, s2 = coeffs.sigma_rows(coeffs.sigma())
        decay, _, factor = _ou_step(g22, s2 @ s2.T / 0.9, 0.01)
        want = [eta0]
        for xi in noise:
            want.append(decay @ want[-1] + factor @ xi[n:])
        assert_same_bytes(path, np.array(want))

    def test_euler_matches_simulation_auxiliary_block(self):
        # with no coupling the s-path of the simulation IS the noise process
        coeffs = CoefficientField(1, 1, gamma=[[0.0, 0.0], [0.0, 1.0]],
                                  sigma=[[0.0, 0.0], [0.0, np.sqrt(2.0)]])
        model = ModelSpec(domain=Domain("torus", 1), mass=np.eye(1), beta=1.0,
                          force=ForceField.zero(1), coeffs=coeffs, Q=np.eye(1))
        integ = IntegratorSpec("euler_maruyama", dt=1e-2, n_steps=200, seed=8,
                               store_noise=True)
        traj = simulate(model, integ, GibbsInit())
        path = [traj.s[0]]
        for xi in traj.noise:  # Euler map of d eta = -eta dt + sqrt(2) dW
            path.append(path[-1] - 1e-2 * path[-1] + np.sqrt(2e-2) * xi[1:])
        assert np.allclose(path, traj.s, atol=1e-12)


def reference_fordkac(force, spectrum, beta, dt, n_steps, stride, rng, q0,
                      p0, n_replicas):
    """Plain velocity-Verlet of the bath model: fresh arrays for every
    expression, forces recomputed from scratch, no chunking.  The library's
    in-place loop must reproduce its q, p and energy bit for bit."""
    if force is None:
        def u(q):
            return np.zeros_like(q)

        def du(q):
            return np.zeros_like(q)
    else:
        def u(q):
            return np.asarray(force.potential(q[:, None]), dtype=float)

        def du(q):
            return np.asarray(force.grad_potential(q[:, None]))[:, 0]
    k, mass, nb = spectrum.stiffness, spectrum.bath_mass, len(spectrum)
    q = np.broadcast_to(np.asarray(q0, dtype=float), (n_replicas,)).astype(float)
    p = np.broadcast_to(np.asarray(p0, dtype=float), (n_replicas,)).astype(float)
    if nb:
        bq = q[:, None] + rng.standard_normal((n_replicas, nb)) / np.sqrt(beta * k)
        bp = rng.standard_normal((n_replicas, nb)) * np.sqrt(mass / beta)
    else:
        bq = bp = np.zeros((n_replicas, 0))

    def energy(q, p, bq, bp):
        coupling = 0.5 * np.sum(k * (bq - q[:, None]) ** 2, axis=-1)
        kinetic = 0.5 * np.sum(bp**2 / mass, axis=-1) if nb else np.zeros_like(q)
        return 0.5 * p**2 + u(q) + kinetic + coupling

    def forces(q, bq):
        spring = k * (bq - q[:, None])
        return -du(q) + spring.sum(axis=-1), -spring

    qs, ps, es = [q], [p], [energy(q, p, bq, bp)]
    fq, fb = forces(q, bq)
    half = 0.5 * dt
    for step in range(1, n_steps + 1):
        p = p + half * fq
        bp = bp + half * fb
        q = q + dt * p
        if nb:
            bq = bq + dt * bp / mass
        fq, fb = forces(q, bq)
        p = p + half * fq
        bp = bp + half * fb
        if step % stride == 0:
            qs.append(q)
            ps.append(p)
            es.append(energy(q, p, bq, bp))
    return np.stack(qs, axis=1), np.stack(ps, axis=1), np.stack(es, axis=1)


def assert_same_bytes(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


FK_FORCES = {
    "none": None,
    "harmonic": ForceField.harmonic([[1.5]]),
    "expression": ForceField.from_potential_expr("q1*q1/2+sin(q1)/4", 1),
}
FK_SPECTRA = {
    "two-mode": FordKacSpectrum(((0.3, 0.5), (0.7, 2.5))),
    "empty": FordKacSpectrum(()),
}
# dt = 0.0401 lies just above the Verlet limit 2/50 of the stiff mode
FK_BLOWUP_SPECTRUM = FordKacSpectrum(((1.0, 50.0), (0.5, 3.0)))


class TestFordKac:
    def test_single_mode_energy_conservation(self):
        spectrum = FordKacSpectrum(((1.0, 1.0),))
        traj = fordkac_simulate(None, spectrum, 1.0, 1e-3, 10.0, 7,
                                q0=1.0, p0=0.0)
        rel = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
        assert rel <= 1e-6

    def test_empty_spectrum_harmonic_period(self):
        force = ForceField.from_potential_expr("q1*q1/2", 1)
        traj = fordkac_simulate(force, FordKacSpectrum(()), 1.0, 1e-3, 20.0, 0,
                                q0=1.0, p0=0.0)
        q, t = traj.q, traj.times
        crossings = []
        for i in range(1, len(q)):
            if q[i - 1] < 0 <= q[i]:
                crossings.append(t[i - 1] + (t[i] - t[i - 1])
                                 * (-q[i - 1]) / (q[i] - q[i - 1]))
        assert crossings[1] - crossings[0] == pytest.approx(2 * np.pi, abs=1e-4)

    def test_gibbs_ensemble_momentum_moment(self):
        spectrum = FordKacSpectrum(
            tuple((1.0 / 16, 0.5 + 0.25 * i) for i in range(16)))
        _, _, ps, _ = fordkac_ensemble(None, spectrum, beta=1.0, dt=1e-2,
                                       T=100.0, seed=12, n_replicas=64,
                                       stride=5)
        means = (ps ** 2).mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() - 1.0) <= 3 * se

    def test_kernel_attached_to_meta(self):
        spectrum = FordKacSpectrum(((2.0, 3.0),))
        traj = fordkac_simulate(None, spectrum, 1.0, 1e-2, 0.1, 0, 0.0, 0.0)
        assert traj.meta["kernel"](0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("force", FK_FORCES)
    @pytest.mark.parametrize("spectrum", FK_SPECTRA)
    @pytest.mark.parametrize("stride", [1, 7])
    def test_single_run_matches_reference_verlet_bitwise(self, force, spectrum,
                                                         stride):
        # 9000 steps cross the 4096-step chunk boundary twice
        dt, n_steps = 0.01, 9000
        sp = FK_SPECTRA[spectrum]
        traj = fordkac_simulate(FK_FORCES[force], sp, 1.3, dt, n_steps * dt,
                                5, 0.4, -0.2, stride=stride)
        qs, ps, es = reference_fordkac(FK_FORCES[force], sp, 1.3, dt, n_steps,
                                       stride, _philox(5, 0, purpose=2),
                                       0.4, -0.2, 1)
        assert_same_bytes(traj.q, qs[0])
        assert_same_bytes(traj.p, ps[0])
        assert_same_bytes(traj.energy, es[0])

    @pytest.mark.parametrize("force", FK_FORCES)
    @pytest.mark.parametrize("spectrum", FK_SPECTRA)
    @pytest.mark.parametrize("stride", [1, 7])
    def test_ensemble_matches_reference_verlet_bitwise(self, force, spectrum,
                                                       stride):
        dt, n_steps, replicas = 0.01, 9000, 16
        sp = FK_SPECTRA[spectrum]
        _, q, p, energy = fordkac_ensemble(FK_FORCES[force], sp, 0.8, dt,
                                           n_steps * dt, 11, replicas,
                                           stride=stride)
        # start positions from the Gibbs marginal of a harmonic force
        rng = _philox(11, 0, purpose=3)
        q0 = (rng.standard_normal(replicas) / np.sqrt(0.8 * 1.5)
              if force == "harmonic" else np.zeros(replicas))
        p0 = rng.standard_normal(replicas) / np.sqrt(0.8)
        qs, ps, es = reference_fordkac(FK_FORCES[force], sp, 0.8, dt, n_steps,
                                       stride, _philox(11, 1, purpose=2),
                                       q0, p0, replicas)
        assert_same_bytes(q, qs)
        assert_same_bytes(p, ps)
        assert_same_bytes(energy, es)

    @pytest.mark.parametrize("dt, run, index", [
        (0.0401, "simulate", 4813), (0.0401, "ensemble", 4810),
        (0.2, "simulate", 156), (0.2, "ensemble", 155)])
    def test_blowup_reports_step_index_and_warns(self, dt, run, index):
        # at dt = 0.0401 the blowup falls in the second 4096-step chunk
        def go():
            if run == "simulate":
                return fordkac_simulate(None, FK_BLOWUP_SPECTRUM, 1.0, dt,
                                        20000 * dt, 3, 0.5, 0.1, stride=7)
            return fordkac_ensemble(None, FK_BLOWUP_SPECTRUM, 1.0, dt,
                                    20000 * dt, 3, 16, stride=3)

        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(IntegrationBlowupError) as err:
                go()
        assert err.value.step_index == index
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                go()

    def test_nonconservative_force_is_refused(self):
        force = ForceField.nonconservative(1, lambda q: -q)
        spectrum = FordKacSpectrum(((1.0, 1.0),))
        with pytest.raises(NonConservativeError):
            fordkac_simulate(force, spectrum, 1.0, 1e-2, 0.1, 0, 0.0, 0.0)
        with pytest.raises(NonConservativeError):
            fordkac_ensemble(force, spectrum, 1.0, 1e-2, 0.1, 0, 4)
        with pytest.raises(NonConservativeError):
            fordkac_vs_gle(1.0, 1.0, [2], force, T=0.1, n_ensemble=4, seed=0,
                           dt=1e-2, stride=1)

    def test_vs_gle_single_row_and_t_zero(self):
        result = fordkac_vs_gle(1.0, 1.0, [8], None, T=0.0, n_ensemble=4,
                                seed=0)
        assert result.passed
        assert result.rows[0][1] == 0.0

    def test_vs_gle_rejects_negative_t(self):
        with pytest.raises(ValueError, match="T must be nonnegative"):
            fordkac_vs_gle(1.0, 1.0, [8], None, T=-0.5, n_ensemble=4, seed=0)


class TestFileFormats:
    def test_trajectory_csv_layout(self, tmp_path):
        model = prony_model()
        integ = IntegratorSpec("euler_maruyama", dt=0.5, n_steps=2, seed=0)
        traj = simulate(model, integ,
                        ExtendedState(q=[0.25], p=[1.0], s=[-1.0]))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q_1,p_1,s_1"
        assert len(lines) == 4
        first = [float(x) for x in lines[1].split(",")]
        assert first == pytest.approx([0.0, 0.25, 1.0, -1.0])

    def test_trajectory_csv_round_trips_every_row_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        k = 9000
        traj = Trajectory(times=np.arange(k) * 0.01,
                          q=rng.standard_normal((k, 2)),
                          p=rng.standard_normal((k, 2)) * 1e-300,
                          s=rng.standard_normal((k, 3)) * 1e300,
                          noise=None, meta={})
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        text = path.read_bytes().decode("ascii")
        rows = text.split("\r\n")
        assert rows[-1] == ""
        assert len(rows) == k + 2
        back = np.array([[float(x) for x in row.split(",")]
                         for row in rows[1:-1]])
        expected = np.concatenate([traj.times[:, None], traj.q, traj.p,
                                   traj.s], axis=1)
        assert np.array_equal(back, expected)

    def test_noise_sidecar_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((37, 3))
        path = tmp_path / "noise.qgln"
        write_noise_sidecar(path, noise)
        raw = path.read_bytes()
        assert raw[:4] == b"QGLN"
        assert raw[4] == 1
        back = read_noise_sidecar(path, 3)
        assert np.array_equal(back, noise)

    def test_sidecar_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qgln"
        path.write_bytes(b"NOPE\x01")
        with pytest.raises(ValueError):
            read_noise_sidecar(path, 2)


def test_fingerprint_distinguishes_models():
    a = prony_model(modes=((1.0, 1.0),))
    b = prony_model(modes=((1.0, 2.0),))
    assert model_fingerprint(a) != model_fingerprint(b)
    assert model_fingerprint(a) == model_fingerprint(prony_model(modes=((1.0, 1.0),)))


@pytest.mark.parametrize("force_a, force_b", [
    (lambda: ForceField.from_potential_expr("cos(2*pi*q1)", 1),
     lambda: ForceField.from_potential_expr("3*cos(4*pi*q1)", 1)),
    (lambda: ForceField.harmonic([[1.0]]), lambda: ForceField.harmonic([[5.0]])),
    (lambda: ForceField.nonconservative(1, ["1.0"]),
     lambda: ForceField.nonconservative(1, ["5.0"])),
], ids=["potential", "harmonic", "nonconservative"])
def test_fingerprint_covers_the_force(force_a, force_b):
    def model(force):
        coeffs, q_mat = coeffs_from_prony([(1.0, 1.0)])
        return ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                         beta=1.0, force=force, coeffs=coeffs, Q=q_mat)

    assert model_fingerprint(model(force_a())) != model_fingerprint(model(force_b()))
    assert model_fingerprint(model(force_a())) == model_fingerprint(model(force_a()))


def test_position_dependent_fingerprint_is_stable():
    # the digest covers the parsed coefficient entries and the potential's
    # source, not how they are evaluated: literal entries compiled to
    # constants leave it as it was
    assert model_fingerprint(_posdep_model()) == "5e7729198f95aff6"


def test_splitting_operators_are_built_once_per_dt():
    model = prony_model()
    ops = _SplittingCache.for_model(model, 0.01)
    assert _SplittingCache.for_model(model, 0.01) is ops
    assert _SplittingCache.for_model(model, 0.02) is not ops
    assert _SplittingCache.for_model(prony_model(), 0.01) is not ops
    assert not ops.decay.flags.writeable and not ops.factor.flags.writeable


def test_velocity_autocorrelation_shape():
    paths = np.random.default_rng(0).standard_normal((4, 100))
    corr = velocity_autocorrelation(paths, 10)
    assert corr.shape == (4, 11)
    assert np.all(corr[:, 0] > 0)
