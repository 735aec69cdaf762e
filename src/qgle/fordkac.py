"""Explicit harmonic heat bath (the Ford-Kac model) and its GLE limit.

A particle of unit mass coupled by springs k_i to bath oscillators of
frequencies omega_i has, with a Gibbs-distributed bath, the memory kernel
sum_i k_i cos(omega_i t); ``fordkac_vs_gle`` compares a bath approximating
c exp(-alpha t) with the matched one-mode quasi-Markovian model.  The
velocity-Verlet loop works in place on (replicas x modes) buffers with one
gradient call per step, through the chunked driver of ``qgle.simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import NonConservativeError
from .kernels import coeffs_from_prony
from .model import Domain, ForceField, ModelSpec
from .simulate import IntegratorSpec, _philox, _run_batch, _step_chunks

__all__ = ["FordKacSpectrum", "FordKacTrajectory", "FordKacComparison",
           "fordkac_kernel", "fordkac_spectrum_for_exponential",
           "fordkac_simulate", "fordkac_ensemble", "fordkac_vs_gle",
           "velocity_autocorrelation"]


def _layer(name):
    """Report a function under ``qgle.<name>``, its layer (bath spectra are kernels,
    bath runs simulation), to tools that group calls by ``__module__`` (bench/harness.py)."""
    def mark(fn):
        fn.__module__ = f"qgle.{name}"
        return fn
    return mark


@dataclass(frozen=True)
class FordKacSpectrum:
    """Spring stiffnesses and frequencies of a finite harmonic bath."""

    modes: Tuple[Tuple[float, float], ...]  # (k_i, omega_i)

    def __post_init__(self):
        modes = tuple((float(k), float(w)) for k, w in self.modes)
        if any(k <= 0 or w <= 0 for k, w in modes):
            raise ValueError("bath modes need k_i > 0 and omega_i > 0")
        object.__setattr__(self, "modes", modes)

    @property
    def stiffness(self):
        return np.array([k for k, _ in self.modes])

    @property
    def omega(self):
        return np.array([w for _, w in self.modes])

    @property
    def bath_mass(self):
        # omega = sqrt(k / mass)
        return self.stiffness / self.omega**2

    def __len__(self):
        return len(self.modes)


@_layer("kernels")
def fordkac_kernel(spectrum, t):
    """Exact bath kernel sum_i k_i cos(omega_i t); even in t."""
    t = np.asarray(t, dtype=float)
    k = spectrum.stiffness
    w = spectrum.omega
    return np.tensordot(np.cos(np.multiply.outer(t, w)), k, axes=([-1], [0]))


@_layer("kernels")
def fordkac_spectrum_for_exponential(c, alpha, m_modes, omega_max):
    """Deterministic bath spectrum approximating c * exp(-alpha t).

    Midpoint quadrature of the spectral density (2 c alpha / pi) /
    (alpha^2 + w^2) on [0, omega_max]: omega_i at midpoints, k_i =
    density(omega_i) * delta_omega.  The cosine transform identity
    integral_0^inf (2 c alpha / pi) cos(w t) / (alpha^2 + w^2) dw
    = c exp(-alpha t) makes the sum converge as m_modes grows for
    omega_max >> alpha.
    """
    if c <= 0 or alpha <= 0 or omega_max <= 0:
        raise ValueError("c, alpha, omega_max must be positive")
    if m_modes < 1:
        raise ValueError("need at least one bath mode")
    dw = omega_max / m_modes
    omega = (np.arange(m_modes) + 0.5) * dw
    density = (2.0 * c * alpha / np.pi) / (alpha**2 + omega**2)
    k = density * dw
    return FordKacSpectrum(tuple(zip(k, omega)))



@dataclass
class FordKacTrajectory:
    """Explicit-bath particle path: q, p and the total energy at each output
    time; ``meta`` holds the spectrum, beta, dt, seed and the bath kernel."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    meta: dict = field(default_factory=dict)


def _fordkac_run(force, spectrum, beta, dt, T, stride, rng, q0, p0,
                 n_replicas=1, energy=True):
    """Velocity-Verlet on the full Hamiltonian, batched over replicas, for
    time T (no force if ``force`` is None).  Bath initialized from the Gibbs
    measure conditional on q0: positions N(q0, 1/(beta k_j)), momenta
    N(0, m_j/beta).

    The state lives in preallocated (R,) and (R, nb) buffers that the step
    updates in place, in the floating-point order of the plain expressions
    p + (dt/2) F, b_p - (dt/2) k (b_q - q), q + dt p and b_q + dt b_p / m_b,
    so the path is the same bit for bit.  The half-kicks of a step's closing
    half are carried into the opening half of the next step, so each step
    calls the potential's gradient once.  Stiffness and bath-mass rows are
    copied to full (R, nb) arrays once, so no loop operand is broadcast.  As
    in ``_run_batch``, no ufunc writes over its own (R,) operand: the
    mid-step momentum has its own buffer and q + dq goes through ``qt``.
    The steps run through ``_step_chunks``: finiteness of (q, p) is checked
    once per 4096-step chunk and a faulty chunk is replayed step by step.
    The stored total energies p^2/2 + U(q) + sum b_p^2/(2 m_b)
    + sum k (b_q - q)^2/2 are summed in that order from (R, nb) rows
    computed in the scratch buffer; with ``energy`` false they are not
    computed (None).
    """
    n_steps = int(round(T / dt))
    force = ForceField.zero(1) if force is None else force
    grad = force._grad
    if grad is None:
        raise NonConservativeError("force has no potential gradient")

    k = spectrum.stiffness
    mass = spectrum.bath_mass
    nb = len(spectrum)
    R = n_replicas
    q = np.broadcast_to(np.asarray(q0, dtype=float), (R,)).copy()
    p = np.broadcast_to(np.asarray(p0, dtype=float), (R,)).copy()
    bq = q[:, None] + rng.standard_normal((R, nb)) / np.sqrt(beta * k)
    bp = rng.standard_normal((R, nb)) * np.sqrt(mass / beta)

    half, step_dt = np.array(0.5 * dt), np.array(dt)
    stiff = np.tile(k, (R, 1))
    bmass = np.tile(mass, (R, 1))
    q_col = q[:, None]            # (R, 1) view: the batch layout of U and U'
    work = np.empty((R, nb))      # dt b_p / m_b, then k (b_q - q)
    hs = np.empty((R, nb))        # (dt/2) k (b_q - q), carried between steps
    total = np.empty(R)           # sum_j k_j (b_q,j - q)
    total_col = total[:, None]
    fq = np.empty(R)              # total - U'(q)
    fq_col = fq[:, None]
    hf = np.empty(R)              # (dt/2) F, carried between steps
    pm = np.empty(R)              # momentum after the opening half-kick
    dq = np.empty(R)
    qt = np.empty(R)

    def total_energy():
        """Total energies of the current state, through ``work``."""
        np.copyto(work, q_col)
        np.subtract(bq, work, out=work)
        np.square(work, out=work)
        np.multiply(stiff, work, out=work)
        coupling = 0.5 * np.add.reduce(work, axis=1)
        np.square(bp, out=work)
        np.divide(work, bmass, out=work)
        kinetic_bath = 0.5 * np.add.reduce(work, axis=1)
        return 0.5 * p**2 + force.potential(q_col) + kinetic_bath + coupling

    n_out = n_steps // stride + 1
    qs = np.empty((R, n_out))
    ps = np.empty((R, n_out))
    es = np.empty((R, n_out)) if energy else None
    qs[:, 0], ps[:, 0] = q, p
    if energy:
        es[:, 0] = total_energy()

    def half_kicks():
        """hf <- (dt/2) F(q, b_q) and hs <- (dt/2) k (b_q - q)."""
        np.copyto(work, q_col)
        np.subtract(bq, work, out=work)
        np.multiply(stiff, work, out=work)
        np.add.reduce(work, axis=1, out=total)
        np.multiply(work, half, out=hs)
        np.subtract(total_col, grad(q_col), out=fq_col)
        np.multiply(fq, half, out=hf)

    def body(_):
        np.add(p, hf, out=pm)
        np.subtract(bp, hs, out=bp)
        np.multiply(pm, step_dt, out=dq)
        np.add(q, dq, out=qt)
        q[...] = qt
        np.multiply(bp, step_dt, out=work)
        np.divide(work, bmass, out=work)
        np.add(bq, work, out=bq)
        half_kicks()
        np.add(pm, hf, out=p)
        np.subtract(bp, hs, out=bp)

    def store(out):
        qs[:, out], ps[:, out] = q, p
        if energy:
            es[:, out] = total_energy()

    half_kicks()
    out = _step_chunks(n_steps, stride, [q, p, bq, bp, hf, hs], body,
                       lambda: np.isfinite(q).all() and np.isfinite(p).all(),
                       store, 4096)
    times = np.arange(out) * (dt * stride)
    return times, qs[:, :out], ps[:, :out], None if es is None else es[:, :out]


@_layer("simulate")
def fordkac_simulate(force, spectrum, beta, dt, T, seed, q0, p0, stride=1):
    """Single distinguished-particle trajectory of the explicit bath model.

    Symplectic leapfrog on the full Hamiltonian; the bath is drawn from the
    Gibbs measure conditional on q0.  The returned meta carries the exact
    deterministic kernel (the bath's cosine sum).
    """
    times, qs, ps, es = _fordkac_run(force, spectrum, beta, dt, T, stride,
                                     _philox(seed, 0, purpose=2), q0, p0)
    return FordKacTrajectory(
        times=times, q=qs[0], p=ps[0], energy=es[0],
        meta={"spectrum": spectrum, "beta": beta, "dt": dt, "seed": seed,
              "kernel": lambda t: fordkac_kernel(spectrum, t)})


def _harmonic_q0(force, beta, rng, shape):
    """Start positions from the Gibbs marginal N(0, 1/(beta H)) of the
    force's harmonic part H (its first diagonal entry), else zeros; draws
    nothing from ``rng`` in the zero case."""
    if force is None or force.linear_part is None:
        return np.zeros(shape)
    h = float(force.linear_part[0, 0])
    return rng.standard_normal(shape) / np.sqrt(beta * h)


def fordkac_ensemble(force, spectrum, beta, dt, T, seed, n_replicas,
                     stride=1, energy=True):
    """Replica ensemble with Gibbs-initialized bath and particle.

    q0 per replica comes from the marginal of the force's harmonic part
    when it has one, else q0 = 0 (``_harmonic_q0``); p0 is N(0, 1/beta).
    Returns (times, q, p, energy) with (R, K) paths; with ``energy`` false
    the total energies are not computed (None).
    """
    rng = _philox(seed, 0, purpose=3)
    q0 = _harmonic_q0(force, beta, rng, n_replicas)
    p0 = rng.standard_normal(n_replicas) / np.sqrt(beta)
    return _fordkac_run(force, spectrum, beta, dt, T, stride,
                        _philox(seed, 1, purpose=2), q0, p0,
                        n_replicas=n_replicas, energy=energy)


def velocity_autocorrelation(p_paths, n_lags):
    """Per-replica time-averaged correlation E[p(t) p(t+tau)].

    ``p_paths`` is (R, K); returns (R, n_lags + 1) using all admissible
    time origins of each replica.
    """
    p_paths = np.atleast_2d(p_paths)
    R, K = p_paths.shape
    if n_lags >= K:
        raise ValueError("not enough samples for the requested lags")
    out = np.empty((R, n_lags + 1))
    for lag in range(n_lags + 1):
        out[:, lag] = np.mean(p_paths[:, :K - lag] * p_paths[:, lag:K], axis=1)
    return out


@dataclass
class FordKacComparison:
    """Velocity-autocorrelation discrepancy vs bath size."""

    rows: list                 # (m, metric, bootstrap stderr)
    combined_error: float      # bootstrap stderr of metric[-1] - metric[0]
    passed: bool               # metric[-1] <= metric[0] + combined_error
    lags: np.ndarray
    gle_vacf: np.ndarray


@_layer("simulate")
def fordkac_vs_gle(c, alpha, m_list, force, T, n_ensemble, seed, beta=1.0,
                   dt=1e-3, omega_max=None, stride=10, n_boot=200):
    """Empirical thermodynamic-limit check of the explicit bath.

    For each bath size m, the bath spectrum approximating c e^{-alpha t} is
    built deterministically, an equilibrium ensemble is run, and the
    velocity autocorrelation on [0, T] is compared against the matched
    one-mode extended-variable model (same force, same estimator).  The
    metric is the max-lag discrepancy; bootstrap over replicas supplies
    error bars, and the result records whether the largest bath beats the
    smallest within one combined error bar (a smoke test, not a proof).
    """
    m_list = list(m_list)
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be increasing")
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T!r}")
    if omega_max is None:
        omega_max = 20.0 * alpha
    if T == 0:
        return FordKacComparison(rows=[(m, 0.0, 0.0) for m in m_list],
                                 combined_error=0.0, passed=True,
                                 lags=np.array([0.0]), gle_vacf=np.zeros(1))
    dt_out = dt * stride
    n_lags = int(round(T / dt_out))
    t_sim = 3.0 * T  # extra length for time-origin averaging

    # matched one-mode extended-variable reference, equilibrium start
    coeffs, q_aux = coeffs_from_prony([(c, alpha)])
    force = ForceField.zero(1) if force is None else force
    model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                      beta=beta, force=force, coeffs=coeffs, Q=q_aux)
    integ = IntegratorSpec(scheme="semi_exact_splitting", dt=dt,
                           n_steps=int(round(t_sim / dt)), seed=seed,
                           stride=stride)
    init_rng = _philox(seed, 10_000, purpose=4)
    q0 = _harmonic_q0(force, beta, init_rng, (n_ensemble, 1))
    p0 = init_rng.standard_normal((n_ensemble, 1)) / np.sqrt(beta)
    s0 = init_rng.standard_normal((n_ensemble, coeffs.m)) @ \
        np.linalg.cholesky(q_aux / beta).T
    streams = [_philox(seed, r, purpose=0) for r in range(n_ensemble)]
    _, _, gle_p, _, _ = _run_batch(model, integ, q0, p0, s0, streams,
                                   collect_noise=False)
    gle_corr = velocity_autocorrelation(gle_p[:, :, 0], n_lags)

    fk_corrs = []
    for m in m_list:
        spectrum = fordkac_spectrum_for_exponential(c, alpha, m, omega_max)
        # only p is compared, so the bath energies are not computed
        _, _, ps, _ = fordkac_ensemble(force, spectrum, beta, dt, t_sim,
                                       seed + m, n_ensemble, stride=stride,
                                       energy=False)
        fk_corrs.append(velocity_autocorrelation(ps, n_lags))

    def metric(fk_rows, gle_rows):
        return float(np.abs(fk_rows.mean(axis=0) - gle_rows.mean(axis=0)).max())

    boot_rng = np.random.Generator(np.random.Philox(key=[seed, 777]))
    boot_metrics = np.empty((len(m_list), n_boot))
    for b in range(n_boot):
        idx_gle = boot_rng.integers(0, n_ensemble, n_ensemble)
        for j, fk in enumerate(fk_corrs):
            idx_fk = boot_rng.integers(0, n_ensemble, n_ensemble)
            boot_metrics[j, b] = metric(fk[idx_fk], gle_corr[idx_gle])
    rows = [(m, metric(fk, gle_corr), float(boot_metrics[j].std()))
            for j, (m, fk) in enumerate(zip(m_list, fk_corrs))]
    if len(m_list) == 1:
        passed, combined = True, rows[0][2]
    else:
        combined = float((boot_metrics[-1] - boot_metrics[0]).std())
        passed = rows[-1][1] <= rows[0][1] + combined
    lags = np.arange(n_lags + 1) * dt_out
    return FordKacComparison(rows=rows, combined_error=combined, passed=passed,
                             lags=lags, gle_vacf=gle_corr.mean(axis=0))
