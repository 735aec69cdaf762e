"""Time integration of the extended SDE and the explicit harmonic bath.

Two schemes: explicit Euler-Maruyama (weak order 1, coefficients frozen at
the pre-step state, Ito-consistent for position-dependent noise) and a
Strang splitting whose friction/noise half is the exact Ornstein-Uhlenbeck
map for constant coefficients (so with no force the (p, s) chain is exact
in law).

Stepping works in place on preallocated buffers with one step body per
scheme, in the floating-point order of the plain expressions:

    splitting  p += (dt/2) F(q);  q += (dt/2) M^-1 p;
               (p, s) <- (p, s) expm(-A dt)' + kick;
               q += (dt/2) M^-1 p;  p += (dt/2) F(q)
    Euler      q' = q + dt M^-1 p;
               (p, s)' = (p, s) - dt Gamma(q) (M^-1 p, s) + kick;
               p' += dt F(q)

with q reduced to the torus after each position update.  The splitting
step carries the force of its closing half-kick into the opening half-kick
of the next step, so it makes one force call per step.  A conservative
force is kicked straight through its gradient, as grad U(q) * (-dt/2) or
grad U(q) * (-dt) (equal to F(q) times the step up to the sign of an exact
zero), reaching the compiled gradient columns of an expression potential
directly.  No ufunc in a step body writes over one of its own operands when
that operand is a one-element array or a strided view, because numpy's
overlap check costs about 1 us there: updates go through scratch rows
instead, and scalar operands are 0-d arrays.  The explicit bath's
velocity-Verlet loop works the same way on (replicas x modes) buffers,
carrying both half-kicks between steps, with one gradient call per step.
Both loops run through one driver that checks finiteness once per chunk of
4096 steps; a chunk that ends non-finite (or raised a floating-point error
the caller does not ignore) is restored from its start and replayed step
by step, so a blowup reports the same step index and warnings as a
per-step check.

Randomness is counter-based: every trajectory owns a Philox stream keyed by
(seed, trajectory index), so ensembles are reproducible and independent of
scheduling.  Stored Wiener increments regenerate a trajectory bit-exactly
and feed the discrete non-Markovian reconstruction check.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationBlowupError, NonConservativeError
from .model import ExtendedState

__all__ = [
    "IntegratorSpec",
    "Trajectory",
    "EnsembleResult",
    "FordKacState",
    "FordKacTrajectory",
    "GibbsInit",
    "simulate",
    "simulate_ensemble",
    "step_euler",
    "step_splitting",
    "sample_gibbs",
    "ide_residual_check",
    "colored_noise_path",
    "fordkac_simulate",
    "fordkac_ensemble",
    "fordkac_vs_gle",
    "velocity_autocorrelation",
    "trajectory_to_csv",
    "write_noise_sidecar",
    "read_noise_sidecar",
    "model_fingerprint",
]

SCHEMES = ("euler_maruyama", "semi_exact_splitting")

NOISE_MAGIC = b"QGLN"
NOISE_VERSION = 1


@dataclass(frozen=True)
class IntegratorSpec:
    """Scheme, step size, length, seed and output thinning of one run."""

    scheme: str
    dt: float
    n_steps: int
    seed: int = 0
    store_noise: bool = False
    stride: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {SCHEMES}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not np.isfinite(self.dt * self.n_steps):
            raise ValueError("dt * n_steps must be finite")


@dataclass(frozen=True)
class GibbsInit:
    """Request equilibrium initialization (exact Gaussian momenta and
    auxiliary variables; torus rejection sampling for q)."""

    q0: Optional[np.ndarray] = None  # fix q instead of sampling it


@dataclass
class Trajectory:
    """Strided output of one run plus (optionally) every Wiener increment."""

    times: np.ndarray           # (K,)
    q: np.ndarray               # (K, n)
    p: np.ndarray               # (K, n)
    s: np.ndarray               # (K, m)
    noise: Optional[np.ndarray]  # (n_steps, n+m) standard normals, or None
    meta: dict = field(default_factory=dict)

    def state(self, i):
        return ExtendedState(q=self.q[i], p=self.p[i], s=self.s[i],
                             t=float(self.times[i]))

    def __len__(self):
        return self.times.shape[0]


@dataclass
class EnsembleResult:
    """Stacked strided output of R independent trajectories."""

    times: np.ndarray  # (K,)
    q: np.ndarray      # (R, K, n)
    p: np.ndarray      # (R, K, n)
    s: np.ndarray      # (R, K, m)
    meta: dict = field(default_factory=dict)


def model_fingerprint(model):
    """Stable digest of the model's defining data."""
    h = hashlib.sha256()
    h.update(model.domain.kind.encode())
    h.update(struct.pack("<qd", model.domain.dim, model.beta))
    h.update(np.ascontiguousarray(model.mass).tobytes())
    coeffs = model.coeffs
    h.update(coeffs.kind.encode())
    if coeffs.constant:
        h.update(np.ascontiguousarray(coeffs.gamma()).tobytes())
        h.update(np.ascontiguousarray(coeffs.sigma()).tobytes())
    else:
        h.update(repr(coeffs._gamma_entries.tolist()).encode())
        h.update(repr(coeffs._sigma_entries.tolist()).encode())
    if model.Q is not None:
        h.update(np.ascontiguousarray(model.Q).tobytes())
    h.update(model.force.kind.encode())
    return h.hexdigest()[:16]


def _philox(seed, traj_index, purpose=0):
    bits = np.random.Philox(counter=[0, 0, 0, purpose],
                            key=[np.uint64(seed), np.uint64(traj_index)])
    return np.random.Generator(bits)


# ---------------------------------------------------------------------------
# Elementary steps (batched over replicas internally)
# ---------------------------------------------------------------------------

def _ou_step(a, diffusion, dt):
    """Exact one-step map of the OU process dz = -a z dt + dW with
    Cov(dW) = diffusion dt.

    Returns the decay factor expm(-a dt), the update covariance
    int_0^dt expm(-a u) diffusion expm(-a' u) du, computed through the
    augmented-block matrix exponential (Van Loan), and its symmetric square
    root (negative roundoff eigenvalues are clipped with a warning).
    """
    dim = a.shape[0]
    big = np.zeros((2 * dim, 2 * dim))
    big[:dim, :dim] = -a
    big[:dim, dim:] = diffusion
    big[dim:, dim:] = a.T
    e = expm(big * dt)
    decay = e[:dim, :dim]
    cov = e[:dim, dim:] @ decay.T
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    if w.min() < -1e-13 * max(1.0, w.max()):
        warnings.warn("OU update covariance had negative eigenvalues "
                      f"(min {w.min():.3e}); clipped at zero")
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    return decay, cov, factor


class _SplittingCache:
    """Per-(model, dt) operators of the exact friction/noise map.

    The (p, s) half solves dz = -Gamma diag(M^-1, I) z dt + beta^-1/2
    Sigma dW exactly: decay factor expm(-A dt), update covariance
    beta^-1 int_0^dt expm(-A u) Sigma Sigma' expm(-A' u) du and its
    symmetric square root, computed by ``_ou_step``.  ``for_model`` builds
    them once per (model, dt) and keeps them with the model.
    """

    @classmethod
    def for_model(cls, model, dt):
        key = (cls, dt)
        cache = model._derived.get(key)
        if cache is None:
            cache = model._derived[key] = cls(model, dt)
        return cache

    def __init__(self, model, dt):
        if not model.coeffs.constant:
            raise ValueError("splitting scheme needs constant coefficients")
        n, m = model.n, model.m
        dim = n + m
        gamma = model.coeffs.gamma()
        sigma = model.coeffs.sigma()
        d = np.zeros((dim, dim))
        d[:n, :n] = model.mass_inv
        d[n:, n:] = np.eye(m)
        self.decay, self.cov, self.factor = _ou_step(
            gamma @ d, sigma @ sigma.T / model.beta, dt)
        for a in (self.decay, self.cov, self.factor):
            a.flags.writeable = False
        self.dt = dt


def _single_step(model, scheme, state, dt, xi):
    """One step of ``_run_batch`` from an ExtendedState, driven by xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.n + model.m,):
        raise ValueError(f"xi must have length n+m = {model.n + model.m}")
    integ = IntegratorSpec(scheme, dt=dt, n_steps=1)
    _, q, p, s, _ = _run_batch(model, integ, state.q[None], state.p[None],
                               state.s[None], streams=None,
                               collect_noise=False, replay=xi[None, None])
    return ExtendedState(q=q[0, -1], p=p[0, -1], s=s[0, -1], t=state.t + dt)


def step_euler(model, state, dt, xi):
    """One explicit Euler-Maruyama step from an ExtendedState."""
    return _single_step(model, "euler_maruyama", state, dt, xi)


def step_splitting(model, state, dt, xi):
    """One Strang step: half force kick, half drift, exact OU map on (p, s),
    half drift, half force kick."""
    return _single_step(model, "semi_exact_splitting", state, dt, xi)


# ---------------------------------------------------------------------------
# Gibbs initialization
# ---------------------------------------------------------------------------

def sample_gibbs(model, rng, size=1, q0=None):
    """Draw (q, p, s) from the invariant Gibbs measure.

    p and s are exact Gaussians; q is rejection-sampled against
    exp(-beta U) on the torus (euclidean domains must fix q0).
    """
    if not model.force.is_conservative:
        raise NonConservativeError("Gibbs initialization needs a conservative force")
    if model.Q is None:
        raise ValueError("Gibbs initialization needs the auxiliary covariance Q")
    n, m = model.n, model.m
    chol_p = np.linalg.cholesky(model.mass / model.beta)
    chol_s = np.linalg.cholesky(model.Q / model.beta)
    p = rng.standard_normal((size, n)) @ chol_p.T
    s = rng.standard_normal((size, m)) @ chol_s.T
    if q0 is not None:
        q = np.broadcast_to(np.asarray(q0, dtype=float), (size, n)).copy()
        return model.domain.reduce(q), p, s
    if not model.domain.is_torus:
        raise ValueError("q sampling is rejection on the torus; "
                         "fix q0 for euclidean domains")
    # envelope from a grid scan of the potential
    axes = np.linspace(0.0, 1.0, 257, endpoint=False)
    if n == 1:
        grid = axes[:, None]
    else:
        mesh = np.meshgrid(*([axes[::8]] * n), indexing="ij")
        grid = np.stack([ax.ravel() for ax in mesh], axis=-1)
    u_min = float(np.min(model.force.potential(grid)))
    q = np.empty((size, n))
    remaining = np.arange(size)
    while remaining.size:
        proposal = rng.random((remaining.size, n))
        logacc = -model.beta * (model.force.potential(proposal) - u_min)
        accept = np.log(rng.random(remaining.size)) < logacc
        q[remaining[accept]] = proposal[accept]
        remaining = remaining[~accept]
    return q, p, s


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class ObservableAccumulator:
    """Sample mean and variance (ddof 1) of a scalar observable over the
    stored states."""

    def __init__(self, name, values):
        values = np.ravel(values)
        self.name = name
        self.count = values.size
        self.mean = float(values.mean())
        self.variance = float(values.var(ddof=1)) if self.count > 1 else 0.0


def _resolve_initial(model, initial, rng):
    if isinstance(initial, GibbsInit):
        q, p, s = sample_gibbs(model, rng, size=1, q0=initial.q0)
        return q[0], p[0], s[0]
    if isinstance(initial, ExtendedState):
        return (model.domain.reduce(initial.q.copy()), initial.p.copy(),
                initial.s.copy())
    raise TypeError("initial must be an ExtendedState or GibbsInit")


def _step_chunks(n_steps, stride, state, body, finite, store, begin=None):
    """Run ``body`` n_steps times, checking finiteness once per chunk.

    ``body(k)`` advances the state buffers in place by step k of the
    current chunk; ``begin(step, take)``, if given, prepares the chunk of
    ``take`` steps that follows step ``step``; ``store(out)`` records the
    state as output row ``out`` after every ``stride``-th step (row 0 is
    the caller's); ``finite()`` says whether the state is finite.

    Each chunk of 4096 steps runs with numpy's floating-point errors
    recorded instead of reported (categories the caller ignores stay
    ignored).  A chunk that ends non-finite, recorded an error or raised is
    restored from its start (the arrays in ``state``) and replayed one
    checked step at a time under the caller's errstate, so the caller sees
    the warnings, exceptions and ``IntegrationBlowupError`` step index of a
    per-step check.  Returns the number of rows stored, row 0 included.
    """
    def advance(step, take, out, checked):
        for k in range(take):
            body(k)
            if checked and not finite():
                raise IntegrationBlowupError(step + k + 1)
            if (step + k + 1) % stride == 0:
                store(out)
                out += 1
        return out

    faults = []
    watch = {key: "ignore" if mode == "ignore" else "call"
             for key, mode in np.geterr().items() if key != "under"}
    chunk = max(1, min(n_steps, 4096))
    step = 0
    out = 1
    while step < n_steps:
        take = min(chunk, n_steps - step)
        if begin is not None:
            begin(step, take)
        saved = [a.copy() for a in state]
        faults.clear()
        try:
            with np.errstate(**watch,
                             call=lambda kind, flag: faults.append(kind)):
                end = advance(step, take, out, checked=False)
        except Exception:
            # raised by a step after a blowup, perhaps; the checked replay
            # raises whichever error a per-step check meets first
            faults.append("exception")
        if faults or not finite():
            for a, b in zip(state, saved):
                a[...] = b
            end = advance(step, take, out, checked=True)
        out = end
        step += take
    return out


def _force_kick(force, q, out, scale):
    """Return ``kick()``, which writes scale * F(q) into ``out``.

    ``q`` and ``out`` are the caller's (R, n) buffers.  A conservative force
    is reached through its gradient, as grad U(q) * (-scale), straight from
    the compiled gradient columns of an expression potential when it has
    them.  IEEE products are symmetric under sign, so this is F(q) * scale
    up to the sign of an exact zero, without the force wrappers and the
    negated force array.  A non-conservative force gives F(q) * scale.
    """
    if force._grad_columns is not None:
        neg = np.array(-scale)
        columns = [(g, out[:, j]) for j, g in enumerate(force._grad_columns)]

        def kick():
            for g, column in columns:
                np.multiply(g(q), neg, out=column)
    elif force._grad is not None:
        grad, neg = force._grad, np.array(-scale)

        def kick():
            np.multiply(grad(q), neg, out=out)
    else:
        fn, pos = force._force, np.array(scale)

        def kick():
            np.multiply(fn(q), pos, out=out)
    return kick


def _run_batch(model, integ, q, p, s, streams, collect_noise, replay=None):
    """Advance R replicas n_steps; returns strided arrays (+ full noise).

    The state lives in preallocated (R, n) and (R, n+m) buffers that one
    step body per scheme, chosen before the loop, updates in place in the
    floating-point order of the plain expressions (see ``_force_kick`` for
    the force).  Each chunk's noise is drawn and pre-transformed in bulk.
    The splitting body carries half * F(q) from the closing half-kick of one
    step into the opening half-kick of the next, so each step makes one
    force call.

    Under the module's no-self-overlap rule a position update goes through
    the scratch row ``qt``, the splitting body keeps the momentum in the
    contiguous ``pc`` and writes each half-kick across between ``pc`` and
    the momentum block of z, and the Euler body writes its momentum kick
    through ``pt``.

    The steps run through ``_step_chunks``, which checks finiteness of the
    state once per chunk of 4096 steps and replays a faulty chunk step by
    step.  ``replay`` injects stored increments instead of drawing from the
    streams (bit-exact regeneration).
    """
    n, m = model.n, model.m
    dim = n + m
    R = q.shape[0]
    dt, stride, n_steps = integ.dt, integ.stride, integ.n_steps
    torus = model.domain.is_torus
    splitting = integ.scheme == "semi_exact_splitting"
    minv = model.mass_inv
    minv_t = None if np.array_equal(minv, np.eye(n)) else minv.T
    coeffs = model.coeffs
    sqrt_kick = np.sqrt(dt / model.beta)
    half, step_dt, one = np.array(0.5 * dt), np.array(dt), np.array(1.0)

    n_out = n_steps // stride + 1
    qs = np.empty((R, n_out, n))
    ps = np.empty((R, n_out, n))
    ss = np.empty((R, n_out, m))
    q = np.array(q, dtype=float)
    z = np.concatenate([p, s], axis=1)
    noise = np.empty((R, n_steps, dim)) if collect_noise else None

    zp = z[:, :n]              # momentum block of the state buffer
    zs = z[:, n:]              # auxiliary block
    vel = zp if minv_t is None else np.empty((R, n))  # M^-1 p
    dq = np.empty((R, n))      # position increment
    qt = np.empty((R, n))      # q + dq, before its reduction to the torus
    xi = kicks = None          # the current chunk's noise

    def move():
        """q <- q + dq, reduced to the torus."""
        np.add(q, dq, out=qt)
        if torus:
            np.mod(qt, one, out=q)
        else:
            q[...] = qt

    if splitting:
        cache = _SplittingCache.for_model(model, dt)
        decay_t = cache.decay.T
        zb = np.empty((R, dim))
        pc = zp.copy()         # momentum after the closing half-kick
        hf = np.empty((R, n))  # half * F(q), carried between steps
        p_now = pc
        state = [q, z, pc, hf]  # buffers a replayed chunk restores
        force_kick = _force_kick(model.force, q, hf, 0.5 * dt)
        if n_steps:
            force_kick()

        def body(k):
            np.add(pc, hf, out=zp)              # opening half-kick
            if minv_t is not None:
                np.matmul(zp, minv_t, out=vel)
            np.multiply(vel, half, out=dq)
            move()
            np.matmul(z, decay_t, out=zb)       # exact OU map of (p, s)
            np.add(zb, kicks[:, k], out=z)
            if minv_t is not None:
                np.matmul(zp, minv_t, out=vel)
            np.multiply(vel, half, out=dq)
            move()
            force_kick()
            np.add(zp, hf, out=pc)              # closing half-kick
    else:
        p_now = zp
        state = [q, z]
        zh = z if minv_t is None else np.empty((R, dim))  # (M^-1 p, s)
        drift = np.empty((R, dim))
        fdt = np.empty((R, n))
        pt = np.empty((R, n))
        force_kick = _force_kick(model.force, q, fdt, dt)

        def euler_update(kick):
            """Position drift and (p, s) update from the pre-step state."""
            force_kick()
            np.multiply(vel, step_dt, out=dq)
            move()
            np.multiply(drift, step_dt, out=drift)
            np.subtract(z, drift, out=z)
            np.add(z, kick, out=z)
            np.add(zp, fdt, out=pt)
            zp[...] = pt

        def velocity():
            if minv_t is not None:
                np.matmul(zp, minv_t, out=vel)
                zh[:, :n] = vel
                zh[:, n:] = zs

        if coeffs.constant:
            gamma_t = np.ascontiguousarray(coeffs.gamma().T)
            sigma_t = np.ascontiguousarray(coeffs.sigma().T)

            def body(k):
                velocity()
                np.matmul(zh, gamma_t, out=drift)
                euler_update(kicks[:, k])
        else:
            kick = np.empty((R, dim))
            sqrt_kick0 = np.array(sqrt_kick)

            def body(k):
                velocity()
                np.einsum("rij,rj->ri", coeffs.gamma(q), zh, out=drift)
                np.einsum("rij,rj->ri", coeffs.sigma(q), xi[:, k], out=kick)
                np.multiply(kick, sqrt_kick0, out=kick)
                euler_update(kick)

    def begin(step, take):
        """Draw (or take from ``replay``) and pre-transform a chunk's noise."""
        nonlocal xi, kicks
        if replay is not None:
            xi = replay[:, step:step + take]
        else:
            xi = np.stack([g.standard_normal((take, dim)) for g in streams])
        if collect_noise:
            noise[:, step:step + take] = xi
        if splitting:
            kicks = xi @ cache.factor.T
        elif coeffs.constant:
            kicks = sqrt_kick * (xi @ sigma_t)

    def store(out):
        qs[:, out], ps[:, out], ss[:, out] = q, p_now, zs

    store(0)
    out = _step_chunks(
        n_steps, stride, state, body,
        lambda: np.isfinite(z).all() and np.isfinite(p_now).all(), store,
        begin)
    times = np.arange(out) * (dt * stride)
    return times, qs[:, :out], ps[:, :out], ss[:, :out], \
        (noise if collect_noise else None)


def simulate(model, integ, initial, observables=None, traj_index=0):
    """Run one trajectory; deterministic given (seed, scheme, dt).

    ``observables`` maps names to callables phi(q, p, s) on batched arrays;
    their mean and variance over the stored (strided) states are attached
    to the trajectory meta.
    """
    rng_init = _philox(integ.seed, traj_index, purpose=1)
    q0, p0, s0 = _resolve_initial(model, initial, rng_init)
    stream = _philox(integ.seed, traj_index, purpose=0)
    times, qs, ps, ss, noise = _run_batch(
        model, integ, q0[None], p0[None], s0[None], [stream],
        collect_noise=integ.store_noise)
    traj = Trajectory(
        times=times, q=qs[0], p=ps[0], s=ss[0],
        noise=None if noise is None else noise[0],
        meta={"model_hash": model_fingerprint(model),
              "scheme": integ.scheme, "dt": integ.dt,
              "n_steps": integ.n_steps, "seed": integ.seed,
              "stride": integ.stride, "traj_index": traj_index})
    if observables:
        traj.meta["observables"] = {
            name: ObservableAccumulator(name, fn(traj.q, traj.p, traj.s))
            for name, fn in observables.items()}
    return traj


def replay_trajectory(model, traj):
    """Re-run a trajectory from its stored increments (bit-exact).

    Uses the initial stored state, the recorded integrator settings and the
    noise array; the result must equal the original path exactly.
    """
    if traj.noise is None:
        raise ValueError("trajectory was run without store_noise")
    integ = IntegratorSpec(scheme=traj.meta["scheme"], dt=traj.meta["dt"],
                           n_steps=traj.meta["n_steps"],
                           seed=traj.meta.get("seed", 0),
                           store_noise=True, stride=traj.meta.get("stride", 1))
    times, qs, ps, ss, noise = _run_batch(
        model, integ, traj.q[0][None], traj.p[0][None], traj.s[0][None],
        streams=None, collect_noise=True, replay=traj.noise[None])
    return Trajectory(times=times, q=qs[0], p=ps[0], s=ss[0], noise=noise[0],
                      meta=dict(traj.meta))


def simulate_ensemble(model, integ, initial, n_replicas, observables=None):
    """Run independent replicas, vectorized across the ensemble.

    Replica r draws from the stream keyed by (seed, r), so results agree
    with running each trajectory separately and do not depend on grouping.
    """
    inits = [
        _resolve_initial(model, initial, _philox(integ.seed, r, purpose=1))
        for r in range(n_replicas)]
    q = np.stack([i[0] for i in inits])
    p = np.stack([i[1] for i in inits])
    s = np.stack([i[2] for i in inits])
    streams = [_philox(integ.seed, r, purpose=0) for r in range(n_replicas)]
    times, qs, ps, ss, _ = _run_batch(model, integ, q, p, s, streams,
                                      collect_noise=False)
    result = EnsembleResult(
        times=times, q=qs, p=ps, s=ss,
        meta={"model_hash": model_fingerprint(model), "scheme": integ.scheme,
              "dt": integ.dt, "n_steps": integ.n_steps, "seed": integ.seed,
              "stride": integ.stride, "n_replicas": n_replicas})
    if observables:
        result.meta["observables"] = {
            name: ObservableAccumulator(name, fn(qs.reshape(-1, qs.shape[-1]),
                                                 ps.reshape(-1, ps.shape[-1]),
                                                 ss.reshape(-1, ss.shape[-1])))
            for name, fn in observables.items()}
    return result


# ---------------------------------------------------------------------------
# Discrete non-Markovian reconstruction
# ---------------------------------------------------------------------------

def ide_residual_check(model, traj):
    """Replay an Euler trajectory through its non-Markovian form.

    The auxiliary path is unrolled by the discrete variation-of-constants
    recursion with ordered products Phi_{k,j} = prod (I - dt G22(q_r)); its
    memory, noise and initial-condition parts are tracked separately, and
    the momentum update is re-derived from the convolution functional plus
    the white and colored random-force terms.  Both reconstructions must
    match the stored path to roundoff; the max-norm discrepancy is returned.
    """
    if traj.noise is None:
        raise ValueError("trajectory was run without store_noise")
    if traj.meta.get("scheme") != "euler_maruyama":
        raise ValueError("reconstruction is defined for the Euler scheme")
    if traj.meta.get("stride", 1) != 1:
        raise ValueError("reconstruction needs stride 1")
    n, m = model.n, model.m
    dt = traj.meta["dt"]
    minv = model.mass_inv
    inv_sqrt_beta = 1.0 / np.sqrt(model.beta)
    n_steps = traj.noise.shape[0]

    init_part = traj.s[0].copy()       # Phi_{k,0} s_0
    memory_part = np.zeros(m)          # -sum Phi G21 M^-1 p dt
    noise_part = np.zeros(m)           # sum Phi beta^-1/2 S2 sqrt(dt) xi
    residual = 0.0
    for k in range(n_steps):
        qk, pk, sk = traj.q[k], traj.p[k], traj.s[k]
        s_rec = init_part + memory_part + noise_part
        residual = max(residual, float(np.abs(s_rec - sk).max()))

        gmat = model.coeffs.gamma(qk)
        smat = model.coeffs.sigma(qk)
        g11, g12, g21, g22 = model.coeffs.blocks(gmat)
        s1, s2 = model.coeffs.sigma_rows(smat)
        xi = traj.noise[k]
        mp = minv @ pk

        # momentum update via convolution functional + random force
        # (memory_part is minus the discrete memory integral)
        convolution = g11 @ mp + g12 @ memory_part
        colored = -g12 @ (init_part + noise_part)
        white = inv_sqrt_beta * np.sqrt(dt) * (s1 @ xi)
        p_next = pk + (model.force(qk) - convolution + colored) * dt + white
        residual = max(residual, float(np.abs(p_next - traj.p[k + 1]).max()))

        # advance the ordered-product pieces with the same one-step factor
        propagate = np.eye(m) - dt * g22
        init_part = propagate @ init_part
        memory_part = propagate @ memory_part - dt * (g21 @ mp)
        noise_part = propagate @ noise_part \
            + inv_sqrt_beta * np.sqrt(dt) * (s2 @ xi)
    return residual


def colored_noise_path(coeffs, Q, beta, dt, noise, eta0, method="exact"):
    """Colored-noise process driven by a trajectory's stored increments.

    Integrates d eta = -G22 eta dt + beta^-1/2 S2 dW from eta0 (= s(0))
    using either the exact one-step OU map (``_ou_step``) or the same Euler
    map as the simulation.  Returns the (n_steps + 1, m) path.
    """
    if not coeffs.constant:
        raise ValueError("colored-noise reconstruction needs constant coefficients")
    n, m = coeffs.n, coeffs.m
    _, _, _, g22 = coeffs.blocks(coeffs.gamma())
    _, s2 = coeffs.sigma_rows(coeffs.sigma())
    noise = np.asarray(noise, dtype=float)
    steps = noise.shape[0]
    out = np.empty((steps + 1, m))
    out[0] = eta0
    if method == "euler":
        factor = np.sqrt(dt / beta)
        for k in range(steps):
            out[k + 1] = out[k] - dt * (g22 @ out[k]) \
                + factor * (s2 @ noise[k])
        return out
    if method != "exact":
        raise ValueError("method must be 'exact' or 'euler'")
    decay, _, factor = _ou_step(g22, s2 @ s2.T / beta, dt)
    # the exact update covariance mixes the whole Wiener path inside a step,
    # so it cannot be a function of the per-step increment alone; drive the
    # map with the auxiliary-block components, which are iid standard normals
    for k in range(steps):
        out[k + 1] = decay @ out[k] + factor @ noise[k][n:]
    return out


# ---------------------------------------------------------------------------
# Ford-Kac explicit bath
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FordKacState:
    """Distinguished particle (q, p) plus bath positions/momenta."""

    q: float
    p: float
    bath_q: np.ndarray
    bath_p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bath_q", np.atleast_1d(np.asarray(self.bath_q, dtype=float)))
        object.__setattr__(self, "bath_p", np.atleast_1d(np.asarray(self.bath_p, dtype=float)))
        if not (np.isfinite(self.q) and np.isfinite(self.p)
                and np.all(np.isfinite(self.bath_q))
                and np.all(np.isfinite(self.bath_p))):
            raise ValueError("Ford-Kac state must be finite")
        if self.bath_q.shape != self.bath_p.shape:
            raise ValueError("bath position/momentum shapes differ")


@dataclass
class FordKacTrajectory:
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    meta: dict = field(default_factory=dict)


def _fordkac_run(force, spectrum, beta, dt, n_steps, stride, rng, q0, p0,
                 n_replicas=1, energy=True):
    """Velocity-Verlet on the full Hamiltonian, batched over replicas.

    Bath initialized from the Gibbs measure conditional on q0:
    positions N(q0, 1/(beta k_j)), momenta N(0, m_j/beta).

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
    if force is None:
        grad = None

        def u(q):
            return np.zeros_like(q)
    else:
        grad = force._grad
        if grad is None:
            raise NonConservativeError("force has no potential gradient")

        def u(q):
            return np.asarray(force.potential(q[:, None]), dtype=float)

    k = spectrum.stiffness
    mass = spectrum.bath_mass
    nb = len(spectrum)
    R = n_replicas
    q = np.broadcast_to(np.asarray(q0, dtype=float), (R,)).copy()
    p = np.broadcast_to(np.asarray(p0, dtype=float), (R,)).copy()
    if nb:
        bq = q[:, None] + rng.standard_normal((R, nb)) / np.sqrt(beta * k)
        bp = rng.standard_normal((R, nb)) * np.sqrt(mass / beta)
    else:
        bq = np.zeros((R, 0))
        bp = np.zeros((R, 0))

    half, step_dt = np.array(0.5 * dt), np.array(dt)
    stiff = np.tile(k, (R, 1))
    bmass = np.tile(mass, (R, 1))
    q_col = q[:, None]            # (R, 1) view: the gradient's batch layout
    work = np.empty((R, nb))      # dt b_p / m_b, then k (b_q - q)
    hs = np.empty((R, nb))        # (dt/2) k (b_q - q), carried between steps
    total = np.empty(R)           # sum_j k_j (b_q,j - q)
    total_col = total[:, None]
    fq = total if grad is None else np.empty(R)  # total - U'(q)
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
        coupling = 0.5 * np.sum(work, axis=1)
        np.square(bp, out=work)
        np.divide(work, bmass, out=work)
        kinetic_bath = 0.5 * np.sum(work, axis=1)
        return 0.5 * p**2 + u(q) + kinetic_bath + coupling

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
        np.sum(work, axis=1, out=total)
        np.multiply(work, half, out=hs)
        if grad is not None:
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
                       store)
    times = np.arange(out) * (dt * stride)
    return times, qs[:, :out], ps[:, :out], None if es is None else es[:, :out]


def fordkac_simulate(force, spectrum, beta, dt, T, seed, q0, p0, stride=1):
    """Single distinguished-particle trajectory of the explicit bath model.

    Symplectic leapfrog on the full Hamiltonian; the bath is drawn from the
    Gibbs measure conditional on q0.  The returned meta carries the exact
    deterministic kernel (the bath's cosine sum).
    """
    from .kernels import fordkac_kernel
    n_steps = int(round(T / dt))
    rng = _philox(seed, 0, purpose=2)
    times, qs, ps, es = _fordkac_run(force, spectrum, beta, dt, n_steps,
                                     stride, rng, q0, p0, n_replicas=1)
    return FordKacTrajectory(
        times=times, q=qs[0], p=ps[0], energy=es[0],
        meta={"spectrum": spectrum, "beta": beta, "dt": dt, "seed": seed,
              "kernel": lambda t: fordkac_kernel(spectrum, t)})


def fordkac_ensemble(force, spectrum, beta, dt, T, seed, n_replicas,
                     stride=1, q0_sampler=None):
    """Replica ensemble with Gibbs-initialized bath and particle.

    q0 per replica comes from ``q0_sampler(rng, size)`` (defaults to the
    marginal of a harmonic potential when the force has a linear part, else
    q0 = 0); p0 is N(0, 1/beta).
    """
    return _fordkac_ensemble(force, spectrum, beta, dt, T, seed, n_replicas,
                             stride=stride, q0_sampler=q0_sampler, energy=True)


def _fordkac_ensemble(force, spectrum, beta, dt, T, seed, n_replicas, stride,
                      q0_sampler, energy):
    rng = _philox(seed, 0, purpose=3)
    if q0_sampler is not None:
        q0 = q0_sampler(rng, n_replicas)
    elif force is not None and force.linear_part is not None:
        h = float(force.linear_part[0, 0])
        q0 = rng.standard_normal(n_replicas) / np.sqrt(beta * h)
    else:
        q0 = np.zeros(n_replicas)
    p0 = rng.standard_normal(n_replicas) / np.sqrt(beta)
    n_steps = int(round(T / dt))
    bath_rng = _philox(seed, 1, purpose=2)
    return _fordkac_run(force, spectrum, beta, dt, n_steps, stride, bath_rng,
                        q0, p0, n_replicas=n_replicas, energy=energy)


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
    from .kernels import coeffs_from_prony, fordkac_spectrum_for_exponential
    from .model import Domain, ForceField, ModelSpec

    m_list = list(m_list)
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be increasing")
    if omega_max is None:
        omega_max = 20.0 * alpha
    dt_out = dt * stride
    n_lags = int(round(T / dt_out))
    t_sim = 3.0 * T if T > 0 else dt  # extra length for time-origin averaging

    if T == 0:
        lags = np.array([0.0])
        rows = [(m, 0.0, 0.0) for m in m_list]
        return FordKacComparison(rows=rows, combined_error=0.0, passed=True,
                                 lags=lags, gle_vacf=np.zeros(1))

    # matched one-mode extended-variable reference, equilibrium start
    coeffs, q_aux = coeffs_from_prony([(c, alpha)])
    gle_force = force if force is not None else ForceField.zero(1)
    model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                      beta=beta, force=gle_force, coeffs=coeffs, Q=q_aux)
    integ = IntegratorSpec(scheme="semi_exact_splitting", dt=dt,
                           n_steps=int(round(t_sim / dt)), seed=seed,
                           stride=stride)
    init_rng = _philox(seed, 10_000, purpose=4)
    if gle_force.linear_part is not None:
        h = float(gle_force.linear_part[0, 0])
        q0 = init_rng.standard_normal((n_ensemble, 1)) / np.sqrt(beta * h)
    else:
        q0 = np.zeros((n_ensemble, 1))
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
        _, _, ps, _ = _fordkac_ensemble(force, spectrum, beta, dt, t_sim,
                                        seed + m, n_ensemble, stride=stride,
                                        q0_sampler=None, energy=False)
        fk_corrs.append(velocity_autocorrelation(ps, n_lags))

    def metric(fk_rows, gle_rows):
        return float(np.abs(fk_rows.mean(axis=0) - gle_rows.mean(axis=0)).max())

    rows = []
    boot_rng = np.random.Generator(np.random.Philox(key=[seed, 777]))
    boot_metrics = np.empty((len(m_list), n_boot))
    for b in range(n_boot):
        idx_gle = boot_rng.integers(0, n_ensemble, n_ensemble)
        for j, fk in enumerate(fk_corrs):
            idx_fk = boot_rng.integers(0, n_ensemble, n_ensemble)
            boot_metrics[j, b] = metric(fk[idx_fk], gle_corr[idx_gle])
    for j, (m, fk) in enumerate(zip(m_list, fk_corrs)):
        rows.append((m, metric(fk, gle_corr), float(boot_metrics[j].std())))
    if len(m_list) == 1:
        passed = True
        combined = rows[0][2]
    else:
        diffs = boot_metrics[-1] - boot_metrics[0]
        combined = float(diffs.std())
        passed = rows[-1][1] <= rows[0][1] + combined
    lags = np.arange(n_lags + 1) * dt_out
    return FordKacComparison(rows=rows, combined_error=combined, passed=passed,
                             lags=lags, gle_vacf=gle_corr.mean(axis=0))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _write_csv(path, header, data):
    """CRLF-terminated CSV: the header names, then one row per row of the
    float array ``data``, each value written as the repr of a float."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        # row blocks bound the Python objects that tolist() creates
        for start in range(0, data.shape[0], 4096):
            handle.writelines(",".join(map(repr, row)) + "\r\n"
                              for row in data[start:start + 4096].tolist())


def trajectory_to_csv(traj, path):
    """Header row, then t, q_1..q_n, p_1..p_n, s_1..s_m per stored state."""
    n = traj.q.shape[1]
    m = traj.s.shape[1]
    header = (["t"] + [f"q_{i+1}" for i in range(n)]
              + [f"p_{i+1}" for i in range(n)] + [f"s_{i+1}" for i in range(m)])
    _write_csv(path, header, np.concatenate(
        [traj.times[:, None], traj.q, traj.p, traj.s], axis=1))


def write_noise_sidecar(path, noise):
    """Framed binary noise store: magic 'QGLN', version byte, then the
    little-endian float64 increments, (n+m) per step."""
    noise = np.ascontiguousarray(np.asarray(noise, dtype="<f8"))
    with open(path, "wb") as handle:
        handle.write(NOISE_MAGIC)
        handle.write(struct.pack("B", NOISE_VERSION))
        handle.write(noise.tobytes())


def read_noise_sidecar(path, dim):
    """Read a sidecar written by write_noise_sidecar; dim = n + m."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != NOISE_MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a noise sidecar")
        (version,) = struct.unpack("B", handle.read(1))
        if version != NOISE_VERSION:
            raise ValueError(f"unsupported sidecar version {version}")
        payload = handle.read()
    flat = np.frombuffer(payload, dtype="<f8")
    if flat.size % dim:
        raise ValueError("sidecar payload is not a whole number of steps")
    return flat.reshape(-1, dim).copy()
