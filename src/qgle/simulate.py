"""Time integration of the extended SDE, and the trajectory file formats.

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
zero), reaching the gradient evaluator of an expression potential
directly.  The position-dependent Euler step evaluates the expression
force and the entries of Gamma(q) and Sigma(q) by one evaluator call into
preallocated buffers.  No ufunc in a step body writes over one of its own
operands when that operand is a one-element array or a strided view,
because numpy's overlap check costs about 1 us there: updates go through
scratch rows instead, and scalar operands are 0-d arrays.  The steps run
through one driver, ``_step_chunks`` (the explicit bath of ``qgle.fordkac``
runs through it too), that checks finiteness once per chunk of steps; a
chunk that ends non-finite (or raised a floating-point error the caller
does not ignore) is restored from its start and replayed step by step, so
a blowup reports the same step index and warnings as a per-step check.

A chunk's noise lives in one buffer of the run, allocated once and laid out
step-major as (chunk, replicas, n+m), so a step reads one contiguous
(replicas, n+m) slab; it holds replicas x chunk x (n+m) values.  The
position-dependent Euler step bounds its chunk by a budget of 2^17 values
(1 MiB), clamped to 64-4096 steps (128 steps at 512 replicas of n+m = 2).
The splitting and constant-coefficient Euler steps transform a replica's
increments by one matrix product over the chunk, and a product over fewer
rows can round differently, so their chunks stay at 4096 steps.

Randomness is counter-based: every trajectory owns a Philox stream keyed by
(seed, trajectory index), so ensembles are reproducible and independent of
scheduling.  Stored Wiener increments regenerate a trajectory bit-exactly
and feed the discrete non-Markovian reconstruction check.

``qgle.simulate`` is the function ``simulate`` once ``qgle`` is imported
(the names clash), so ``from qgle.simulate import ...`` is the supported
way to import this module's names.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationBlowupError, NonConservativeError, _located
from .expressions import compile_exprs
from .model import ExtendedState

__all__ = [
    "IntegratorSpec",
    "Trajectory",
    "EnsembleResult",
    "GibbsInit",
    "simulate",
    "simulate_ensemble",
    "step_euler",
    "step_splitting",
    "sample_gibbs",
    "ide_residual_check",
    "colored_noise_path",
    "trajectory_to_csv",
    "write_noise_sidecar",
    "read_noise_sidecar",
    "model_fingerprint",
]

SCHEMES = ("euler_maruyama", "semi_exact_splitting")

NOISE_MAGIC = b"QGLN"
NOISE_VERSION = 1

# noise values one chunk of a position-dependent Euler run holds (1 MiB)
_NOISE_BUDGET = 2**17


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
            raise _located(ValueError(
                f"unknown scheme {self.scheme!r}; pick from {SCHEMES}"), "scheme")
        if self.dt <= 0:
            raise _located(ValueError("dt must be positive"), "dt")
        if self.n_steps < 0:
            raise _located(ValueError("n_steps must be nonnegative"), "n_steps")
        if self.stride < 1:
            raise _located(ValueError("stride must be a positive integer"), "stride")
        if not 0 <= self.seed < 2**64:
            raise _located(ValueError("seed must be a 64-bit unsigned integer"), "seed")
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
    """Stable digest of the model's defining data.  The force enters by its
    kind, each expression source with its field path and ``linear_part``, so
    a force given as a Python callable enters by its kind only."""
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
    h.update(repr(list(model.force._sources)).encode())
    if model.force.linear_part is not None:
        h.update(np.ascontiguousarray(model.force.linear_part).tobytes())
    return h.hexdigest()[:16]


def _philox(seed, traj_index, purpose=0):
    bits = np.random.Philox(
        counter=np.array([0, 0, 0, purpose], dtype=np.uint64),
        key=np.array([seed, traj_index], dtype=np.uint64))
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
    derived = model._derived  # the factors and envelope, built once per model
    key = (sample_gibbs, "cholesky")
    if key not in derived:
        derived[key] = (np.linalg.cholesky(model.mass / model.beta),
                        np.linalg.cholesky(model.Q / model.beta))
    chol_p, chol_s = derived[key]
    p = rng.standard_normal((size, n)) @ chol_p.T
    s = rng.standard_normal((size, m)) @ chol_s.T
    if q0 is not None:
        q = np.broadcast_to(np.asarray(q0, dtype=float), (size, n)).copy()
        return model.domain.reduce(q), p, s
    if not model.domain.is_torus:
        raise ValueError("q sampling is rejection on the torus; "
                         "fix q0 for euclidean domains")
    key = (sample_gibbs, "u_min")
    if key not in derived:
        # envelope from a grid scan of the potential
        axes = np.linspace(0.0, 1.0, 257, endpoint=False)
        if n == 1:
            grid = axes[:, None]
        else:
            mesh = np.meshgrid(*([axes[::8]] * n), indexing="ij")
            grid = np.stack([ax.ravel() for ax in mesh], axis=-1)
        derived[key] = float(np.min(model.force.potential(grid)))
    u_min = derived[key]
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


def _step_chunks(n_steps, stride, state, body, finite, store, chunk,
                 begin=None):
    """Run ``body`` n_steps times, checking finiteness once per chunk of
    ``chunk`` steps (the caller's choice; the last chunk may be shorter).

    ``body(k)`` advances the state buffers in place by step k of the
    current chunk; ``begin(step, take)``, if given, prepares the chunk of
    ``take`` steps that follows step ``step``; ``store(out)`` records the
    state as output row ``out`` after every ``stride``-th step (row 0 is
    the caller's); ``finite()`` says whether the state is finite.

    Each chunk runs with numpy's floating-point errors
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
    chunk = max(1, min(n_steps, chunk))
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


def _model_evaluator(model):
    """One evaluator of the force's expression columns (if any), then the
    nonzero entries of Gamma and of Sigma, built once per model."""
    key = (_model_evaluator,)
    evaluator = model._derived.get(key)
    if evaluator is None:
        columns = model.force._columns
        trees = [] if columns is None else list(columns.trees)
        for _, entries in (model.coeffs._gamma, model.coeffs._sigma):
            trees += entries.trees
        evaluator = model._derived[key] = compile_exprs(trees)
    return evaluator


def _force_kick(model, q, out, scale, gamma=None, sigma=None):
    """Return ``kick()``, which writes scale * F(q) into ``out`` and, when
    the (R, n+m, n+m) buffers ``gamma`` and ``sigma`` are given, Gamma(q)
    and Sigma(q) into them.

    ``q`` and ``out`` are the caller's (R, n) buffers.  The expression
    columns of the force and, with the buffers, the entries of Gamma and
    Sigma are evaluated by one evaluator call per kick
    (``_model_evaluator``, bound here to preallocated buffers, so the
    zeros and literal entries of the coefficients are written once).  A
    conservative force is reached through its gradient, as
    grad U(q) * (-scale): IEEE products are symmetric under sign, so this
    is F(q) * scale up to the sign of an exact zero.  A non-conservative
    force gives F(q) * scale.
    """
    force, outs, evaluator = model.force, [], model.force._columns
    if evaluator is not None:
        columns = np.empty(out.shape)
        outs += list(columns.T)
        fn, sign = (lambda _: columns), (-1 if force.is_conservative else 1)
    elif force._grad is not None:
        fn, sign = force._grad, -1
    else:
        fn, sign = force._force, 1
    if gamma is not None:
        evaluator = _model_evaluator(model)
        for (positions, _), buf in ((model.coeffs._gamma, gamma),
                                    (model.coeffs._sigma, sigma)):
            outs += [buf[:, i, j] for i, j in positions]
    evaluate = (lambda: None) if evaluator is None else evaluator.bind(q, outs)
    factor = np.array(sign * scale)

    def kick():
        evaluate()
        np.multiply(fn(q), factor, out=out)
    return kick


def _run_batch(model, integ, q, p, s, streams, collect_noise, replay=None):
    """Advance R replicas n_steps; returns strided arrays (+ full noise).

    The state lives in preallocated (R, n) and (R, n+m) buffers that one
    step body per scheme, chosen before the loop, updates in place in the
    floating-point order of the plain expressions (see ``_force_kick`` for
    the force and, in the position-dependent Euler body, Gamma(q) and
    Sigma(q) evaluated with it).
    The splitting body carries half * F(q) from the closing half-kick of one
    step into the opening half-kick of the next, so each step makes one
    force call.

    Under the module's no-self-overlap rule a position update goes through
    the scratch row ``qt``, the splitting body keeps the momentum in the
    contiguous ``pc`` and writes each half-kick across between ``pc`` and
    the momentum block of z, and the Euler body writes its momentum kick
    through ``pt``.

    The steps run through ``_step_chunks``, which checks finiteness of the
    state once per chunk and replays a faulty chunk step by step.  Before a
    chunk, ``begin`` fills the run's one step-major (chunk, R, n+m) noise
    buffer ``buf`` replica by replica: each replica's (take, n+m) block is
    drawn into the reusable contiguous ``row`` (or taken from ``replay``,
    which injects stored increments for bit-exact regeneration), copied
    into ``noise`` when noise is stored, and written into ``buf[:take, r]``
    as xi @ factor' (splitting), xi @ Sigma' times sqrt(dt/beta)
    (constant-coefficient Euler) or xi (position-dependent Euler).  The
    buffer holds R x chunk x (n+m) values.  The position-dependent Euler
    chunk is ``_NOISE_BUDGET`` // (R (n+m)) steps clamped to [64, 4096];
    the other schemes keep 4096 steps, since their product over fewer rows
    can round differently and the bits would then depend on R.
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
    if splitting or coeffs.constant:
        chunk = 4096
    else:
        chunk = min(max(_NOISE_BUDGET // max(R * dim, 1), 64), 4096)
    chunk = max(1, min(n_steps, chunk))
    buf = np.empty((chunk, R, dim))  # the chunk's transformed increments
    row = np.empty((chunk, dim)) if replay is None else None  # one replica's
    transform = scale = None   # the noise factor and scale ``begin`` applies

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
        force_kick = _force_kick(model, q, hf, 0.5 * dt)
        transform = cache.factor.T
        if n_steps:
            force_kick()

        def body(k):
            np.add(pc, hf, out=zp)              # opening half-kick
            if minv_t is not None:
                np.matmul(zp, minv_t, out=vel)
            np.multiply(vel, half, out=dq)
            move()
            np.matmul(z, decay_t, out=zb)       # exact OU map of (p, s)
            np.add(zb, buf[k], out=z)
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

        def euler_update(kick):
            """Position drift and (p, s) update from the pre-step state,
            once ``force_kick`` has run."""
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
            transform = np.ascontiguousarray(coeffs.sigma().T)
            scale = sqrt_kick
            force_kick = _force_kick(model, q, fdt, dt)

            def body(k):
                velocity()
                np.matmul(zh, gamma_t, out=drift)
                force_kick()
                euler_update(buf[k])
        else:
            gamma = np.zeros((R, dim, dim))
            sigma = np.zeros((R, dim, dim))
            kick = np.empty((R, dim))
            sqrt_kick0 = np.array(sqrt_kick)
            force_kick = _force_kick(model, q, fdt, dt, gamma, sigma)

            def body(k):
                velocity()
                force_kick()    # also Gamma(q) and Sigma(q)
                np.einsum("rij,rj->ri", gamma, zh, out=drift)
                np.einsum("rij,rj->ri", sigma, buf[k], out=kick)
                np.multiply(kick, sqrt_kick0, out=kick)
                euler_update(kick)

    def begin(step, take):
        """Fill ``buf[:take]`` with the chunk's increments, replica by
        replica, transformed by the scheme's noise factor."""
        for r in range(R):
            if replay is None:
                xi = streams[r].standard_normal(out=row[:take])
            else:
                xi = replay[r, step:step + take]
            if collect_noise:
                noise[r, step:step + take] = xi
            if transform is None:
                buf[:take, r] = xi
            else:
                np.matmul(xi, transform, out=buf[:take, r])
        if scale is not None:
            np.multiply(buf[:take], scale, out=buf[:take])

    def store(out):
        qs[:, out], ps[:, out], ss[:, out] = q, p_now, zs

    store(0)
    out = _step_chunks(
        n_steps, stride, state, body,
        lambda: np.isfinite(z).all() and np.isfinite(p_now).all(), store,
        chunk, begin)
    times = np.arange(out) * (dt * stride)
    return times, qs[:, :out], ps[:, :out], ss[:, :out], \
        (noise if collect_noise else None)


def _run_meta(model, integ, observables=None, states=None, **extra):
    """Run metadata: model fingerprint, integrator settings, ``extra``, and
    each observable's statistics over the rows of ``states`` = (q, p, s)."""
    meta = {"model_hash": model_fingerprint(model), "scheme": integ.scheme,
            "dt": integ.dt, "n_steps": integ.n_steps, "seed": integ.seed,
            "stride": integ.stride, **extra}
    if observables:
        meta["observables"] = {
            name: ObservableAccumulator(name, fn(*states))
            for name, fn in observables.items()}
    return meta


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
    return Trajectory(
        times=times, q=qs[0], p=ps[0], s=ss[0],
        noise=None if noise is None else noise[0],
        meta=_run_meta(model, integ, observables, (qs[0], ps[0], ss[0]),
                       traj_index=traj_index))


def replay_trajectory(model, traj):
    """Re-run a trajectory from its stored increments (bit-exact).

    Uses the initial stored state, the recorded integrator settings and the
    noise array; the result must equal the original path exactly.  Its meta
    is that of the run, without observables.
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
                      meta=_run_meta(model, integ, traj_index=traj.meta.get(
                          "traj_index", 0)))


def simulate_ensemble(model, integ, initial, n_replicas, observables=None):
    """Run independent replicas, vectorized across the ensemble.

    Replica r draws from the stream keyed by (seed, r), so its noise does
    not depend on grouping.  Its path equals a separate run of replica r
    bit for bit only where every step is computed row by row: the
    position-dependent Euler step with identity mass.  The splitting and
    constant-coefficient Euler steps, and ``p @ M^-1'`` under a general
    mass, multiply (R, d) state blocks, and a row of such a product may
    round differently from the same row computed alone, so replicas can
    differ from separate runs in the last bits (3.2e-15 in p for a
    3-replica splitting run with a 2-d mass matrix).
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
    states = [a.reshape(-1, a.shape[-1]) for a in (qs, ps, ss)]
    return EnsembleResult(
        times=times, q=qs, p=ps, s=ss,
        meta=_run_meta(model, integ, observables, states,
                       n_replicas=n_replicas))


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


def colored_noise_path(coeffs, beta, dt, noise, eta0):
    """Colored-noise process driven by a trajectory's stored increments.

    Integrates d eta = -G22 eta dt + beta^-1/2 S2 dW from eta0 (= s(0))
    by the exact one-step OU map (``_ou_step``).  Returns the
    (n_steps + 1, m) path.
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
    decay, _, factor = _ou_step(g22, s2 @ s2.T / beta, dt)
    # the exact update covariance mixes the whole Wiener path inside a step,
    # so it cannot be a function of the per-step increment alone; drive the
    # map with the auxiliary-block components, which are iid standard normals.
    # One one-row product per step and term (a many-row product rounds
    # differently), written in place through two scratch rows; np.dot with
    # ``out`` gives the bits of ``@`` at less call overhead
    drift, kick = np.empty(m), np.empty(m)
    rows = list(out)
    for now, after, xi in zip(rows, rows[1:], noise[:, n:]):
        np.dot(decay, now, out=drift)
        np.dot(factor, xi, out=kick)
        np.add(drift, kick, out=after)
    return out


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _write_csv(path, header, data):
    """CRLF-terminated CSV: the header names, then one row per row of the
    float array ``data``, each value written as the repr of a float."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        # one %-format per row block (the block bounds the Python objects
        # that tolist() creates); %r is the repr of a float
        line = ",".join(["%r"] * data.shape[1]) + "\r\n"
        for start in range(0, data.shape[0], 4096):
            block = data[start:start + 4096]
            handle.write(line * block.shape[0] % tuple(block.ravel().tolist()))


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
