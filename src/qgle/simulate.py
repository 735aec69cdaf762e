"""Time integration of the extended SDE, and the trajectory file formats.

Two schemes: explicit Euler-Maruyama (weak order 1, coefficients frozen at
the pre-step state, Ito-consistent for position-dependent noise) and a
Strang splitting whose friction/noise half is the exact Ornstein-Uhlenbeck
map for constant coefficients (so with no force the (p, s) chain is exact
in law).

Each scheme's step is written once (``_strang``, ``_euler``) over a few
coarse row operations, in the floating-point order of the plain
expressions:

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
force and the entries of Gamma(q) and Sigma(q) by one evaluator call.

Two sets of row operations run the same step.  The numpy set updates
preallocated (replicas, ·) buffers in place; no ufunc in it writes over
one of its own operands when that operand is a one-element array or a
strided view, because numpy's overlap check costs about 1 us there, so
updates go through scratch rows and scalar operands are 0-d arrays.  A
single replica with constant coefficients runs on the float set instead:
only the products whose bits come from BLAS stay numpy calls (the one-row
(p, s) expm(-A dt)' or (M^-1 p, s) Gamma', and p M^-1' under a general
mass), the rest are IEEE operations on Python floats with the bits of the
one-element ufuncs, and an expression force runs the float form of its
evaluator program (``_Evaluator.point``).

The steps run through one chunk loop, ``_step_chunks`` (the explicit bath
of ``qgle.fordkac`` runs through it too), that checks finiteness once per
chunk of steps.  A chunk that ends non-finite (q included, on floats),
raised a floating-point error the caller does not ignore, or met a bad
value that floats or ``math`` signal by an ArithmeticError or ValueError
is restored from its start and replayed step by step through the numpy
set, so a blowup reports the same step index and warnings as a per-step
check; any other exception propagates.  Floats report no underflow, so a
caller that does not ignore underflow gets the numpy set throughout.

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

import functools
import hashlib
import math
import operator
import struct
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationBlowupError, NonConservativeError, _located
from .expressions import BinOp, Num, compile_exprs
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
                 begin=None, sweep=None):
    """Run ``body`` n_steps times, checking finiteness once per chunk of
    ``chunk`` steps (the caller's choice; the last chunk may be shorter).

    ``body(k)`` advances the state buffers in place by step k of the
    current chunk; ``begin(step, take)``, if given, prepares the chunk of
    ``take`` steps that follows step ``step``; ``store(out)`` records the
    state as output row ``out`` after every ``stride``-th step (row 0 is
    the caller's); ``finite()`` says whether the state is finite.
    ``sweep(step, take, out)``, if given, runs the whole chunk in place of
    ``body`` and ``store`` (it stores its own rows and returns the next
    one) unless numpy does not ignore underflow; the checked replay always
    runs ``body``.

    Each chunk runs with numpy's floating-point errors
    recorded instead of reported (categories the caller ignores stay
    ignored).  A chunk that ends non-finite, recorded an error or raised an
    ArithmeticError or ValueError (others propagate) is restored from its
    start (the arrays in ``state``) and replayed one checked step at a time
    under the caller's errstate, so the caller sees the warnings, exceptions
    and ``IntegrationBlowupError`` step index of a per-step check.  Returns
    the number of rows stored, row 0 included.
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
    if np.geterr()["under"] != "ignore":
        sweep = None  # floats cannot report an underflow
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
                if sweep is None:
                    end = advance(step, take, out, checked=False)
                else:
                    end = sweep(step, take, out)
        except (ArithmeticError, ValueError):
            # a bad value, met by floats, ``math`` or a step after a blowup:
            # the checked replay raises what a per-step check meets first
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
    """Return ``kick()``, which writes scale * F(q) into ``out``, its result,
    and, when the (R, n+m, n+m) buffers ``gamma`` and ``sigma`` are given,
    Gamma(q) and Sigma(q) into them.

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
        return np.multiply(fn(q), factor, out=out)
    return kick


def _floats(a):
    """The bound ``tolist`` of a flat float view of the C-contiguous array
    ``a``: its entries as one list of floats, at less cost than a.tolist."""
    return memoryview(a).cast("B").cast("d").tolist


def _put(a, k):
    """``put(*values)``, which writes k floats over the first k entries of
    the C-contiguous float array ``a``."""
    return functools.partial(struct.Struct(f"{k}d").pack_into,
                             memoryview(a).cast("B"), 0)


def _strang(kick_open, exact, drift, force, kick_close):
    """Return ``step(state, w)``, the Strang step over one op set's row ops
    from the state (q, c, z, h): the position, the momentum after the
    closing half-kick, (p, s) before it and the half-kick (dt/2) F(q); w is
    the transformed increment.  Each op returns its result."""
    def step(state, w):
        q, c, z, h = state
        p = kick_open(c, h)                 # opening half-kick
        z = exact(p, z, w)                  # (p, s) expm(-A dt)' + w
        q = drift(q, p, z)                  # by M^-1 p before and after it
        h = force(q)
        return q, kick_close(z, h), z, h    # closing half-kick
    return step


def _euler(velocity, force, noise, drift, friction):
    """Return ``step(state, w)``, the Euler-Maruyama step over one op set's
    row ops from the state (q, z = (p, s)) with the increment w.  M^-1 p is
    z itself where ``velocity`` is None (the float set, identity mass);
    ``noise`` is None for constant coefficients (w comes transformed)."""
    def step(state, w):
        q, z = state
        v = z if velocity is None else velocity(z)  # M^-1 p
        f = force(q)                        # dt F(q) (and Gamma, Sigma at q)
        if noise is not None:
            w = noise(w)                    # sqrt(dt/beta) Sigma(q) w
        # the drift goes first, as v may view z; the friction gives
        # (p, s) - dt Gamma (M^-1 p, s) + w and then adds f to p
        return drift(q, v), friction(z, v, w, f)
    return step


def _run_batch(model, integ, q, p, s, streams, collect_noise, replay=None):
    """Advance R replicas n_steps; returns strided arrays (+ full noise).

    The scheme's step (``_strang`` or ``_euler``) runs on two op sets (see
    the module docstring).  ``numpy_ops`` binds each op to the (R, ·)
    buffer it writes, the ``carried`` state's own for its parts, so
    ``body`` steps the state in place; it serves R > 1, position-dependent
    Euler and the checked replay.  At R = 1 with constant coefficients
    ``float_ops`` gives ``sweep``, the step over a chunk on lists of
    floats from the carried state, which it writes back with the stored
    rows at the chunk end.  It raises when q ends non-finite, which
    ``finite`` does not check, so that chunk is replayed by ``body``.

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
    coef = 0.5 * dt if splitting else dt  # the step of a drift or a kick

    n_out = n_steps // stride + 1
    qs = np.empty((R, n_out, n))
    ps = np.empty((R, n_out, n))
    ss = np.empty((R, n_out, m))
    q = np.array(q, dtype=float)
    z = np.concatenate([p, s], axis=1)
    noise = np.empty((R, n_steps, dim)) if collect_noise else None

    zp = z[:, :n]              # momentum block of the state buffer
    zs = z[:, n:]              # auxiliary block
    zh = z if minv_t is None else np.empty((R, dim))  # (M^-1 p, s)
    mixed = np.empty((R, dim))  # the row product of the exact map or friction
    kick = np.empty((R, n))    # coef * F(q)
    if splitting or coeffs.constant:
        chunk = 4096
    else:
        chunk = min(max(_NOISE_BUDGET // max(R * dim, 1), 64), 4096)
    chunk = max(1, min(n_steps, chunk))
    buf = np.empty((chunk, R, dim))  # the chunk's transformed increments
    row = np.empty((chunk, dim)) if replay is None else None  # one replica's
    transform = scale = None   # the noise factor and scale ``begin`` applies

    gamma = sigma = None       # Gamma(q) and Sigma(q), position-dependent
    if splitting:
        cache = _SplittingCache.for_model(model, dt)
        mix_t, transform = cache.decay.T, cache.factor.T
        pc = zp.copy()         # momentum after the closing half-kick
        carried, p_now = [q, pc, z, kick], pc
    else:
        carried, p_now = [q, z], zp
        if coeffs.constant:
            mix_t = np.ascontiguousarray(coeffs.gamma().T)
            transform = np.ascontiguousarray(coeffs.sigma().T)
            scale = np.sqrt(dt / model.beta)
        else:
            gamma, sigma = np.zeros((2, R, dim, dim))
    force_kick = _force_kick(model, q, kick, coef, gamma, sigma)
    if splitting and n_steps:
        force_kick()           # the first opening half-kick's force
    spell = _strang if splitting else _euler

    def numpy_ops():
        """The row ops on the (R, ·) buffers, as ufuncs with ``out=``.
        Each returns the buffer it writes, the state's own for a part of
        the state; ``zp`` is z's momentum block, ``force_kick`` reads q."""
        # the position increment dq and q + dq before its torus reduction
        dq, qt = np.empty((2, R, n))
        step, one = np.array(coef), np.array(1.0)

        def move(at, v):
            """at <- at + coef * v, reduced to the torus; returns at."""
            np.multiply(v, step, out=dq)
            np.add(at, dq, out=qt)
            if torus:
                np.mod(qt, one, out=at)
            else:
                at[...] = qt
            return at

        if splitting:
            # the opening momentum, which the drift reads after the map
            # has overwritten zp, and the velocities under a general mass
            p_open, va, vb = np.empty((3, R, n))

            def exact(p, at, w):
                zp[...] = p
                np.matmul(at, mix_t, out=mixed)
                return np.add(mixed, w, out=at)

            def drift(at, p, _):  # the momentum after the map is zp
                if minv_t is None:
                    return move(move(at, p), zp)
                return move(move(at, np.matmul(p, minv_t, out=va)),
                            np.matmul(zp, minv_t, out=vb))

            return dict(kick_open=functools.partial(np.add, out=p_open),
                        exact=exact, drift=drift,
                        force=lambda _: force_kick(),
                        kick_close=lambda _, h: np.add(zp, h, out=pc))
        if coeffs.constant:
            product = functools.partial(np.matmul, zh, mix_t, out=mixed)
            sigma_kick = None
        else:
            product = functools.partial(np.einsum, "rij,rj->ri", gamma, zh,
                                        out=mixed)
            noisy = np.empty((R, dim))
            root = np.array(np.sqrt(dt / model.beta))

            def sigma_kick(w):
                np.einsum("rij,rj->ri", sigma, w, out=noisy)
                return np.multiply(noisy, root, out=noisy)
        v_row, pt = np.empty((2, R, n))

        def velocity(_):  # M^-1 p, from zp, the momentum block of z
            return zp if minv_t is None else np.matmul(zp, minv_t, out=v_row)

        def friction(at, v, w, f):
            if minv_t is not None:
                zh[:, :n] = v
                zh[:, n:] = zs
            d = product()
            np.multiply(d, step, out=d)
            np.subtract(at, d, out=at)
            np.add(at, w, out=at)
            np.add(zp, f, out=pt)
            zp[...] = pt
            return at

        return dict(velocity=velocity, force=lambda _: force_kick(),
                    noise=sigma_kick, drift=move, friction=friction)

    def float_ops():
        """The row ops at R = 1 on lists of floats with the one-element
        ufuncs' bits; the row products, whose bits come from BLAS, stay numpy
        calls on the (1, ·) buffers.  A row op stops at its shorter row."""
        put_z, mixed_floats = _put(z, dim), _floats(mixed)
        add, matmul = operator.add, np.matmul
        velocity = None
        if minv_t is not None:
            p_in, v_out = np.empty((1, n)), np.empty((1, n))
            put_v, v_floats = _put(p_in, n), _floats(v_out)

            def velocity(p):
                put_v(*p[:n])
                matmul(p_in, minv_t, v_out)
                return v_floats()

        columns = model.force._columns
        if columns is None:  # kicked on the buffers, as ``body`` kicks it
            put_q, kick_floats = _put(q, n), _floats(kick)

            def force(qv):
                put_q(*qv)
                force_kick()
                return kick_floats()
        else:  # the float program of the columns times the kick's factor,
            # built once per (model, factor)
            factor = (-1.0 if model.force.is_conservative else 1.0) * coef
            key = ("float force", factor)
            scaled = model._derived.get(key)
            if scaled is None:
                scaled = model._derived[key] = compile_exprs(
                    [BinOp("*", tree, Num(factor)) for tree in columns.trees])
            force = scaled.point

        if splitting:
            def row_add(a, b):
                return list(map(add, a, b))

            def exact(p, zv, w):
                put_z(*p, *zv[n:])
                matmul(z, mix_t, mixed)
                return list(map(add, mixed_floats(), w))

            def drift(qv, p, zv):
                if velocity is not None:
                    p, zv = velocity(p), velocity(zv)
                if torus:
                    return [((x + a * coef) % 1.0 + b * coef) % 1.0
                            for x, a, b in zip(qv, p, zv)]
                return [x + a * coef + b * coef for x, a, b in zip(qv, p, zv)]

            return dict(kick_open=row_add, exact=exact, drift=drift,
                        force=force, kick_close=row_add)
        put_zh = _put(zh, dim)

        def friction(zv, v, w, f):
            if minv_t is None:  # zh is z
                put_z(*zv)
            else:
                put_zh(*v, *zv[n:])
            matmul(zh, mix_t, mixed)
            zv = [x - e * coef + y for x, e, y in zip(zv, mixed_floats(), w)]
            zv[:n] = map(add, zv, f)
            return zv

        def drift(qv, v):
            if torus:
                return [(x + a * coef) % 1.0 for x, a in zip(qv, v)]
            return [x + a * coef for x, a in zip(qv, v)]

        return dict(velocity=velocity, force=force, noise=None, drift=drift,
                    friction=friction)

    numpy_step = spell(**numpy_ops())

    def body(k):
        carried[:] = numpy_step(carried, buf[k])

    sweep = None
    if R == 1 and coeffs.constant:
        float_step = spell(**float_ops())
        # the floats kept per stored state: q, then c and (p, s) or (p, s)
        width = n + dim + (n if splitting else 0)

        def sweep(start, take, out):
            """``body`` over the chunk on floats; stores its own rows and
            returns the next one."""
            now = [a[0].tolist() for a in carried]
            # one iterator over the chunk's increments: a step's ``map``
            # or ``zip`` stops at the end of its (p, s) row, so takes n+m
            w = iter(buf[:take, 0].ravel().tolist())
            kept = []
            for k in range(start + 1, start + take + 1):
                now = float_step(now, w)
                if k % stride == 0:
                    kept += now[0]
                    kept += now[1]
                    if splitting:  # p is c; s is in (p, s) after the map
                        kept += now[2]
            for a, values in zip(carried, now):
                a[0] = values
            if not all(map(math.isfinite, now[0])):
                # ``finite`` does not look at q, and floats report nothing
                raise FloatingPointError("non-finite position")
            kept = np.fromiter(kept, float, len(kept)).reshape(-1, width)
            end = out + len(kept)
            qs[0, out:end] = kept[:, :n]
            ps[0, out:end] = kept[:, n:2 * n]
            ss[0, out:end] = kept[:, width - m:]
            return end

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
        n_steps, stride, carried, body,
        lambda: np.isfinite(z).all() and np.isfinite(p_now).all(), store,
        chunk, begin, sweep)
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
