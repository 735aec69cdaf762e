"""Extended-phase-space model: domains, forces, coefficient fields.

The model is the Ito diffusion

    dq = M^-1 p dt
    dp = [F(q) - G11(q) M^-1 p - G12(q) s] dt + beta^-1/2 S1(q) dW
    ds = [-G21(q) M^-1 p - G22(q) s] dt + beta^-1/2 S2(q) dW

with friction blocks G assembled into the (n+m)x(n+m) matrix Gamma(q) and
noise rows S into Sigma(q).  The fluctuation-dissipation relation ties the
two through an SPD matrix Q:

    Gamma(q) diag(I, Q) + diag(I, Q) Gamma(q)^T = Sigma(q) Sigma(q)^T,

which for a conservative force makes exp(-beta [U + p'M^-1 p/2 + s'Q^-1 s/2])
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import (
    InconsistentError,
    NonConservativeError,
    NoSolutionError,
    NotPositiveError,
    NumericalFailureError,
    QgleError,
    _located,
)
from .expressions import (BinOp, Call, Num, Var, compile_exprs, diff_expr,
                          parse_expr, screen_torus_periodicity, validate_expr)

__all__ = [
    "Domain",
    "ForceField",
    "CoefficientField",
    "ModelSpec",
    "ExtendedState",
    "FdtResult",
    "NOT_APPLICABLE",
    "default_grid",
    "solve_fdt_Q",
    "verify_fdt",
    "purecolor_check",
    "stability_margin",
    "gibbs_log_density",
]

PD_EIG_TOL = 1e-12  # relative to the matrix max-norm
_FDT_RTOL = 1e-9  # white and coupling defects of solve_fdt_Q, relative
_G11_ZERO_TOL = 1e-12  # purecolor_check: G11 counts as zero below this, relative


def _as_matrix(a, shape=None, name="matrix"):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got {a.ndim} dimensions")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _checked(path, check, *args):
    """``check(*args)``, naming the field ``path`` in an error it raises."""
    try:
        return check(*args)
    except (ValueError, QgleError) as err:
        raise _located(err, *path) from None


def _check_spd(a, name, shape=None):
    """``a`` as an SPD matrix (of ``shape``); an error names ``name``."""
    a = _checked((name,), _as_matrix, a, shape, name)
    if a.shape[0] != a.shape[1]:
        raise _located(ValueError(f"{name} must be square"), name)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise _located(ValueError(f"{name} must be symmetric"), name)
    eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
    if eigs.min() <= PD_EIG_TOL * scale:
        raise _located(NotPositiveError(
            f"{name} must be positive definite (min eig {eigs.min():.3e})"), name)
    return a


def _tree(entry, n):
    """The dimension- and division-screened tree of a string or tree."""
    tree = entry if isinstance(entry, (Num, Var, Call, BinOp)) else parse_expr(entry)
    validate_expr(tree, n, torus=False)
    return tree


@dataclass(frozen=True)
class Domain:
    """Configuration domain: flat torus [0,1)^n or R^n."""

    kind: str  # "torus" | "euclidean"
    dim: int

    def __post_init__(self):
        if self.kind not in ("torus", "euclidean"):
            raise _located(ValueError(f"unknown domain kind {self.kind!r}"), "kind")
        if self.dim < 1:
            raise _located(ValueError("domain dimension must be >= 1"), "dim")

    @property
    def is_torus(self):
        return self.kind == "torus"

    def reduce(self, q):
        return np.mod(q, 1.0) if self.is_torus else np.asarray(q, dtype=float)


def _batched(fn, q, columns=None, negate=False):
    """Call fn on (R, n) input; accept (n,) and return matching shape.  A
    single point of a field whose values are the expression ``columns``
    (negated for ``negate``) is evaluated by their float program where it
    can (``_Evaluator.at``)."""
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    values = columns.at(q) if single and columns is not None else None
    if values is not None:
        values = np.array(values)
        return -values if negate else values
    out = fn(q[None, :] if single else q)
    out = np.asarray(out, dtype=float)
    return out[0] if single else out


class ForceField:
    """Force on the configuration variable, conservative or not.

    ``force`` maps an ``(R, n)`` batch of points to an ``(R, n)`` batch of
    forces.  Conservative fields carry the potential and its gradient and are
    checked once at construction: a central finite difference of the
    potential must match the stated gradient to 1e-5 relative at sampled
    points.  The integrators kick a conservative field through its gradient
    (``-grad U``).  A field built from expressions keeps, as ``_columns``,
    one evaluator (``compile_exprs``) of the n components of the gradient
    of its potential or, if it is not conservative, of its force; the
    integrators evaluate them together with the coefficients, and the force
    and gradient at a single point come from their float program.  The
    expression constructors run the dimension check and the division screen
    on each expression and keep its tree and field path in ``_sources``.
    ``linear_part``, when given, is the SPD stiffness H of a harmonic part
    q' H q / 2 of the potential; the Ford-Kac ensembles draw their start
    positions from its Gibbs marginal.
    """

    def __init__(self, kind, n, force, potential=None, grad_potential=None,
                 linear_part=None, _check=True, _columns=None, _sources=()):
        if kind not in ("conservative", "nonconservative"):
            raise ValueError(f"unknown force kind {kind!r}")
        self.kind = kind
        self.n = n
        self._force = force
        self._potential = potential
        self._grad = grad_potential
        self._columns = _columns
        self._sources = _sources
        self.linear_part = None if linear_part is None else _check_spd(
            linear_part, "linear_part", (n, n))
        if kind == "conservative":
            if potential is None or grad_potential is None:
                raise ValueError("conservative forces need potential and gradient")
            if _check:
                _checked(("potential",), self._check_gradient)

    def __call__(self, q):
        return _batched(self._force, q, self._columns, self.is_conservative)

    def potential(self, q):
        if self._potential is None:
            raise NonConservativeError("force has no potential")
        out = _batched(self._potential, q)
        return float(out) if out.ndim == 0 else out

    def grad_potential(self, q):
        if self._grad is None:
            raise NonConservativeError("force has no potential gradient")
        return _batched(self._grad, q, self._columns)

    @property
    def is_conservative(self):
        return self.kind == "conservative"

    def _check_gradient(self, n_points=16, h=1e-5, rtol=1e-5):
        rng = np.random.Generator(np.random.Philox(key=12345))
        pts = rng.uniform(-1.0, 2.0, size=(n_points, self.n))
        grad = self.grad_potential(pts)
        fd = np.empty_like(grad)
        for j in range(self.n):
            shift = np.zeros(self.n)
            shift[j] = h
            fd[:, j] = (self.potential(pts + shift) - self.potential(pts - shift)) / (2 * h)
        scale = np.maximum(np.abs(grad), 1.0)
        if np.max(np.abs(fd - grad) / scale) > rtol:
            raise ValueError("gradient is inconsistent with the potential")
        force = self(pts)
        if np.max(np.abs(force + grad) / scale) > rtol:
            raise ValueError("conservative force must equal -grad potential")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls("conservative", n,
                   force=lambda q: np.zeros_like(q),
                   potential=lambda q: np.zeros(q.shape[0]),
                   grad_potential=lambda q: np.zeros_like(q),
                   _check=False)

    @classmethod
    def harmonic(cls, stiffness):
        """U(q) = q' H q / 2 for SPD H."""
        h = _check_spd(stiffness, "stiffness")
        n = h.shape[0]
        return cls("conservative", n,
                   force=lambda q: -q @ h.T,
                   potential=lambda q: 0.5 * np.einsum("ri,ij,rj->r", q, h, q),
                   grad_potential=lambda q: q @ h.T,
                   linear_part=h, _check=False)

    @classmethod
    def from_potential_expr(cls, expr, n, linear_part=None):
        """Conservative force from a potential in the closed expression family.

        The gradient is the symbolic derivative of the tree (the family is
        closed under differentiation); the potential and the n gradient
        components are evaluated by two evaluators.
        """
        tree = _checked(("potential",), _tree, expr, n)
        u = compile_exprs([tree])
        grad = compile_exprs([diff_expr(tree, j) for j in range(n)])
        return cls("conservative", n, force=lambda q: -grad(q),
                   potential=lambda q: u(q)[:, 0], grad_potential=grad,
                   linear_part=linear_part, _columns=grad,
                   _sources=((("potential",), tree),))

    @classmethod
    def nonconservative(cls, n, force, linear_part=None):
        """``force`` maps ``(R, n)`` batches to forces, or is a list of n
        expressions (strings or trees), one per component."""
        if callable(force):
            return cls("nonconservative", n, force, linear_part=linear_part)
        if not isinstance(force, (list, tuple)) or len(force) != n:
            raise _located(ValueError(f"need {n} force components"), "components")
        sources = [(("components", i), _checked(("components", i), _tree, comp, n))
                   for i, comp in enumerate(force)]
        columns = compile_exprs([tree for _, tree in sources])
        return cls("nonconservative", n, columns, linear_part=linear_part,
                   _columns=columns, _sources=sources)


class CoefficientField:
    """Friction matrix Gamma(q) and noise factor Sigma(q), constant or not.

    Position-dependent fields store one entry per matrix element, each either
    a float or an expression tree from the closed family, so smoothness is
    guaranteed by construction.  ``gamma(q)``/``sigma(q)`` evaluate to
    ``(n+m, n+m)`` at a point or ``(R, n+m, n+m)`` on a batch, filling the
    nonzero entries of a zero-filled buffer by one evaluator
    (``compile_exprs``) per matrix, kept with their positions as ``_gamma``
    and ``_sigma``; the evaluator writes the literal entries once and
    computes the others (at a single point, by its float program).  The
    position-dependent Euler step evaluates both matrices and the force by
    one evaluator instead.  Construction runs the dimension check and the
    division screen on each expression entry and keeps its tree and field
    path in ``_sources``.
    """

    def __init__(self, n, m, gamma=None, sigma=None,
                 gamma_entries=None, sigma_entries=None):
        if m < 1:
            raise _located(ValueError("auxiliary dimension m must be >= 1"), "m")
        self.n = n
        self.m = m
        dim = n + m
        self._sources = []
        if gamma is not None:
            self.kind = "constant"
            self._gamma = _checked(("gamma",), _as_matrix, gamma, (dim, dim), "Gamma")
            self._sigma = _checked(("sigma",), _as_matrix, sigma, (dim, dim), "Sigma")
        else:
            self.kind = "position_dependent"
            self._gamma_entries, self._gamma = self._check_entries(gamma_entries, "gamma")
            self._sigma_entries, self._sigma = self._check_entries(sigma_entries, "sigma")

    def _check_entries(self, entries, name):
        """The entries as a (dim, dim) object array of floats and trees, and
        (positions, evaluator) of the nonzero ones, row-major: a float counts
        as a literal ``Num``, and zeros are left to zero-filled buffers."""
        dim, matrix = self.n + self.m, (list, tuple, np.ndarray)
        if not isinstance(entries, matrix) or len(entries) != dim or any(
                not isinstance(row, matrix) or len(row) != dim for row in entries):
            raise _located(ValueError(f"{name} entries must form a {dim}x{dim} matrix"), name)
        out = np.empty((dim, dim), dtype=object)
        positions, trees = [], []
        for i, row in enumerate(entries):
            for j, entry in enumerate(row):
                if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                    if not math.isfinite(entry):
                        raise _located(ValueError(
                            f"expected a finite number, got {entry!r}"), name, i, j)
                    entry = float(entry)
                else:
                    entry = _checked((name, i, j), _tree, entry, self.n)
                    self._sources.append(((name, i, j), entry))
                out[i, j] = entry
                tree = Num(entry) if isinstance(entry, float) else entry
                if tree != Num(0.0):
                    positions.append((i, j))
                    trees.append(tree)
        return out, (positions, compile_exprs(trees))

    @property
    def constant(self):
        return self.kind == "constant"

    def gamma(self, q=None):
        return self._at(self._gamma, q)

    def sigma(self, q=None):
        return self._at(self._sigma, q)

    def _at(self, field, q):
        if self.constant:
            if q is None or np.asarray(q).ndim <= 1:
                return field
            return np.broadcast_to(field, (np.asarray(q).shape[0],) + field.shape)
        if q is None:
            raise ValueError("position-dependent field needs q")
        q = np.asarray(q, dtype=float)
        batch = q[None, :] if q.ndim == 1 else q
        out = np.zeros((len(batch),) + (self.n + self.m,) * 2)
        positions, evaluator = field
        values = evaluator.at(q) if q.ndim == 1 else None
        if values is None:
            evaluator.bind(batch, [out[:, i, j] for i, j in positions])()
        else:
            for (i, j), value in zip(positions, values):
                out[0, i, j] = value
        return out[0] if q.ndim == 1 else out

    # block accessors on an evaluated matrix
    def blocks(self, mat):
        n = self.n
        return (mat[..., :n, :n], mat[..., :n, n:],
                mat[..., n:, :n], mat[..., n:, n:])

    def sigma_rows(self, mat):
        n = self.n
        return mat[..., :n, :], mat[..., n:, :]


@dataclass(frozen=True)
class ExtendedState:
    """One point (q, p, s) of the extended phase space at time t."""

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("q", "p", "s"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ModelSpec:
    """Full model instance: domain, mass, temperature, force, coefficients;
    on a torus each expression the force and the coefficients were given
    (a potential, not its gradient) must pass the periodicity screen."""

    domain: Domain
    mass: np.ndarray
    beta: float
    force: ForceField
    coeffs: CoefficientField
    Q: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.domain.dim
        mass = _check_spd(self.mass, "mass", (n, n))
        object.__setattr__(self, "mass", mass)
        if self.beta <= 0:
            raise _located(ValueError("beta must be positive"), "beta")
        if self.force.n != n:
            raise _located(ValueError("force dimension does not match the domain"), "force")
        if self.coeffs.n != n:
            raise _located(ValueError("coefficient field n does not match the domain"),
                           "coeffs")
        if self.Q is not None:
            q = _check_spd(self.Q, "Q", (self.coeffs.m, self.coeffs.m))
            object.__setattr__(self, "Q", q)
        if self.domain.is_torus:
            for owner in ("force", "coeffs"):
                for path, tree in getattr(self, owner)._sources:
                    _checked((owner,) + path, screen_torus_periodicity, tree)
        mass_inv = np.linalg.inv(mass)
        mass_inv.flags.writeable = False
        object.__setattr__(self, "_mass_inv", mass_inv)
        # operators derived from the model by its consumers, built once
        # (the integrators keep their per-dt splitting operators here)
        object.__setattr__(self, "_derived", {})

    @property
    def n(self):
        return self.domain.dim

    @property
    def m(self):
        return self.coeffs.m

    @property
    def mass_inv(self):
        """M^-1, computed once at construction (read-only)."""
        return self._mass_inv


def default_grid(domain, points=None):
    """Uniform evaluation grid on the torus (101 points for n=1, 21 per dim
    for n=2); a single origin point on euclidean domains or for constants."""
    n = domain.dim
    if not domain.is_torus:
        return np.zeros((1, n))
    if points is None:
        points = 101 if n == 1 else 21
    axes = [np.linspace(0.0, 1.0, points, endpoint=False) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=-1)


def _grid_array(coeffs, grid):
    if grid is None:
        grid = np.zeros((1, coeffs.n))
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("grid must be nonempty")
    if grid.shape[1] != coeffs.n:
        raise ValueError("grid dimension does not match the coefficient field")
    return grid


@dataclass(frozen=True)
class FdtResult:
    """Solved auxiliary covariance plus per-block defects (max-norm)."""

    Q: np.ndarray
    residual_white: float      # G11 + G11' - S1 S1'
    residual_coupling: float   # G12 Q + G21' - S1 S2'
    residual_aux: float        # G22 Q + Q G22' - S2 S2'

    @property
    def max_residual(self):
        return max(self.residual_white, self.residual_coupling, self.residual_aux)


def _solve_lyapunov(a, rhs):
    """Symmetric solution X of a X + X a' = rhs (Bartels-Stewart, O(m^3)).

    The equation is singular exactly when two eigenvalues of ``a`` sum to
    zero; scipy only warns and perturbs there, so that case is detected
    first, relative to the scale of ``a``, and raises NoSolutionError.
    """
    m = a.shape[0]
    eigs = np.linalg.eigvals(a)
    gap = np.abs(eigs[:, None] + eigs[None, :]).min()
    if gap <= 1e-12 * max(1.0, np.abs(a).max()) * m * m:
        raise NoSolutionError(
            f"Lyapunov equation is singular (eigenvalue pair sum {gap:.3e})")
    x = solve_continuous_lyapunov(a, rhs)
    return 0.5 * (x + x.T)


def solve_fdt_Q(coeffs):
    """Solve the block fluctuation-dissipation equations for Q.

    The auxiliary block ``G22 Q + Q G22' = S2 S2'`` is solved by
    Bartels-Stewart and symmetrized; the white block
    ``G11 + G11' = S1 S1'`` and coupling block ``G12 Q + G21' = S1 S2'`` are
    then verified.  Stability of -Gamma is not required here.

    Raises NoSolutionError, InconsistentError or NotPositiveError.
    """
    if not coeffs.constant:
        raise ValueError("solve_fdt_Q needs constant coefficients")
    n = coeffs.n
    g = coeffs.gamma()
    s = coeffs.sigma()
    g11, g12, g21, g22 = coeffs.blocks(g)
    s1, s2 = coeffs.sigma_rows(s)

    scale = max(1.0, np.abs(g).max(), np.abs(s @ s.T).max())
    q = _solve_lyapunov(g22, s2 @ s2.T)

    res_white = np.abs(g11 + g11.T - s1 @ s1.T).max() if n else 0.0
    res_coupling = np.abs(g12 @ q + g21.T - s1 @ s2.T).max()
    res_aux = np.abs(g22 @ q + q @ g22.T - s2 @ s2.T).max()
    if res_white > _FDT_RTOL * scale or res_coupling > _FDT_RTOL * scale:
        raise InconsistentError(
            "fluctuation-dissipation blocks are inconsistent: white defect "
            f"{res_white:.3e}, coupling defect {res_coupling:.3e}")
    eigs = np.linalg.eigvalsh(q)
    if eigs.min() <= PD_EIG_TOL * max(1.0, np.abs(q).max()):
        raise NotPositiveError(f"solved Q is not positive definite (min eig {eigs.min():.3e})")
    return FdtResult(q, res_white, res_coupling, res_aux)


def verify_fdt(coeffs, Q, grid=None):
    """Max over the grid of the max-norm defect of the full relation
    Gamma(q) diag(I,Q) + diag(I,Q) Gamma(q)' - Sigma(q) Sigma(q)'."""
    grid = _grid_array(coeffs, grid)
    Q = _as_matrix(Q, (coeffs.m, coeffs.m), "Q")
    d = np.zeros((coeffs.n + coeffs.m,) * 2)
    d[:coeffs.n, :coeffs.n] = np.eye(coeffs.n)
    d[coeffs.n:, coeffs.n:] = Q
    g = coeffs.gamma(grid)
    s = coeffs.sigma(grid)
    defect = g @ d + d @ np.swapaxes(g, -1, -2) - s @ np.swapaxes(s, -1, -2)
    return float(np.abs(defect).max())


NOT_APPLICABLE = object()
"""Marker returned by purecolor_check when G11 does not vanish."""


def purecolor_check(coeffs, Q, grid=None):
    """Constraint forced by FDT in the absence of a white-noise block.

    With G11 = 0 everywhere, positive semidefiniteness of the block relation
    forces G12(q) Q = -G21(q)' for all q; returns the max violation, or the
    NOT_APPLICABLE marker when some G11(q) is nonzero on the grid.
    """
    grid = _grid_array(coeffs, grid)
    Q = _as_matrix(Q, (coeffs.m, coeffs.m), "Q")
    g = coeffs.gamma(grid)
    g11, g12, g21, _ = coeffs.blocks(g)
    if np.abs(g11).max() > _G11_ZERO_TOL * max(1.0, np.abs(g).max()):
        return NOT_APPLICABLE
    violation = g12 @ Q + np.swapaxes(g21, -1, -2)
    return float(np.abs(violation).max())


def stability_margin(coeffs, grid=None):
    """Min over the grid of the smallest real part of the spectrum of
    Gamma(q); positive return certifies -Gamma(q) stable on the grid."""
    grid = _grid_array(coeffs, grid)
    g = coeffs.gamma(grid)
    try:
        eigs = np.linalg.eigvals(g)
    except np.linalg.LinAlgError as err:
        raise NumericalFailureError(f"eigenvalue iteration failed: {err}") from err
    return float(eigs.real.min())


def gibbs_log_density(state, model):
    """Unnormalized log of the invariant density,
    -beta [U(q) + p' M^-1 p / 2 + s' Q^-1 s / 2]."""
    if not model.force.is_conservative:
        raise NonConservativeError("Gibbs density needs a conservative force")
    if model.Q is None:
        raise ValueError("model has no auxiliary covariance Q")
    q = model.domain.reduce(state.q)
    u = model.force.potential(q)
    kinetic = 0.5 * state.p @ model.mass_inv @ state.p
    aux = 0.5 * state.s @ np.linalg.solve(model.Q, state.s)
    return float(-model.beta * (u + kinetic + aux))
