"""Executable ergodicity certificates.

Each check in this module turns one hypothesis of the convergence theory
into a numeric verdict with a margin: spectral stability of the friction
matrix, algebraic Hoermander (rank) conditions, Lyapunov matrices and
sampled drift inequalities, positive-definiteness grids for position
dependent coefficients, and potential growth conditions on unbounded
domains.  Sampled checks certify the inequality on their sample set only
and say so in their notes.  The witness searches stop at the module
constants _DOUBLINGS and _REFINEMENTS: a SearchExhaustedError means that a
search stopped looking, not that no certificate exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .errors import (
    InfeasibleError,
    NumericalFailureError,
    SearchExhaustedError,
    SolveFailureError,
    UnstableError,
)
from .model import PD_EIG_TOL, _as_matrix, _grid_array, _solve_lyapunov

__all__ = [
    "Certificate",
    "SchurResult",
    "schur_psd",
    "hormander_const_check",
    "LyapunovMatrix",
    "lyapunov_matrix_const",
    "drift_samples",
    "DriftConstants",
    "lyapunov_drift_constants",
    "unbounded_certificate",
    "PosdepVerification",
    "posdep_certificate_verify",
    "posdep_certificate_search",
    "potential_growth_check",
]

RANK_TOL = 1e-10  # relative to the largest singular value
_LYAPUNOV_RTOL = 1e-9  # residual bound of lyapunov_matrix_const
_Q_RADIUS = 5.0  # half-width of the euclidean q cube of drift_samples
_FD_RTOL = 1e-6  # closed-form vs finite-difference generator, relative
_GROWTH_DIRECTIONS = 64  # sphere points per radius of potential_growth_check
_GROWTH_TOL = 1e-9  # smallest growth rate E that potential_growth_check accepts
_DOUBLINGS = 60  # values tried by each doubling search of unbounded_certificate
_REFINEMENTS = 50  # refinement rounds of posdep_certificate_search


@dataclass(frozen=True)
class Certificate:
    """Outcome of one certificate check.

    ``margin`` is positive iff satisfied, except for rank conditions where
    the margin is achieved rank minus required rank (zero at satisfaction).
    """

    kind: str
    satisfied: bool
    margin: float
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def summary(self):
        status = "satisfied" if self.satisfied else "UNSATISFIED"
        return f"{self.kind:<20} {status:<12} margin {self.margin:+.6g}  {self.notes}"


# ---------------------------------------------------------------------------
# Schur positive-definiteness utility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurResult:
    """Verdict of ``schur_psd`` on a symmetric block matrix."""

    psd: bool
    pd: bool
    margin: float  # min eigenvalue of the assembled matrix
    item: str      # which lemma branch decided


def _min_eig(a):
    return float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())


def _is_pd(a, scale=None):
    scale = scale if scale is not None else max(1.0, np.abs(a).max())
    return _min_eig(a) > PD_EIG_TOL * scale


def _is_psd(a, scale=None):
    scale = scale if scale is not None else max(1.0, np.abs(a).max())
    return _min_eig(a) >= -1e-10 * scale


def schur_psd(a11, a12, a22):
    """Decide positive (semi)definiteness of [[A11, A12], [A12', A22]].

    Decided through Schur complements: against A22 when A22 is positive
    definite, against A11 when A11 is, and through the generalized-inverse
    branch (pseudo-inverse complement plus the range condition
    (I - A22 A22^g) A12' = 0) when A22 is singular.  The reported margin is
    the smallest eigenvalue of the assembled matrix.
    """
    a11 = np.atleast_2d(np.asarray(a11, dtype=float))
    a12 = np.atleast_2d(np.asarray(a12, dtype=float))
    a22 = np.atleast_2d(np.asarray(a22, dtype=float))
    n, m = a12.shape
    assembled = np.block([[a11, a12], [a12.T, a22]])
    scale = max(1.0, np.abs(assembled).max())
    if np.abs(assembled - assembled.T).max() > 1e-12 * scale:
        raise ValueError("assembled matrix is not symmetric")
    margin = _min_eig(assembled)

    if _is_pd(a22, scale):
        comp, item = a11 - a12 @ np.linalg.solve(a22, a12.T), "i"
    elif _is_pd(a11, scale):
        comp, item = a22 - a12.T @ np.linalg.solve(a11, a12), "ii"
    else:
        a22g = np.linalg.pinv(a22, rcond=1e-12)
        range_defect = np.abs((np.eye(m) - a22 @ a22g) @ a12.T).max()
        comp = a11 - a12 @ a22g @ a12.T
        psd = (_is_psd(a22, scale) and _is_psd(comp, scale)
               and range_defect <= 1e-10 * scale)
        # a singular diagonal block rules out strict definiteness
        return SchurResult(psd=psd, pd=False, margin=margin, item="iii")
    return SchurResult(psd=_is_psd(comp, scale), pd=_is_pd(comp, scale),
                       margin=margin, item=item)


# ---------------------------------------------------------------------------
# Algebraic Hoermander conditions (constant coefficients)
# ---------------------------------------------------------------------------

def _rank(mat):
    """Numerical rank: the number of singular values above RANK_TOL times
    the largest (0 for an empty or zero matrix)."""
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_TOL * svals[0]))


def _krylov_rank(s, seeds, required):
    """Dimension of span{s^k v : v in seeds} iterated until it stabilizes."""
    dim = s.shape[0]
    vectors = [v for v in seeds if np.abs(v).max() > 0]
    rank = _rank(np.reshape(vectors, (-1, dim)).T)
    frontier = list(vectors)
    for _ in range(required):
        frontier = [s @ v for v in frontier]
        new_rank = _rank(np.reshape(vectors + frontier, (-1, dim)).T)
        if new_rank == rank:
            break
        vectors += frontier
        rank = new_rank
        if rank >= required:
            break
    return rank


def hormander_const_check(coeffs, mode, H=None):
    """Algebraic sufficient conditions for the parabolic Hoermander property.

    mode "i"  : with linear force data H, Krylov iteration of the lifted
                noise columns (0, Sigma_i) under the full drift Jacobian;
                requires rank 2n+m.
    mode "ii" : force-free drift Jacobian; per-column saturation indices
                k_i (the first power whose momentum block is nonzero,
                capped at n+m) and the span of {Gamma^k Sigma_i : k <= k_i};
                requires rank n+m.
    mode "iii": rank(Sigma_2) = m and rank(Gamma_12) = n.

    Returns a Certificate; an unsatisfied condition is a valid result.
    """
    if not coeffs.constant:
        raise ValueError("algebraic Hoermander conditions need constant coefficients")
    gamma = coeffs.gamma()
    sigma = coeffs.sigma()
    n, m = coeffs.n, coeffs.m
    dim = n + m
    if mode == "i":
        if H is None:
            raise ValueError("mode i needs the linear force matrix H")
        H = _as_matrix(H, (n, n), "H")

    g12 = gamma[:n, n:]
    s2 = sigma[n:, :]

    if mode == "iii":
        rank_s2 = _rank(s2)
        rank_g12 = _rank(g12)
        achieved = rank_s2 + rank_g12
        required = m + n
        return Certificate(
            kind="hormander", satisfied=achieved >= required,
            margin=float(achieved - required),
            witness={"mode": "iii", "rank_sigma2": int(rank_s2),
                     "rank_gamma12": int(rank_g12)},
            notes=f"rank(Sigma2)={rank_s2}/{m}, rank(Gamma12)={rank_g12}/{n}")

    if mode == "i":
        s = -np.block([
            [np.zeros((n, n)), -np.eye(n), np.zeros((n, m))],
            [H, gamma[:n, :n], g12],
            [np.zeros((m, n)), gamma[n:, :n], gamma[n:, n:]],
        ])
        seeds = [np.concatenate([np.zeros(n), sigma[:, i]]) for i in range(dim)]
        required = 2 * n + m
        achieved = _krylov_rank(s, seeds, required)
        return Certificate(
            kind="hormander", satisfied=achieved >= required,
            margin=float(achieved - required),
            witness={"mode": "i", "achieved_rank": achieved, "required_rank": required},
            notes=f"Krylov rank {achieved}/{required}")

    if mode != "ii":
        raise ValueError(f"unknown mode {mode!r}")

    # mode ii: per column, the powers Gamma^k Sigma_i up to the saturation
    # index k_i (the first with a momentum block, or dim), kept for the span
    vectors = []
    k_indices = []
    for i in range(dim):
        col = sigma[:, i]
        if np.abs(col).max() == 0:
            k_indices.append(0)
            continue
        powers = [col.copy()]
        while len(powers) <= dim:
            last = powers[-1]
            p_part = np.abs(last[:n]).max() if n else 0.0
            if p_part > RANK_TOL * max(1.0, np.abs(last).max()):
                break
            powers.append(gamma @ last)
        k_indices.append(len(powers) - 1)
        vectors += powers
    achieved = _rank(np.reshape(vectors, (-1, dim)).T)
    required = dim
    return Certificate(
        kind="hormander", satisfied=achieved >= required,
        margin=float(achieved - required),
        witness={"mode": "ii", "achieved_rank": achieved,
                 "required_rank": required, "saturation_indices": k_indices},
        notes=f"span rank {achieved}/{required}")


# ---------------------------------------------------------------------------
# Lyapunov matrix for constant coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovMatrix:
    """SPD solution of Gamma' C + C Gamma = lam * rhs with min eig(C) = 1."""

    C: np.ndarray
    lam: float
    residual: float


def lyapunov_matrix_const(gamma):
    """Solve Gamma' C + C Gamma = I and rescale min eig(C) to 1.

    Stability of -Gamma is checked first (it guarantees existence).  The
    equation is solved by Bartels-Stewart; the residual is re-verified by
    plain matrix multiplication, relative to the scaled right-hand side,
    and must not exceed _LYAPUNOV_RTOL.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    dim = gamma.shape[0]
    rhs = np.eye(dim)
    eigs = np.linalg.eigvals(gamma)
    margin = float(eigs.real.min())
    if margin <= 0:
        raise UnstableError(f"-Gamma is not stable (margin {margin:.3e})")

    c = _solve_lyapunov(gamma.T, rhs)
    if not np.all(np.isfinite(c)):
        raise SolveFailureError("Lyapunov solve returned nonfinite values")
    min_eig = float(np.linalg.eigvalsh(c).min())
    if min_eig <= 0:
        raise SolveFailureError("Lyapunov solution is not positive definite")
    c_scaled = c / min_eig
    lam = 1.0 / min_eig
    defect = gamma.T @ c_scaled + c_scaled @ gamma - lam * rhs
    residual = float(np.abs(defect).max() / max(1.0, abs(lam)))
    if residual > _LYAPUNOV_RTOL:
        raise SolveFailureError(f"Lyapunov residual {residual:.3e} exceeds "
                                f"{_LYAPUNOV_RTOL:.1e}")
    return LyapunovMatrix(C=c_scaled, lam=lam, residual=residual)


# ---------------------------------------------------------------------------
# Sampled drift inequality
# ---------------------------------------------------------------------------

def _sphere_points(u, radii=1.0):
    """radii * v / |v| per row, v the normal quantiles of the uniform rows
    ``u``: uniform directions from low-discrepancy points."""
    directions = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return radii * directions / norms


def drift_samples(model, n_samples=4096, radius=20.0, seed=7):
    """Deterministic low-discrepancy states: torus-uniform q (or the
    euclidean cube of half-width _Q_RADIUS) and z in the ball of the given
    radius.

    Returns (q, p, s) arrays of shapes (N, n), (N, n), (N, m).
    """
    n, m = model.n, model.m
    d = n + m
    sobol = qmc.Sobol(d=n + d + 1, scramble=True, seed=seed)
    u = sobol.random(n_samples)
    if model.domain.is_torus:
        q = u[:, :n]
    else:
        q = _Q_RADIUS * (2.0 * u[:, :n] - 1.0)
    z = _sphere_points(u[:, n:n + d], radius * u[:, -1:] ** (1.0 / d))
    return q, z[:, :n], z[:, n:]


class _Candidate:
    """Drift family K_l = g^l + offset over the quadratic base z' C z.

    Without a potential, the torus family: g = z' C z, offset 1.  With one,
    the unbounded-domain family: g = z' C z + |q|^2 + 2 <p, q>
    + w (V(q) - u_min) + 1, offset 0.
    """

    def __init__(self, C, l, potential=None, grad_potential=None, weight=0.0,
                 u_min=0.0):
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.l = int(l)
        self.offset = 1.0 if potential is None else 0.0
        self.potential = potential
        self.grad_potential = grad_potential
        self.weight = float(weight)
        self.u_min = float(u_min)

    def g(self, q, p, s):
        z = np.concatenate([p, s], axis=-1)
        quad = np.einsum("...i,ij,...j->...", z, self.C, z)
        if self.potential is None:
            return quad
        v = np.asarray(self.potential(np.atleast_2d(q)), dtype=float)
        v = v[0] if q.ndim == 1 else v
        return (quad + np.sum(q * q, axis=-1) + 2.0 * np.sum(p * q, axis=-1)
                + self.weight * (v - self.u_min) + 1.0)

    def grad_q(self, q, p, s):
        if self.potential is None:
            return np.zeros_like(q)
        gv = np.asarray(self.grad_potential(np.atleast_2d(q)), dtype=float)
        gv = gv[0] if q.ndim == 1 else gv
        return 2.0 * q + 2.0 * p + self.weight * gv

    def grad_z(self, q, p, s):
        z = np.concatenate([p, s], axis=-1)
        out = 2.0 * z @ self.C.T
        if self.potential is not None:
            out[..., :q.shape[-1]] += 2.0 * q
        return out

    def value(self, q, p, s):
        return self.g(q, p, s) ** self.l + self.offset


def _apply_generator(model, cand, q, p, s):
    """Analytic L K on a batch for K = g^l + offset.

    L(g^l) = l g^{l-1} [drift . grad g + (beta^-1/2) Sigma Sigma' : hess_zz g]
             + (beta^-1/2) l (l-1) g^{l-2} (grad_z g)' Sigma Sigma' (grad_z g).
    """
    beta_inv = 1.0 / model.beta
    minv = model.mass_inv
    gmat = model.coeffs.gamma(q)
    smat = model.coeffs.sigma(q)
    force = model.force(q)
    zhat = np.concatenate([p @ minv.T, s], axis=-1)
    drift_z = -np.einsum("rij,rj->ri", gmat, zhat)
    drift_z[:, :model.n] += force

    g_val = cand.g(q, p, s)
    grad_q = cand.grad_q(q, p, s)
    grad_z = cand.grad_z(q, p, s)
    hess = 2.0 * cand.C  # Hessian of g in z
    diffusion = np.einsum("rik,rjk->rij", smat, smat)  # Sigma Sigma'
    trace_term = 0.5 * beta_inv * np.einsum("rij,ji->r", diffusion, hess)
    quad_term = np.einsum("ri,rij,rj->r", grad_z, diffusion, grad_z)

    first_order = (np.sum((p @ minv.T) * grad_q, axis=-1)
                   + np.sum(drift_z * grad_z, axis=-1))
    l = cand.l
    out = l * g_val ** (l - 1) * (first_order + trace_term)
    if l > 1:
        out = out + 0.5 * beta_inv * l * (l - 1) * g_val ** (l - 2) * quad_term
    return out


def _fd_generator(model, cand, q, p, s, h=1e-4):
    """Generator assembled from central finite differences of K itself."""
    n, m = model.n, model.m
    x = np.concatenate([q, p, s])

    def kval(vec):
        return cand.value(vec[:n], vec[n:2 * n], vec[2 * n:])

    dim = 2 * n + m
    grad = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        grad[i] = (kval(x + e) - kval(x - e)) / (2 * h)
    hess_z = np.zeros((n + m, n + m))
    for i in range(n + m):
        for j in range(n + m):
            ei = np.zeros(dim)
            ej = np.zeros(dim)
            ei[n + i] = h
            ej[n + j] = h
            hess_z[i, j] = (kval(x + ei + ej) - kval(x + ei - ej)
                            - kval(x - ei + ej) + kval(x - ei - ej)) / (4 * h * h)
    minv = model.mass_inv
    gmat = model.coeffs.gamma(q)
    smat = model.coeffs.sigma(q)
    force = model.force(q)
    zhat = np.concatenate([minv @ p, s])
    drift_z = -gmat @ zhat
    drift_z[:n] += force
    diffusion = smat @ smat.T
    return (float((minv @ p) @ grad[:n]) + float(drift_z @ grad[n:])
            + 0.5 / model.beta * float(np.sum(diffusion * hess_z)))


@dataclass(frozen=True)
class DriftConstants:
    """Sampled drift certificate: L K <= -a K + b on the sample set."""

    a: float
    b: float
    n_samples: int
    quantile_value: float
    notes: str = "sampled drift inequality; holds on the sample set only"


def lyapunov_drift_constants(model, C, l, samples=None, potential_weight=1.0):
    """Fit drift constants (a, b) with L K <= -a K + b on sampled states.

    K is the quadratic torus family (z' C z)^l + 1 or, on euclidean domains,
    the quadratic-plus-potential family with matrix C (then ``C`` must be the
    coupled (n+m) matrix, ``potential_weight`` the weight of the potential
    term and the model force conservative).  The generator is applied in
    closed form (polynomial calculus on the quadratic base); on every call,
    three sample points cross-check the result against a finite-difference
    assembly of the generator from spatial derivatives of K, and a relative
    disagreement above _FD_RTOL raises NumericalFailureError.  The
    euclidean family's potential floor is the minimum of U over the samples.

    a is the smallest normalized dissipation over the high-K samples (above
    the median of K) after subtracting the low-K ceiling b0; b is then
    raised just enough that the inequality holds on every sample.
    Raises InfeasibleError when a <= 0.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if samples is None:
        samples = drift_samples(model)
    q, p, s = (np.atleast_2d(np.asarray(arr, dtype=float)) for arr in samples)
    if q.shape[1] != model.n or p.shape[1] != model.n or s.shape[1] != model.m:
        raise ValueError("sample shapes do not match the model dimensions")
    if q.shape[0] < 8:
        raise ValueError("need at least 8 samples")

    if model.domain.is_torus:
        cand = _Candidate(C, l)
    else:
        if not model.force.is_conservative:
            raise ValueError("euclidean drift family needs a conservative force")
        cand = _Candidate(C, l, model.force.potential, model.force.grad_potential,
                          potential_weight, np.min(model.force.potential(q)))

    k_vals = cand.value(q, p, s)
    l_vals = _apply_generator(model, cand, q, p, s)

    rng = np.random.Generator(np.random.Philox(key=99))
    for i in rng.choice(q.shape[0], size=3, replace=False):
        fd = _fd_generator(model, cand, q[i], p[i], s[i])
        scale = max(abs(fd), abs(l_vals[i]), 1.0)
        if abs(fd - l_vals[i]) > _FD_RTOL * scale:
            raise NumericalFailureError(
                f"analytic generator {l_vals[i]:.6e} disagrees with the "
                f"finite-difference assembly {fd:.6e} at sample {i}")

    threshold = float(np.quantile(k_vals, 0.5))
    large = k_vals >= threshold
    small = ~large
    b0 = max(0.0, float(l_vals[small].max())) if small.any() else 0.0
    if not large.any():
        raise ValueError("no samples above the K quantile")
    a = float(np.min((b0 - l_vals[large]) / k_vals[large]))
    if a <= 0:
        raise InfeasibleError(f"no positive drift constant on the samples (a={a:.3e})")
    b = max(b0 + a, float(np.max(l_vals + a * k_vals)))
    return DriftConstants(a=a, b=b, n_samples=q.shape[0], quantile_value=threshold)


# ---------------------------------------------------------------------------
# Unbounded-domain Lyapunov witness search
# ---------------------------------------------------------------------------

def _chat_matrix(n, m, A, B, g21, q_inv):
    return np.block([
        [np.eye(n), np.eye(n), np.zeros((n, m))],
        [np.eye(n), B * np.eye(n), A * g21.T],
        [np.zeros((m, n)), A * g21, B * q_inv],
    ])


# Drift forms of -1/2 L(x' C_hat x) over x = (q, p, s), row block = left
# variable.  R_hat drops the A G21 G11 term of its (s, p) block: the
# white-block branch searches at A = 0.

def _rhat_matrix(n, m, A, B, E, g11, g12, g21, g22, q_inv):
    return np.block([
        [E * np.eye(n), np.zeros((n, n)), np.zeros((n, m))],
        [-np.eye(n) + g11.T, -np.eye(n) + B * g11 + A * g21.T @ g21,
         B * g21.T @ q_inv],
        [g12.T, A * g22.T @ g21 + B * g12.T, A * g21 @ g12 + B * q_inv @ g22],
    ])


def _rtilde_matrix(n, m, A, B, E, hbar, sign, g12, g21, g22, q_inv):
    return np.block([
        [E * np.eye(n), np.zeros((n, n)), sign * A * hbar * g21.T],
        [-np.eye(n), -np.eye(n) + A * g21.T @ g21, np.zeros((n, m))],
        [g12.T, A * g22.T @ g21, A * g21 @ g12 + B * q_inv @ g22],
    ])


def unbounded_certificate(coeffs, Q, growth_E, hbar=None):
    """Search quadratic-form witnesses (A, B) for the unbounded-domain drift.

    Two branches, selected by the white block:

    * rank(G11) = n: A = 0 and B doubles until both the base quadratic form
      C_hat(0, B) and the symmetric part of the drift form R_hat(0, B, E)
      are positive definite.
    * G11 = 0: A doubles from the smallest value making
      -I + A G21' G21 positive definite (G21 must be injective), then B
      doubles until C_hat(A, B) and the symmetric parts of both sign
      branches of the force-bound form R_tilde(A, B, E; hbar) are positive
      definite.  ``hbar`` is the linear-growth bound of the force.

    Each doubling search takes _DOUBLINGS values.  SearchExhaustedError
    means that the search stopped looking, not that no witness exists.
    """
    if not coeffs.constant:
        raise ValueError("unbounded certificate needs constant coefficients")
    n, m = coeffs.n, coeffs.m
    g11, g12, g21, g22 = coeffs.blocks(coeffs.gamma())
    Q = _as_matrix(Q, (m, m), "Q")
    q_inv = np.linalg.inv(Q)
    E = float(growth_E)
    if E <= 0:
        raise ValueError("growth constant E must be positive")
    doublings = [2.0 ** j for j in range(_DOUBLINGS)]  # x * 2^j is exact

    if _rank(g11) == n:
        pairs = ((0.0, B) for B in doublings)
        keys = ("margin_base", "margin_drift")
        notes = "white-block branch (rank G11 = n), A = 0"
        exhausted = "B doubling cap hit on the white-block branch"

        def forms(A, B):
            return (_chat_matrix(n, m, A, B, g21, q_inv),
                    _rhat_matrix(n, m, A, B, E, g11, g12, g21, g22, q_inv))
    else:
        if np.abs(g11).max() > 0:
            raise ValueError("G11 must be zero or have full rank n")
        if hbar is None:
            raise ValueError("the G11 = 0 branch needs the force bound hbar")
        gram = g21.T @ g21
        a0 = next((A for A in doublings
                   if _min_eig(-np.eye(n) + A * gram) > 0), None)
        if a0 is None:
            raise SearchExhaustedError(
                "-I + A G21' G21 never became positive definite (G21 singular?)")
        pairs = ((a0 * a, B) for a in doublings for B in doublings)
        keys = ("margin_base", "margin_drift_plus", "margin_drift_minus")
        notes = "pure-colored branch (G11 = 0)"
        exhausted = "doubling caps hit on the pure-colored branch"

        def forms(A, B):
            return (_chat_matrix(n, m, A, B, g21, q_inv),
                    *(_rtilde_matrix(n, m, A, B, E, hbar, sign, g12, g21, g22,
                                     q_inv) for sign in (+1.0, -1.0)))

    # _min_eig takes the symmetric part of each form
    for A, B in pairs:
        margins = [_min_eig(form) for form in forms(A, B)]
        if min(margins) > 0:
            return Certificate(
                kind="lyapunov_unbounded", satisfied=True,
                margin=float(min(margins)),
                witness={"A": A, "B": B, **dict(zip(keys, margins))},
                notes=notes)
    raise SearchExhaustedError(exhausted)


# ---------------------------------------------------------------------------
# Position-dependent certificate grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosdepVerification:
    """Eigenvalue table of Gamma(q) C + C Gamma(q)' over a grid."""

    margin: float
    grid: np.ndarray
    eigenvalues: np.ndarray  # (G, n+m), ascending per row


def posdep_certificate_verify(coeffs, C, grid):
    """Min over the grid of the smallest eigenvalue of
    Gamma(q) C + C Gamma(q)', with the per-point eigenvalue table."""
    grid = _grid_array(coeffs, grid)
    C = _as_matrix(C, (coeffs.n + coeffs.m,) * 2, "C")
    g = coeffs.gamma(grid)
    r = g @ C + C @ np.swapaxes(g, -1, -2)
    eigs = np.linalg.eigvalsh(0.5 * (r + np.swapaxes(r, -1, -2)))
    return PosdepVerification(margin=float(eigs.min()), grid=grid, eigenvalues=eigs)


def posdep_certificate_search(coeffs, grid):
    """Find C SPD with Gamma(q) C + C Gamma(q)' positive definite on the grid.

    Starts from the grid-averaged Lyapunov equation mean(Gamma) C +
    C mean(Gamma)' = I; on failure, the worst-violating grid point's
    equation is stacked into a weighted least-squares system (weights double
    on repeats) and re-solved, up to _REFINEMENTS rounds.
    SearchExhaustedError means that the refinement stopped, not that no
    certificate exists.
    """
    grid = _grid_array(coeffs, grid)
    dim = coeffs.n + coeffs.m
    g = coeffs.gamma(grid)
    gbar = g.mean(axis=0)

    def solve_stacked(constraints):
        blocks = []
        targets = []
        for mat, weight in constraints:
            op = np.kron(np.eye(dim), mat) + np.kron(mat, np.eye(dim))
            blocks.append(weight * op)
            targets.append(weight * np.eye(dim).reshape(-1))
        lhs = np.vstack(blocks)
        rhs = np.concatenate(targets)
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        c = sol.reshape(dim, dim)
        return 0.5 * (c + c.T)

    constraints = [(gbar, 1.0)]
    weights = {}
    for _ in range(_REFINEMENTS + 1):
        c = solve_stacked(constraints)
        if np.all(np.isfinite(c)) and np.linalg.eigvalsh(c).min() > 0:
            result = posdep_certificate_verify(coeffs, c, grid)
            if result.margin > 0:
                return c
            worst = int(np.argmin(result.eigenvalues.min(axis=1)))
        else:
            worst = 0
        key = worst
        weights[key] = 2.0 * weights[key] if key in weights else 1.0
        constraints = [(gbar, 1.0)] + [
            (g[k], w) for k, w in sorted(weights.items())]
    raise SearchExhaustedError(
        f"no positive-definite certificate after {_REFINEMENTS} refinements")


# ---------------------------------------------------------------------------
# Potential growth check (unbounded domains)
# ---------------------------------------------------------------------------

def potential_growth_check(potential, grad_potential, n, radii, trial_D,
                           force=None):
    """Sampled growth certificate <q, grad V> >= D V + E |q|^2 + F.

    Directions are deterministic low-discrepancy points on the sphere,
    scaled to each radius.  For each trial D, the per-radius floor
    F(r) = min over the sphere of (<q, grad V> - D V - E |q|^2) is computed;
    E is feasible when this floor does not decrease toward the largest
    radius (the certificate looks for asymptotic-growth evidence, not mere
    feasibility on the finite sample, which any E would satisfy by pushing
    F down).  The best trend-feasible pair (largest D, then largest E) is
    reported; radius-limited literal feasibility at larger D goes into the
    notes.  The witness also carries G with <q, F(q)> <= -<q, grad V> + G
    when a force is supplied, and the sampled u_min.

    This is a sampled check on the given radii, not a proof; an unsatisfied
    outcome is a valid result.
    """
    radii = sorted(float(r) for r in np.atleast_1d(radii))
    if len(radii) < 2:
        raise ValueError("need at least two radii to assess the growth trend")
    trial_D = sorted(float(d) for d in np.atleast_1d(trial_D))

    if n == 1:
        directions = np.array([[1.0], [-1.0]])
    else:
        sobol = qmc.Sobol(d=n, scramble=True, seed=11)
        directions = _sphere_points(sobol.random(_GROWTH_DIRECTIONS))
    points = np.concatenate([r * directions for r in radii], axis=0)
    sphere_of = np.concatenate([np.full(len(directions), i)
                                for i in range(len(radii))])
    v = np.asarray(potential(points), dtype=float)
    gv = np.asarray(grad_potential(points), dtype=float)
    radial = np.sum(points * gv, axis=1)
    sqnorm = np.asarray(radii) ** 2

    u_min = float(v.min())
    g_const = None
    if force is not None:
        fvals = np.asarray(force(points), dtype=float)
        g_const = float(np.max(np.sum(points * fvals, axis=1) + radial))

    best = None
    notes = ["sampled growth check on radii "
             + ", ".join(f"{r:g}" for r in radii) + "; not a proof"]
    radius_limited = []
    for d in trial_D:
        slack = radial - d * v
        floors0 = np.array([slack[sphere_of == i].min()
                            for i in range(len(radii))])
        # per-sphere floor F(r; E) = floors0(r) - E r^2 decreases in E pair
        # by pair, so the largest E keeping the floor non-decreasing toward
        # the outer radius is the smallest consecutive difference quotient
        e_max = float(np.min(np.diff(floors0) / np.diff(sqnorm)))
        if e_max > _GROWTH_TOL:
            f_val = float(np.min(floors0 - e_max * sqnorm))
            best = (d, e_max, f_val)
        else:
            # literally satisfiable for any E by pushing F down, but the
            # floor shrinks toward the outer radius: no growth evidence
            radius_limited.append(d)

    if radius_limited:
        notes.append("radius-limited literal feasibility (floor decreases "
                     "with radius) at D = "
                     + ", ".join(f"{d:g}" for d in radius_limited))

    witness = {"u_min": u_min, "G": g_const}
    if best is None:
        return Certificate(kind="potential_growth", satisfied=False, margin=0.0,
                           witness=witness, notes="; ".join(notes))
    d, e, f_val = best
    witness.update({"D": d, "E": e, "F": f_val})
    return Certificate(kind="potential_growth", satisfied=True, margin=e,
                       witness=witness, notes="; ".join(notes))
