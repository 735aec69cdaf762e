"""Memory kernels and their Markovian coefficient representations.

The dissipation kernel of a constant-coefficient model is

    K(tau) = delta(tau) G11 - G12 expm(-G22 tau) G21,

a Dirac part plus a matrix-exponential colored part; a Prony series
sum_i c_i exp(-alpha_i tau) is the diagonal special case.  This module
evaluates kernels, builds coefficient fields from Prony modes, handles the
Ford-Kac cosine kernel of an explicit harmonic bath, and assembles the
non-equilibrium kernel pair for models without fluctuation-dissipation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg import expm

from .errors import UnstableError
from .model import CoefficientField, _as_matrix

__all__ = [
    "MemoryKernel",
    "FordKacSpectrum",
    "NoneqKernels",
    "kernel_eval",
    "noise_covariance_eval",
    "coeffs_from_prony",
    "fordkac_kernel",
    "fordkac_spectrum_for_exponential",
    "spectral_density",
    "noneq_kernels",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Dirac part plus colored part of a dissipation kernel.

    ``colored_kind`` is "matrix_exp" (blocks g12, g22, g21) or "prony"
    (modes list of (c_i, alpha_i) with positive entries).
    """

    n: int
    delta_part: np.ndarray
    colored_kind: str
    g12: np.ndarray = None
    g22: np.ndarray = None
    g21: np.ndarray = None
    modes: Tuple[Tuple[float, float], ...] = None

    def __post_init__(self):
        object.__setattr__(self, "delta_part",
                           _as_matrix(self.delta_part, (self.n, self.n), "delta_part"))
        if self.colored_kind == "matrix_exp":
            m = _as_matrix(self.g22).shape[0]
            object.__setattr__(self, "g12", _as_matrix(self.g12, (self.n, m), "g12"))
            object.__setattr__(self, "g22", _as_matrix(self.g22, (m, m), "g22"))
            object.__setattr__(self, "g21", _as_matrix(self.g21, (m, self.n), "g21"))
        elif self.colored_kind == "prony":
            modes = tuple((float(c), float(a)) for c, a in self.modes)
            if any(c <= 0 or a <= 0 for c, a in modes):
                raise ValueError("prony modes need c_i > 0 and alpha_i > 0")
            object.__setattr__(self, "modes", modes)
        else:
            raise ValueError(f"unknown colored kind {self.colored_kind!r}")

    @classmethod
    def from_prony(cls, modes, n=1):
        return cls(n=n, delta_part=np.zeros((n, n)), colored_kind="prony",
                   modes=tuple(modes))

    @classmethod
    def from_coeffs(cls, coeffs):
        """Matrix-exponential kernel of a constant coefficient field."""
        if not coeffs.constant:
            raise ValueError("kernel extraction needs constant coefficients")
        g11, g12, g21, g22 = coeffs.blocks(coeffs.gamma())
        return cls(n=coeffs.n, delta_part=g11, colored_kind="matrix_exp",
                   g12=g12, g22=g22, g21=g21)


def kernel_eval(kernel, tau):
    """Colored part of the kernel at lag tau >= 0 (n x n matrix).

    matrix_exp: -G12 expm(-G22 tau) G21; prony: the diagonal embedding of
    sum_i c_i exp(-alpha_i tau).
    """
    if tau < 0:
        raise ValueError("kernel lag must be nonnegative")
    if kernel.colored_kind == "matrix_exp":
        return -kernel.g12 @ expm(-kernel.g22 * tau) @ kernel.g21
    value = sum(c * np.exp(-a * tau) for c, a in kernel.modes)
    return value * np.eye(kernel.n)


def noise_covariance_eval(coeffs, Q, beta, tau):
    """Colored part of the stationary random-force covariance at lag tau,
    beta^-1 G12 expm(-G22 tau) Q G12'.

    Whenever G12 Q = -G21' (no white block), this equals beta^-1 times the
    colored kernel part, the fluctuation-dissipation statement at the level
    of covariances.
    """
    if tau < 0:
        raise ValueError("lag must be nonnegative")
    if not coeffs.constant:
        raise ValueError("stationary noise covariance needs constant coefficients")
    Q = _as_matrix(Q, (coeffs.m, coeffs.m), "Q")
    _, g12, _, g22 = coeffs.blocks(coeffs.gamma())
    return (g12 @ expm(-g22 * tau) @ Q @ g12.T) / beta


def coeffs_from_prony(modes, n=1):
    """Constant coefficient field embedding a Prony kernel, with Q = I.

    Per scalar mode (c, alpha): coupling entries -sqrt(c) (upper) and
    +sqrt(c) (lower), auxiliary drift alpha on the diagonal, auxiliary noise
    sqrt(2 alpha); no white block.  For n > 1 each mode is embedded
    diagonally, so m = len(modes) * n.

    Returns (CoefficientField, Q).
    """
    modes = [(float(c), float(a)) for c, a in modes]
    if not modes:
        raise ValueError("need at least one mode")
    if any(c <= 0 or a <= 0 for c, a in modes):
        raise ValueError("prony modes need c_i > 0 and alpha_i > 0")
    k = len(modes)
    m = k * n
    dim = n + m
    gamma = np.zeros((dim, dim))
    sigma = np.zeros((dim, dim))
    for i, (c, a) in enumerate(modes):
        r = np.sqrt(c)
        rows = slice(n + i * n, n + (i + 1) * n)
        gamma[:n, rows] = -r * np.eye(n)
        gamma[rows, :n] = r * np.eye(n)
        gamma[rows, rows] = a * np.eye(n)
        sigma[rows, rows] = np.sqrt(2.0 * a) * np.eye(n)
    coeffs = CoefficientField(n, m, gamma=gamma, sigma=sigma)
    return coeffs, np.eye(m)


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


def fordkac_kernel(spectrum, t):
    """Exact bath kernel sum_i k_i cos(omega_i t); even in t."""
    if len(spectrum) == 0:
        return 0.0 * np.asarray(t, dtype=float)
    t = np.asarray(t, dtype=float)
    k = spectrum.stiffness
    w = spectrum.omega
    return np.tensordot(np.cos(np.multiply.outer(t, w)), k, axes=([-1], [0]))


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


def spectral_density(kernel, k):
    """Spectral density of a Prony kernel, sum_i c_i alpha_i /
    (pi (alpha_i^2 + k^2)); even, positive, integrates to sum_i c_i."""
    if kernel.colored_kind != "prony":
        raise ValueError("spectral density is implemented for prony kernels")
    k = np.asarray(k, dtype=float)
    out = np.zeros_like(k, dtype=float)
    for c, a in kernel.modes:
        out = out + c * a / (np.pi * (a**2 + k**2))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NoneqKernels:
    """Dissipation kernel K1 and noise covariance K2 of a model without
    fluctuation-dissipation, plus the stacked coefficient field."""

    k1_delta: np.ndarray
    k2_delta: np.ndarray
    coeffs: CoefficientField
    _g1: tuple = None
    _g2: tuple = None

    def k1(self, t):
        """Colored part of the dissipation kernel."""
        g11, g12, g21, g22 = self._g1
        return -g12 @ expm(-g22 * t) @ g21

    def k2(self, t):
        """Colored part of the random-force covariance."""
        g12, g22 = self._g2
        return g12 @ expm(-g22 * t) @ g12.T


def _stable_or_raise(g22, name):
    eigs = np.linalg.eigvals(g22)
    if eigs.real.min() <= 0:
        raise UnstableError(f"-{name} is not stable (min real part "
                            f"{eigs.real.min():.3e})")


def noneq_kernels(g1_blocks, g2_blocks, sigma_blocks):
    """Assemble the kernel pair of the stacked non-equilibrium model.

    ``g1_blocks`` = (G11, G12, G21, G22) with shapes (n,n), (n,mh), (mh,n),
    (mh,mh) drives the dissipation; ``g2_blocks`` = (G12, G22) drives the
    colored noise; ``sigma_blocks`` = (S11, S22) are the white-noise factor
    and the auxiliary noise factor of the noise branch.  K1(t) =
    delta(t) G11 - G12 expm(-t G22) G21 and K2(t) = 2 delta(t) S11 +
    G12 expm(-t G22) G12'.  Also builds the (n + 2 mh)-dimensional constant
    coefficient field stacking both branches.
    """
    g11_1, g12_1, g21_1, g22_1 = (np.atleast_2d(np.asarray(b, dtype=float))
                                  for b in g1_blocks)
    g12_2, g22_2 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in g2_blocks)
    s11, s22 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in sigma_blocks)
    n = g11_1.shape[0]
    mh = g22_1.shape[0]
    # a branch with no coupling contributes no colored part, so its
    # auxiliary drift need not be stable
    if np.abs(g12_1).max() > 0 or np.abs(g21_1).max() > 0:
        _stable_or_raise(g22_1, "G22 (dissipation branch)")
    if np.abs(g12_2).max() > 0:
        _stable_or_raise(g22_2, "G22 (noise branch)")

    dim = n + 2 * mh
    gamma = np.zeros((dim, dim))
    gamma[:n, :n] = g11_1
    gamma[:n, n:n + mh] = g12_1
    gamma[:n, n + mh:] = g12_2
    gamma[n:n + mh, :n] = g21_1
    gamma[n:n + mh, n:n + mh] = g22_1
    gamma[n + mh:, n + mh:] = g22_2
    sigma = np.zeros((dim, dim))
    sigma[:n, :n] = s11
    sigma[n + mh:, n + mh:] = s22
    coeffs = CoefficientField(n, 2 * mh, gamma=gamma, sigma=sigma)
    return NoneqKernels(k1_delta=g11_1, k2_delta=2.0 * s11, coeffs=coeffs,
                        _g1=(g11_1, g12_1, g21_1, g22_1),
                        _g2=(g12_2, g22_2))
