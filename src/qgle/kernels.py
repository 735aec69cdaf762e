"""Memory kernels and their Markovian coefficient representations.

The dissipation kernel of a constant-coefficient model is

    K(tau) = delta(tau) G11 - G12 expm(-G22 tau) G21,

a Dirac part plus a matrix-exponential colored part; a Prony series
sum_i c_i exp(-alpha_i tau) is the diagonal special case.  ``MemoryKernel``
is the one kernel type: ``kernel_eval`` and ``spectral_density`` work for
any of them, and the noise covariance and both kernels of the
non-equilibrium pair of models without fluctuation-dissipation are kernels
of this form.  This module also builds coefficient fields from Prony modes
(the kernel of an explicit bath is in ``qgle.fordkac``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, expm

from .errors import UnstableError, _located
from .model import CoefficientField, _as_matrix, _checked

__all__ = [
    "MemoryKernel",
    "NoneqKernels",
    "kernel_eval",
    "noise_covariance_eval",
    "coeffs_from_prony",
    "spectral_density",
    "noneq_kernels",
]


@dataclass(frozen=True)
class MemoryKernel:
    """K(tau) = delta(tau) G11 - G12 expm(-G22 tau) G21 of a
    constant-coefficient model: the Dirac part G11 (``delta_part``, n x n)
    and the blocks g12 (n x m), g22 (m x m) and g21 (m x n) of the colored
    part.  A shape error names the field at fault; g12 fixes n and m.
    """

    delta_part: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    g21: np.ndarray

    def __post_init__(self):
        n, m = _checked(("g12",), _as_matrix, self.g12, None, "g12").shape
        for name, shape in (("delta_part", (n, n)), ("g12", (n, m)),
                            ("g22", (m, m)), ("g21", (m, n))):
            object.__setattr__(self, name, _checked(
                (name,), _as_matrix, getattr(self, name), shape, name))

    @property
    def n(self):
        return self.delta_part.shape[0]

    @classmethod
    def from_prony(cls, modes, n=1):
        """Kernel of sum_i c_i exp(-alpha_i tau) I_n, with no Dirac part."""
        return cls.from_coeffs(coeffs_from_prony(modes, n)[0])

    @classmethod
    def from_coeffs(cls, coeffs):
        """Matrix-exponential kernel of a constant coefficient field."""
        if not coeffs.constant:
            raise ValueError("kernel extraction needs constant coefficients")
        g11, g12, g21, g22 = coeffs.blocks(coeffs.gamma())
        return cls(g11, g12, g22, g21)


def kernel_eval(kernel, tau):
    """Colored part -G12 expm(-G22 tau) G21 of the kernel at lag tau >= 0
    (n x n matrix)."""
    if tau < 0:
        raise ValueError("kernel lag must be nonnegative")
    return -kernel.g12 @ expm(-kernel.g22 * tau) @ kernel.g21


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
    covariance = MemoryKernel(np.zeros((coeffs.n, coeffs.n)), g12, g22, -Q @ g12.T)
    return kernel_eval(covariance, tau) / beta


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


def spectral_density(kernel, k):
    """Cosine transform (1/pi) int_0^inf K(t) cos(k t) dt of the colored
    part, (1/pi) Re[-G12 (G22 + i k I)^-1 G21], of shape ``k.shape + (n, n)``
    like ``kernel_eval``; even in k.  A Prony kernel gives sum_i c_i alpha_i /
    (pi (alpha_i^2 + k^2)) I_n, which integrates over k to sum_i c_i I_n."""
    shift = 1j * np.asarray(k, dtype=float)[..., None, None]
    shifted = kernel.g22 + shift * np.eye(kernel.g22.shape[0])
    rhs = np.broadcast_to(kernel.g21, shifted.shape[:-1] + (kernel.n,))
    return (-kernel.g12 @ np.linalg.solve(shifted, rhs)).real / np.pi


@dataclass(frozen=True)
class NoneqKernels:
    """Dissipation kernel K1 and random-force covariance K2 of a model
    without fluctuation-dissipation, plus the stacked coefficient field."""

    k1: MemoryKernel
    k2: MemoryKernel
    coeffs: CoefficientField


def _stable_or_raise(g22, name, *path):
    eigs = np.linalg.eigvals(g22)
    if eigs.real.min() <= 0:
        raise _located(UnstableError(f"-{name} is not stable (min real part "
                                     f"{eigs.real.min():.3e})"), *path)


def _branch(paths, *blocks):
    """``MemoryKernel(*blocks)``; a shape error carries the key path of its
    block, ``paths`` listing those of delta_part, g12, g22 and g21."""
    try:
        return MemoryKernel(*blocks)
    except ValueError as err:
        err.path = paths[("delta_part", "g12", "g22", "g21").index(err.path[0])]
        raise


def noneq_kernels(g1_blocks, g2_blocks, sigma_blocks):
    """Assemble the kernel pair of the stacked non-equilibrium model.

    ``g1_blocks`` = (G11, G12, G21, G22), of shapes (n,n), (n,mh), (mh,n),
    (mh,mh), drives the dissipation K1(t) = delta(t) G11 - G12 expm(-t G22)
    G21.  ``g2_blocks`` = (G12, G22) and the white and auxiliary noise
    factors ``sigma_blocks`` = (S11, S22) drive the random-force covariance
    K2(t) = 2 delta(t) S11 + G12 expm(-t G22) G12', the kernel (2 S11, G12,
    G22, -G12').  Also builds the (n + 2 mh)-dimensional constant
    coefficient field stacking both branches.  A shape error carries the
    key path of its block, ("gamma1", "g11") to ("sigma", "s22").
    """
    g11_1, g12_1, g21_1, g22_1 = g1_blocks
    g12_2, g22_2 = g2_blocks
    s11, s22 = (_as_matrix(block) for block in sigma_blocks)
    k1 = _branch([("gamma1", key) for key in ("g11", "g12", "g22", "g21")],
                 g11_1, g12_1, g22_1, g21_1)
    n, mh = k1.g12.shape
    g12_2 = _checked(("gamma2", "g12"), _as_matrix, g12_2, (n, mh), "g12")
    k2 = _branch([("sigma", "s11"), ("gamma2", "g12"), ("gamma2", "g22"),
                  ("gamma2", "g12")], 2.0 * s11, g12_2, g22_2, -g12_2.T)
    s22 = _checked(("sigma", "s22"), _as_matrix, s22, (mh, mh), "s22")
    # a branch with no coupling contributes no colored part, so its
    # auxiliary drift need not be stable
    if np.abs(k1.g12).max() > 0 or np.abs(k1.g21).max() > 0:
        _stable_or_raise(k1.g22, "G22 (dissipation branch)", "gamma1", "g22")
    if np.abs(k2.g12).max() > 0:
        _stable_or_raise(k2.g22, "G22 (noise branch)", "gamma2", "g22")

    gamma = block_diag(k1.delta_part, k1.g22, k2.g22)
    gamma[:n, n:] = np.hstack([k1.g12, g12_2])
    gamma[n:n + mh, :n] = k1.g21
    sigma = block_diag(s11, np.zeros((mh, mh)), s22)
    coeffs = CoefficientField(n, 2 * mh, gamma=gamma, sigma=sigma)
    return NoneqKernels(k1=k1, k2=k2, coeffs=coeffs)
