import numpy as np
import pytest

from qgle.kernels import coeffs_from_prony
from qgle.model import CoefficientField, Domain, ForceField, ModelSpec

# the constructed 1-d torus example: friction coupling 2 + cos(2 pi q),
# auxiliary drift 1, auxiliary noise sqrt(2) (the relation-consistent value)
EXAMPLE_GAMMA_ENTRIES = [["0", "0-(2+cos(2*pi*q1))"], ["2+cos(2*pi*q1)", "1"]]
EXAMPLE_SIGMA_ENTRIES = [["0", "0"], ["0", "1.4142135623730951"]]
EXAMPLE_C = np.array([[19.0 / 18.0, -1.0 / 6.0], [-1.0 / 6.0, 1.0]])


@pytest.fixture
def example_coeffs():
    return CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                            sigma_entries=EXAMPLE_SIGMA_ENTRIES)


def prony_model(modes=((1.0, 1.0),), potential="cos(2*pi*q1)", beta=1.0,
                domain_kind="torus"):
    coeffs, q_mat = coeffs_from_prony(list(modes))
    force = (ForceField.zero(1) if potential is None
             else ForceField.from_potential_expr(potential, 1))
    return ModelSpec(domain=Domain(domain_kind, 1), mass=np.eye(1), beta=beta,
                     force=force, coeffs=coeffs, Q=q_mat)


@pytest.fixture
def torus_prony_model():
    return prony_model()


def random_prony_modes(rng, max_modes=4):
    k = rng.integers(1, max_modes + 1)
    cs = rng.uniform(0.1, 5.0, size=k)
    alphas = rng.uniform(0.1, 5.0, size=k)
    return list(zip(cs, alphas))


def random_stable_gamma(rng, dim):
    """Well-conditioned matrix with spectrum in the right half plane."""
    while True:
        g = rng.uniform(0.5, 2.0) * np.eye(dim) + 0.4 * rng.standard_normal((dim, dim))
        eigs = np.linalg.eigvals(g)
        if eigs.real.min() > 0.05:
            return g


def random_rotation(rng, m):
    """Haar-distributed orthogonal m x m matrix."""
    z, r = np.linalg.qr(rng.standard_normal((m, m)))
    return z * np.sign(np.diag(r))


def rotate_auxiliary(coeffs, u):
    """Gamma -> T Gamma T', Sigma -> T Sigma with T = diag(I_n, U); the
    rotated Prony embedding keeps Q = I."""
    t = np.eye(coeffs.n + coeffs.m)
    t[coeffs.n:, coeffs.n:] = u
    return CoefficientField(coeffs.n, coeffs.m, gamma=t @ coeffs.gamma() @ t.T,
                            sigma=t @ coeffs.sigma())
