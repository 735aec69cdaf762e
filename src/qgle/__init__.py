"""Quasi-Markovian generalized Langevin equations.

Extended-phase-space models with memory friction and colored noise:
fluctuation-dissipation algebra, memory-kernel conversions, ergodicity
certificates (stability, hypoellipticity, Lyapunov drift), SDE integrators
with exact noise maps, an explicit harmonic bath (``fordkac``), and
statistical diagnostics for the invariant measure and convergence rates.
"""

__version__ = "0.1.0"

from .model import (
    CoefficientField,
    Domain,
    ExtendedState,
    ForceField,
    ModelSpec,
    NOT_APPLICABLE,
    default_grid,
    gibbs_log_density,
    purecolor_check,
    solve_fdt_Q,
    stability_margin,
    verify_fdt,
)
from .kernels import (
    MemoryKernel,
    coeffs_from_prony,
    kernel_eval,
    noise_covariance_eval,
    noneq_kernels,
    spectral_density,
)
from .ergodicity import (
    Certificate,
    hormander_const_check,
    lyapunov_drift_constants,
    lyapunov_matrix_const,
    posdep_certificate_search,
    posdep_certificate_verify,
    potential_growth_check,
    schur_psd,
    unbounded_certificate,
)
from .simulate import (
    GibbsInit,
    IntegratorSpec,
    Trajectory,
    colored_noise_path,
    ide_residual_check,
    sample_gibbs,
    simulate,
    simulate_ensemble,
    step_euler,
    step_splitting,
)
from .fordkac import (
    FordKacSpectrum,
    fordkac_kernel,
    fordkac_simulate,
    fordkac_spectrum_for_exponential,
    fordkac_vs_gle,
)
from .stats import (
    autocovariance,
    clt_sigma,
    geometric_rate_fit,
    gibbs_moment_test,
    noise_stationarity_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
