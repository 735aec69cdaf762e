"""JSON run configuration: parsing, validation, model building.

The format has five sections (model / coefficients / integrator / analysis /
output) plus an optional ``fordkac`` section for the explicit-bath runner,
which integrates the particle under ``model.force``.
Matrices are row-major JSON arrays; coefficient matrices may instead name a
builder (prony modes, the constructed torus example, a non-equilibrium
block stack); position-dependent entries are expression strings from the
closed family.  Every accepted key is read by this parser or by the CLI:
``analysis`` holds the statistics and grid settings, ``output`` the output
directory and file names.  The output format and the kernel export are
CLI flags only (``--format``, ``--kernel-csv``).  Unknown keys anywhere are
hard errors, duplicate keys are rejected at parse time, and syntax errors
carry line/column positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import QgleError
from .expressions import parse_expr, validate_expr
from .kernels import coeffs_from_prony
from .model import (
    CoefficientField,
    Domain,
    ForceField,
    ModelSpec,
    default_grid,
    solve_fdt_Q,
    verify_fdt,
)
from .simulate import IntegratorSpec

__all__ = ["Config", "ConfigError", "parse_config", "load_config",
           "EXAMPLE_TORUS_C"]

# certificate matrix of the constructed torus example (verified by the
# positive-definiteness grid; not derived from the coefficients)
EXAMPLE_TORUS_C = np.array([[19.0 / 18.0, -1.0 / 6.0], [-1.0 / 6.0, 1.0]])


class ConfigError(QgleError):
    """Invalid configuration, with the offending key path."""

    def __init__(self, message, path=()):
        joined = ".".join(str(p) for p in path)
        super().__init__(f"{joined}: {message}" if joined else message)
        self.path = tuple(path)


@dataclass
class Config:
    model: ModelSpec
    integrator: Optional[IntegratorSpec]
    analysis: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    fordkac: dict = field(default_factory=dict)
    lyapunov_C: Optional[np.ndarray] = None


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _expect_keys(mapping, required, optional, path):
    if not isinstance(mapping, dict):
        raise ConfigError("expected an object", path)
    for key in mapping:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r}", path)
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key {key!r}", path)
    return mapping


def _int(value, path):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {value!r}", path) from None


def _float(value, path):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {value!r}", path) from None


def _matrix(value, path, shape=None):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"not a numeric matrix: {err}", path) from None
    arr = np.atleast_2d(arr)
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"expected shape {shape}, got {arr.shape}", path)
    return arr


def _expression(text, n, torus, path):
    """Parse and validate one expression entry."""
    try:
        tree = parse_expr(text)
        validate_expr(tree, n, torus)
    except ValueError as err:
        raise ConfigError(str(err), path) from None
    return tree


def _build_force(section, n, torus, path):
    if not isinstance(section, dict):
        raise ConfigError("expected an object", path)
    kind = section.get("kind")
    linear = section.get("linear_part")
    linear = None if linear is None else _matrix(linear, path + ("linear_part",), (n, n))
    if kind == "zero":
        _expect_keys(section, ("kind",), ("linear_part",), path)
        return ForceField.zero(n)
    if kind == "conservative":
        _expect_keys(section, ("kind", "potential"), ("linear_part",), path)
        tree = _expression(section["potential"], n, torus, path + ("potential",))
        return ForceField.from_potential_expr(tree, n, linear_part=linear)
    if kind == "harmonic":
        _expect_keys(section, ("kind", "stiffness"), (), path)
        return ForceField.harmonic(_matrix(section["stiffness"], path + ("stiffness",), (n, n)))
    if kind == "nonconservative":
        _expect_keys(section, ("kind", "components"), ("linear_part",), path)
        comps = section["components"]
        if len(comps) != n:
            raise ConfigError(f"need {n} force components", path + ("components",))
        trees = [_expression(comp, n, torus, path + ("components", i))
                 for i, comp in enumerate(comps)]
        return ForceField.nonconservative(n, trees, linear_part=linear)
    raise ConfigError(f"unknown force kind {kind!r}", path + ("kind",))


def _example_torus_entries(sigma22):
    gamma = [["0", "0-(2+cos(2*pi*q1))"], ["2+cos(2*pi*q1)", "1"]]
    sigma = [["0", "0"], ["0", repr(float(sigma22))]]
    return gamma, sigma


def _build_coefficients(section, n, torus, path):
    """Returns (CoefficientField, Q or None, default C or None)."""
    if not isinstance(section, dict):
        raise ConfigError("expected an object", path)
    kind = section.get("kind")
    q_given = section.get("Q")
    if kind == "prony":
        _expect_keys(section, ("kind", "modes"), ("Q",), path)
        if not isinstance(section["modes"], list):
            raise ConfigError("modes must be an array", path + ("modes",))
        modes = []
        for i, mode in enumerate(section["modes"]):
            mode_path = path + ("modes", i)
            if isinstance(mode, dict):
                _expect_keys(mode, ("c", "alpha"), (), mode_path)
                modes.append((mode["c"], mode["alpha"]))
            elif isinstance(mode, list) and len(mode) == 2:
                modes.append((mode[0], mode[1]))
            else:
                raise ConfigError("mode must be [c, alpha]", mode_path)
        try:
            coeffs, q_mat = coeffs_from_prony(modes, n=n)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err), path + ("modes",)) from None
        return coeffs, q_mat, None
    if kind == "constant":
        _expect_keys(section, ("kind", "m", "gamma", "sigma"), ("Q",), path)
        m = _int(section["m"], path + ("m",))
        dim = n + m
        coeffs = CoefficientField(
            n, m, gamma=_matrix(section["gamma"], path + ("gamma",), (dim, dim)),
            sigma=_matrix(section["sigma"], path + ("sigma",), (dim, dim)))
        q_mat = None
        if q_given is not None:
            q_mat = _matrix(q_given, path + ("Q",), (m, m))
        else:
            try:
                q_mat = solve_fdt_Q(coeffs).Q
            except QgleError:
                q_mat = None  # non-equilibrium coefficients are allowed
        return coeffs, q_mat, None
    if kind == "example_torus":
        _expect_keys(section, ("kind",), ("sigma22", "Q"), path)
        if not (torus and n == 1):
            raise ConfigError("the torus example needs a 1-d torus domain", path)
        sigma22 = _float(section.get("sigma22", math.sqrt(2.0)),
                         path + ("sigma22",))
        gamma, sigma = _example_torus_entries(sigma22)
        coeffs = CoefficientField(1, 1, gamma_entries=gamma, sigma_entries=sigma)
        if q_given is not None:
            q_mat = _matrix(q_given, path + ("Q",), (1, 1))
        else:
            # snapshot blocks at q = 0 determine the only candidate Q; the
            # full grid relation is checked afterwards (the literal published
            # noise value sigma22 = 1 fails here: the auxiliary block wants
            # Q = 1/2 while the coupling block wants Q = 1)
            snapshot = CoefficientField(1, 1, gamma=coeffs.gamma(np.zeros(1)),
                                        sigma=coeffs.sigma(np.zeros(1)))
            try:
                q_mat = solve_fdt_Q(snapshot).Q
            except QgleError as err:
                raise ConfigError(str(err), path) from None
            residual = verify_fdt(coeffs, q_mat, default_grid(Domain("torus", 1)))
            if residual > 1e-9:
                raise ConfigError(
                    f"no constant Q satisfies the relation on the grid "
                    f"(residual {residual:.3e})", path)
        return coeffs, q_mat, EXAMPLE_TORUS_C.copy()
    if kind == "position_dependent":
        _expect_keys(section, ("kind", "m", "gamma", "sigma"), ("Q",), path)
        m = _int(section["m"], path + ("m",))
        dim = n + m
        entries = {}
        for name in ("gamma", "sigma"):
            rows = section[name]
            if not isinstance(rows, list) or len(rows) != dim \
                    or any(not isinstance(r, list) or len(r) != dim
                           for r in rows):
                raise ConfigError(f"{name} must be {dim}x{dim}", path + (name,))
            entries[name] = [[_expression(e, n, torus, path + (name, i, j))
                              if isinstance(e, str) else e
                              for j, e in enumerate(row)]
                             for i, row in enumerate(rows)]
        coeffs = CoefficientField(n, m, gamma_entries=entries["gamma"],
                                  sigma_entries=entries["sigma"])
        q_mat = None if q_given is None else _matrix(q_given, path + ("Q",), (m, m))
        return coeffs, q_mat, None
    if kind == "noneq":
        _expect_keys(section, ("kind", "m_hat", "gamma1", "gamma2", "sigma"),
                     (), path)
        mh = _int(section["m_hat"], path + ("m_hat",))
        g1 = _expect_keys(section["gamma1"], ("g11", "g12", "g21", "g22"), (),
                          path + ("gamma1",))
        g2 = _expect_keys(section["gamma2"], ("g12", "g22"), (),
                          path + ("gamma2",))
        sg = _expect_keys(section["sigma"], ("s11", "s22"), (),
                          path + ("sigma",))
        from .kernels import noneq_kernels
        pair = noneq_kernels(
            (_matrix(g1["g11"], path, (n, n)), _matrix(g1["g12"], path, (n, mh)),
             _matrix(g1["g21"], path, (mh, n)), _matrix(g1["g22"], path, (mh, mh))),
            (_matrix(g2["g12"], path, (n, mh)), _matrix(g2["g22"], path, (mh, mh))),
            (_matrix(sg["s11"], path, (n, n)), _matrix(sg["s22"], path, (mh, mh))))
        return pair.coeffs, None, None
    raise ConfigError(f"unknown coefficients kind {kind!r}", path + ("kind",))


_ANALYSIS_KEYS = ("burn_in", "n_batches", "observable", "grid_points",
                  "lyapunov_C", "sigma_method", "rate_replicas", "rate_mu")
_OUTPUT_KEYS = ("directory", "trajectory_csv", "noise_sidecar",
                "report_json", "figure_csv")
_FORDKAC_KEYS = ("spectrum", "T", "dt", "q0", "p0", "stride")
_SPECTRUM_KEYS = {"exponential": ("kind", "c", "alpha", "m_modes", "omega_max"),
                  "modes": ("kind", "modes")}


def _check_spectrum(spec, path):
    """The keys of the spectrum's kind, and positive numbers in them."""
    _expect_keys(spec, ("kind",), _SPECTRUM_KEYS["exponential"] + ("modes",),
                 path)
    if spec["kind"] not in ("exponential", "modes"):
        raise ConfigError("kind must be 'exponential' or 'modes'", path + ("kind",))
    _expect_keys(spec, _SPECTRUM_KEYS[spec["kind"]], (), path)
    if spec["kind"] == "exponential":
        numbers = [(path + (key,), spec[key])
                   for key in _SPECTRUM_KEYS["exponential"][1:]]
    elif not (isinstance(spec["modes"], list) and all(
            isinstance(mode, list) and len(mode) == 2 for mode in spec["modes"])):
        raise ConfigError("modes must be an array of [k, omega] pairs",
                          path + ("modes",))
    else:
        numbers = [(path + ("modes", i), value)
                   for i, mode in enumerate(spec["modes"]) for value in mode]
    for where, value in numbers:
        if not _float(value, where) > 0:
            raise ConfigError(f"must be positive, got {value!r}", where)


def parse_config(text):
    """Parse and validate a JSON configuration into a Config.

    Syntax errors surface with line/column positions; semantic errors name
    the offending key path; unknown and duplicate keys are hard errors.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as err:
        raise ConfigError(f"syntax error at line {err.lineno} column "
                          f"{err.colno}: {err.msg}") from None
    _expect_keys(raw, ("model", "coefficients"),
                 ("integrator", "analysis", "output", "fordkac"), ())

    model_sec = _expect_keys(raw["model"], ("domain", "force"),
                             ("mass", "beta"), ("model",))
    domain_sec = _expect_keys(model_sec["domain"], ("kind", "dim"), (),
                              ("model", "domain"))
    try:
        domain = Domain(domain_sec["kind"], int(domain_sec["dim"]))
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err), ("model", "domain")) from None
    n = domain.dim
    try:
        beta = float(model_sec.get("beta", 1.0))
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err), ("model", "beta")) from None
    mass = model_sec.get("mass")
    mass = np.eye(n) if mass is None else _matrix(mass, ("model", "mass"), (n, n))
    force = _build_force(model_sec["force"], n, domain.is_torus,
                         ("model", "force"))
    coeffs, q_mat, default_c = _build_coefficients(
        raw["coefficients"], n, domain.is_torus, ("coefficients",))
    try:
        model = ModelSpec(domain=domain, mass=mass, beta=beta, force=force,
                          coeffs=coeffs, Q=q_mat)
    except (ValueError, QgleError) as err:
        raise ConfigError(str(err), ("model",)) from None

    integ = None
    if "integrator" in raw:
        sec = _expect_keys(raw["integrator"], ("scheme", "dt", "n_steps"),
                           ("seed", "store_noise", "stride"), ("integrator",))
        try:
            integ = IntegratorSpec(
                scheme=sec["scheme"], dt=float(sec["dt"]),
                n_steps=int(sec["n_steps"]), seed=int(sec.get("seed", 0)),
                store_noise=bool(sec.get("store_noise", False)),
                stride=int(sec.get("stride", 1)))
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err), ("integrator",)) from None

    analysis = raw.get("analysis", {})
    _expect_keys(analysis, (), _ANALYSIS_KEYS, ("analysis",))
    output = raw.get("output", {})
    _expect_keys(output, (), _OUTPUT_KEYS, ("output",))
    fordkac = raw.get("fordkac", {})
    if fordkac:
        _expect_keys(fordkac, ("spectrum", "T"), _FORDKAC_KEYS, ("fordkac",))
        _check_spectrum(fordkac["spectrum"], ("fordkac", "spectrum"))

    lyap_c = analysis.get("lyapunov_C")
    dim = coeffs.n + coeffs.m
    lyap_c = (default_c if lyap_c is None
              else _matrix(lyap_c, ("analysis", "lyapunov_C"), (dim, dim)))
    return Config(model=model, integrator=integ, analysis=dict(analysis),
                  output=dict(output), fordkac=dict(fordkac),
                  lyapunov_C=lyap_c)


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
