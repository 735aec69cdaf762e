"""JSON run configuration: parsing, validation, model building.

The only module that knows the format: five sections (model /
coefficients / integrator / analysis / output) plus an optional ``fordkac``
section for the explicit-bath runner, which integrates the particle under
``model.force``.  Matrices are row-major JSON arrays; coefficient matrices
may instead name a builder (prony modes, the constructed torus example, a
non-equilibrium block stack); position-dependent entries are expression
strings from the closed family.  Every scalar setting is read once, by a
strict converter, and ``Config.analysis``, ``output`` and ``fordkac`` hold
the converted values with their defaults filled in (README lists them).
The output format and the kernel export are CLI flags only (``--format``,
``--kernel-csv``).  Unknown keys anywhere are hard errors, duplicate keys
are rejected at parse time, syntax errors carry line/column positions and
every other error its key path.  This module only converts JSON types:
the objects it builds check their own inputs (ranges, expression screens)
and name the field at fault, which ``_build`` joins to the key path.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import QgleError
from .expressions import compile_exprs, parse_expr, validate_expr
from .fordkac import FordKacSpectrum, fordkac_spectrum_for_exponential
from .kernels import coeffs_from_prony, noneq_kernels
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
    """A parsed run configuration; ``analysis``, ``output`` and ``fordkac``
    hold the converted settings with their defaults filled in."""

    model: ModelSpec
    integrator: Optional[IntegratorSpec]
    analysis: dict
    output: dict
    fordkac: dict
    lyapunov_C: Optional[np.ndarray]


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


def _int(value, path, least=None):
    """An integer of at least ``least``: 4.0 counts, a bool, a string and
    4.5 do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    if least is not None and value < least:
        bound = "positive" if least == 1 else f"at least {least}"
        raise ConfigError(f"must be {bound}, got {value!r}", path)
    return value


def _float(value, path, positive=False):
    """A finite number (``json`` also reads NaN and Infinity), positive if
    asked; neither a bool nor a string counts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"expected a finite number, got {value!r}", path)
    if positive and not value > 0:
        raise ConfigError(f"must be positive, got {value!r}", path)
    return float(value)


def _bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}", path)
    return value


def _text(value, path, choices=None):
    """A non-empty string, one of ``choices`` if given."""
    if not (isinstance(value, str) and value) or choices and value not in choices:
        wanted = " or ".join(choices) if choices else "a non-empty string"
        raise ConfigError(f"expected {wanted}, got {value!r}", path)
    return value


def _setting(section, key, path, convert, default=None, **options):
    """``convert`` of ``section[key]`` at ``path.key``, or ``default`` when
    the key is absent."""
    if key not in section:
        return default
    return convert(section[key], path=path + (key,), **options)


def _matrix(value, path, shape=None):
    """A matrix of finite numbers; bool and string entries do not count."""
    try:
        arr = np.asarray(value)
    except ValueError as err:
        raise ConfigError(f"not a numeric matrix: {err}", path) from None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ConfigError("not a matrix of finite numbers", path)
    arr = np.atleast_2d(arr.astype(float))
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"expected shape {shape}, got {arr.shape}", path)
    return arr


def _build(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``; an error it raises becomes a ConfigError at
    ``path`` (or where the dict ``path`` maps its first key) + its field path."""
    try:
        return build(*args, **kwargs)
    except (ValueError, QgleError) as err:
        where = getattr(err, "path", ())
        if isinstance(path, dict):
            path, where = path[where[0]], where[1:]
        raise ConfigError(str(err), path + where) from None


def _observable(text, n, torus, path):
    """The function phi(q) of an expression entry, on (K, n) rows."""
    tree = _build(path, parse_expr, text)
    _build(path, validate_expr, tree, n, torus)
    evaluate = compile_exprs([tree])
    return lambda q: evaluate(q)[:, 0]


def _build_force(section, n, path):
    if not isinstance(section, dict):
        raise ConfigError("expected an object", path)
    kind = section.get("kind")
    linear = section.get("linear_part")
    linear = None if linear is None else _matrix(linear, path + ("linear_part",))
    if kind == "zero":
        _expect_keys(section, ("kind",), (), path)
        return ForceField.zero(n)
    if kind == "conservative":
        _expect_keys(section, ("kind", "potential"), ("linear_part",), path)
        return _build(path, ForceField.from_potential_expr,
                      section["potential"], n, linear_part=linear)
    if kind == "harmonic":
        _expect_keys(section, ("kind", "stiffness"), (), path)
        return _build(path, ForceField.harmonic, _matrix(
            section["stiffness"], path + ("stiffness",), (n, n)))
    if kind == "nonconservative":
        _expect_keys(section, ("kind", "components"), ("linear_part",), path)
        return _build(path, ForceField.nonconservative, n,
                      section["components"], linear_part=linear)
    raise ConfigError(f"unknown force kind {kind!r}", path + ("kind",))


def _build_coefficients(section, n, torus, path):
    """Returns (CoefficientField, Q or None, default C or None)."""
    if not isinstance(section, dict):
        raise ConfigError("expected an object", path)
    kind = section.get("kind")
    q_given = section.get("Q")  # its shape is ModelSpec's to check
    q_given = None if q_given is None else _matrix(q_given, path + ("Q",))
    if kind == "prony":
        _expect_keys(section, ("kind", "modes"), (), path)
        if not isinstance(section["modes"], list):
            raise ConfigError("modes must be an array", path + ("modes",))
        modes = []
        for i, mode in enumerate(section["modes"]):
            mode_path = path + ("modes", i)
            if isinstance(mode, dict):
                _expect_keys(mode, ("c", "alpha"), (), mode_path)
                mode = [mode["c"], mode["alpha"]]
            elif not (isinstance(mode, list) and len(mode) == 2):
                raise ConfigError("mode must be [c, alpha]", mode_path)
            modes.append(tuple(_float(value, mode_path) for value in mode))
        coeffs, q_mat = _build(path + ("modes",), coeffs_from_prony, modes, n=n)
        return coeffs, q_mat, None
    if kind == "constant":
        _expect_keys(section, ("kind", "m", "gamma", "sigma"), ("Q",), path)
        m = _int(section["m"], path + ("m",))
        coeffs = _build(path, CoefficientField, n, m,
                        gamma=_matrix(section["gamma"], path + ("gamma",)),
                        sigma=_matrix(section["sigma"], path + ("sigma",)))
        try:
            q_mat = q_given if q_given is not None else solve_fdt_Q(coeffs).Q
        except QgleError:
            q_mat = None  # non-equilibrium coefficients are allowed
        return coeffs, q_mat, None
    if kind == "example_torus":
        _expect_keys(section, ("kind",), ("sigma22", "Q"), path)
        if not (torus and n == 1):
            raise ConfigError("the torus example needs a 1-d torus domain", path)
        sigma22 = _setting(section, "sigma22", path, _float, math.sqrt(2.0))
        coeffs = _build(path, CoefficientField, 1, 1,
                        gamma_entries=[["0", "0-(2+cos(2*pi*q1))"],
                                       ["2+cos(2*pi*q1)", "1"]],
                        sigma_entries=[["0", "0"], ["0", repr(sigma22)]])
        q_mat = q_given
        if q_mat is None:
            # snapshot blocks at q = 0 determine the only candidate Q; the
            # full grid relation is checked afterwards (the literal published
            # noise value sigma22 = 1 fails here: the auxiliary block wants
            # Q = 1/2 while the coupling block wants Q = 1)
            snapshot = CoefficientField(1, 1, gamma=coeffs.gamma(np.zeros(1)),
                                        sigma=coeffs.sigma(np.zeros(1)))
            q_mat = _build(path, solve_fdt_Q, snapshot).Q
            residual = verify_fdt(coeffs, q_mat, default_grid(Domain("torus", 1)))
            if residual > 1e-9:
                raise ConfigError(
                    f"no constant Q satisfies the relation on the grid "
                    f"(residual {residual:.3e})", path)
        return coeffs, q_mat, EXAMPLE_TORUS_C.copy()
    if kind == "position_dependent":
        _expect_keys(section, ("kind", "m", "gamma", "sigma"), ("Q",), path)
        m = _int(section["m"], path + ("m",))
        coeffs = _build(path, CoefficientField, n, m,
                        gamma_entries=section["gamma"],
                        sigma_entries=section["sigma"])
        return coeffs, q_given, None
    if kind == "noneq":
        _expect_keys(section, ("kind", "m_hat", "gamma1", "gamma2", "sigma"),
                     (), path)
        mh = _int(section["m_hat"], path + ("m_hat",))
        blocks = []
        for name, keys in (("gamma1", ("g11", "g12", "g21", "g22")),
                           ("gamma2", ("g12", "g22")), ("sigma", ("s11", "s22"))):
            sub = _expect_keys(section[name], keys, (), path + (name,))
            blocks.append([_matrix(sub[key], path + (name, key)) for key in keys])
        pair = _build(path, noneq_kernels, *blocks)
        if pair.coeffs.m != 2 * mh:
            raise ConfigError(f"must match the size of gamma1.g22, got {mh}",
                              path + ("m_hat",))
        return pair.coeffs, None, None
    raise ConfigError(f"unknown coefficients kind {kind!r}", path + ("kind",))


# the key path in the file of each field of a ModelSpec
_MODEL_FIELDS = {"mass": ("model", "mass"), "beta": ("model", "beta"),
                 "force": ("model", "force"), "coeffs": ("coefficients",),
                 "Q": ("coefficients", "Q")}
_ANALYSIS_KEYS = ("burn_in", "n_batches", "observable", "grid_points",
                  "lyapunov_C", "sigma_method", "rate_replicas", "rate_mu")
_OUTPUT_KEYS = ("directory", "trajectory_csv", "noise_sidecar",
                "report_json", "figure_csv")
_FORDKAC_KEYS = ("spectrum", "T", "dt", "q0", "p0", "stride")
_SPECTRUM_KEYS = {"exponential": ("kind", "c", "alpha", "m_modes", "omega_max"),
                  "modes": ("kind", "modes")}


def _analysis(section, n, torus):
    """The analysis settings, converted, with their defaults filled in."""
    path = ("analysis",)
    _expect_keys(section, (), _ANALYSIS_KEYS, path)
    burn_in = _setting(section, "burn_in", path, _float, 0.1)
    if not 0.0 <= burn_in < 1.0:
        raise ConfigError(f"must lie in [0, 1), got {burn_in!r}",
                          path + ("burn_in",))
    return {
        "burn_in": burn_in,
        "n_batches": _setting(section, "n_batches", path, _int, 32, least=2),
        "sigma_method": _setting(section, "sigma_method", path, _text,
                                 "green_kubo_window",
                                 choices=("green_kubo_window", "batch_means")),
        "rate_replicas": _setting(section, "rate_replicas", path, _int,
                                  least=2),
        "rate_mu": _setting(section, "rate_mu", path, _float),
        "grid_points": _setting(section, "grid_points", path, _int, least=1),
        "observable": _setting(section, "observable", path, _observable,
                               n=n, torus=torus),
    }


def _spectrum(spec, path):
    """The bath spectrum with its numbers converted and checked positive."""
    _expect_keys(spec, ("kind",), _SPECTRUM_KEYS["exponential"] + ("modes",),
                 path)
    kind = spec["kind"]
    if kind not in ("exponential", "modes"):
        raise ConfigError("kind must be 'exponential' or 'modes'", path + ("kind",))
    _expect_keys(spec, _SPECTRUM_KEYS[kind], (), path)
    if kind == "exponential":
        return {"kind": kind,
                "c": _float(spec["c"], path + ("c",), positive=True),
                "alpha": _float(spec["alpha"], path + ("alpha",), positive=True),
                "m_modes": _int(spec["m_modes"], path + ("m_modes",), least=1),
                "omega_max": _float(spec["omega_max"], path + ("omega_max",),
                                    positive=True)}
    if not (isinstance(spec["modes"], list) and all(
            isinstance(mode, list) and len(mode) == 2 for mode in spec["modes"])):
        raise ConfigError("modes must be an array of [k, omega] pairs",
                          path + ("modes",))
    return {"kind": kind, "modes": [
        tuple(_float(value, path + ("modes", i), positive=True) for value in mode)
        for i, mode in enumerate(spec["modes"])]}


def _fordkac(section, integ):
    """The fordkac settings, converted, with their defaults filled in."""
    path = ("fordkac",)
    _expect_keys(section, ("spectrum", "T"), _FORDKAC_KEYS, path)
    return {
        "spectrum": _spectrum(section["spectrum"], path + ("spectrum",)),
        "T": _float(section["T"], path + ("T",), positive=True),
        "dt": _setting(section, "dt", path, _float,
                       integ.dt if integ else 1e-3, positive=True),
        "q0": _setting(section, "q0", path, _float, 0.0),
        "p0": _setting(section, "p0", path, _float, 0.0),
        "stride": _setting(section, "stride", path, _int, 1, least=1),
    }


def _bath_spectrum(spec):
    """The FordKacSpectrum of a spectrum that parse_config converted."""
    if spec["kind"] == "exponential":
        return fordkac_spectrum_for_exponential(
            spec["c"], spec["alpha"], spec["m_modes"], spec["omega_max"])
    return FordKacSpectrum(tuple(spec["modes"]))


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
    domain = _build(("model", "domain"), Domain, domain_sec["kind"],
                    _int(domain_sec["dim"], ("model", "domain", "dim")))
    n = domain.dim
    beta = _setting(model_sec, "beta", ("model",), _float, 1.0)
    mass = model_sec.get("mass")
    mass = np.eye(n) if mass is None else _matrix(mass, ("model", "mass"))
    force = _build_force(model_sec["force"], n, ("model", "force"))
    coeffs, q_mat, default_c = _build_coefficients(
        raw["coefficients"], n, domain.is_torus, ("coefficients",))
    model = _build(_MODEL_FIELDS, ModelSpec, domain=domain, mass=mass,
                   beta=beta, force=force, coeffs=coeffs, Q=q_mat)

    integ = None
    if "integrator" in raw:
        path = ("integrator",)
        sec = _expect_keys(raw["integrator"], ("scheme", "dt", "n_steps"),
                           ("seed", "store_noise", "stride"), path)
        integ = _build(
            path, IntegratorSpec,
            scheme=sec["scheme"], dt=_float(sec["dt"], path + ("dt",)),
            n_steps=_int(sec["n_steps"], path + ("n_steps",)),
            seed=_setting(sec, "seed", path, _int, 0),
            store_noise=_setting(sec, "store_noise", path, _bool, False),
            stride=_setting(sec, "stride", path, _int, 1))

    analysis_sec = raw.get("analysis", {})
    analysis = _analysis(analysis_sec, n, domain.is_torus)
    lyap_c = default_c
    if "lyapunov_C" in analysis_sec:
        path = ("analysis", "lyapunov_C")
        if coeffs.constant:
            raise ConfigError("constant coefficients take no certificate "
                              "matrix: their Lyapunov matrix is solved", path)
        lyap_c = _matrix(analysis_sec["lyapunov_C"], path,
                         (coeffs.n + coeffs.m,) * 2)
    output_sec = _expect_keys(raw.get("output", {}), (), _OUTPUT_KEYS,
                              ("output",))
    output = {key: _setting(output_sec, key, ("output",), _text,
                            "." if key == "directory" else None)
              for key in _OUTPUT_KEYS}
    fordkac = _fordkac(raw["fordkac"], integ) if "fordkac" in raw else {}
    return Config(model=model, integrator=integ, analysis=analysis,
                  output=output, fordkac=fordkac, lyapunov_C=lyap_c)


def load_config(path):
    """``parse_config`` of the UTF-8 file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
