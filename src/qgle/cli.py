"""Command-line front end.

Subcommands: ``check`` (certificate table), ``simulate`` (trajectory CSV +
optional binary noise sidecar), ``fordkac`` (explicit-bath run of the 1-d
conservative ``model.force``), ``analyze`` (JSON diagnostics report) and
``figure-eigs`` (eigenvalue curves of the position-dependent certificate
matrix over the torus).

Exit codes: 0 success, 1 certificate/analysis failure, 2 usage error,
3 runtime failure.  With ``--format json`` failures also emit a
machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .config import _bath_spectrum, load_config
from .errors import NoSignalError, QgleError
from .ergodicity import (
    Certificate,
    hormander_const_check,
    lyapunov_matrix_const,
    posdep_certificate_search,
    posdep_certificate_verify,
)
from .fordkac import fordkac_simulate
from .kernels import MemoryKernel, kernel_eval
from .model import (
    NOT_APPLICABLE,
    ExtendedState,
    default_grid,
    purecolor_check,
    stability_margin,
    verify_fdt,
)
from .simulate import (
    GibbsInit,
    _write_csv,
    simulate,
    simulate_ensemble,
    trajectory_to_csv,
    write_noise_sidecar,
)
from .stats import (
    clt_sigma,
    geometric_rate_fit,
    gibbs_moment_test,
    gibbs_quadrature_mean,
)

RESIDUAL_TOL = 1e-9


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qgle",
        description="quasi-Markovian generalized Langevin equations: "
                    "simulation and ergodicity certificates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "evaluate certificates and print the table"),
            ("simulate", "integrate the model and write trajectory output"),
            ("fordkac", "run the explicit harmonic-bath model"),
            ("analyze", "simulate and emit a JSON diagnostics report"),
            ("figure-eigs", "eigenvalue curves of Gamma(q) C + C Gamma(q)'")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the integrator seed")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "check":
            cmd.add_argument("--kernel-csv", default=None,
                             help="also export the memory kernel as t,K(t)")
    return parser


def _out_path(args, config, default_name, key):
    directory = args.out or config.output["directory"]
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, config.output[key] or default_name)


def _integrator(config, args):
    integ = config.integrator
    if integ is None:
        raise QgleError("config has no integrator section")
    if args.seed is not None:
        integ = dataclasses.replace(integ, seed=args.seed)
    return integ


def _start_state(model):
    """Start of ``simulate`` and ``analyze``: the Gibbs measure when the model
    has one (q sampled on the torus, q = 0 on euclidean domains), else the
    origin of the extended phase space."""
    if model.force.is_conservative and model.Q is not None:
        return GibbsInit() if model.domain.is_torus else GibbsInit(
            q0=np.zeros(model.n))
    return ExtendedState(q=np.zeros(model.n), p=np.zeros(model.n),
                         s=np.zeros(model.m))


def _certificates(config):
    model = config.model
    coeffs = model.coeffs
    grid = default_grid(model.domain, config.analysis["grid_points"])
    certs = []

    margin = stability_margin(coeffs, grid)
    certs.append(Certificate(kind="stability", satisfied=margin > 0,
                             margin=margin, witness={},
                             notes="min real part of the friction spectrum"))

    if model.Q is not None:
        residual = verify_fdt(coeffs, model.Q, grid)
        certs.append(Certificate(
            kind="fdt", satisfied=residual <= RESIDUAL_TOL,
            margin=RESIDUAL_TOL - residual,
            witness={"residual": residual},
            notes=f"block-relation defect {residual:.3e}"))
        violation = purecolor_check(coeffs, model.Q, grid)
        if violation is not NOT_APPLICABLE:
            certs.append(Certificate(
                kind="purecolor", satisfied=violation <= RESIDUAL_TOL,
                margin=RESIDUAL_TOL - violation,
                witness={"violation": violation},
                notes=f"coupling-constraint violation {violation:.3e}"))

    if coeffs.constant:
        for mode in ("ii", "iii"):
            certs.append(dataclasses.replace(hormander_const_check(coeffs, mode),
                                             kind=f"hormander_{mode}"))
        if margin > 0:
            lyap = lyapunov_matrix_const(coeffs.gamma())
            certs.append(Certificate(
                kind="lyapunov_const", satisfied=True, margin=lyap.lam,
                witness={"lambda": lyap.lam, "residual": lyap.residual},
                notes=f"Bartels-Stewart residual {lyap.residual:.3e}"))
    else:
        try:
            c_mat = (config.lyapunov_C if config.lyapunov_C is not None
                     else posdep_certificate_search(coeffs, grid))
            verification = posdep_certificate_verify(coeffs, c_mat, grid)
            certs.append(Certificate(
                kind="lyapunov_posdep", satisfied=verification.margin > 0,
                margin=verification.margin, witness={"C": c_mat.tolist()},
                notes="min eigenvalue of Gamma(q) C + C Gamma(q)' on the grid"))
        except QgleError as err:
            certs.append(Certificate(kind="lyapunov_posdep", satisfied=False,
                                     margin=-np.inf, witness={},
                                     notes=str(err)))
    return certs


def _cert_json(cert):
    witness = {k: v for k, v in cert.witness.items()
               if isinstance(v, (int, float, str, list))}
    return {"kind": cert.kind, "satisfied": bool(cert.satisfied),
            "margin": float(cert.margin), "witness": witness,
            "notes": cert.notes}


def _cmd_check(args):
    config = load_config(args.config)
    if args.kernel_csv and not config.model.coeffs.constant:
        raise QgleError("--kernel-csv needs constant coefficients: "
                        "position-dependent ones have no single kernel K(t)")
    certs = _certificates(config)
    if args.kernel_csv:
        kernel = MemoryKernel.from_coeffs(config.model.coeffs)
        ts = np.linspace(0.0, 10.0, 201)
        values = [kernel_eval(kernel, float(t))[0, 0] for t in ts]
        _write_csv(args.kernel_csv, ["t", "K"], np.column_stack([ts, values]))
    if args.format == "json":
        print(json.dumps({"certificates": [_cert_json(c) for c in certs]},
                         sort_keys=True, indent=2))
    else:
        for cert in certs:
            print(cert.summary())
    return 0 if all(c.satisfied for c in certs) else 1


def _cmd_simulate(args):
    config = load_config(args.config)
    integ = _integrator(config, args)
    traj = simulate(config.model, integ, _start_state(config.model))
    csv_path = _out_path(args, config, "trajectory.csv", "trajectory_csv")
    trajectory_to_csv(traj, csv_path)
    written = {"trajectory_csv": csv_path}
    if traj.noise is not None:
        sidecar = _out_path(args, config, "noise.qgln", "noise_sidecar")
        write_noise_sidecar(sidecar, traj.noise)
        written["noise_sidecar"] = sidecar
    summary = {"states": len(traj), "files": written,
               "final_time": float(traj.times[-1])}
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(f"wrote {csv_path} ({len(traj)} states, t_final "
              f"{summary['final_time']:g})")
    return 0


def _cmd_fordkac(args):
    config = load_config(args.config)
    section = config.fordkac
    if not section:
        raise QgleError("config has no fordkac section")
    model = config.model
    if model.n != 1:
        raise QgleError(f"fordkac needs a 1-d model, got dimension {model.n}")
    if not model.force.is_conservative:
        raise QgleError("fordkac needs a conservative model.force: the bath "
                        "run integrates a Hamiltonian")
    seed = args.seed if args.seed is not None else (
        config.integrator.seed if config.integrator else 0)
    traj = fordkac_simulate(model.force, _bath_spectrum(section["spectrum"]),
                            model.beta, section["dt"], section["T"], seed,
                            q0=section["q0"], p0=section["p0"],
                            stride=section["stride"])
    csv_path = _out_path(args, config, "fordkac.csv", "trajectory_csv")
    _write_csv(csv_path, ["t", "q", "p", "energy"],
               np.column_stack([traj.times, traj.q, traj.p, traj.energy]))
    drift = float(np.abs(traj.energy - traj.energy[0]).max()
                  / max(1e-300, abs(traj.energy[0])))
    if args.format == "json":
        print(json.dumps({"trajectory_csv": csv_path,
                          "relative_energy_drift": drift},
                         sort_keys=True, indent=2))
    else:
        print(f"wrote {csv_path} (relative energy drift {drift:.3e})")
    return 0


def _rate_fit_report(config, integ, model, observable, replicas):
    """Relaxation-rate fit of an ensemble restarted from a displaced point."""
    if observable is None:
        def observable(q):
            return np.cos(2.0 * np.pi * q[..., 0])
    start = ExtendedState(q=np.zeros(model.n), p=np.zeros(model.n),
                          s=np.zeros(model.m))
    ensemble = simulate_ensemble(model, integ, start, n_replicas=replicas)
    values = np.stack([observable(ensemble.q[r]) for r in range(replicas)])
    mu = config.analysis["rate_mu"]
    if mu is None and model.force.is_conservative and model.n == 1 \
            and model.domain.is_torus:
        mu = gibbs_quadrature_mean(observable, model.force.potential,
                                   model.beta)
    try:
        fit = geometric_rate_fit(ensemble.times, values, mu=mu)
    except NoSignalError as err:
        return {"status": "no-signal", "message": str(err)}
    return {"status": "fitted", "kappa": fit.kappa,
            "r_squared": fit.r_squared, "mu": fit.mu,
            "n_replicas": replicas}


def _cmd_analyze(args):
    config = load_config(args.config)
    integ = _integrator(config, args)
    model = config.model
    certs = _certificates(config)
    report = {
        "provenance": {"seed": integ.seed, "dt": integ.dt,
                       "n_steps": integ.n_steps, "scheme": integ.scheme},
        "certificates": [_cert_json(c) for c in certs],
    }
    initial = _start_state(model)
    traj = simulate(model, integ, initial)
    burn_in = config.analysis["burn_in"]
    observable = config.analysis["observable"]
    if isinstance(initial, GibbsInit):
        # the quadrature target of the observable exists on a 1-d torus
        on_circle = model.n == 1 and model.domain.is_torus
        moments = gibbs_moment_test(
            traj, model, observable=observable if on_circle else None,
            burn_in=burn_in)
        report["moments"] = {
            "z_pp": moments.z_pp.tolist(), "z_ss": moments.z_ss.tolist(),
            "z_ps": moments.z_ps.tolist(),
            "z_observable": moments.z_observable,
            "observable_mean": moments.observable_mean,
            "observable_target": moments.observable_target,
        }
    skip = int(burn_in * len(traj))
    series = traj.p[skip:, 0]
    sigma = clt_sigma(series, method=config.analysis["sigma_method"],
                      dt=integ.dt * integ.stride,
                      n_batches=config.analysis["n_batches"])
    report["sigma"] = {"sigma2": sigma.sigma2, "stderr": sigma.stderr,
                       "method": sigma.method}

    replicas = config.analysis["rate_replicas"]
    if replicas is not None:
        report["rate_fit"] = _rate_fit_report(config, integ, model,
                                              observable, replicas)
    text = json.dumps(report, sort_keys=True, indent=2)
    if config.output["report_json"] or args.out:
        report_path = _out_path(args, config, "report.json", "report_json")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if all(c.satisfied for c in certs) else 1


def _cmd_figure_eigs(args):
    config = load_config(args.config)
    model = config.model
    if model.coeffs.constant:
        raise QgleError("figure-eigs needs position-dependent coefficients")
    points = config.analysis["grid_points"] or 1001
    grid = np.linspace(0.0, 1.0, points)[:, None]
    c_mat = config.lyapunov_C
    if c_mat is None:
        c_mat = posdep_certificate_search(model.coeffs, grid)
    verification = posdep_certificate_verify(model.coeffs, c_mat, grid)
    csv_path = _out_path(args, config, "figure_eigs.csv", "figure_csv")
    eigs = verification.eigenvalues
    _write_csv(csv_path, ["q", "lambda_min", "lambda_max"],
               np.column_stack([grid[:, 0], eigs[:, 0], eigs[:, -1]]))
    if args.format == "json":
        print(json.dumps({"figure_csv": csv_path,
                          "margin": verification.margin},
                         sort_keys=True, indent=2))
    else:
        print(f"wrote {csv_path} (margin {verification.margin:.6f})")
    return 0 if verification.margin > 0 else 1


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "fordkac": _cmd_fordkac,
    "analyze": _cmd_analyze,
    "figure-eigs": _cmd_figure_eigs,
}


def dispatch(argv):
    """Parse argv and run the subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except (QgleError, ValueError, OSError) as err:
        if getattr(args, "format", "csv") == "json":
            print(json.dumps({"error": {"type": type(err).__name__,
                                        "message": str(err)}}),
                  file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return 3


def main(argv=None):
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
