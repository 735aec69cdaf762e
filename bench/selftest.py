"""Self-test of the benchmark: quick rounds, then perturbed outputs.

    python3 bench/selftest.py

Runs one round of every workload at its ``quick`` size and requires its
checks to pass, then feeds each check a deliberately perturbed copy of the
outputs (a shifted momentum path, a perturbed certificate matrix, a
truncated CSV, ...) and requires it to reject the copy with the expected
message.  Exits 1 if any check passes a perturbed output or fails a clean
one.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import replace

import run

SEED = 20260418


def _copy_file(src, dst, edit):
    with open(src, "rb") as handle:
        blob = handle.read()
    with open(dst, "wb") as handle:
        handle.write(edit(blob))
    return dst


def chain_perturbations(tmp):
    def shift_p(out, inp):
        out["traj"] = replace(out["traj"], p=out["traj"].p + 2.0)
        return out

    def scale_s(out, inp):
        out["traj"] = replace(out["traj"], s=2.0 * out["traj"].s)
        return out

    def truncate_csv(out, inp):
        def drop_last_row(blob):
            return blob[:blob.rstrip(b"\r\n").rfind(b"\r\n") + 2]
        out["csv_path"] = _copy_file(out["csv_path"], f"{tmp}/short.csv",
                                     drop_last_row)
        return out

    def flip_sidecar_byte(out, inp):
        def flip(blob):
            return blob[:100] + bytes([blob[100] ^ 1]) + blob[101:]
        out["noise_path"] = _copy_file(out["noise_path"], f"{tmp}/flip.qgln",
                                       flip)
        return out

    def bump_acov(out, inp):
        values = out["acov"].values.copy()
        values[5] *= 1.001
        out["acov"] = replace(out["acov"], values=values)
        return out

    def bump_sigma(key):
        def perturb(out, inp):
            out[key] = replace(out[key], sigma2=out[key].sigma2 * 1.001)
            return out
        return perturb

    return [
        ("shifted momentum path", shift_p, "E[p^2]"),
        ("shifted momentum path", shift_p, "CSV rows differ"),
        ("scaled auxiliary path", scale_s, "E[s1 s1]"),
        ("truncated CSV", truncate_csv, "CSV rows differ"),
        ("flipped sidecar byte", flip_sidecar_byte, "sidecar increments differ"),
        ("perturbed autocovariance", bump_acov, "autocovariance differs"),
        ("perturbed batch-means sigma", bump_sigma("sigma_bm"), "batch-means"),
        ("perturbed Green-Kubo sigma", bump_sigma("sigma_gk"), "Green-Kubo"),
    ]


def posdep_perturbations(tmp):
    def kick_solo(out, inp):
        p = out["solo_first"].p.copy()
        p[len(p) // 2] += 1e-9
        out["solo_first"] = replace(out["solo_first"], p=p)
        return out

    def bump_certificate(out, inp):
        out["cert_c"] = out["cert_c"] + 0.01
        return out

    def kick_ensemble(out, inp):
        out["ens"].p[-1, 3] += 1e-12
        return out

    def bump_accumulator(out, inp):
        out["ens"].meta["observables"]["p"].mean += 1e-6
        return out

    def reverse_late(out, inp):
        out["ens"].p[:] = -out["ens"].p
        return out

    def bump(key, value):
        def perturb(out, inp):
            out[key] = value(out[key])
            return out
        return perturb

    return [
        ("shifted step of the stride-1 replica", kick_solo, "Euler map"),
        ("perturbed certificate matrix", bump_certificate, "certificate grid margin"),
        ("perturbed ensemble replica", kick_ensemble, "replica (last) differs"),
        ("perturbed accumulator", bump_accumulator, "accumulator mean"),
        ("reversed momenta", reverse_late, "does not follow the tilt"),
        ("FDT defect", bump("fdt_defect", lambda v: 1e-6), "verify_fdt defect"),
        ("stability margin", bump("margin", lambda v: v * 1.01), "stability margin"),
    ]


def sweep_perturbations(tmp):
    def on_model(key, edit):
        def perturb(outs, inp):
            outs[-1][key] = edit(outs[-1][key])
            return outs
        return perturb

    def bump_matrix(result, attr, delta):
        mat = getattr(result, attr).copy()
        mat[0, -1] += delta
        return replace(result, **{attr: mat})

    def unsatisfied(certs):
        return [replace(certs[0], satisfied=False)] + certs[1:]

    def kernel_bump(values):
        values = values.copy()
        values[3] += 1e-6
        return values

    def scale_ens(attr):
        def perturb(outs, inp):
            ens = outs[-1]["ens"]
            setattr(ens, attr, 1.5 * getattr(ens, attr))
            return outs
        return perturb

    return [
        ("perturbed Q", on_model("fdt", lambda r: bump_matrix(r, "Q", 1e-6)),
         "Q differs from I"),
        ("perturbed Lyapunov matrix",
         on_model("lyapunov", lambda r: bump_matrix(r, "C", 1e-4)),
         "Lyapunov matrix differs"),
        ("perturbed kernel value", on_model("kernel", kernel_bump), "kernel_eval differs"),
        ("unsatisfied Hoermander", on_model("hormander", unsatisfied), "Hoermander"),
        ("scaled momenta", scale_ens("p"), "E[p^2]"),
        ("scaled auxiliary variables", scale_ens("s"), "E[s^2]"),
    ]


def bath_perturbations(tmp):
    def drift(out, inp):
        energy = out["traj"].energy.copy()
        energy[-1] *= 1.001
        out["traj"] = replace(out["traj"], energy=energy)
        return out

    def bump_kernel(out, inp):
        largest = max(out["kernels"])
        out["kernels"][largest] = out["kernels"][largest] + 1.0
        return out

    def bump_vacf(out, inp):
        vacf = out["comparison"].gle_vacf.copy()
        vacf[0] *= 2.0
        out["comparison"] = replace(out["comparison"], gle_vacf=vacf)
        return out

    def worse_large_bath(out, inp):
        rows = list(out["comparison"].rows)
        m, metric, err = rows[-1]
        rows[-1] = (m, metric + 2.0, err)
        out["comparison"] = replace(out["comparison"], rows=rows)
        return out

    return [
        ("energy drift", drift, "energy drift"),
        ("perturbed bath kernel", bump_kernel, "quadrature bound"),
        ("perturbed GLE VACF", bump_vacf, "VACF(0)"),
        ("worse largest bath", worse_large_bath, "not closer to the GLE"),
    ]


PERTURBATIONS = {
    "chain": chain_perturbations,
    "posdep_ensemble": posdep_perturbations,
    "kernel_sweep": sweep_perturbations,
    "fordkac_bath": bath_perturbations,
}


def main():
    run.import_program()
    import harness

    tmp = run.OUT_DIR / f"selftest-{run.os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    errors = []
    try:
        for name in run.WORKLOADS:
            workload = run.load_workload(name)
            rec = harness.Recorder(run_id=f"selftest-{name}")
            rec.begin_round(traced=True)
            inputs = workload.make_inputs(SEED, 0, "quick")
            out = workload.run(rec, workload.setup(rec, inputs), inputs,
                               str(tmp))
            problems = workload.check(out, inputs)
            status = "ok" if not problems and rec.failed == 0 else "FAILED"
            print(f"{name}: quick round {status} ({rec.attempted} operations, "
                  f"{len(rec.round.spans)} spans)")
            errors.extend(f"{name}: clean output rejected: {p}" for p in problems)
            for label, perturb, expected in PERTURBATIONS[name](tmp):
                found = workload.check(perturb(copy.deepcopy(out), inputs),
                                       inputs)
                hit = any(expected in p for p in found)
                print(f"  {'rejects' if hit else 'MISSES '} {label} "
                      f"[{expected}]")
                if not hit:
                    errors.append(f"{name}: {label} not rejected "
                                  f"(check said {found})")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
