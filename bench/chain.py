"""Workload ``chain``: one long Gibbs-started splitting trajectory.

A 1-d torus Prony model (two modes, potential cos(2 pi q1)) is run with
``semi_exact_splitting`` and stored noise; the trajectory CSV and the noise
sidecar are written, and the path is analysed with ``gibbs_moment_test``
(cos observable), ``clt_sigma`` by both methods and ``autocovariance`` of s.
At one replica the per-step interpreter overhead of the stepping loop, the
row-wise CSV writer and the lag loops of ``stats`` carry the time.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.special import i0e, i1e

from qgle import GibbsInit, autocovariance, clt_sigma, gibbs_moment_test, simulate
from qgle.config import parse_config
from qgle.simulate import trajectory_to_csv, write_noise_sidecar

from refs import batch_means_z, fft_autocov

TAG = 1
SIZES = {
    "full": {"n_steps": 40_000, "max_lag": 200},
    "quick": {"n_steps": 16_000, "max_lag": 50},
}
DT = 0.01
N_BATCHES = 32       # batches of clt_sigma's batch-means estimate
Z_LIMIT = 7.0        # |z| bound of the moment checks


def cos_observable(q):
    return np.cos(2.0 * np.pi * q[:, 0])


def make_inputs(seed, round_index, size):
    rng = np.random.default_rng([seed, round_index, TAG])
    # friction sum c_i / alpha_i >= 1 and beta <= 1 keep the integrated
    # autocorrelation times of the checked moments at a few time units, well
    # below the batch length of the z-scores
    beta = float(rng.uniform(0.6, 1.0))
    modes = [[float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.5, 1.0))],
             [float(rng.uniform(0.5, 1.5)), float(rng.uniform(2.0, 6.0))]]
    config = {
        "model": {"domain": {"kind": "torus", "dim": 1}, "beta": beta,
                  "force": {"kind": "conservative",
                            "potential": "cos(2*pi*q1)"}},
        "coefficients": {"kind": "prony", "modes": modes},
        "integrator": {"scheme": "semi_exact_splitting", "dt": DT,
                       "n_steps": SIZES[size]["n_steps"],
                       "seed": int(rng.integers(0, 2**32)),
                       "store_noise": True, "stride": 1},
    }
    return {"config_text": json.dumps(config, indent=1), "beta": beta,
            "max_lag": SIZES[size]["max_lag"]}


def setup(rec, inputs):
    return rec.call(parse_config, inputs["config_text"])


def run(rec, cfg, inputs, out_dir):
    model, integ = cfg.model, cfg.integrator
    dim = model.n + model.m
    traj = rec.call(simulate, model, integ, GibbsInit(),
                    work={"replica_steps": integ.n_steps,
                          "noise_draws": integ.n_steps * dim})
    csv_path = os.path.join(out_dir, "chain.csv")
    noise_path = os.path.join(out_dir, "chain.qgln")
    rec.call(trajectory_to_csv, traj, csv_path)
    rec.call(write_noise_sidecar, noise_path, traj.noise)
    rec.count("simulate", "written_mb",
              (os.path.getsize(csv_path) + os.path.getsize(noise_path)) / 1e6)

    series = cos_observable(traj.q)
    k = len(traj)
    moments = rec.call(gibbs_moment_test, traj, model,
                       observable=cos_observable, work={"samples": k})
    sigma_bm = rec.call(clt_sigma, series, "batch_means", dt=DT,
                        n_batches=N_BATCHES, work={"samples": k})
    sigma_gk = rec.call(clt_sigma, series, "green_kubo_window", dt=DT,
                        work={"samples": k})
    acov = rec.call(autocovariance, traj.s, inputs["max_lag"],
                    work={"samples": k})
    return {"model": model, "traj": traj, "csv_path": csv_path,
            "noise_path": noise_path, "moments": moments,
            "sigma_bm": sigma_bm, "sigma_gk": sigma_gk, "acov": acov}


def _parse_csv(path):
    """The benchmark's own reader: header, then float() of every field."""
    with open(path, "r", encoding="ascii", newline="") as handle:
        text = handle.read()
    lines = text.split("\r\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a CRLF row terminator")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    return header, np.array(rows)


def _parse_sidecar(path, dim):
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != b"QGLN" or blob[4:5] != b"\x01":
        raise ValueError("bad sidecar magic or version")
    payload = blob[5:]
    if len(payload) % (8 * dim):
        raise ValueError("sidecar payload is not whole steps")
    return np.frombuffer(payload, dtype="<f8").reshape(-1, dim)


def check(out, inputs):
    problems = []
    model, traj = out["model"], out["traj"]
    beta = inputs["beta"]
    n, m = model.n, model.m

    # invariant-measure moments against closed forms
    targets = {"E[p^2]": (traj.p[:, 0] ** 2, 1.0 / beta),
               "E[cos 2 pi q]": (cos_observable(traj.q),
                                 -i1e(beta) / i0e(beta))}
    for i in range(m):
        for j in range(i, m):
            targets[f"E[s{i+1} s{j+1}]"] = (traj.s[:, i] * traj.s[:, j],
                                            (i == j) / beta)
    for label, (series, target) in targets.items():
        z = batch_means_z(series, target)
        if not abs(z) <= Z_LIMIT:
            problems.append(f"{label}: z = {z:.2f} against {target:.6f}")
    target_cos = -i1e(beta) / i0e(beta)
    if not abs(out["moments"].observable_target - target_cos) <= 1e-9:
        problems.append("gibbs_moment_test quadrature target "
                        f"{out['moments'].observable_target!r} != {target_cos!r}")

    # files, parsed independently, equal the in-memory arrays bit for bit
    try:
        header, rows = _parse_csv(out["csv_path"])
        expected = np.concatenate([traj.times[:, None], traj.q, traj.p,
                                   traj.s], axis=1)
        want = (["t"] + [f"q_{i+1}" for i in range(n)]
                + [f"p_{i+1}" for i in range(n)]
                + [f"s_{i+1}" for i in range(m)])
        if header != want:
            problems.append(f"CSV header {header} != {want}")
        elif rows.shape != expected.shape or not np.array_equal(rows, expected):
            problems.append("CSV rows differ from the in-memory trajectory")
    except ValueError as err:
        problems.append(f"CSV unreadable: {err}")
    try:
        noise = _parse_sidecar(out["noise_path"], n + m)
        if noise.shape != traj.noise.shape or not np.array_equal(noise, traj.noise):
            problems.append("sidecar increments differ from the in-memory noise")
    except ValueError as err:
        problems.append(f"sidecar unreadable: {err}")

    # estimators against the benchmark's own FFT and batch sums
    acov = out["acov"]
    ref = fft_autocov(traj.s, inputs["max_lag"])
    scale = np.abs(ref[0]).max()
    if acov.values.shape != ref.shape or \
            not np.abs(acov.values - ref).max() <= 1e-10 * scale:
        problems.append("autocovariance differs from the FFT reference")
    series = cos_observable(traj.q)
    centered = series - series.mean()
    length = series.shape[0] // N_BATCHES
    means = centered[:N_BATCHES * length].reshape(N_BATCHES, length).mean(axis=1)
    bm = DT * length * means.var(ddof=1)
    if not abs(out["sigma_bm"].sigma2 - bm) <= 1e-9 * bm:
        problems.append(f"batch-means sigma^2 {out['sigma_bm'].sigma2!r} != {bm!r}")
    acf = fft_autocov(series, series.shape[0] // 2 - 1)
    negative = np.nonzero(acf[1:] < 0)[0]
    window = int(negative[0] + 1) if negative.size else acf.shape[0]
    gk = DT * max(0.0, acf[0] + 2.0 * acf[1:window].sum())
    if out["sigma_gk"].params.get("window") != window or \
            not abs(out["sigma_gk"].sigma2 - gk) <= 1e-8 * max(gk, acf[0] * DT):
        problems.append(f"Green-Kubo sigma^2 {out['sigma_gk'].sigma2!r} "
                        f"(window {out['sigma_gk'].params.get('window')}) != "
                        f"{gk!r} (window {window})")
    return problems
