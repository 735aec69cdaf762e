import json
import os

import numpy as np
import pytest

from qgle.cli import dispatch
from qgle.config import EXAMPLE_TORUS_C, ConfigError, load_config, parse_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def golden_text():
    with open(config_path("prony.json")) as handle:
        return handle.read()


class TestParseConfig:
    def test_golden_file_builds_model(self):
        config = parse_config(golden_text())
        model = config.model
        assert model.domain.is_torus and model.n == 1
        assert model.coeffs.constant and model.coeffs.m == 1
        assert np.allclose(model.Q, np.eye(1))
        assert config.integrator.dt == pytest.approx(1e-3)
        assert config.integrator.seed == 42

    def test_round_trip_is_semantically_idempotent(self):
        raw = json.loads(golden_text())
        config_a = parse_config(golden_text())
        config_b = parse_config(json.dumps(raw))
        assert np.array_equal(config_a.model.coeffs.gamma(),
                              config_b.model.coeffs.gamma())
        assert config_a.integrator == config_b.integrator

    def test_duplicate_key_is_named(self):
        text = golden_text().replace('"beta": 1.0,',
                                     '"beta": 1.0, "beta": 2.0,')
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "beta" in str(err.value)

    def test_unknown_key_is_a_hard_error(self):
        raw = json.loads(golden_text())
        raw["model"]["tempereture"] = 1.0
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert "tempereture" in str(err.value)

    @pytest.mark.parametrize("path, value", [
        (("analysis", "max_lag"), 100),
        (("analysis", "lags"), [0, 1]),
        (("analysis", "hbar"), 1.0),
        (("analysis", "growth_E"), 1.0),
        (("output", "format"), "csv"),
        (("output", "kernel_csv"), "kernel.csv"),
        (("fordkac", "potential"), "q1*q1/2"),
        (("model", "force", "bounded_part"), True),
        (("coefficients", "Q"), [[2.0]]),
    ])
    def test_keys_no_code_reads_are_rejected(self, path, value):
        name = "fordkac.json" if path[0] == "fordkac" else "prony.json"
        with open(config_path(name)) as handle:
            raw = json.load(handle)
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert err.value.path == path[:-1]
        assert str(err.value).startswith(".".join(path[:-1]) + ": ")
        assert repr(path[-1]) in str(err.value)

    def test_zero_force_takes_no_linear_part(self):
        # ForceField.zero keeps no harmonic part, so the key would change nothing
        raw = json.loads(golden_text())
        raw["model"]["force"] = {"kind": "zero", "linear_part": [[2.0]]}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert str(err.value) == "model.force: unknown key 'linear_part'"

    def test_every_accepted_section_key_is_read(self):
        # an accepted analysis/output/fordkac key must be looked up by the
        # parser or the CLI, or it is a setting that changes no result
        import inspect

        import qgle.cli
        import qgle.config

        sources = (inspect.getsource(qgle.cli)
                   + inspect.getsource(qgle.config.parse_config))
        keys = (qgle.config._ANALYSIS_KEYS + qgle.config._OUTPUT_KEYS
                + qgle.config._FORDKAC_KEYS)
        unread = [key for key in keys if f'"{key}"' not in sources]
        assert unread == []

    def test_every_analysis_and_fordkac_key_is_read_by_config(self):
        # qgle.config alone knows the format: each analysis and fordkac key
        # is quoted there outside the tuples that declare it
        import ast
        import inspect

        import qgle.config

        declared = ("_ANALYSIS_KEYS", "_OUTPUT_KEYS", "_FORDKAC_KEYS")
        tree = ast.parse(inspect.getsource(qgle.config))
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.Assign) and any(
                         getattr(target, "id", None) in declared
                         for target in node.targets))]
        quoted = {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)}
        keys = qgle.config._ANALYSIS_KEYS + qgle.config._FORDKAC_KEYS
        assert [key for key in keys if key not in quoted] == []

    @pytest.mark.parametrize("path, value", [
        (("integrator", "store_noise"), "false"),
        (("integrator", "n_steps"), 1000.9),
        (("integrator", "seed"), 3.7),
        (("integrator", "stride"), True),
        (("integrator", "dt"), float("inf")),
        (("model", "beta"), "1"),
        (("model", "domain", "dim"), 1.5),
        (("fordkac", "spectrum", "m_modes"), 16.5),
        (("fordkac", "T"), 0),
        (("fordkac", "dt"), -1.0),
        (("fordkac", "q0"), "0"),
        (("fordkac", "stride"), 0),
        (("analysis", "burn_in"), 1.0),
        (("analysis", "burn_in"), -0.1),
        (("analysis", "burn_in"), 2.0),
        (("analysis", "n_batches"), 1),
        (("analysis", "n_batches"), "x"),
        (("analysis", "sigma_method"), "bogus"),
        (("analysis", "rate_replicas"), 1),
        (("analysis", "rate_replicas"), 2.5),
        (("analysis", "rate_mu"), float("nan")),
        (("analysis", "grid_points"), 0),
        (("analysis", "observable"), "cos(2*pi*q2)"),
        (("analysis", "observable"), 1.0),
        (("analysis", "lyapunov_C"), [[1.0, 0.0], [0.0, 1.0]]),
        (("output", "directory"), 5),
        (("model", "mass"), [[True]]),
        (("coefficients", "modes", 0), ["1", 1.0]),
        # range checks that the constructors own
        (("integrator", "dt"), -1.0),
        (("integrator", "n_steps"), -1),
        (("integrator", "stride"), 0),
        (("integrator", "seed"), -1),
        (("integrator", "scheme"), "rk4"),
        (("model", "beta"), -1.0),
        (("model", "domain", "dim"), 0),
        (("model", "domain", "kind"), "sphere"),
        (("model", "mass"), [[-1.0]]),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_bad_values_fail_at_parse_time_with_their_key_path(self, path,
                                                                value):
        name = "fordkac.json" if path[0] == "fordkac" else "prony.json"
        with open(config_path(name)) as handle:
            raw = json.load(handle)
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert err.value.path == path
        assert str(err.value).startswith(".".join(map(str, path)) + ": ")

    def test_settings_come_converted_with_their_defaults(self):
        raw = json.loads(golden_text())
        raw["integrator"].update({"n_steps": 1000.0, "seed": 4.0})
        raw["analysis"] = {}
        del raw["output"]
        config = parse_config(json.dumps(raw))
        assert (config.integrator.n_steps, config.integrator.seed) == (1000, 4)
        assert type(config.integrator.n_steps) is int
        assert config.analysis == {
            "burn_in": 0.1, "n_batches": 32,
            "sigma_method": "green_kubo_window", "rate_replicas": None,
            "rate_mu": None, "grid_points": None, "observable": None}
        assert config.output == {"directory": ".", "trajectory_csv": None,
                                 "noise_sidecar": None, "report_json": None,
                                 "figure_csv": None}
        assert config.fordkac == {}
        with open(config_path("fordkac.json")) as handle:
            raw = json.load(handle)
        for key in ("dt", "q0", "p0", "stride"):
            del raw["fordkac"][key]
        fordkac = parse_config(json.dumps(raw)).fordkac
        assert (fordkac["dt"], fordkac["q0"], fordkac["p0"],
                fordkac["stride"]) == (1e-3, 0.0, 0.0, 1)

    def test_division_screen_covers_the_real_line_on_euclidean_domains(
            self, tmp_path, capsys):
        raw = json.loads(golden_text())
        raw["model"]["domain"]["kind"] = "euclidean"
        raw["model"]["force"] = {"kind": "nonconservative",
                                 "components": ["1/(q1-2)"]}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(raw))
        assert dispatch(["check", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: model.force.components.0: ")
        raw["model"]["force"]["components"] = ["1/(2+cos(q1))"]
        parse_config(json.dumps(raw))

    def test_shipped_configs_and_bench_inputs_parse(self, monkeypatch):
        import importlib

        for name in sorted(os.listdir(CONFIG_DIR)):
            load_config(config_path(name))
        monkeypatch.syspath_prepend(BENCH_DIR)
        for name in ("chain", "posdep_ensemble", "kernel_sweep",
                     "fordkac_bath"):
            workload = importlib.import_module(name)
            for size in workload.SIZES:
                inputs = workload.make_inputs(1, 0, size)
                for spec in inputs.get("models", [inputs]):
                    parse_config(spec["config_text"])

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"model": }')
        assert "line 1" in str(err.value)

    def test_example_torus_builder(self):
        with open(config_path("example_torus.json")) as handle:
            config = parse_config(handle.read())
        assert not config.model.coeffs.constant
        assert np.allclose(config.model.Q, np.eye(1))
        assert np.allclose(config.lyapunov_C, EXAMPLE_TORUS_C)
        gamma = config.model.coeffs.gamma(np.array([0.0]))
        assert gamma[0, 1] == pytest.approx(-3.0)
        assert gamma[1, 0] == pytest.approx(3.0)

    def test_example_torus_published_noise_value_is_inconsistent(self):
        raw = json.loads(open(config_path("example_torus.json")).read())
        raw["coefficients"]["sigma22"] = 1.0
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    def test_position_dependent_entries_are_screened(self):
        raw = json.loads(golden_text())
        raw["coefficients"] = {
            "kind": "position_dependent", "m": 1,
            "gamma": [["0", "q1"], ["1", "1"]],
            "sigma": [["0", "0"], ["0", "1"]]}
        with pytest.raises(ConfigError):  # bare q1 is not torus-periodic
            parse_config(json.dumps(raw))

    def test_expression_backed_coefficients_accepted(self):
        raw = json.loads(golden_text())
        raw["coefficients"] = {
            "kind": "position_dependent", "m": 1, "Q": [[1.0]],
            "gamma": [["0", "0-(2+cos(2*pi*q1))"], ["2+cos(2*pi*q1)", "1"]],
            "sigma": [["0", "0"], ["0", "1.4142135623730951"]]}
        config = parse_config(json.dumps(raw))
        gamma = config.model.coeffs.gamma(np.array([0.5]))
        assert gamma[0, 1] == pytest.approx(-1.0)

    def test_shape_errors_name_the_path(self):
        raw = json.loads(golden_text())
        raw["model"]["mass"] = [[1.0, 0.0]]
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert "mass" in str(err.value)

    def test_noneq_builder(self):
        raw = json.loads(golden_text())
        raw["model"]["force"] = {"kind": "zero"}
        raw["coefficients"] = {
            "kind": "noneq", "m_hat": 1,
            "gamma1": {"g11": [[0.0]], "g12": [[-1.0]], "g21": [[1.0]],
                        "g22": [[1.0]]},
            "gamma2": {"g12": [[0.5]], "g22": [[2.0]]},
            "sigma": {"s11": [[0.2]], "s22": [[2.0]]}}
        config = parse_config(json.dumps(raw))
        assert config.model.coeffs.m == 2
        assert config.model.Q is None

    @pytest.mark.parametrize("where, value, path", [
        (("gamma2", "g12"), [[0.5, 0.1]], ("gamma2", "g12")),
        (("gamma1", "g22"), [[1.0, 0.0], [0.0, 1.0]], ("gamma1", "g22")),
        (("sigma", "s22"), [[2.0, 0.0]], ("sigma", "s22")),
        (("m_hat",), 2, ("m_hat",)),
    ])
    def test_noneq_shape_errors_name_the_block(self, where, value, path):
        raw = json.loads(golden_text())
        raw["model"]["force"] = {"kind": "zero"}
        raw["coefficients"] = {
            "kind": "noneq", "m_hat": 1,
            "gamma1": {"g11": [[0.0]], "g12": [[-1.0]], "g21": [[1.0]],
                        "g22": [[1.0]]},
            "gamma2": {"g12": [[0.5]], "g22": [[2.0]]},
            "sigma": {"s11": [[0.2]], "s22": [[2.0]]}}
        node = raw["coefficients"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert err.value.path == ("coefficients",) + path
        assert str(err.value).startswith(
            ".".join(("coefficients",) + path) + ": ")

    def test_constant_kind_without_fdt_solution_parses_without_q(self):
        # G22 = [[0, 1], [-1, 0]] leaves the auxiliary Lyapunov equation
        # singular; the model is kept as a non-equilibrium one
        raw = json.loads(golden_text())
        raw["model"]["force"] = {"kind": "zero"}
        raw["coefficients"] = {
            "kind": "constant", "m": 2,
            "gamma": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
            "sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
        config = parse_config(json.dumps(raw))
        assert config.model.coeffs.m == 2
        assert config.model.Q is None

    def test_fuzzed_mutations_always_diagnose(self):
        # character-level mutations of the golden file must never escape as
        # uncontrolled exceptions
        text = golden_text()
        rng = np.random.default_rng(0)
        mutations = 0
        specials = list('{}[]",:0123456789')
        while mutations < 120:
            chars = list(text)
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, len(chars)))
            if op == 0:
                chars[pos] = str(rng.choice(specials))
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, str(rng.choice(specials)))
            mutated = "".join(chars)
            if mutated == text:
                continue
            mutations += 1
            try:
                parse_config(mutated)
            except (ConfigError, ValueError):
                pass

    def test_fuzzed_value_swaps_always_diagnose(self):
        # structural mutations: replace any leaf or subtree by a wrong-typed
        # value; every outcome must be a diagnostic, not a crash
        rng = np.random.default_rng(1)
        wrong = [None, True, 3, "x", [], {}, [[1, 2]], {"a": 1}]

        def paths(node, prefix=()):
            out = [prefix]
            if isinstance(node, dict):
                for key, value in node.items():
                    out += paths(value, prefix + (key,))
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    out += paths(value, prefix + (i,))
            return out

        base = json.loads(golden_text())
        all_paths = [p for p in paths(base) if p]
        for _ in range(150):
            raw = json.loads(golden_text())
            target = all_paths[rng.integers(0, len(all_paths))]
            node = raw
            for key in target[:-1]:
                node = node[key]
            node[target[-1]] = wrong[rng.integers(0, len(wrong))]
            try:
                parse_config(json.dumps(raw))
            except (ConfigError, ValueError):
                pass


class TestDispatch:
    def test_check_on_prony_config(self, capsys):
        code = dispatch(["check", "--config", config_path("prony.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "stability" in out and "fdt" in out and "hormander" in out

    def test_check_json_format(self, capsys):
        code = dispatch(["check", "--config", config_path("prony.json"),
                         "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        kinds = {c["kind"] for c in report["certificates"]}
        assert {"stability", "fdt", "purecolor"} <= kinds
        assert all(c["satisfied"] for c in report["certificates"])

    def test_figure_eigs_values(self, tmp_path, capsys):
        code = dispatch(["figure-eigs", "--config",
                         config_path("example_torus.json"),
                         "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "figure_eigs.csv").read_text().splitlines()
        assert rows[0] == "q,lambda_min,lambda_max"
        assert len(rows) == 1002
        data = np.array([[float(x) for x in row.split(",")]
                         for row in rows[1:]])
        mid = data[np.argmin(np.abs(data[:, 0] - 0.5))]
        assert mid[1] == pytest.approx(0.3241, abs=1e-3)
        assert np.all(data[:, 1] > 0)
        first = data[0]
        assert first[1] == pytest.approx(1.0, abs=1e-9)
        assert first[2] == pytest.approx(1.0, abs=1e-9)

    def test_simulate_writes_trajectory_and_sidecar(self, tmp_path, capsys):
        code = dispatch(["simulate", "--config",
                         config_path("example_torus.json"),
                         "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,q_1,p_1,s_1"
        assert (tmp_path / "noise.qgln").exists()

    def test_seed_override_changes_output(self, tmp_path):
        for seed, name in ((1, "a"), (2, "b"), (1, "c")):
            out = tmp_path / name
            assert dispatch(["simulate", "--config", config_path("prony.json"),
                             "--seed", str(seed), "--out", str(out)]) == 0
        a = (tmp_path / "a" / "trajectory.csv").read_text()
        b = (tmp_path / "b" / "trajectory.csv").read_text()
        c = (tmp_path / "c" / "trajectory.csv").read_text()
        assert a != b
        assert a == c

    def test_fordkac_runs_and_reports_drift(self, tmp_path, capsys):
        code = dispatch(["fordkac", "--config", config_path("fordkac.json"),
                         "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relative_energy_drift"] <= 1e-4

    def test_fordkac_csv_bytes_match_the_row_format(self, tmp_path,
                                                    monkeypatch):
        import qgle.cli as cli

        runs = []
        simulate_bath = cli.fordkac_simulate

        def recording_simulate(*args, **kwargs):
            runs.append(simulate_bath(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "fordkac_simulate", recording_simulate)
        with open(config_path("fordkac.json")) as handle:
            raw = json.load(handle)
        raw["fordkac"]["stride"] = 1  # 10001 rows: several 4096-row blocks
        path = tmp_path / "fordkac.json"
        path.write_text(json.dumps(raw))
        assert dispatch(["fordkac", "--config", str(path),
                         "--out", str(tmp_path)]) == 0
        traj = runs[0]
        expected = "t,q,p,energy\r\n" + "".join(
            f"{float(t)!r},{float(q)!r},{float(p)!r},{float(e)!r}\r\n"
            for t, q, p, e in zip(traj.times, traj.q, traj.p, traj.energy))
        assert len(traj.times) == 10001
        assert (tmp_path / "fordkac.csv").read_bytes() == expected.encode()

    def test_fordkac_integrates_the_model_force(self, tmp_path, monkeypatch):
        import qgle.cli as cli

        loaded, forces = [], []
        load, simulate_bath = cli.load_config, cli.fordkac_simulate

        def recording_load(path):
            loaded.append(load(path))
            return loaded[-1]

        def recording_simulate(force, *args, **kwargs):
            forces.append(force)
            return simulate_bath(force, *args, **kwargs)

        monkeypatch.setattr(cli, "load_config", recording_load)
        monkeypatch.setattr(cli, "fordkac_simulate", recording_simulate)
        assert dispatch(["fordkac", "--config", config_path("fordkac.json"),
                         "--out", str(tmp_path)]) == 0
        assert forces == [loaded[0].model.force]

    @pytest.mark.parametrize("model, reason", [
        ({"domain": {"kind": "euclidean", "dim": 2},
          "force": {"kind": "harmonic", "stiffness": [[1.0, 0.0], [0.0, 1.0]]}},
         "1-d model"),
        ({"domain": {"kind": "euclidean", "dim": 1},
          "force": {"kind": "nonconservative", "components": ["0-q1"]}},
         "conservative model.force"),
    ])
    def test_fordkac_rejects_models_without_a_1d_hamiltonian(
            self, tmp_path, capsys, model, reason):
        with open(config_path("fordkac.json")) as handle:
            raw = json.load(handle)
        raw["model"] = model
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert dispatch(["fordkac", "--config", str(path),
                         "--out", str(tmp_path)]) == 3
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "fordkac.csv").exists()

    @pytest.mark.parametrize("change, path, message", [
        (lambda spec: spec.pop("c"), "fordkac.spectrum", "missing key 'c'"),
        (lambda spec: spec.update(typo=1.0), "fordkac.spectrum",
         "unknown key 'typo'"),
        (lambda spec: spec.update(kind="lorentz"), "fordkac.spectrum.kind",
         "kind must be 'exponential' or 'modes'"),
        (lambda spec: spec.update(alpha="fast"), "fordkac.spectrum.alpha",
         "expected a number"),
        (lambda spec: spec.update(m_modes=0), "fordkac.spectrum.m_modes",
         "must be positive"),
        (lambda spec: spec.update(omega_max=-20.0),
         "fordkac.spectrum.omega_max", "must be positive"),
        (lambda spec: spec.update(modes=[[1.0, 2.0]]), "fordkac.spectrum",
         "unknown key 'modes'"),
        (lambda spec: (spec.clear(), spec.update(kind="modes", modes=[
            [1.0, 2.0], [1.0]])), "fordkac.spectrum.modes",
         "modes must be an array of [k, omega] pairs"),
        (lambda spec: (spec.clear(), spec.update(kind="modes", modes=[
            [1.0, -2.0]])), "fordkac.spectrum.modes.0",
         "must be positive, got -2.0"),
    ], ids=["missing-c", "unknown-key", "kind", "alpha-type", "m_modes",
            "omega_max", "key-of-other-kind", "mode-shape", "mode-sign"])
    def test_fordkac_spectrum_errors_name_their_key(self, tmp_path, capsys,
                                                    change, path, message):
        with open(config_path("fordkac.json")) as handle:
            raw = json.load(handle)
        change(raw["fordkac"]["spectrum"])
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        assert dispatch(["fordkac", "--config", str(config),
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"error: {path}: " in err
        assert message in err
        assert not (tmp_path / "fordkac.csv").exists()

    def test_fordkac_runs_a_modes_spectrum(self, tmp_path):
        with open(config_path("fordkac.json")) as handle:
            raw = json.load(handle)
        raw["fordkac"]["spectrum"] = {"kind": "modes",
                                      "modes": [[0.5, 1.0], [0.2, 3.0]]}
        raw["fordkac"]["T"] = 1.0
        config = tmp_path / "modes.json"
        config.write_text(json.dumps(raw))
        assert dispatch(["fordkac", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fordkac.csv").read_text().splitlines()
        assert len(rows) == 1 + 1000 // 10 + 1

    @pytest.mark.parametrize("domain", ["torus", "euclidean"])
    def test_simulate_and_analyze_share_the_start(self, tmp_path,
                                                  monkeypatch, domain):
        import qgle.cli as cli

        raw = json.loads(golden_text())
        if domain == "euclidean":
            raw["model"]["domain"]["kind"] = "euclidean"
            raw["model"]["force"] = {"kind": "harmonic", "stiffness": [[1.0]]}
        path = tmp_path / "start.json"
        path.write_text(json.dumps(raw))
        starts = []
        simulate_model = cli.simulate

        def recording_simulate(model, integ, initial):
            starts.append(initial)
            return simulate_model(model, integ, initial)

        monkeypatch.setattr(cli, "simulate", recording_simulate)
        for command in ("simulate", "analyze"):
            assert dispatch([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0
        assert len(starts) == 2
        assert all(isinstance(start, cli.GibbsInit) for start in starts)
        if domain == "torus":
            assert starts[0].q0 is None and starts[1].q0 is None
        else:
            assert np.array_equal(starts[0].q0, np.zeros(1))
            assert np.array_equal(starts[1].q0, np.zeros(1))

    def test_analyze_emits_stable_json(self, tmp_path, capsys):
        code = dispatch(["analyze", "--config", config_path("prony.json"),
                         "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["provenance"]["seed"] == 42
        assert report["provenance"]["dt"] == pytest.approx(1e-3)
        assert "sigma" in report and "moments" in report
        # stable key order on disk
        text = (tmp_path / "report.json").read_text()
        assert text.index('"certificates"') < text.index('"moments"') \
            < text.index('"provenance"')

    def test_analyze_rate_fit_section(self, tmp_path, capsys):
        raw = json.loads(golden_text())
        raw["integrator"].update({"scheme": "semi_exact_splitting",
                                  "dt": 0.005, "n_steps": 3200, "stride": 4})
        raw["coefficients"]["modes"] = [{"c": 9.0, "alpha": 3.0}]
        raw["model"]["force"]["potential"] = "0.5*cos(2*pi*q1)"
        raw["analysis"]["rate_replicas"] = 64
        path = tmp_path / "rate.json"
        path.write_text(json.dumps(raw))
        assert dispatch(["analyze", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_fit"]["status"] == "fitted"
        assert report["rate_fit"]["kappa"] > 0

    @pytest.mark.parametrize("key, value", [
        ("sigma_method", "bogus"), ("n_batches", "x"), ("burn_in", 2.0)])
    def test_analyze_rejects_bad_settings_before_simulating(
            self, tmp_path, capsys, monkeypatch, key, value):
        import qgle.cli as cli

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran on a bad setting")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        raw = json.loads(golden_text())
        raw["analysis"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert dispatch(["analyze", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: analysis.{key}: ")

    def test_rate_fit_uses_the_observable_on_a_2d_torus(self, tmp_path,
                                                         monkeypatch):
        import qgle.cli
        import qgle.stats

        ensembles, fitted = [], []
        run_ensemble = qgle.cli.simulate_ensemble

        def recording_ensemble(*args, **kwargs):
            ensembles.append(run_ensemble(*args, **kwargs))
            return ensembles[-1]

        def recording_fit(times, values, mu=None):
            fitted.append(values)
            return qgle.stats.RateFit(kappa=1.0, r_squared=1.0,
                                      window=(0, 3), mu=0.0)

        # the CLI's own bindings: it imports both names at its top
        monkeypatch.setattr(qgle.cli, "simulate_ensemble", recording_ensemble)
        monkeypatch.setattr(qgle.cli, "geometric_rate_fit", recording_fit)
        raw = json.loads(golden_text())
        raw["model"]["domain"]["dim"] = 2
        raw["model"]["mass"] = [[1.0, 0.0], [0.0, 1.0]]
        raw["model"]["force"]["potential"] = "cos(2*pi*q1)+cos(2*pi*q2)"
        raw["integrator"]["n_steps"] = 200
        raw["analysis"].update({"observable": "sin(2*pi*q2)",
                                "rate_replicas": 4})
        path = tmp_path / "torus2.json"
        path.write_text(json.dumps(raw))
        dispatch(["analyze", "--config", str(path)])
        q = ensembles[0].q
        assert len(fitted) == 1
        np.testing.assert_allclose(fitted[0], np.sin(2.0 * np.pi * q[..., 1]),
                                   rtol=1e-12, atol=1e-15)

    def test_unknown_subcommand_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_unsatisfied_certificate_exits_1(self, tmp_path, capsys):
        # unstable friction: the stability certificate fails, exit code 1
        raw = json.loads(golden_text())
        raw["model"]["force"] = {"kind": "zero"}
        raw["coefficients"] = {
            "kind": "constant", "m": 1, "Q": [[1.0]],
            "gamma": [[-1.0, 0.0], [0.0, 1.0]],
            "sigma": [[0.0, 0.0], [0.0, 1.4142135623730951]]}
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(raw))
        code = dispatch(["check", "--config", str(path)])
        assert code == 1
        assert "UNSATISFIED" in capsys.readouterr().out

    def test_missing_config_is_runtime_failure(self, capsys):
        code = dispatch(["check", "--config", "/nonexistent.json",
                         "--format", "json"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_kernel_csv_on_position_dependent_coefficients_exits_3(
            self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code = dispatch(["check", "--config",
                         config_path("example_torus.json"),
                         "--kernel-csv", str(out)])
        assert code == 3
        assert "--kernel-csv needs constant coefficients" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_kernel_csv_export(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code = dispatch(["check", "--config", config_path("prony.json"),
                         "--kernel-csv", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t,K"
        t0, k0 = (float(x) for x in rows[1].split(","))
        assert (t0, k0) == (0.0, pytest.approx(1.0))
