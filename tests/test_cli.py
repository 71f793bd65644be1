import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cablemass import analysis, cli, linalg, rom
from cablemass.cli import (DEFAULT_PARAMS, PRESETS, ExperimentConfig,
                           ParseError, ValidationError, get_preset,
                           load_config, main, run_command)
from cablemass.model import PhysicalParams
from cablemass.signals import InputSpec, eval_input, input_preset
from conftest import first_run_steps, record_real_schur

README = Path(__file__).resolve().parents[1] / "README.md"


# preset parameter sets, frozen (fixed params l=1, m0=1, ml=1.5,
# k3=1, beta=1 everywhere)
CAPTIONS = {
    "exp_stab_Ex1": dict(gamma=0.1, alphal=0.1, k0=1.0, kl=1.0,
                         alpha=0.0, alpha0=0.0),
    "exp_stability2": dict(gamma=0.0, alpha=0.01, alpha0=0.01, alphal=0.01,
                           k0=0.01, kl=0.01),
    "small_damp_ex1_in2": dict(gamma=0.001, alphal=0.1, k0=0.1, kl=0.1,
                               alpha=0.0, alpha0=0.0),
    "small_damp_ex5_in4": dict(gamma=0.001, alpha=0.0, alpha0=0.0,
                               alphal=0.0, k0=0.1, kl=0.1),
    "small_stiff_ex2_in1": dict(gamma=0.0, alpha=0.1, alpha0=0.1, alphal=0.1,
                                k0=0.001, kl=0.001),
    "small_stiff_ex1_in4": dict(gamma=0.1, alphal=0.1, alpha=0.0,
                                alpha0=0.0, k0=0.001, kl=0.001),
    "small_stiff_ex5_in4": dict(gamma=0.1, alpha=0.0, alpha0=0.0,
                                alphal=0.0, k0=0.001, kl=0.001),
    "small_all_ex3_in2": dict(gamma=0.001, alpha=0.001, alpha0=0.0,
                              alphal=0.0, k0=0.001, kl=0.001),
    "small_all_ex3_in4": dict(gamma=0.001, alpha=0.001, alpha0=0.0,
                              alphal=0.0, k0=0.001, kl=0.001),
}


def tiny_config(out_dir, preset="example1_input2_smalldamp", n=20, r=4,
                tf=5.0, extra=""):
    return f"""
[experiment]
preset = {preset}
n = {n}
r = {r}
tf = {tf}
rtol = 1e-4
atol = 1e-7
sample_count = 60
out = {out_dir}
{extra}
"""


class TestPresets:
    def test_catalog_matches_captions(self):
        assert set(PRESETS) == set(CAPTIONS)
        for name, fields in CAPTIONS.items():
            params = PRESETS[name].params
            assert (params.l, params.m0, params.ml, params.k3, params.beta) \
                == (1.0, 1.0, 1.5, 1.0, 1.0), name
            for field, value in fields.items():
                assert getattr(params, field) == value, (name, field)

    def test_alias(self):
        assert get_preset("example1_input2_smalldamp") is \
            PRESETS["small_damp_ex1_in2"]

    def test_unknown_preset(self):
        with pytest.raises(ValidationError) as err:
            get_preset("example9")
        assert err.value.field == "preset"

    def test_energy_presets_flagged(self):
        assert PRESETS["exp_stab_Ex1"].energy_study
        assert PRESETS["exp_stability2"].energy_study
        assert not PRESETS["small_damp_ex1_in2"].energy_study


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None, env={})
        assert cfg.n == 100
        assert cfg.input.kind == "input1"
        assert (cfg.params.l, cfg.params.m0, cfg.params.ml,
                cfg.params.k3, cfg.params.beta) == (1.0, 1.0, 1.5, 1.0, 1.0)
        assert cfg.r == 4
        assert cfg.rtol == 1e-3 and cfg.atol == 1e-6
        assert cfg.input2_mode == "literal"

    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_config(path, env={})
        assert cfg.n == 100 and cfg.input.kind == "input1"

    def test_preset_resolution(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\npreset = example1_input2_smalldamp\n")
        cfg = load_config(path, env={})
        p = cfg.params
        assert (p.gamma, p.alphal, p.k0, p.kl) == (0.001, 0.1, 0.1, 0.1)
        assert (p.alpha, p.alpha0) == (0.0, 0.0)
        assert cfg.input.kind == "input2"
        assert cfg.preset == "small_damp_ex1_in2"

    def test_params_section_overrides_preset(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\npreset = exp_stab_Ex1\n"
                        "[params]\ngamma = 0.25\n")
        cfg = load_config(path, env={})
        assert cfg.params.gamma == 0.25
        assert cfg.params.alphal == 0.1  # preset value retained

    def test_negative_mass_named(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[params]\nm0 = -1.0\n")
        with pytest.raises(ValidationError) as err:
            load_config(path, env={})
        assert err.value.field == "m0"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[params]\nmass = 1.0\n")
        with pytest.raises(ValidationError) as err:
            load_config(path, env={})
        assert err.value.field == "mass"

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[solver]\nx = 1\n")
        with pytest.raises(ValidationError):
            load_config(path, env={})

    def test_parse_error_with_line(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nthis line has no equals sign\n")
        with pytest.raises(ParseError) as err:
            load_config(path, env={})
        assert err.value.line == 2

    def test_bad_number(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\ntf = soon\n")
        with pytest.raises(ValidationError) as err:
            load_config(path, env={})
        assert err.value.field == "tf"

    def test_bad_input_kind(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[input]\nkind = input7\n")
        with pytest.raises(ValidationError) as err:
            load_config(path, env={})
        assert err.value.field == "kind"

    @pytest.mark.parametrize("text,field", [
        ("kind = input3\nc1 = 0.1\nm = -1\n", "m"),
        ("c2 = 0.2\nnfreq = -2\n", "nfreq"),
        ("c1 = 0.1\nscale = inf\n", "scale"),
        ("kind = input2\na = 0.3\n", "b")],
        ids=["m", "nfreq", "scale", "a_without_b"])
    def test_bad_input_value_named(self, tmp_path, text, field):
        path = tmp_path / "c.ini"
        path.write_text("[input]\n" + text)
        with pytest.raises(ValidationError) as err:
            load_config(path, env={})
        assert err.value.field == field
        assert str(err.value).startswith(field)

    @pytest.mark.parametrize("field,value", [
        ("n", "2"), ("t0", "nan"), ("t0", "-inf"), ("tf", "inf"),
        ("tf", "nan"), ("rtol", "nan"), ("rtol", "inf"), ("atol", "nan"),
        ("atol", "inf")])
    def test_invariant_checks(self, tmp_path, field, value):
        path = tmp_path / "c.ini"
        path.write_text(f"[experiment]\n{field} = {value}\n")
        with pytest.raises(ValidationError) as err:
            load_config(path, env={})
        assert err.value.field == field

    def test_precedence_env_over_file_cli_over_env(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nn = 50\n")
        env = {"CABLEMASS_N": "60"}
        assert load_config(path, env=env).n == 60
        assert load_config(path, cli_overrides={"n": 70}, env=env).n == 70

    def test_env_preset(self):
        cfg = load_config(None, env={"CABLEMASS_PRESET": "small_stiff_ex5_in4"})
        assert cfg.tf == 300.0
        assert cfg.input.kind == "input4"

    def test_process_environment_is_default(self, monkeypatch):
        monkeypatch.setenv("CABLEMASS_N", "37")
        assert load_config(None).n == 37

    @pytest.mark.parametrize("key,attr,values", [
        # default, preset small_stiff_ex5_in4, file, env, flag
        ("n", "n", [100, 100, 50, 60, 70]),
        ("tf", "tf", [100.0, 300.0, 40.0, 50.0, 60.0]),
        ("out", "out_dir", ["out", "out", "file", "env", "flag"]),
        ("preset", "preset", [None, "small_stiff_ex5_in4", "exp_stab_Ex1",
                              "exp_stability2", "small_damp_ex1_in2"])])
    def test_flag_env_file_preset_default(self, tmp_path, key, attr, values):
        path = tmp_path / "c.ini"
        for top, expected in enumerate(values):
            exp = {"preset": "small_stiff_ex5_in4"} if top >= 1 else {}
            if top >= 2:
                exp[key] = values[2]
            path.write_text("[experiment]\n" + "".join(
                f"{k} = {v}\n" for k, v in exp.items()))
            env = {f"CABLEMASS_{key.upper()}": str(values[3])} \
                if top >= 3 else {}
            flags = {key: values[4]} if top >= 4 else {}
            cfg = load_config(path, cli_overrides=flags, env=env)
            assert getattr(cfg, attr) == expected, top

    def test_bad_file_value_raises_under_override(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nn = abc\n")
        with pytest.raises(ValidationError) as err:
            load_config(path, cli_overrides={"n": 20},
                        env={"CABLEMASS_N": "30"})
        assert err.value.field == "n"

    def test_config_path_from_env_and_flag(self, tmp_path):
        env_file, flag_file = tmp_path / "env.ini", tmp_path / "flag.ini"
        env_file.write_text("[experiment]\nn = 40\n")
        flag_file.write_text("[experiment]\nn = 45\n")
        env = {"CABLEMASS_CONFIG": str(env_file)}
        assert load_config(None, env=env).n == 40
        assert load_config(None, cli_overrides={"config": str(flag_file)},
                           env=env).n == 45
        # an explicit path beats both
        assert load_config(env_file, cli_overrides={
            "config": str(flag_file)}, env=env).n == 40

    def test_unknown_override(self):
        with pytest.raises(ValidationError) as err:
            load_config(None, cli_overrides={"rtol": 1e-6}, env={})
        assert err.value.field == "rtol"

    def test_readme_example_loads(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(),
                          re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cfg = load_config(path, env={})
        assert cfg.preset == "small_damp_ex1_in2"
        assert (cfg.n, cfg.r, cfg.sample_count) == (100, 4, 1000)
        assert cfg.out_dir == "results" and not cfg.energy_study
        assert cfg.params.gamma == 0.1 and cfg.input.kind == "input1"
        # the example sets every [experiment] and [params] key
        sections = cli._read_ini(path)
        assert set(sections["experiment"]) == set(cli._EXPERIMENT)
        assert set(sections["params"]) == {
            f.name for f in fields(PhysicalParams)}
        assert set(sections["input"]) <= {f.name for f in fields(InputSpec)}

    def test_input_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[input]\nkind = input3\nc1 = 0.1\nscale = 2.0\n")
        cfg = load_config(path, env={})
        assert cfg.input.kind == "input3"
        assert cfg.input.c1 == 0.1
        assert eval_input(cfg.input, 0.0) == pytest.approx(2.0 * 0.05)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig(
        params=PRESETS["small_damp_ex1_in2"].params,
        input=cli.signals.input_preset("input2"),
        n=20, r=4, tf=5.0, rtol=1e-4, atol=1e-7, sample_count=60,
        out_dir=str(out))
    return run_command("compare", cfg), out, cfg


def _fmt(value) -> str:
    """The reference formatting of one CSV value, a value at a time."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


class TestCsvFormat:
    """Rows formatted by one template equal the value-at-a-time reference."""

    VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300,
              5e-324, 1e300, 0.1, -1.0 / 3.0, 123456789.0, 1.0, -7.0]

    def test_floats(self, tmp_path, rng):
        values = np.array(self.VALUES + rng.standard_normal(40).tolist()
                          + (10.0 ** rng.uniform(-300, 300, 40)).tolist())
        rows = values.reshape(-1, 5)
        path = tmp_path / "f.csv"
        cli._write_csv(path, ("a", "b", "c", "d", "e"), rows.tolist())
        expected = "a,b,c,d,e\n" + "".join(
            ",".join(_fmt(x) for x in row) + "\n" for row in rows)
        assert path.read_text() == expected

    def test_hsv_index_and_error_labels(self, tmp_path):
        hsv = np.array([2.0, 1e-300, 5e-324, 0.0])
        path = tmp_path / "hsv.csv"
        cli.write_hsv_csv(path, hsv)
        expected = "index,sigma,bound\n" + "".join(
            ",".join(_fmt(x) for x in (i + 1, hsv[i],
                                       cli.balance.error_bound(hsv, i + 1)))
            + "\n" for i in range(hsv.size))
        assert path.read_text() == expected
        metrics = SimpleNamespace(
            rel_l2_per_channel=np.array([-0.0, np.nan]),
            rel_linf_per_channel=np.array([np.inf, 1e-300]),
            rel_l2=0.1, rel_linf=3)
        path = tmp_path / "error.csv"
        cli.write_error_csv(path, metrics)
        rows = [("y1", -0.0, np.inf), ("y2", np.nan, 1e-300),
                ("combined", 0.1, 3)]
        assert path.read_text() == "channel,rel_l2,rel_linf\n" + "".join(
            ",".join(_fmt(x) for x in row) + "\n" for row in rows)


class TestRunExperiment:
    """Artifacts of one full ``compare`` run."""

    def test_artifact_files_exist(self, artifacts):
        paths, out, _ = artifacts
        assert set(paths) == {"eigs", "hsv", "outputs", "error"}
        for path in paths.values():
            assert (out / path.split("/")[-1]).exists()

    def test_outputs_shape(self, artifacts):
        paths, _, cfg = artifacts
        rows = open(paths["outputs"]).read().strip().split("\n")
        assert rows[0] == "t,y1_fom,y2_fom,y1_rom,y2_rom"
        assert len(rows) == 1 + cfg.sample_count

    def test_eigs_columns(self, artifacts):
        paths, _, cfg = artifacts
        data = np.genfromtxt(paths["eigs"], delimiter=",", names=True)
        assert data.shape[0] == 2 * cfg.n
        assert data["re"].max() < 0.0

    def test_hsv_bound_column(self, artifacts):
        paths, _, _ = artifacts
        data = np.genfromtxt(paths["hsv"], delimiter=",", names=True)
        assert np.all(np.diff(data["sigma"]) <= 1e-12)
        assert np.all(np.diff(data["bound"]) <= 1e-12)
        np.testing.assert_allclose(data["bound"][:-1] - data["bound"][1:],
                                   2.0 * data["sigma"][1:], rtol=1e-12)

    def test_determinism(self, artifacts, tmp_path):
        _, out, cfg = artifacts
        cfg2 = ExperimentConfig(**{**cfg.__dict__, "out_dir": str(tmp_path)})
        paths2 = run_command("compare", cfg2)
        for name in ("eigs", "hsv", "outputs", "error"):
            first = open(out / f"{name}.csv", "rb").read()
            second = open(paths2[name], "rb").read()
            assert first == second, name

    def test_one_schur_factor(self, tmp_path, monkeypatch):
        # eigs.csv, the Gramians and the input-2 frequencies share it
        calls = record_real_schur(monkeypatch)
        cfg = ExperimentConfig(
            params=PRESETS["small_damp_ex1_in2"].params,
            input=cli.signals.input_preset("input2"),
            n=10, r=4, tf=2.0, sample_count=20, out_dir=str(tmp_path))
        run_command("compare", cfg)
        assert calls == [20]

    def test_energy_study(self, tmp_path):
        cfg = ExperimentConfig(
            params=DEFAULT_PARAMS, input=cli.signals.input_preset("zero"),
            n=20, r=4, tf=5.0, rtol=1e-4, atol=1e-7, sample_count=80,
            out_dir=str(tmp_path), energy_study=True)
        paths = run_command("compare", cfg)
        assert "energy" in paths
        data = np.genfromtxt(paths["energy"], delimiter=",", names=True)
        assert len(data) == 80
        e = data["E"]
        assert np.all(np.diff(e) <= 1e-6 * e[0])
        np.testing.assert_allclose(e, data["EK"] + data["EP"], rtol=1e-12)

    def test_linear_error_consistent_with_bound(self, tmp_path):
        # for k3 = 0 the time-domain output error is bounded by the
        # H-infinity bound times the input L2 norm (causal system,
        # zero initial data); integrator slack added
        params = PhysicalParams(gamma=0.1, alphal=0.1, k0=1.0, kl=1.0, k3=0.0)
        cfg = ExperimentConfig(
            params=params, input=cli.signals.input_preset("input1"),
            n=30, r=4, tf=20.0, rtol=1e-6, atol=1e-9, sample_count=400,
            out_dir=str(tmp_path))
        paths = run_command("compare", cfg)
        hsv = np.genfromtxt(paths["hsv"], delimiter=",", names=True)
        bound = float(hsv["bound"][cfg.r - 1])
        out = np.genfromtxt(paths["outputs"], delimiter=",", names=True)
        diff = np.hypot(out["y1_fom"] - out["y1_rom"],
                        out["y2_fom"] - out["y2_rom"])
        u = np.array([eval_input(cfg.input, t) for t in out["t"]])
        assert np.linalg.norm(diff) <= bound * np.linalg.norm(u) + 1e-4


@pytest.fixture(scope="module")
def compare_dirs(tmp_path_factory):
    """compare's artifacts at n = 20, energy study on, one dir per preset."""
    dirs = {}
    for preset in ("exp_stab_Ex1", "small_damp_ex1_in2"):
        root = tmp_path_factory.mktemp(preset)
        cfg_path = root / "cfg.ini"
        cfg_path.write_text(tiny_config(root / "run", preset=preset,
                                        extra="energy_study = true"))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        dirs[preset] = root / "run"
    return dirs


class TestMain:
    @pytest.mark.parametrize("command,files", [
        ("eigs", {"eigs.csv"}), ("balance", {"hsv.csv"}),
        ("simulate", {"outputs.csv"}), ("energy", {"energy.csv"})])
    @pytest.mark.parametrize("preset", ["exp_stab_Ex1", "small_damp_ex1_in2"])
    def test_subcommand_writes_compare_files(self, compare_dirs, tmp_path,
                                             capsys, preset, command, files):
        # each subcommand writes exactly its own artifacts, byte for byte
        # the files compare writes for the same config
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(tiny_config(tmp_path / "run", preset=preset,
                                        extra="energy_study = true"))
        assert main([command, "--config", str(cfg_path)]) == 0
        assert {f.name for f in (tmp_path / "run").iterdir()} == files
        for name in files:
            assert (tmp_path / "run" / name).read_bytes() == \
                (compare_dirs[preset] / name).read_bytes(), name
        assert "nodes n=20" in capsys.readouterr().out

    def test_build_writes_nothing(self, tmp_path):
        assert main(["build", "--preset", "exp_stab_Ex1", "--n", "20",
                     "--out", str(tmp_path / "run")]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_balance_checks_r(self, tmp_path, capsys):
        # exp_stab_Ex1 at n = 20 has Hankel rank 18
        assert main(["balance", "--preset", "exp_stab_Ex1", "--n", "20",
                     "--r", "30", "--out", str(tmp_path)]) == 1
        assert "exceeds numerical rank" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, bound", [
        # Hankel rank 4 of 200 states at n = 100: no resolved tail at
        # r = 4, though that ROM's rel_l2 is 0.51
        ("small_stiff_ex5_in4",
         "unresolved: r is the numerical Hankel rank 4 of 200 states"),
        # rank 19: the resolved tail's bound, as before
        ("exp_stab_Ex1", "0.153827")],
        ids=["small_stiff_ex5_in4", "exp_stab_Ex1"])
    def test_balance_logs_error_bound(self, tmp_path, capsys, preset, bound):
        assert main(["balance", "--preset", preset, "--r", "4",
                     "--out", str(tmp_path)]) == 0
        assert f"retained r=4, error bound {bound}" in (
            capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("preset, rank", [
        # Hankel rank 6 of 40 states: the tail past it was cut off
        ("small_stiff_ex5_in4", 6),
        # full rank: the last bound is resolved, 0
        ("exp_stability2", 40)])
    def test_hsv_unresolved_bound_is_nan(self, tmp_path, capsys, preset,
                                         rank):
        for r in (4, rank):
            assert main(["balance", "--preset", preset, "--n", "20", "--r",
                         str(r), "--out", str(tmp_path)]) == 0
            bound = np.genfromtxt(tmp_path / "hsv.csv", delimiter=",",
                                  names=True)["bound"]
            assert bound.size == rank and np.all(np.isfinite(bound[:-1]))
            assert np.isnan(bound[-1]) if rank < 40 else bound[-1] == 0.0
        # the log line at r = rank reads the same helper
        line = capsys.readouterr().out.splitlines()[-2]
        assert line.startswith(f"retained r={rank}, error bound ")
        assert line.endswith(f"rank {rank} of 40 states" if rank < 40
                             else " 0")

    def test_eigs_subcommand(self, tmp_path, capsys):
        code = main(["eigs", "--preset", "exp_stab_Ex1", "--n", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "eigs.csv").exists()
        assert "stability margin" in capsys.readouterr().out

    def test_build_subcommand(self, capsys):
        assert main(["build", "--preset", "small_damp_ex5_in4", "--n", "25"]) == 0
        out = capsys.readouterr().out
        assert "n=25" in out and "input kind: input4" in out

    def test_compare_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(tiny_config(tmp_path / "run"))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        for name in ("eigs", "hsv", "outputs", "error"):
            assert (tmp_path / "run" / f"{name}.csv").exists()

    def test_energy_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(tiny_config(tmp_path / "run", preset="exp_stab_Ex1",
                                        tf=2.0))
        assert main(["energy", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "run" / "energy.csv").exists()

    def test_energy_logs_integrator(self, tmp_path, capsys):
        assert main(["energy", "--preset", "exp_stab_Ex1", "--n", "20",
                     "--tf", "5", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rate = next(i for i, line in enumerate(lines)
                    if line.startswith("fitted decay rate"))
        match = re.fullmatch(
            r"energy integrator ETDRK4: h=(\S+) \((\d+) per sample\), "
            r"(\d+) steps, error estimate (\S+), cond\(V\) (\S+), "
            r"(\d+) coefficient sets built", lines[rate + 1])
        assert match, lines[rate + 1]
        h, est, cond = (float(match[i]) for i in (1, 4, 5))
        k, steps, built = (int(match[i]) for i in (2, 3, 6))
        # 1000 samples on [0, 5]: k steps per interval in the kept run,
        # one run at each smaller k = 1, 2, ... before it and the coarse
        # first run, each with its own step sizes on a fresh model: the
        # first run's 2h, h and h / 2, and h / k
        grid = np.linspace(0.0, 5.0, 1000)
        assert h == pytest.approx(5.0 / 999 / k, rel=1e-5)
        assert k == 1
        assert steps == (first_run_steps(InputSpec(kind="zero"), grid)
                         + 999 * (2 * k - 1))
        assert est > 0.0 and 1.0 <= cond <= linalg.MODAL_COND_MAX
        assert built == 1 + max(2, k.bit_length())

    @pytest.mark.parametrize("rise,flagged", [(0.0, False), (1e-6, False),
                                              (3.05e-4, True)])
    def test_energy_rise_flagged(self, tmp_path, capsys, monkeypatch, rise,
                                 flagged):
        # the rate line logs the report's largest rise, and flags one
        # above the study's rtol, min(rtol, 1e-6)
        real = analysis.energy_decay

        def rising(*args, **kwargs):
            return replace(real(*args, **kwargs), max_rise=rise)

        monkeypatch.setattr(analysis, "energy_decay", rising)
        assert main(["energy", "--preset", "exp_stability2", "--n", "10",
                     "--tf", "5", "--out", str(tmp_path)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("fitted decay rate"))
        assert line.endswith(f"largest energy rise {rise:.3g}" + (
            ", above rtol 1e-06: WARNING, the energy is not monotone"
            if flagged else ""))

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_forced_runs_log_integrator(self, tmp_path, capsys, command):
        assert main([command, "--preset", "small_damp_ex5_in4", "--n", "20",
                     "--r", "4", "--tf", "20", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for label in ("FOM", "ROM"):
            match = next(filter(None, (re.fullmatch(
                label + r" integrator ETDRK4: h=(\S+) \((\d+) per sample\), "
                r"(\d+) steps, error estimate (\S+), cond\(V\) (\S+), "
                r"(\d+) coefficient sets built", line)
                for line in lines)))
            h, est, cond = (float(match[i]) for i in (1, 4, 5))
            k, steps, built = (int(match[i]) for i in (2, 3, 6))
            # 999 sample intervals on [0, 20], 3 of them cut by a jump
            # (t = 5, 10, 15), k steps each in the kept run, one run at
            # each smaller k = 1, 2, ... before it and the coarse first run
            spec, grid = input_preset("input4"), np.linspace(0.0, 20.0, 1000)
            fine = rom._intervals(spec, grid, 20.0 / 999)
            coarse = rom._intervals(spec, grid, 2.0 * 20.0 / 999, 2)
            assert h == pytest.approx(20.0 / 999 / k, rel=1e-5)
            assert k == 1 and fine.starts.size == 1002
            assert steps == (first_run_steps(spec, grid)
                             + 1002 * (2 * k - 1))
            assert est > 0.0 and 1.0 <= cond <= linalg.MODAL_COND_MAX
            # a fresh model builds one coefficient set per distinct step
            # size: those of the coarse run's intervals, of the fine
            # intervals at k = 1, 2, ..., the kept k, and of the first
            # interval's halves
            sizes = ({length / 2**i for length in fine.lengths.tolist()
                      for i in range(k.bit_length())}
                     | set(coarse.lengths.tolist())
                     | {length / 2 for length in fine.lengths[
                         :fine.first[1]].tolist()})
            assert built == len(sizes)

    def test_bad_preset_fails(self, capsys):
        assert main(["eigs", "--preset", "nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_fails_as_variable(self, monkeypatch, capsys):
        # a flag's string is parsed where the variable's is
        monkeypatch.delenv("CABLEMASS_N", raising=False)
        assert main(["build", "--preset", "exp_stab_Ex1", "--n", "abc"]) == 1
        flag = capsys.readouterr().err
        monkeypatch.setenv("CABLEMASS_N", "abc")
        assert main(["build", "--preset", "exp_stab_Ex1"]) == 1
        assert capsys.readouterr().err == flag == \
            "error: 'n' must be an integer, got 'abc'\n"

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["build", "--help"])
        out = capsys.readouterr().out
        for flag in ("--config PATH", "--preset NAME", "--r INT", "--n INT",
                     "--tf REAL", "--out DIR"):
            assert flag in out

    def test_config_from_process_environment(self, tmp_path, monkeypatch,
                                             capsys):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nn = 12\n")
        monkeypatch.setenv("CABLEMASS_CONFIG", str(path))
        assert main(["build"]) == 0
        assert "nodes n=12" in capsys.readouterr().out

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["build", "--config", str(tmp_path / "absent.ini")]) == 1
        assert "error" in capsys.readouterr().err

    def test_module_run_is_silent(self, tmp_path):
        # the package must not import cli itself, or runpy warns that
        # cablemass.cli was already in sys.modules before running it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "cablemass.cli", "build", "--preset", "exp_stab_Ex1"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        assert "preset: exp_stab_Ex1" in run.stdout

    def test_flag_beats_preset_tf(self, tmp_path):
        cfg = load_config(None, cli_overrides={"preset": "small_stiff_ex5_in4",
                                               "tf": 12.5}, env={})
        assert cfg.tf == 12.5

    @pytest.mark.parametrize("command, extra", [
        ("energy", ""), ("compare", "energy_study = true")],
        ids=["energy", "compare-energy_study"])
    def test_energy_study_rejects_nonzero_t0(self, tmp_path, capsys, command,
                                             extra):
        # the energy study starts at t = 0: a later t0 is refused before
        # any work, and no output directory is made
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(tiny_config(tmp_path / "run", preset="exp_stab_Ex1",
                                        tf=20.0, extra=f"t0 = 10\n{extra}"))
        assert main([command, "--config", str(cfg_path)]) == 1
        assert "t0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_forced_runs_keep_t0(self, tmp_path):
        # without the energy study, compare runs on [t0, tf]
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(tiny_config(tmp_path / "run", tf=20.0,
                                        extra="t0 = 10"))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        data = np.genfromtxt(tmp_path / "run" / "outputs.csv", delimiter=",",
                             names=True)
        assert data["t"][0] == 10.0 and data["t"][-1] == 20.0
        assert not (tmp_path / "run" / "energy.csv").exists()
