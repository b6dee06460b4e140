import argparse
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nch import ConfigError, Grid, ModelParams, parse_config, render_config, write_snapshot
from nch import errors, experiments, projection
from nch.cli import _build_parser, main
from nch.config import CONFIG_KEYS, InitialSpec, SimulationConfig
from nch.grid import read_snapshot

REPO = Path(__file__).resolve().parent.parent


class TestParse:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("scheme = p-etd1\nM = 64\n")
        assert cfg.scheme == "p-etd1"
        assert cfg.M == 64
        assert cfg.delta == 0.05
        assert cfg.kappa == 2.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full-line comment\n\nM = 32  # trailing comment\n")
        assert cfg.M == 32

    def test_temperature_invariant_violation(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config("theta_c = 0.5\ntheta = 0.8\n")

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("M = 16\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("M = 16\nM = 32\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a key value pair\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config("tau = fast\n")

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("M", "1.5"),
            ("tau", "fast"),
            ("initial", "sine()"),
            ("snapshot_times", "0.1, soon"),
        ],
    )
    def test_every_parser_reports_its_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"line 2: bad value for {key}:"):
            parse_config(f"# header\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"bad value for {key}:"):
            parse_config("", {key: raw})

    def test_snapshot_times_must_lie_in_the_horizon(self):
        with pytest.raises(ConfigError, match="snapshot"):
            parse_config("T_final = 1.0\nsnapshot_times = 0.5, 2.0\n")

    def test_initial_spec_forms(self):
        sine = parse_config("initial = sine(0.1)\n").initial
        assert sine == InitialSpec("sine", 0.1)
        rand = parse_config("initial = random(0.2, 0.05, 42)\n").initial
        assert rand == InitialSpec("random", 0.05, offset=0.2, seed=42)
        with pytest.raises(ConfigError):
            parse_config("initial = random(0.2)\n")
        for text in ("sine(nan)", "sine(-inf)", "random(nan, 0.05, 1)", "random(0.2, inf, 1)"):
            with pytest.raises(ConfigError, match="must be finite"):
                parse_config(f"initial = {text}\n")
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            parse_config("initial = random(0.2, 0.05, -1)\n")

    def test_initial_spec_refuses_an_unknown_kind(self):
        # render() would write it as random(...), which parses back as another field
        with pytest.raises(ValueError, match="unknown initial kind 'bogus'"):
            InitialSpec("bogus", 0.1)

    def test_initial_spec_round_trips_and_a_sine_takes_no_offset_or_seed(self):
        for spec in (InitialSpec("sine", 0.125), InitialSpec("random", 0.05, offset=-0.3, seed=5)):
            assert InitialSpec.parse(spec.render()) == spec
        for extra in ({"offset": 0.3}, {"seed": 5}, {"offset": 0.3, "seed": 5}):
            with pytest.raises(ValueError, match="sine takes no offset or seed"):
                InitialSpec("sine", 0.1, **extra)

    def test_shipped_configs_parse(self):
        for name in ("convergence", "comparison", "coarsening", "sweep"):
            text = (REPO / "configs" / f"{name}.cfg").read_text()
            cfg = parse_config(text)
            assert isinstance(cfg, ModelParams)

    def test_convergence_config_reproduces_table_parameters(self):
        cfg = parse_config((REPO / "configs" / "convergence.cfg").read_text())
        assert (cfg.epsilon, cfg.theta, cfg.theta_c, cfg.delta, cfg.kappa) == (
            0.02,
            0.8,
            1.6,
            0.05,
            1.0,
        )

    def test_round_trip(self):
        cfg = SimulationConfig(
            scheme="p-etdrk2",
            M=48,
            tau=0.025,
            T_final=1.5,
            initial=InitialSpec("random", 0.05, offset=0.3, seed=9),
            snapshot_times=(0.5, 1.0),
            output_dir="somewhere",
            structure_threshold=0.125,
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_override_wins_over_file(self):
        cfg = parse_config("M = 16\n", {"M": "64", "tau": "0.5"})
        assert cfg.M == 64 and cfg.tau == 0.5
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("", {"nope": "1"})

    def test_readme_config_table_names_exactly_the_keys(self):
        readme = (REPO / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        named = []
        for line in section.splitlines():
            if line.startswith("| `"):
                # the first cell names the keys; defaults follow in parentheses
                key_cell = re.sub(r"\([^)]*\)", "", line.split("|")[1])
                named += re.findall(r"`([^`]+)`", key_cell)
        assert sorted(named) == sorted(CONFIG_KEYS)


class TestCli:
    def test_run_on_zero_data_exits_clean(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            "scheme = p-etd1\nM = 16\ntau = 0.01\nT_final = 0.05\n"
            f"initial = sine(0.0)\nsnapshot_times = 0.05\noutput_dir = {out}\n"
        )
        assert main(["run", str(cfg)]) == 0
        grid, u, t = read_snapshot(out / "snapshot_t0.05.grid")
        assert np.max(np.abs(u)) == 0.0
        assert (out / "diagnostics.csv").exists()

    def test_run_override_changes_the_mesh(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text("M = 16\ntau = 0.01\nT_final = 0.02\ninitial = sine(0.0)\n")
        code = main(
            ["run", str(cfg), "--M=8", f"--output_dir={out}", "--snapshot_times=0.02"]
        )
        assert code == 0
        grid, _, _ = read_snapshot(out / "snapshot_t0.02.grid")
        assert grid.M == 8

    @pytest.mark.parametrize(
        "times", [["--T_final=0.15"], ["--T_final=0.2", "--snapshot_times=0.05"]]
    )
    def test_run_refuses_times_between_steps(self, tmp_path, capsys, times):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text("M = 8\ntau = 0.1\ninitial = sine(0.1)\n")
        assert main(["run", str(cfg), f"--output_dir={out}", *times]) == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert not out.exists()

    def test_run_accepts_a_whole_multiple_of_tau(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            "M = 8\ntau = 0.1\nT_final = 100\ninitial = sine(0.1)\n"
            f"snapshot_times = 100\noutput_dir = {out}\n"
        )
        assert main(["run", str(cfg)]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 1 + 1001
        assert rows[-1].startswith("1000,100,")
        assert read_snapshot(out / "snapshot_t100.grid")[2] == 100.0

    def test_config_errors_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("theta = 2.0\ntheta_c = 1.0\n")
        assert main(["run", str(bad)]) == 2
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2
        good = tmp_path / "good.cfg"
        good.write_text("M = 8\n")
        assert main(["run", str(good), "--bogus=1"]) == 2

    def test_mass_target_is_an_unknown_key(self, tmp_path, capsys):
        # every projected stage lands on the run's initial mass: no choice
        cfg = tmp_path / "c.cfg"
        cfg.write_text("M = 8\nmass_target = initial\n")
        assert main(["run", str(cfg)]) == 2
        assert "line 2: unknown key 'mass_target'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw", [("projection_tol", "1e-11"), ("projection_max_iter", "5")])
    def test_projection_settings_are_unknown_keys(self, tmp_path, capsys, key, raw):
        # the shift's tolerance and iteration budget are constants of project
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"M = 8\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"override: unknown key '{key}'"):
            parse_config("", {key: raw})
        out = tmp_path / "o"
        cfg = REPO / "configs" / "comparison.cfg"
        assert main(["run", str(cfg), f"--{key}={raw}", f"--output_dir={out}"]) == 2
        assert f"unrecognized arguments: --{key}={raw}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["theta_c", "sigma", "tau", "L", "epsilon"])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, key):
        cfg = REPO / "configs" / "comparison.cfg"
        out = tmp_path / "o"
        assert main(["run", str(cfg), f"--{key}=inf", f"--output_dir={out}"]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "comparison.cfg", "--scheme=etd1", "--initial=sine(nan)", "--T_final=0.3",
             "--snapshot_times=", "--output_dir=OUT"],
            ["sweep", "sweep.cfg", "--structure_threshold=nan", "--M=16", "--T_final=0.2",
             "--sigma-list=30,70", "--out=OUT"],
            ["converge", "convergence.cfg", "--amplitude=nan", "--M=16", "--T_final=2e-3",
             "--tau-list=1e-3,5e-4", "--benchmark-tau=2.5e-4", "--out=OUT"],
            ["count", "SNAPSHOT", "--threshold=nan"],
        ],
        ids=["run", "sweep", "converge", "count"],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, command):
        # a NaN offset, amplitude or threshold would run to a NaN field or
        # count nothing
        name, source, *args = command
        out = tmp_path / "o"
        if name == "count":
            path = tmp_path / "zero.grid"
            write_snapshot(path, Grid(8), np.zeros((8, 8)), t=0.0)
        else:
            path = REPO / "configs" / source
        args = [a.replace("OUT", str(out)) for a in args]
        assert main([name, str(path), *args]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "L, t, entry",
        [(1.0, 0.0, np.nan), (1.0, 0.0, np.inf), (np.inf, 0.0, 0.0), (1.0, np.nan, 0.0)],
        ids=["nan-entry", "inf-entry", "L", "t"],
    )
    def test_count_refuses_a_non_finite_snapshot(self, tmp_path, capsys, L, t, entry):
        # loadtxt parses nan and inf: a field of NaNs would count as no structure
        path = tmp_path / "bad.grid"
        write_snapshot(path, Grid(8), np.full((8, 8), entry), t)
        if L != 1.0:
            # a Grid refuses a non-finite L, so the header is edited instead
            path.write_text(path.read_text().replace("L=1 ", f"L={L!r} ", 1))
        assert main(["count", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "non-finite" in err

    def test_blowup_exits_4(self, tmp_path):
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "scheme = etd1\nM = 64\ntau = 0.1\nkappa = 2.0\nT_final = 100.0\n"
            f"initial = random(0.2, 0.05, 7)\noutput_dir = {tmp_path / 'b'}\n"
        )
        assert main(["run", str(cfg)]) == 4

    def test_converge_blowup_exits_4(self, tmp_path, capsys):
        # the unprojected scheme leaves the bound at the largest step
        args = ["--scheme=etd1", "--M=32", "--kappa=0", "--tau-list=1,0.5", "--benchmark-tau=0.25",
                "--T_final=20", "--amplitude=0.9", f"--out={tmp_path}"]
        assert main(["converge", *args]) == 4
        err = capsys.readouterr().err
        assert err.startswith("nch: blowup: ") and err.count("\n") == 1
        assert "etd1" in err and "tau=1 " in err

    def test_converge_refuses_a_zero_benchmark_tau(self, tmp_path, capsys):
        args = ["--M=8", "--tau-list=1e-3,5e-4", "--benchmark-tau=0", "--T_final=0.01"]
        assert main(["converge", *args, f"--out={tmp_path}"]) == 2
        assert "tau must be positive and finite, got 0.0" in capsys.readouterr().err

    def test_count_subcommand(self, tmp_path, capsys):
        grid = Grid(32)
        u = np.full((32, 32), -0.9)
        X, Y = grid.mesh()
        for cx, cy in ((0.25, 0.25), (0.75, 0.75)):
            u[(X - cx) ** 2 + (Y - cy) ** 2 <= 0.01] = 0.9
        snap = tmp_path / "two_discs.grid"
        write_snapshot(snap, grid, u, t=0.0)
        assert main(["count", str(snap)]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_count_refuses_config_keys(self, tmp_path, capsys):
        # count reads no config, so a config-key flag would be ignored
        snap = tmp_path / "zero.grid"
        write_snapshot(snap, Grid(8), np.zeros((8, 8)), t=0.0)
        assert main(["count", str(snap), "--M=64", "--tau=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "count takes no config keys, got --M=64 --tau=-1" in captured.err

    def test_converge_subcommand_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(
            [
                "converge",
                "--scheme=p-etdrk2",
                "--M=8",
                "--T_final=0.01",
                "--tau-list=2e-3,1e-3",
                "--benchmark-tau=1e-4",
                f"--out={out}",
            ]
        )
        assert code == 0
        assert (out / "convergence_p-etdrk2.csv").exists()
        assert (out / "convergence_p-etdrk2.txt").exists()
        assert "Rate" in capsys.readouterr().out

    def test_converge_takes_the_scheme_only_as_a_config_override(self, tmp_path):
        args = ["--M=8", "--T_final=0.01", "--tau-list=2e-3,1e-3", "--benchmark-tau=1e-4",
                f"--out={tmp_path}"]
        assert main(["converge", "--scheme=p-etd1", *args]) == 0
        assert (tmp_path / "convergence_p-etd1.csv").exists()
        header = (tmp_path / "convergence_p-etd1.txt").read_text().splitlines()[0]
        assert header == "scheme p-etd1, M=8, T=0.01, benchmark p-etdrk2 at tau=0.0001"
        assert main(["converge", "--scheme", "p-etd1", *args]) == 2

    def test_readme_cli_block_names_exactly_the_options(self):
        # a subcommand's line (with its continuation lines) names each of
        # its options; any other --flag there must be a config key.
        # Upper-case names are placeholders
        readme = (REPO / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
        named = {}
        for line in block.splitlines():
            if line.startswith("nch "):
                command = line.split()[1]
            named.setdefault(command, set()).update(re.findall(r"--([a-z][a-z_-]*)", line))
        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: {o[2:] for a in sub._actions for o in a.option_strings if o[:2] == "--"}
            - {"help"}
            for name, sub in subparsers.choices.items()
        }
        assert named.keys() == options.keys()
        for command, flags in named.items():
            assert flags <= options[command] | CONFIG_KEYS.keys(), command
            assert options[command] <= flags, command

    def test_sweep_subcommand_writes_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NCH_THREADS", "1")
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--M=16",
                "--tau=0.1",
                "--T_final=0.5",
                "--sigma-list=5,20",
                "--initial=random(0.3, 0.05, 0)",
                "--seed=3",
                f"--out={out}",
            ]
        )
        assert code == 0
        assert (out / "sigma_sweep.csv").exists()
        assert "sigma=5" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_keeps_the_completed_rows_after_a_solver_error(
        self, tmp_path, capsys, monkeypatch, in_process_pool, threads
    ):
        # one iteration cannot meet the tolerance at sigma=30; through a
        # pool the error must also survive the trip back to the parent.
        # sigma=70 completes, and its row is kept, without a slope line
        monkeypatch.setenv("NCH_THREADS", threads)
        monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 1)
        args = ["--scheme=p-etdrk2", "--M=32", "--tau=0.1", "--T_final=2", "--sigma-list=30,70",
                "--initial=random(0.3, 0.05, 0)"]
        code = main(["sweep", *args, f"--out={tmp_path}"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.count("nch:") == 1
        assert "solver error" in captured.err
        assert "sigma=30" in captured.err
        assert "sigma=70: " in captured.out and "slope" not in captured.out
        rows = (tmp_path / "sigma_sweep.csv").read_text().splitlines()
        assert rows[0] == "sigma,count,threshold,final_time"
        assert [r.split(",")[0] for r in rows[1:]] == ["70"]

    @staticmethod
    def _record_advance(monkeypatch, record):
        """Replace the experiments' advance by one that records its scheme,
        params and u0 and returns u0, at the final time, at once."""

        def fake_advance(u0, params, scheme, n_steps):
            record.append((scheme, params, u0))
            return SimpleNamespace(u=u0, t=n_steps * params.tau), [], "ok"

        monkeypatch.setattr(experiments, "advance", fake_advance)

    def test_sweep_runs_the_configured_scheme(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NCH_THREADS", "1")
        calls = []
        self._record_advance(monkeypatch, calls)
        args = ["--M=8", "--sigma-list=5,20", "--tau=0.1", "--T_final=0.5",
                "--initial=random(0.3, 0.05, 0)", f"--out={tmp_path}"]
        assert main(["sweep", "--scheme=p-etd1", *args]) == 0
        assert [scheme for scheme, _, _ in calls] == ["p-etd1", "p-etd1"]

    def test_converge_takes_its_amplitude_from_the_initial_sine(self, tmp_path, monkeypatch):
        # at M = 8 the mesh holds the crest of the sine, so max u0 = amplitude
        calls = []
        self._record_advance(monkeypatch, calls)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("M = 8\nT_final = 0.01\ninitial = sine(0.3)\n")
        args = ["--tau-list=2e-3,1e-3", "--benchmark-tau=5e-4", f"--out={tmp_path}"]
        assert main(["converge", str(cfg), *args]) == 0
        assert [float(u0.max()) for _, _, u0 in calls] == [0.3] * 3
        calls.clear()
        assert main(["converge", str(cfg), *args, "--amplitude=0.2"]) == 0
        assert [float(u0.max()) for _, _, u0 in calls] == [0.2] * 3

    def test_converge_refuses_a_random_initial(self, tmp_path, capsys):
        args = ["--M=8", "--T_final=0.01", "--tau-list=2e-3,1e-3", "--benchmark-tau=5e-4",
                "--initial=random(0.2, 0.05, 1)", f"--out={tmp_path}"]
        assert main(["converge", *args]) == 2
        err = capsys.readouterr().err
        assert err == (
            "nch: config error: initial must be sine(amplitude) for converge, "
            "got random(0.2, 0.05, 1)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_converge_refuses_a_bad_tau_list_before_any_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        self._record_advance(monkeypatch, calls)
        args = ["--M=8", "--T_final=0.01", "--benchmark-tau=5e-4", f"--out={tmp_path}"]
        for taus, error in (("1e-3,2e-3", "strictly decreasing"),
                            ("1e-3,5e-4", "must be below min(tau_list)"),
                            ("3e-3,1e-3", "not a whole number of steps of tau=0.003")):
            assert main(["converge", *args, f"--tau-list={taus}"]) == 2
            assert error in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_sweep_refuses_an_initial_that_is_not_random(self, tmp_path, capsys):
        args = ["--M=16", "--tau=0.1", "--T_final=0.5", "--sigma-list=5,20",
                "--initial=sine(0.5)", f"--out={tmp_path}"]
        assert main(["sweep", *args]) == 2
        err = capsys.readouterr().err
        assert err == (
            "nch: config error: initial must be random(offset, amplitude, seed) for sweep, "
            "got sine(0.5)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_bad_nch_threads_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NCH_THREADS", "abc")
        args = ["--M=8", "--sigma-list=5,20", "--tau=0.1", "--T_final=0.5",
                "--initial=random(0.3, 0.05, 0)", f"--out={tmp_path}"]
        assert main(["sweep", *args]) == 2
        assert capsys.readouterr().err == (
            "nch: config error: NCH_THREADS must be a positive integer, got 'abc'\n"
        )

    def test_run_tolerance_scales_with_the_area(self, tmp_path):
        # an absolute 1e-13 cannot be met at L = 100, where the mass is
        # O(1e3) and its roundoff O(1e-13)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        out = tmp_path / "o"
        args = ["--L=100", "--M=64", "--tau=0.1", "--T_final=2",
                "--initial=random(0.2, 0.05, 1)", f"--output_dir={out}"]
        assert main(["run", str(cfg), *args]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        column = lines[0].split(",").index("mass_increment")
        drift = max(abs(float(line.split(",")[column])) for line in lines[1:])
        assert drift <= 1e-12 * 100.0**2

    @pytest.mark.parametrize(
        "error",
        [
            errors.BoundViolationError("entry out of range"),
            errors.InfeasibleMassError("target out of range"),
            errors.NonFiniteFieldError("nan predictor"),
            errors.ProjectionConvergenceError("no root", residual=0.5),
        ],
    )
    def test_every_solver_error_exits_3(self, tmp_path, capsys, monkeypatch, error):
        def failing_run(config, pgm=False):
            raise error

        monkeypatch.setattr("nch.cli.run", failing_run)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("M = 8\n")
        assert main(["run", str(cfg)]) == 3
        assert capsys.readouterr().err == f"nch: solver error: {error}\n"

    def test_pgm_export(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            "M = 8\ntau = 0.01\nT_final = 0.01\ninitial = sine(0.1)\n"
            f"snapshot_times = 0.01\noutput_dir = {out}\n"
        )
        assert main(["run", str(cfg), "--pgm"]) == 0
        assert (out / "snapshot_t0.01.pgm").exists()


class TestErrors:
    @pytest.mark.parametrize(
        "cls",
        [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    )
    def test_pickle_round_trip(self, cls):
        # errors raised in a sweep worker are pickled back to the parent
        error = cls("message", 0.25) if cls is errors.ProjectionConvergenceError else cls("message")
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls
        assert str(back) == "message"
        assert getattr(back, "residual", None) == getattr(error, "residual", None)

    def test_solver_errors_keep_their_builtin_bases(self):
        assert issubclass(errors.InfeasibleMassError, errors.SolverError)
        assert issubclass(errors.InfeasibleMassError, ValueError)
        assert issubclass(errors.ProjectionConvergenceError, errors.SolverError)
        assert issubclass(errors.ProjectionConvergenceError, RuntimeError)
        assert not issubclass(errors.ConfigError, errors.SolverError)


def test_cli_import_loads_no_scipy():
    # every nch call pays for what `import nch.cli` loads; numpy is enough
    code = "import sys, nch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
