"""Config parsing, artifact layout, exit codes, and rerun determinism."""

import ast
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

import fkpi_lab.cli as cli
from fkpi_lab.cli import COMMANDS, RunConfig, apply_overrides, main, parse_config
from fkpi_lab.evolution import EvolutionConfig
from fkpi_lab.grid import FrequencyGrid
from fkpi_lab.probes import Band

TWO_PI = 2.0 * math.pi


def run_cli(*args):
    return main(list(args))


def small_conserve_config(**extra):
    cfg = {
        "command": "conserve",
        "alpha": 3.0,
        "grid": {"modes_x": 32, "modes_y": 32},
        "evolution": {"dt": 0.05, "T": 0.1, "snapshot_stride": 1},
        "data": {"l2_norm": 0.1},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        config = parse_config('{"command": "conserve"}')
        assert isinstance(config, RunConfig)
        assert config.alpha == 2.5
        assert config.seed == 0
        assert config.format == "csv"
        assert config.output_dir == "fkpi-out"
        # the conserve row keeps the grid and evolution section defaults
        assert config.grid == FrequencyGrid(TWO_PI, TWO_PI, 256, 256)
        assert config.evolution == EvolutionConfig(1e-3, 1.0, "etdrk4", 50)
        assert config.probe is None
        assert config.sections["conserve"]["mass_tol"] == 1e-6
        assert config.sections["data"]["amplitude"] == 0.05
        # only the sections conserve reads
        assert set(config.sections) == {"grid", "evolution", "data", "conserve"}

    def test_command_from_argument(self):
        config = parse_config("{}", command="scaling")
        assert config.command == "scaling"

    def test_command_required(self):
        with pytest.raises(ValueError, match="command is required"):
            parse_config("{}")

    def test_command_mismatch(self):
        with pytest.raises(ValueError, match="command mismatch"):
            parse_config('{"command": "conserve"}', command="scaling")

    def test_alpha_range_error_names_field(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \[2, 4\), got 4.5"):
            parse_config('{"command": "conserve", "alpha": 4.5}')
        with pytest.raises(ValueError, match="alpha"):
            parse_config('{"command": "conserve", "alpha": 1.99}')

    def test_alpha_boundary_accepted(self):
        assert parse_config('{"command": "conserve", "alpha": 2.0}').alpha == 2.0

    def test_unknown_key_cites_name(self):
        with pytest.raises(ValueError, match="unknown key 'alhpa'"):
            parse_config('{"command": "conserve", "alhpa": 3.0}')

    def test_unknown_nested_key_cites_dotted_path(self):
        with pytest.raises(ValueError, match="unknown key 'evolution.dtt'"):
            parse_config('{"command": "conserve", "evolution": {"dtt": 0.1}}')

    def test_bad_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_config("{command: conserve}")

    def test_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config("[1, 2]")

    def test_choice_rejected(self):
        with pytest.raises(ValueError, match="'format' must be one of"):
            parse_config('{"command": "conserve", "format": "xml"}')

    def test_type_errors(self):
        with pytest.raises(ValueError, match="'alpha' must be a number"):
            parse_config('{"command": "conserve", "alpha": "three"}')
        with pytest.raises(ValueError, match="'seed' must be an integer"):
            parse_config('{"command": "conserve", "seed": 1.5}')
        # the product is always dealiased; the old switch is an unknown key
        with pytest.raises(ValueError, match="unknown key 'evolution.dealias'"):
            parse_config('{"command": "conserve", "evolution": {"dealias": true}}')

    def test_nan_rejected_infinity_kept(self):
        with pytest.raises(ValueError, match="'illposedness.t' must be a number"):
            parse_config('{"command": "illposedness", "illposedness": {"t": NaN}}')
        with pytest.raises(ValueError, match="'scaling.lambdas' must hold numbers"):
            parse_config('{"command": "scaling", "scaling": {"lambdas": [1, NaN]}}')
        with pytest.raises(ValueError, match="'probe.tolerance_lo' must be a number"):
            parse_config('{"command": "bilinear", "probe": '
                         '{"dyadic_range": [8, 16, 32, 64], "tolerance_lo": NaN}}')
        config = parse_config('{"command": "strichartz", "strichartz": {"q": Infinity}}')
        assert config.sections["strichartz"]["q"] == math.inf

    def test_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            parse_config('{"command": "conserve", "workers": -2}')

    def test_grid_section_builds_grid(self):
        config = parse_config(json.dumps(small_conserve_config()))
        assert config.grid.modes_x == 32
        assert config.grid.length_x == pytest.approx(2.0 * math.pi)
        assert config.evolution.dt == 0.05

    def test_probe_section_builds_sweep(self):
        text = json.dumps({
            "command": "bilinear", "seed": 7,
            "probe": {"dyadic_range": [8, 16, 32, 64], "tolerance_hi": 0.3},
        })
        config = parse_config(text)
        assert config.probe.dyadic_range == (8.0, 16.0, 32.0, 64.0)
        assert config.probe.seed == 7
        assert config.probe.tolerance_band == (-math.inf, 0.3)

    def test_probe_two_sided_band(self):
        text = json.dumps({
            "command": "strichartz",
            "probe": {"dyadic_range": [0.125, 0.25, 0.5],
                      "tolerance_lo": -0.2, "tolerance_hi": 0.2},
        })
        assert parse_config(text).probe.tolerance_band == (-0.2, 0.2)

    def test_probe_needs_dyadic_range(self):
        # every row that reads probe names its sweep, and null is no sweep
        assert all(reads["probe"]["dyadic_range"]
                   for reads, _ in cli.SETUPS.values() if "probe" in reads)
        with pytest.raises(ValueError, match="'probe.dyadic_range' must be a "
                                             "nonempty list"):
            parse_config('{"command": "bilinear", "probe": {"dyadic_range": null}}')

    def test_probe_section_completed_from_row(self):
        config = parse_config('{"command": "bilinear", "probe": {"tolerance_hi": 0.3}}')
        assert config.probe.dyadic_range == (8.0, 16.0, 32.0, 64.0)
        assert config.probe.trials_per_point == 8
        assert config.probe.tolerance_band == (-math.inf, 0.3)
        assert config.sections["probe"]["trials_per_point"] == 8

    def test_echo_is_json_clean(self, tmp_path):
        config = parse_config(json.dumps(small_conserve_config()))
        cli._write_manifest(str(tmp_path), config, 0, [], 0.0)
        echo = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert echo["command"] == "conserve"
        assert echo["grid"]["modes_x"] == 32
        assert echo["data"]["l2_norm"] == 0.1
        assert "scan" not in echo


class TestOverrides:
    def test_top_level_and_dotted(self):
        raw = {"command": "conserve"}
        apply_overrides(raw, ["alpha=3.0", "conserve.mass_tol=1e-9"])
        assert raw["alpha"] == 3.0
        assert raw["conserve"]["mass_tol"] == 1e-9

    def test_json_values_and_string_fallback(self):
        raw = {}
        apply_overrides(raw, ['probe={"dyadic_range": [1, 2]}',
                              "format=json", "data.kind=zero"])
        assert raw["probe"] == {"dyadic_range": [1, 2]}
        assert raw["format"] == "json"
        assert raw["data"]["kind"] == "zero"

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["alpha"])

    def test_too_many_dots(self):
        with pytest.raises(ValueError, match="at most one dot"):
            apply_overrides({}, ["a.b.c=1"])

    def test_scalar_is_not_a_section(self):
        with pytest.raises(ValueError, match="not a section"):
            apply_overrides({"alpha": 2.5}, ["alpha.x=1"])


class TestHelp:
    def test_every_config_key_and_default_listed(self):
        text = cli.build_parser().format_help()
        for key, spec in cli.SCHEMA.items():
            if isinstance(spec, dict):
                for sub in spec:
                    assert f"{key}.{sub}" in text
            else:
                assert key in text
        assert "default 2.5" in text              # alpha
        assert 'default "csv"' in text            # format
        assert "default 1e-06" in text            # conserve.mass_tol
        assert "exit status" in text

    def test_commands_listed(self):
        text = cli.build_parser().format_help()
        for command in COMMANDS:
            assert command in text

    def test_setup_table_printed(self):
        text = cli.build_parser().format_help()
        for command, regime in cli.SETUPS:
            assert f"  {command} {regime or ''}" in text
        assert "length_x=256pi length_y=16pi modes_x=512 modes_y=64" in text
        assert "dyadic_range=[8.0, 16.0, 32.0, 64.0] trials_per_point=8" in text
        assert "strichartz lowfreq       reads grid, probe, strichartz" in text


class TestRunArtifacts:
    def test_conserve_small_run_passes(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        assert (out / "records.csv").exists()
        assert (out / "manifest.json").exists()
        assert not (out / "FAILED").exists()
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header.startswith("probe,")
        assert (out / "plotdata" / "mass_drift_t.dat").exists()
        curve = (out / "plotdata" / "mass_drift_t.dat").read_text().splitlines()
        assert len(curve) == 3  # t = 0, 0.05, 0.1
        assert all(len(line.split()) == 2 for line in curve)

    def test_zero_data_conserve_trivially_passes(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config(
            data={"kind": "zero"}))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(",0.0," in row and ",true," in row for row in rows)

    def test_manifest_contents(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        run_cli("--config", cfg, "--output-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "conserve"
        assert manifest["config"]["alpha"] == 3.0
        assert manifest["config"]["evolution"]["dt"] == 0.05
        assert set(manifest["versions"]) == {"fkpi_lab", "numpy", "python"}
        assert manifest["records"] == 2
        assert manifest["failures"] == []
        assert manifest["timestamp"]["wall_time_s"] > 0.0

    def test_rerun_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        records_a = (out / "records.csv").read_bytes()
        curve_a = (out / "plotdata" / "energy_drift_t.dat").read_bytes()
        manifest_a = json.loads((out / "manifest.json").read_text())
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        assert (out / "records.csv").read_bytes() == records_a
        assert (out / "plotdata" / "energy_drift_t.dat").read_bytes() == curve_a
        manifest_b = json.loads((out / "manifest.json").read_text())
        manifest_a.pop("timestamp")
        manifest_b.pop("timestamp")
        assert manifest_a == manifest_b

    def test_json_format_writes_jsonl(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config(format="json"))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["probe"] == "mass_drift"
        assert rec["pass"] is True
        assert not (out / "records.csv").exists()

    def test_simulate_saves_final_state(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config(command="simulate"))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        assert (out / "final_state.fkpi").stat().st_size > 0
        assert (out / "plotdata" / "mass_t.dat").exists()

    @pytest.mark.parametrize("command", ["conserve", "simulate"])
    def test_peak_memory_does_not_grow_with_snapshots(self, tmp_path, command):
        # every step is a snapshot; the observed run keeps none of them, so
        # 180 more snapshots must cost less than two 64^2 half spectra
        def peak(steps):
            config = parse_config(json.dumps(small_conserve_config(
                command=command, alpha=2.5, grid={"modes_x": 64, "modes_y": 64},
                evolution={"dt": 1e-3, "T": steps * 1e-3, "snapshot_stride": 1},
                output_dir=str(tmp_path / f"out{steps}"))))
            tracemalloc.start()
            try:
                assert cli.run(config) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(20)  # warm the phase tables and imports
        half_bytes = 64 * (64 // 2 + 1) * 16
        assert peak(200) - peak(20) < 2 * half_bytes

    def test_seed_flag_enters_echo(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        run_cli("--config", cfg, "--output-dir", str(out), "--seed", "42")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42


class TestExitCodes:
    def test_failing_record_exits_2_with_marker(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config(
            conserve={"mass_tol": 1e-30}))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 2
        marker = (out / "FAILED").read_text()
        assert "mass_drift" in marker
        # partial results stay on disk next to the marker
        assert (out / "records.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["failures"] == [
            "mass_drift"]

    def test_marker_cleared_on_subsequent_pass(self, tmp_path):
        bad = write_config(tmp_path, small_conserve_config(
            conserve={"mass_tol": 1e-30}), name="bad.json")
        good = write_config(tmp_path, small_conserve_config(), name="good.json")
        out = tmp_path / "out"
        assert run_cli("--config", bad, "--output-dir", str(out)) == 2
        assert run_cli("--config", good, "--output-dir", str(out)) == 0
        assert not (out / "FAILED").exists()

    def test_config_error_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_conserve_config(alpha=4.5))
        assert run_cli("--config", cfg) == 1
        assert "alpha must lie in [2, 4)" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "conserve", "alhpa": 3.0})
        assert run_cli("--config", cfg) == 1
        assert "unknown key 'alhpa'" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert run_cli("--config", str(tmp_path / "nope.json")) == 1
        assert "error:" in capsys.readouterr().err

    def test_handler_error_exits_1_with_marker(self, tmp_path, capsys):
        # coarse lattice trips the scaling resolution guard inside the handler
        out = tmp_path / "out"
        code = run_cli("scaling", "--set", 'grid={"modes_x": 64, "modes_y": 16}',
                       "--output-dir", str(out))
        assert code == 1
        assert "resolution loss" in (out / "FAILED").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "resolution loss" in manifest["error"]

    @pytest.mark.parametrize("command, setting, message", [
        ("illposedness", "illposedness.t=NaN", "'illposedness.t' must be a number"),
        ("strichartz", "strichartz.T=NaN", "'strichartz.T' must be a number"),
        ("conserve", "evolution.dt=NaN", "'evolution.dt' must be a number"),
        ("resonance-scan", "scan.samples=0", "samples must be >= 1, got 0"),
        ("transversality", "transversality.samples=0", "samples must be >= 1, got 0"),
    ])
    def test_bad_value_exits_1_without_records(self, tmp_path, capsys, command,
                                               setting, message):
        out = tmp_path / "out"
        assert run_cli(command, "--set", setting, "--output-dir", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "conserve"])
    @pytest.mark.parametrize("settings, message", [
        # finite samples whose mass and energy overflow
        (["data.amplitude=1e200"], "mass or energy is not finite"),
        (["data.amplitude=1e200", "data.l2_norm=1"], "the data's mass is not finite"),
        (["data.amplitude=1e308"], "samples must be finite"),
        (["grid.length_y=Infinity"], "box lengths must be positive and finite"),
        # zero data, which no scaling brings to a positive norm
        (["data.amplitude=0", "data.l2_norm=1"], "data.l2_norm > 0 needs nonzero data"),
        (["data.kind=zero", "data.l2_norm=1"], "data.l2_norm > 0 needs nonzero data"),
        # a norm below zero, which no scaling reaches
        (["data.l2_norm=-1"], "data.l2_norm must not be negative, got -1.0"),
        (["data.kind=zero", "data.l2_norm=-1"], "data.l2_norm must not be negative"),
        # an amplitude that zero data never reads
        (["data.kind=zero", "data.amplitude=0.3"],
         "the zero regime does not read data.amplitude"),
    ])
    def test_nonfinite_data_exits_1_without_records(self, tmp_path, capsys, command,
                                                    settings, message):
        # at T = 0 no step runs, so no BlowupError can catch the overflow
        out = tmp_path / "out"
        args = [command, "--output-dir", str(out), "--set", "evolution.T=0",
                "--set", "grid.modes_x=16", "--set", "grid.modes_y=16"]
        for item in settings:
            args += ["--set", item]
        assert run_cli(*args) == 1
        assert "error: " + message in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("kind", ["linear", "lowfreq"])
    def test_strichartz_trials_exit_1_without_records(self, tmp_path, capsys, kind):
        # the Strichartz points are deterministic: a trial count would be ignored
        out = tmp_path / "out"
        assert run_cli("strichartz", "--set", f"strichartz.kind={kind}",
                       "--set", "probe.trials_per_point=4",
                       "--output-dir", str(out)) == 1
        assert ("trials_per_point must be 1 for the Strichartz sweeps, got 4: "
                "their points are deterministic") in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_unusable_output_dir_exits_1_without_traceback(self, tmp_path):
        (tmp_path / "file").write_text("")
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fkpi_lab.cli", "resonance-scan",
             "--output-dir", str(tmp_path / "file" / "x")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=False)
        assert proc.returncode == 1
        assert "error: " in proc.stderr and "Not a directory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_command_line_set_override(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        code = run_cli("--config", cfg, "--output-dir", str(out),
                       "--set", "conserve.energy_tol=1e-30")
        assert code == 2
        assert "energy_drift" in (out / "FAILED").read_text()


def run_files(out):
    return {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}


class TestReusedOutputDir:
    """A run directory holds only what the last run wrote."""

    def test_three_commands_in_one_dir(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("illposedness", "--output-dir", out) == 0
        assert run_files(tmp_path / "out") == {
            "manifest.json", "records.csv", "slopes.json",
            "plotdata/illposedness_norm_N.dat"}
        assert run_cli("resonance-scan", "--output-dir", out) == 2
        assert run_files(tmp_path / "out") == {"manifest.json", "records.csv",
                                               "FAILED"}
        # the handler raises: only the error manifest and its marker remain
        assert run_cli("scaling", "--set", "scaling.lambdas=[0.01, 1, 2, 4]",
                       "--output-dir", out) == 1
        assert run_files(tmp_path / "out") == {"manifest.json", "FAILED"}
        assert "resolution loss" in (tmp_path / "out" / "FAILED").read_text()

    def test_format_switch_keeps_one_records_file(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        assert run_cli("--config", cfg, "--output-dir", str(out),
                       "--set", "format=json") == 0
        assert (out / "records.jsonl").exists()
        assert not (out / "records.csv").exists()

    def test_rerun_unlinks_nothing(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config(command="simulate"))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        names = run_files(out)
        assert "final_state.fkpi" in names
        # a hard link keeps each inode alive: a file unlinked and made again
        # by the rerun would not be the same file as its link
        (tmp_path / "links").mkdir()
        for i, name in enumerate(sorted(names)):
            os.link(out / name, tmp_path / "links" / str(i))
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        assert run_files(out) == names
        for i, name in enumerate(sorted(names)):
            assert os.path.samefile(out / name, tmp_path / "links" / str(i)), name


# Sections each SETUPS row reads, taken from its handler, with the --set
# overrides that pick the row.
READS = {
    ("simulate", None): ([], {"grid", "evolution", "data"}),
    ("conserve", None): ([], {"grid", "evolution", "data", "conserve"}),
    ("strichartz", "linear"): (["strichartz.kind=linear"],
                               {"grid", "probe", "strichartz"}),
    ("strichartz", "lowfreq"): (["strichartz.kind=lowfreq"],
                                {"grid", "probe", "strichartz"}),
    ("bilinear", None): ([], {"probe", "bilinear"}),
    ("trilinear", "lw_band"): (["trilinear.regime=lw_band"], {"probe", "trilinear"}),
    ("trilinear", "lw_modulation"): (["trilinear.regime=lw_modulation"],
                                     {"probe", "trilinear"}),
    ("trilinear", "nonresonant"): (["trilinear.regime=nonresonant"],
                                   {"probe", "trilinear"}),
    ("scaling", None): ([], {"grid", "scaling"}),
    ("illposedness", None): ([], {"illposedness"}),
    ("resonance-scan", None): ([], {"scan"}),
    ("transversality", None): ([], {"transversality"}),
}
TOP_LEVEL = {"command", "alpha", "seed", "workers", "output_dir", "format"}


def canonical_echo(tmp_path, command, sets):
    """The manifest's config echo for a canonical config."""
    config = parse_config(json.dumps(apply_overrides({}, sets)), command)
    cli._write_manifest(str(tmp_path), config, 0, [], 0.0)
    return json.loads((tmp_path / "manifest.json").read_text())["config"]


class TestManifestEcho:
    """The manifest echoes the top-level keys and the sections the command
    reads; a section it does not read is rejected."""

    def test_every_row_covered(self):
        assert set(READS) == set(cli.SETUPS)

    @pytest.mark.parametrize("key", list(READS), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_echo_holds_the_sections_read(self, tmp_path, key):
        sets, sections = READS[key]
        assert set(canonical_echo(tmp_path, key[0], sets)) == TOP_LEVEL | sections

    def test_strichartz_linear_echoes_its_grid_and_sweep(self, tmp_path):
        echo = canonical_echo(tmp_path, "strichartz", [])
        assert echo["strichartz"]["kind"] == "linear"
        assert echo["grid"] == {"length_x": TWO_PI, "length_y": TWO_PI,
                                "modes_x": 512, "modes_y": 64}
        assert echo["probe"]["dyadic_range"] == [8.0, 16.0, 32.0, 64.0, 128.0]

    @pytest.mark.parametrize("command, setting, section", [
        ("conserve", "probe.tolerance_hi=0.2", "probe"),
        ("simulate", "conserve.mass_tol=1e-9", "conserve"),
        ("strichartz", "evolution.dt=0.01", "evolution"),
        ("bilinear", "grid.modes_x=64", "grid"),
        ("trilinear", "data.kind=zero", "data"),
        ("illposedness", "scan.N=64", "scan"),
    ])
    def test_unread_section_rejected(self, tmp_path, capsys, command, setting,
                                     section):
        out = tmp_path / "out"
        assert run_cli(command, "--set", setting, "--output-dir", str(out)) == 1
        assert (f"error: {command} does not read the section(s) {section};"
                in capsys.readouterr().err)
        assert not out.exists()


class TestSweepCommands:
    def test_linear_strichartz_slope_and_control(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "strichartz", "alpha": 3.0,
            "grid": {"modes_x": 128, "modes_y": 16},
            "probe": {"dyadic_range": [2, 4, 8, 16], "tolerance_hi": 0.1},
            "strichartz": {"snapshots": 48},
        })
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--output-dir", str(out)) == 0
        slopes = json.loads((out / "slopes.json").read_text())
        assert slopes[0]["probe"] == "linear_strichartz_slope"
        assert slopes[0]["pass"] is True
        assert abs(slopes[0]["slope"]) < 0.1
        curve = (out / "plotdata" / "linear_strichartz_band_n.dat")
        assert len(curve.read_text().splitlines()) == 4

        control = tmp_path / "control"
        code = run_cli("--config", cfg, "--output-dir", str(control),
                       "--set", "strichartz.comparator_shift=-0.25")
        assert code == 2
        slopes = json.loads((control / "slopes.json").read_text())
        assert slopes[0]["pass"] is False

    def test_lw_band_rejects_comparator_shift(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("trilinear", "--set", "trilinear.comparator_shift=-0.25",
                       "--output-dir", str(out))
        assert code == 1
        assert "lw_band" in capsys.readouterr().err

    @pytest.mark.parametrize("command, regime, key, value", [
        ("strichartz", "lowfreq", "q", 6),
        ("strichartz", "lowfreq", "r", 6),
        ("trilinear", "lw_band", "n1", 32),
        ("trilinear", "lw_band", "l3", 64),
        ("trilinear", "lw_modulation", "l", 2),
        ("trilinear", "lw_modulation", "l3", 64),
        ("trilinear", "nonresonant", "l", 2),
    ])
    def test_regime_rejects_a_key_it_never_reads(self, tmp_path, capsys, command,
                                                 regime, key, value):
        out = tmp_path / "out"
        code = run_cli(command, "--set", f"{command}.{cli.REGIME_KEYS[command]}={regime}",
                       "--set", f"{command}.{key}={value}", "--output-dir", str(out))
        assert code == 1
        assert (f"error: the {regime} regime does not read {command}.{key}"
                in capsys.readouterr().err)
        assert not (out / "records.csv").exists()

    def test_help_names_the_regimes_that_read_each_key(self):
        for (command, _), keys in cli.UNREAD_KEYS.items():
            regimes = cli.SCHEMA[command][cli.REGIME_KEYS[command]].choices
            for key in keys:
                readers = [r for r in regimes
                           if key not in cli.UNREAD_KEYS.get((command, r), ())]
                assert cli.SCHEMA[command][key].help.endswith(
                    "; read by " + ", ".join(readers))

    def test_resonance_scan_laws(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("resonance-scan", "--set", "format=json",
                       "--output-dir", str(out)) == 2
        rows = [json.loads(line)
                for line in (out / "records.jsonl").read_text().splitlines()]
        assert [r["law"] for r in rows] == ["omega1_over_N^alpha*gamma",
                                            "omega_over_N^(alpha-1)*gamma^2"]
        for r in rows:
            assert {"alpha", "N", "gamma", "samples", "seed", "ratio_min"} <= set(r)

    def test_transversality_records(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("transversality", "--output-dir", str(out)) == 0
        rows = (out / "records.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all(",true," in row for row in rows[1:])


# Expected canonical outcome per SETUPS sweep row: --set overrides, exit
# status, plot curve, its point count, and the slope record's probe name.
SWEEP_RUNS = {
    ("strichartz", "linear"): (
        ["strichartz.kind=linear"], 0, "linear_strichartz_band_n", 5,
        "linear_strichartz_slope"),
    ("strichartz", "lowfreq"): (
        ["strichartz.kind=lowfreq"], 0, "lowfreq_l4_N", 6, "lowfreq_l4_slope"),
    ("bilinear", None): ([], 0, "bilinear_n1", 4, "bilinear_slope"),
    ("trilinear", "lw_band"): (
        ["trilinear.regime=lw_band"], 0, "lw_n1", 4, "lw_slope"),
    ("trilinear", "lw_modulation"): (
        ["trilinear.regime=lw_modulation"], 0, "lw_modulation_l", 4, "lw_slope"),
    # the canonical n1 = 8, n2 = 2 violates the regime's n1 <= n2/4
    ("trilinear", "nonresonant"): (
        ["trilinear.regime=nonresonant", "trilinear.n1=1", "trilinear.n2=8"], 0,
        "nonresonant_l1", 4, "nonresonant_slope"),
}

SMALL_EVOLUTION = ["grid.modes_x=32", "grid.modes_y=32"]

# The same for the other rows: --set overrides, exit status, plot curves,
# their point count, and the slope record's probe name.  simulate and
# conserve keep the canonical evolution on a 32^2 grid.
OTHER_PROBE_RUNS = {
    "simulate": (SMALL_EVOLUTION, 0, ("energy_t", "mass_t"), 21, None),
    "conserve": (SMALL_EVOLUTION, 0, ("energy_drift_t", "mass_drift_t"), 21,
                 None),
    "scaling": ([], 0, ("scaling_norm_lambda",), 5, "scaling_exponent"),
    "illposedness": ([], 0, ("illposedness_norm_N",), 6,
                     "illposedness_growth_slope"),
    "resonance-scan": ([], 2, (), 0, None),
    "transversality": ([], 0, (), 0, None),
}


def check_run_dir(out, curves, points, slope_probe):
    plots = sorted(p.name for p in (out / "plotdata").iterdir())
    assert plots == [curve + ".dat" for curve in curves]
    for plot in plots:
        assert len((out / "plotdata" / plot).read_text().splitlines()) == points
    if slope_probe is None:
        assert not (out / "slopes.json").exists()
    else:
        slopes = json.loads((out / "slopes.json").read_text())
        assert [s["probe"] for s in slopes] == [slope_probe]


def set_args(sets):
    return [a for s in sets for a in ("--set", s)]


# Every SETUPS row as (command, --set overrides), at the configs above.
ROW_RUNS = {**{f"{c}-{r}": (c, SWEEP_RUNS[c, r][0]) for c, r in SWEEP_RUNS},
            **{c: (c, OTHER_PROBE_RUNS[c][0]) for c in OTHER_PROBE_RUNS}}


@pytest.fixture(scope="module")
def row_run(tmp_path_factory):
    """(exit status, output dir) of a ROW_RUNS entry, run once per module."""
    done = {}

    def run(name, *extra):
        if (name, extra) not in done:
            command, sets = ROW_RUNS[name]
            out = tmp_path_factory.mktemp(name) / "out"
            code = run_cli(command, *set_args(sets), *extra, "--output-dir", str(out))
            done[name, extra] = code, out
        return done[name, extra]
    return run


class TestCanonicalProbeRuns:
    def test_every_sweep_row_covered(self):
        rows = set(SWEEP_RUNS) | {(command, None) for command in OTHER_PROBE_RUNS}
        assert rows == set(cli.SETUPS)
        assert {command for command, _ in cli.SETUPS} == set(COMMANDS)

    @pytest.mark.parametrize("key", list(SWEEP_RUNS), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_sweep_row(self, row_run, key):
        sets, code, curve, points, slope_probe = SWEEP_RUNS[key]
        status, out = row_run(f"{key[0]}-{key[1]}")
        assert status == code
        check_run_dir(out, (curve,), points, slope_probe)

    @pytest.mark.parametrize("command", list(OTHER_PROBE_RUNS))
    def test_other_probe_command(self, row_run, command):
        sets, code, curves, points, slope_probe = OTHER_PROBE_RUNS[command]
        status, out = row_run(command)
        assert status == code
        check_run_dir(out, curves, points, slope_probe)

    def test_advertised_negative_control_fails(self, tmp_path):
        # the control value named in --help must flip the canonical run
        help_text = cli.SCHEMA["strichartz"]["comparator_shift"].help
        shift = re.search(r"negative control: (-[0-9.]+)", help_text).group(1)
        out = tmp_path / "out"
        code = run_cli("strichartz", "--set", f"strichartz.comparator_shift={shift}",
                       "--output-dir", str(out))
        assert code == 2
        slope = json.loads((out / "slopes.json").read_text())[0]
        assert slope["slope"] > slope["band_hi"] == 0.1


def artifacts(out):
    """({file: bytes} of a run directory without its manifest, the manifest
    without its timestamp)."""
    files = {name: (out / name).read_bytes() for name in run_files(out)}
    manifest = json.loads(files.pop("manifest.json"))
    manifest.pop("timestamp")
    return files, manifest


class TestReplay:
    """A manifest is a complete recipe: its config, fed back as --config,
    writes the same artifacts byte for byte."""

    @pytest.mark.parametrize("name", list(ROW_RUNS))
    def test_manifest_config_reproduces_the_run(self, row_run, tmp_path, name):
        code, out = row_run(name)
        files, manifest = artifacts(out)
        assert "records.csv" in files
        recipe = dict(manifest["config"], command=manifest["command"])
        replay = tmp_path / "replay"
        assert run_cli("--config", write_config(tmp_path, recipe),
                       "--output-dir", str(replay)) == code
        replayed, replayed_manifest = artifacts(replay)
        assert replayed == files
        assert replayed_manifest["config"].pop("output_dir") == str(replay)
        manifest["config"].pop("output_dir")
        assert replayed_manifest == manifest


# The commands whose results depend on the top-level seed, as its help names
# them.
SEED_READERS = {c for c in COMMANDS
                if re.search(rf"(^|[ ,]){c}([ ,]|$)", cli.SCHEMA["seed"].help)}


class TestSeed:
    def test_help_names_the_commands_that_read_it(self):
        assert SEED_READERS == {"simulate", "conserve", "bilinear", "trilinear",
                                "resonance-scan", "transversality"}
        assert sorted(n for n in ROW_RUNS if ROW_RUNS[n][0] not in SEED_READERS) == [
            "illposedness", "scaling", "strichartz-linear", "strichartz-lowfreq"]

    @pytest.mark.parametrize("name", [n for n in ROW_RUNS
                                      if ROW_RUNS[n][0] not in SEED_READERS])
    def test_other_rows_ignore_it(self, row_run, name):
        (_, base), (_, seeded) = row_run(name), row_run(name, "--seed", "7")
        files, manifest = artifacts(base)
        files_7, manifest_7 = artifacts(seeded)
        assert files_7 == files
        assert (manifest["config"]["seed"], manifest_7["config"]["seed"]) == (0, 7)

    @pytest.mark.parametrize("name", [n for n in ROW_RUNS
                                      if ROW_RUNS[n][0] in SEED_READERS])
    def test_readers_measure_other_values(self, row_run, name):
        (_, base), (_, seeded) = row_run(name), row_run(name, "--seed", "7")
        assert ([r["measured"] for r in read_records(seeded)]
                != [r["measured"] for r in read_records(base)])


# The columns each verdict band holds; every other band holds `measured`.
CHECKED = {"resonance_scan": ("ratio_min", "measured"),
           "transversality": ("ratio_min", "measured"),
           "illposedness_growth": ("data_norm_1", "data_norm_2")}


def read_records(out):
    """The records of a run directory as dicts; an empty CSV cell is None."""
    if (out / "records.jsonl").exists():
        return [json.loads(line)
                for line in (out / "records.jsonl").read_text().splitlines()]
    header, *lines = (out / "records.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return [{k: {"": None, "true": True, "false": False}.get(v, v)
             for k, v in row.items()} for row in rows]


class TestVerdictColumns:
    """Every verdict is lo <= v <= hi on its band columns: pass is recomputed
    from band_lo, band_hi and the checked columns of each record."""

    @pytest.mark.parametrize("name, extra", [
        *((name, ()) for name in ROW_RUNS), ("conserve", ("--set", "format=json"))],
        ids=[*ROW_RUNS, "conserve-json"])
    def test_pass_recomputed_from_band(self, row_run, name, extra):
        code, out = row_run(name, *extra)
        records = read_records(out)
        assert (out / ("records.jsonl" if extra else "records.csv")).exists()
        banded = [r for r in records
                  if r.get("band_lo") is not None or r.get("band_hi") is not None]
        for r in banded:
            lo = -math.inf if r["band_lo"] is None else float(r["band_lo"])
            hi = math.inf if r["band_hi"] is None else float(r["band_hi"])
            checked = CHECKED.get(r["probe"], ("measured",))
            assert r["pass"] == all(lo <= float(r[c]) <= hi for c in checked), r
        assert all(r in banded for r in records if not r["pass"])
        assert code == (0 if all(r["pass"] for r in records) else 2)
        assert banded or name == "simulate"

    def test_nan_slope_or_edge_exits_1_without_slopes(self, tmp_path, monkeypatch,
                                                       capsys):
        for i, (band, slope) in enumerate([(Band(hi=0.1), math.nan),
                                           (Band(lo=math.nan, hi=0.1), 0.0)]):
            record = band.record("x_slope", {"sweep_variable": "n"}, slope)
            assert not record.passed
            monkeypatch.setitem(cli.HANDLERS, "scaling",
                                lambda config, record=record: ([record], []))
            out = tmp_path / f"out{i}"
            assert run_cli("scaling", "--output-dir", str(out)) == 1
            assert "not JSON compliant" in capsys.readouterr().err
            assert sorted(p.name for p in out.iterdir()) == ["FAILED", "manifest.json"]


LOWFREQ_RANGE = [0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5]


class TestPartialSections:
    """A partial grid or probe section is completed from the command's row,
    not from the section defaults of SCHEMA."""

    @pytest.mark.parametrize("sets, section, echoed", [
        (["strichartz.kind=lowfreq", "grid.modes_x=1024"], "grid",
         {"length_x": 256.0 * math.pi, "length_y": 16.0 * math.pi,
          "modes_x": 1024, "modes_y": 64}),
        (["grid.modes_y=128"], "grid",
         {"length_x": TWO_PI, "length_y": TWO_PI, "modes_x": 512, "modes_y": 128}),
        (["strichartz.kind=lowfreq", f"probe.dyadic_range={LOWFREQ_RANGE}"],
         "probe", {"dyadic_range": LOWFREQ_RANGE, "trials_per_point": 1,
                   "tolerance_lo": -0.2, "tolerance_hi": 0.2}),
    ], ids=["lowfreq-grid", "linear-grid", "lowfreq-probe"])
    def test_strichartz(self, tmp_path, sets, section, echoed):
        out = tmp_path / "out"
        assert run_cli("strichartz", *set_args(sets), "--output-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"][section] == echoed

    def test_scaling_grid(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("scaling", "--set", "grid.modes_y=2048",
                       "--output-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["grid"] == {
            "length_x": 64.0 * math.pi, "length_y": 64.0 * math.pi,
            "modes_x": 512, "modes_y": 2048}

    def test_trilinear_probe_keeps_cap(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("trilinear", "--set", 'probe={"dyadic_range": [8, 16, 32, 64]}',
                       "--output-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["probe"]["tolerance_hi"] == 0.2
        assert json.loads((out / "slopes.json").read_text())[0]["band_hi"] == 0.2


def tracer_patches():
    """(module, attribute) pairs of FUNCTION_PATCHES in perfbench/tracer.py."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "FUNCTION_PATCHES"):
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("FUNCTION_PATCHES not found")


class TestPatchedNames:
    """The benchmark's tracer replaces these module attributes; each must be
    looked up when a command runs, not bound when a module or the table is
    built.  The runs go through parse_config and run, as the benchmark's do."""

    RUNS = [
        ("simulate", SMALL_EVOLUTION + ["evolution.T=0.01", "evolution.scheme=strang"]),
        ("conserve", SMALL_EVOLUTION + ["evolution.T=0.01"]),
        ("strichartz", ["grid.modes_x=128", "grid.modes_y=16", "strichartz.snapshots=8",
                        "probe.dyadic_range=[2, 4, 8, 16]"]),
        ("bilinear", ["bilinear.nk=8", "bilinear.nw=16", "bilinear.nx=16",
                      "probe.trials_per_point=1"]),
        ("trilinear", []),
        ("scaling", []),
        ("illposedness", ["illposedness.quad_res=8"]),
        ("resonance-scan", ["scan.samples=100"]),
        ("transversality", ["transversality.samples=50"]),
    ]
    NAMES = ("solve", "mass", "energy_alpha", "resonance_size_scan",
             "transversality_check", "linear_strichartz_sweep", "bilinear_sweep",
             "lw_band_sweep", "scaling_exponent_fit", "illposedness_growth_study")

    def test_patches_take_effect(self, tmp_path, monkeypatch):
        called = set()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapped

        targets = ({("cli", name) for name in self.NAMES} | tracer_patches()
                   | {("probes", "_run_points")})
        for module_name, attr in targets:
            module = importlib.import_module("fkpi_lab." + module_name)
            monkeypatch.setattr(module, attr, spy((module_name, attr),
                                                  getattr(module, attr)))
        for command, fn in list(cli.HANDLERS.items()):
            monkeypatch.setitem(cli.HANDLERS, command, spy("handler:" + command, fn))
        assert [c for c, _ in self.RUNS] == list(COMMANDS)
        for command, sets in self.RUNS:
            raw = apply_overrides({"output_dir": str(tmp_path / command)}, sets)
            config = cli.parse_config(json.dumps(raw), command)
            assert cli.run(config) in (0, 2)
        assert called == targets | {"handler:" + c for c in COMMANDS}


class TestWorkerInvariance:
    @pytest.mark.parametrize("command, section", [
        ("bilinear", {}),
        ("trilinear", {"trilinear": {"regime": "lw_modulation"}}),
        ("strichartz", {"strichartz": {"kind": "lowfreq"}}),
    ], ids=["bilinear", "lw_modulation", "lowfreq"])
    def test_records_identical_for_one_and_two_workers(self, tmp_path, command,
                                                      section):
        records = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            config = parse_config(json.dumps(dict(
                section, command=command, workers=workers, output_dir=str(out))))
            assert cli.run(config) in (0, 2)
            records.append((out / "records.csv").read_bytes())
        assert records[0] == records[1]


class TestMainConfigFile:
    def test_malformed_json_reported_as_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{command: conserve}")
        assert run_cli("conserve", "--config", str(path)) == 1
        assert "error: config is not valid JSON: " in capsys.readouterr().err

    def test_non_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run_cli("conserve", "--config", str(path)) == 1
        assert "config must be a JSON object" in capsys.readouterr().err
