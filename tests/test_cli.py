"""Config parsing, artifact layout, exit codes, and rerun determinism."""

import json
import math
import os
import re

import pytest

import fkpi_lab.cli as cli
from fkpi_lab.cli import COMMANDS, RunConfig, apply_overrides, main, parse_config
from fkpi_lab.evolution import EvolutionConfig
from fkpi_lab.grid import FrequencyGrid

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
        assert config.sections["transversality"]["samples"] == 1000

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
        # only where the command's row gives no canonical sweep
        with pytest.raises(ValueError, match="probe.dyadic_range"):
            parse_config('{"command": "conserve", "probe": {"tolerance_hi": 0.1}}')

    def test_probe_section_completed_from_row(self):
        config = parse_config('{"command": "bilinear", "probe": {"tolerance_hi": 0.3}}')
        assert config.probe.dyadic_range == (8.0, 16.0, 32.0, 64.0)
        assert config.probe.trials_per_point == 8
        assert config.probe.tolerance_band == (-math.inf, 0.3)
        assert config.echo["probe"]["trials_per_point"] == 8

    def test_echo_is_json_clean(self):
        config = parse_config(json.dumps(small_conserve_config()))
        echo = json.loads(json.dumps(config.echo))
        assert echo["command"] == "conserve"
        assert echo["grid"]["modes_x"] == 32
        assert echo["scan"]["samples"] == 10000


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

    def test_command_line_set_override(self, tmp_path):
        cfg = write_config(tmp_path, small_conserve_config())
        out = tmp_path / "out"
        code = run_cli("--config", cfg, "--output-dir", str(out),
                       "--set", "conserve.energy_tol=1e-30")
        assert code == 2
        assert "energy_drift" in (out / "FAILED").read_text()


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
    "scaling": ([], 0, ("scaling_norm_lambda",), 5, None),
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


class TestCanonicalProbeRuns:
    def test_every_sweep_row_covered(self):
        rows = set(SWEEP_RUNS) | {(command, None) for command in OTHER_PROBE_RUNS}
        assert rows == set(cli.SETUPS)
        assert {command for command, _ in cli.SETUPS} == set(COMMANDS)

    @pytest.mark.parametrize("key", list(SWEEP_RUNS), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_sweep_row(self, tmp_path, key):
        sets, code, curve, points, slope_probe = SWEEP_RUNS[key]
        out = tmp_path / "out"
        assert run_cli(key[0], *set_args(sets), "--output-dir", str(out)) == code
        check_run_dir(out, (curve,), points, slope_probe)

    @pytest.mark.parametrize("command", list(OTHER_PROBE_RUNS))
    def test_other_probe_command(self, tmp_path, command):
        sets, code, curves, points, slope_probe = OTHER_PROBE_RUNS[command]
        out = tmp_path / "out"
        assert run_cli(command, *set_args(sets), "--output-dir", str(out)) == code
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


class TestPatchedNames:
    """The benchmark's tracer replaces these cli attributes; each must be
    looked up when a command runs, not bound when the table is built."""

    RUNS = [
        ("simulate", SMALL_EVOLUTION + ["evolution.T=0.01"]),
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

        for name in self.NAMES:
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        for command, fn in list(cli.HANDLERS.items()):
            monkeypatch.setitem(cli.HANDLERS, command, spy("handler:" + command, fn))
        assert [c for c, _ in self.RUNS] == list(COMMANDS)
        for command, sets in self.RUNS:
            out = tmp_path / command
            assert run_cli(command, *set_args(sets), "--output-dir", str(out)) in (0, 2)
        assert called == set(self.NAMES) | {"handler:" + c for c in COMMANDS}


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
