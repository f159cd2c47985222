"""tools/compare_runs.py names the differing columns of a records file and
reports each side's peak memory and package size."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)

OLD_CSV = ("probe,alpha,measured,pass,note\n"
           "a,2.5,1.0,true,band [0.125; 8.0]\n"
           "b,2.5,2.0,false,\n")


def diff_of(tmp_path, old_files, new_files):
    maps = []
    for side, files in (("old", old_files), ("new", new_files)):
        out = tmp_path / side
        out.mkdir()
        for name, text in files.items():
            (out / name).write_text(text)
        maps.append(compare_runs.digests(out, 0, ""))
    return compare_runs.describe(compare_runs.differing(*maps))


def test_same(tmp_path):
    assert diff_of(tmp_path, {"records.csv": OLD_CSV}, {"records.csv": OLD_CSV}) == ""


def test_csv_names_added_and_changed_columns(tmp_path):
    new = ("probe,alpha,band_hi,band_lo,measured,pass,note\n"
           "a,2.5,8.0,0.125,1.0,true,\n"
           "b,2.5,,,2.0,false,\n")
    assert (diff_of(tmp_path, {"records.csv": OLD_CSV}, {"records.csv": new})
            == "records.csv: band_hi, band_lo, note")


def test_reordered_columns_name_the_file_only(tmp_path):
    new = ("probe,measured,alpha,pass,note\n"
           "a,1.0,2.5,true,band [0.125; 8.0]\n"
           "b,2.0,2.5,false,\n")
    assert diff_of(tmp_path, {"records.csv": OLD_CSV}, {"records.csv": new}) == "records.csv"


def test_jsonl_missing_key_reads_as_null(tmp_path):
    rows = [{"probe": "a", "measured": 1.0}, {"probe": "b", "measured": 2.0}]
    old = "".join(json.dumps(r) + "\n" for r in rows)
    rows[1]["band_hi"] = None
    rows[0]["band_hi"] = 0.1
    rows[0]["measured"] = 1.5
    new = "".join(json.dumps(r) + "\n" for r in rows)
    assert (diff_of(tmp_path, {"records.jsonl": old, "slopes.json": "[]"},
                    {"records.jsonl": new, "slopes.json": "[1]"})
            == "slopes.json records.jsonl: band_hi, measured")


def test_report_shows_both_peaks_before_the_verdict():
    line = compare_runs.report("conserve", [], [158.31, 62.9])
    assert line.split() == ["conserve", "peak", "RSS", "158.3", "->", "62.9", "MB",
                            "same"]
    line = compare_runs.report("simulate", ["final_state.fkpi"], [None, 50.0])
    assert "peak RSS ? -> 50.0 MB" in line
    assert line.endswith(" differs: final_state.fkpi")


def test_size_report_counts_package_lines(tmp_path):
    for side, texts in (("old", ["a\nb\n", "c\n"]), ("new", ["a\n"])):
        package = tmp_path / side / "src" / "fkpi_lab"
        package.mkdir(parents=True)
        for i, text in enumerate(texts):
            (package / f"m{i}.py").write_text(text)
        (package / "notes.txt").write_text("not\ncounted\n")
    assert (compare_runs.size_report(tmp_path / "old", tmp_path / "new")
            == "src/fkpi_lab: 3 -> 1 lines")
    here = compare_runs.HERE / "src" / "fkpi_lab"
    lines = sum(len(p.read_text().splitlines()) for p in here.glob("*.py"))
    assert (compare_runs.size_report(compare_runs.HERE)
            == f"src/fkpi_lab: {lines} -> {lines} lines")


def test_run_reports_its_peak_rss(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    status, stderr, peak = compare_runs.run_config(
        compare_runs.HERE, "transversality", ["transversality.samples=50"], out)
    assert (status, stderr) == (0, "")
    # numpy alone takes some MB; a run this small takes well under a GB
    assert 10.0 < peak < 1000.0
    assert (out / "records.csv").exists()
