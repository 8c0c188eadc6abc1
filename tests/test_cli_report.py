import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from courant_lab.alcove_geometry import DOMAINS, DomainKind
from courant_lab.cli_report import RATIO_FORMAT, main, parse_pair, parse_theta
from courant_lab.lattice_spectrum import MAX_COUNT, enumerate_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_ratio_format():
    assert RATIO_FORMAT % 0.375 == "0.3750000000"
    assert RATIO_FORMAT % 3.5 == "3.500000000"
    assert RATIO_FORMAT % 2.6 == "2.600000000"
    assert RATIO_FORMAT % (13 / 6) == "2.166666667"


def test_parse_theta():
    assert parse_theta("0.35") == 0.35
    assert parse_theta("pi/6") == pytest.approx(math.pi / 6)
    assert parse_theta("pi/12") == pytest.approx(math.pi / 12)
    assert parse_theta("theta_c") == pytest.approx(0.3005211736, abs=1e-8)


@pytest.mark.parametrize("text", ["pi/0", "pi/" + "1" * 400, "nan", "inf",
                                  "-inf", "1e999"])
def test_parse_theta_rejects_what_is_not_a_finite_angle(text):
    with pytest.raises(ValueError):
        parse_theta(text)


def test_parse_theta_names_the_accepted_forms_and_the_bad_input():
    with pytest.raises(ValueError) as exc:
        parse_theta("pi/3.5")
    assert str(exc.value) == ("theta must be finite radians, pi/<k> or theta_c, "
                              "got 'pi/3.5'")


def test_parse_pair():
    assert parse_pair("2,3") == (2, 3)
    with pytest.raises(ValueError):
        parse_pair("2;3")


def test_spectrum_torus_csv(capsys):
    code, out = run_cli(capsys, "spectrum", "--domain", "torus", "--count", "85")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "normalized,min_index,max_index,multiplicity,ratio"
    assert len(lines) == 12
    assert lines[1] == "0,1,1,1,"
    assert lines[3] == "3,8,13,6,0.3750000000"
    assert lines[11] == "21,74,85,12,0.2837837838"


def test_screen_json_candidates(capsys):
    code, out = run_cli(capsys, "screen", "--domain", "equilateral",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["candidates"] == [1, 2, 4, 5, 7, 11]
    assert data["index_cutoff"] == 40


def test_verdict_right_isosceles(capsys):
    code, out = run_cli(capsys, "verdict", "--domain", "right-isosceles")
    assert code == 0
    assert json.loads(out)["sharp"] == [1, 2]


def test_nodal_stable_exit_zero(capsys):
    code, out = run_cli(capsys, "nodal", "--domain", "equilateral",
                        "--pair", "2,3", "--theta", "0.35",
                        "--resolution", "512")
    assert code == 0
    data = json.loads(out)
    assert data["domain_count"] == 4
    assert data["stable"] is True


def test_nodal_unstable_exit_three(capsys):
    # this mode/resolution combination flips count when the grid is doubled
    code, out = run_cli(capsys, "nodal", "--domain", "hemiequilateral",
                        "--pair", "5,2", "--resolution", "512")
    data = json.loads(out)
    if data["stable"]:
        pytest.skip("count stabilized; exit-3 path not exercised here")
    assert code == 3


def test_validation_errors(capsys):
    assert main(["nodal", "--domain", "equilateral", "--pair", "2,3",
                 "--resolution", "8"]) == 2
    assert main(["nodal", "--domain", "equilateral", "--pair", "nope"]) == 2
    assert main(["critical-zeros", "--pair", "1,2", "--theta", "0.1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("nodal", "--domain", "equilateral", "--pair", "0,0"),
    ("nodal", "--domain", "equilateral", "--pair", "1,1", "--theta", "0"),
    ("nodal", "--domain", "hemiequilateral", "--pair", "1,1"),
    ("nodal", "--domain", "hemiequilateral", "--pair", "2,1", "--theta", "0.7"),
    ("plot", "--domain", "hemiequilateral", "--pair", "2,1", "--theta", "0.7"),
    ("plot", "--domain", "right-isosceles", "--pair", "2,1", "--theta", "0.7"),
    ("plot", "--domain", "equilateral", "--pair", "2,2", "--theta", "0")])
def test_handles_naming_no_eigenfunction_exit_two(capsys, argv):
    assert main([*argv, "--resolution", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("theta", ["nan", "inf", "pi/0"])
@pytest.mark.parametrize("argv", [
    ("nodal", "--domain", "equilateral", "--pair", "2,3"),
    ("plot", "--domain", "equilateral", "--pair", "2,3"),
    ("critical-zeros", "--pair", "2,3")])
def test_theta_that_is_not_a_number_exits_two(capsys, argv, theta):
    assert main([*argv, "--theta", theta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (("nodal", "--domain", "equilateral", "--pair", "1,3,4"),
     "error: pair must be two integers m,n, got '1,3,4'\n"),
    (("nodal", "--domain", "equilateral", "--pair", "1"),
     "error: pair must be two integers m,n, got '1'\n"),
    (("nodal", "--domain", "torus", "--pair", "1,2"),
     "error: nodal counting is not defined for torus\n"),
    (("critical-zeros", "--pair", "1,1"),
     "error: pair (1, 1) not supported (use (1,3) or (2,3))\n")])
def test_bad_input_exits_two_with_a_plain_message(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_right_isosceles_swapped_pair_is_counted(capsys):
    code, out = run_cli(capsys, "nodal", "--domain", "right-isosceles",
                        "--pair", "1,2", "--resolution", "64")
    assert code == 0
    assert json.loads(out)["domain_count"] == 1


def test_unknown_domain_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--domain", "pentagon"])
    assert exc.value.code == 2


def test_critical_zeros_and_fixed_points(capsys):
    code, out = run_cli(capsys, "critical-zeros", "--pair", "2,3",
                        "--theta", "0.1")
    assert code == 0
    zeros = json.loads(out)
    assert sum(1 for z in zeros if z["edge"] == "OA") == 1
    code, out = run_cli(capsys, "fixed-points", "--pair", "1,3")
    assert code == 0
    assert len(json.loads(out)) == 4


@pytest.mark.parametrize("pair, theta, digest", [
    ("2,3", "theta_c", "8e025633458fbe77"), ("1,3", "theta_c", "f9794d23513029e4"),
    ("2,3", "pi/6", "8f38a523c9a66297"), ("1,3", "pi/12", "b823957e98eb3cc7")])
def test_critical_zeros_bytes(capsys, pair, theta, digest):
    # the exact output, zeros and orders to the last digit, pinned by digest
    code, out = run_cli(capsys, "critical-zeros", "--pair", pair, "--theta", theta)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_bifurcation_output(capsys):
    code, out = run_cli(capsys, "bifurcation")
    assert code == 0
    data = json.loads(out)
    assert data["u_b"] == pytest.approx(0.3912873205, abs=1e-8)
    assert data["theta_c"] == pytest.approx(0.3005211736, abs=1e-8)


@pytest.mark.parametrize("domain", [d.value for d in DomainKind])
@pytest.mark.parametrize("count", [1, 2, 85, 5000])
def test_spectrum_json_is_the_stdlib_encoding(capsys, domain, count):
    # the row template writes the bytes the indenting stdlib encoder would
    d = DomainKind(domain)
    s = enumerate_spectrum(d, count)
    rows = [{"normalized": value, "min_index": lo, "max_index": hi,
             "multiplicity": mult,
             "ratio": (RATIO_FORMAT % (value / lo)
                       if lo >= DOMAINS[d].first_ratio_index else None)}
            for value, lo, hi, mult in zip(s.normalized.tolist(), s.min_index.tolist(),
                                           s.max_index.tolist(), s.multiplicity.tolist())]
    code, out = run_cli(capsys, "spectrum", "--domain", domain, "--count",
                        str(count), "--format", "json")
    assert code == 0
    assert out == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("domain", [d.value for d in DomainKind])
@pytest.mark.parametrize("count", [1, 85, 3000])
def test_spectrum_csv_is_the_box_oracle_table(capsys, box_scan, domain, count):
    # the table from brute-force modes, grouped with a plain dict and indexed
    # by running sums, shares no code with enumerate_spectrum
    d = DomainKind(domain)
    form, limit = DOMAINS[d].value, 1
    while len(modes := box_scan(d, limit)) < count:
        limit *= 2
    groups = {}
    for p in modes:
        groups[form(*p)] = groups.get(form(*p), 0) + 1
    lines, index = ["normalized,min_index,max_index,multiplicity,ratio"], 1
    for value in sorted(groups):
        mult = groups[value]
        ratio = (RATIO_FORMAT % (value / index)
                 if index >= DOMAINS[d].first_ratio_index else "")
        lines.append(f"{value},{index},{index + mult - 1},{mult},{ratio}")
        index += mult
        if index > count:
            break
    code, out = run_cli(capsys, "spectrum", "--domain", domain, "--count", str(count))
    assert code == 0
    assert out == "\n".join(lines) + "\n"


class _Refused:
    """Stands in for a per-row class: any use of it fails the test."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"the CLI built a {self.name}")

    def __getattr__(self, attr):
        raise AssertionError(f"the CLI used {self.name}.{attr}")


@pytest.mark.parametrize("domain", [d.value for d in DomainKind])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_builds_no_per_row_objects(capsys, monkeypatch, domain, fmt):
    from courant_lab import lattice_spectrum, pleijel_screening

    argv = ("spectrum", "--domain", domain, "--count", "20000", "--format", fmt)
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(lattice_spectrum, "Mode", _Refused("Mode"))
    # nor does it build screening rows, which hold modes
    monkeypatch.setattr(pleijel_screening, "ScreeningRow", _Refused("ScreeningRow"))
    monkeypatch.setattr(pleijel_screening, "Mode", _Refused("Mode"))
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("count", [0, MAX_COUNT + 1])
def test_spectrum_count_out_of_range_exits_two(capsys, count):
    assert main(["spectrum", "--domain", "torus", "--count", str(count)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: count must be >= 1 and <= 1000000, "
                            f"got {count}\n")


def test_output_deterministic(tmp_path, capsys):
    paths = []
    for i in (0, 1):
        p = tmp_path / f"out{i}.csv"
        assert main(["spectrum", "--domain", "equilateral", "--count", "41",
                     "--out", str(p)]) == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_stamp_sidecar(tmp_path):
    p = tmp_path / "table.csv"
    assert main(["spectrum", "--domain", "torus", "--count", "10",
                 "--out", str(p), "--stamp"]) == 0
    sidecar = json.loads((tmp_path / "table.csv.stamp.json").read_text())
    assert sidecar["command"] == "spectrum"
    # the data file itself carries no timestamp
    assert "written_at" not in p.read_text()


def test_stamp_without_out_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--domain", "torus", "--count", "3", "--stamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--out" in captured.err
    assert list(tmp_path.iterdir()) == []  # no sidecar anywhere


def test_out_in_a_missing_directory_is_rejected(tmp_path, capsys):
    p = tmp_path / "missing" / "table.csv"
    assert main(["spectrum", "--domain", "torus", "--count", "3",
                 "--out", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(p) in captured.err
    assert not p.parent.exists()


def test_out_is_checked_before_the_work(tmp_path, monkeypatch, capsys):
    from courant_lab import cli_report

    def enumerate_spectrum(*args):
        raise AssertionError("the spectrum was enumerated")

    monkeypatch.setattr(cli_report, "enumerate_spectrum", enumerate_spectrum)
    for p in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["spectrum", "--domain", "hemiequilateral", "--count",
                     "200000", "--out", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(p) in captured.err


def test_plot_svg(tmp_path, capsys):
    p = tmp_path / "nodal.svg"
    code = main(["plot", "--domain", "equilateral", "--pair", "1,3",
                 "--theta", "0.2618", "--resolution", "256",
                 "--out", str(p)])
    assert code == 0
    svg = p.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert "<polygon" in svg and "<path" in svg
    assert svg.count("<circle") == 4  # the four fixed points of the pair
    assert "href" not in svg  # no external references
    # deterministic bytes
    p2 = tmp_path / "nodal2.svg"
    main(["plot", "--domain", "equilateral", "--pair", "1,3",
          "--theta", "0.2618", "--resolution", "256", "--out", str(p2)])
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("argv", [
    ("nodal", "--domain", "equilateral", "--pair", "2,3"),
    ("plot", "--domain", "right-isosceles", "--pair", "2,1")])
def test_resolution_above_the_grid_cap_exits_two_before_allocating(capsys, argv):
    # nodal and plot import nodal_analysis and svg_export lazily; import them
    # first, outside the measured peak (svg_export imports nodal_analysis)
    import courant_lab.svg_export  # noqa: F401

    tracemalloc.start()
    try:
        code = main([*argv, "--resolution", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 20  # a single row of a 10^6 grid takes 8 MB
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resolution must be ")
    assert captured.err.endswith(", got 1000000\n")


TABLE_ARGVS = [["spectrum", "--domain", "hemiequilateral", "--count", "300"],
               ["spectrum", "--domain", "hemiequilateral", "--count", "300",
                "--format", "json"],
               ["screen", "--domain", "hemiequilateral"],
               ["screen", "--domain", "hemiequilateral", "--format", "json"]]

FRESH_PROCESS = """
import contextlib, io, json, sys
from courant_lab.cli_report import main

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return [code, buf.getvalue()]

tables = [run(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("scipy", "courant_lab.nodal_analysis") if m in sys.modules]
print(json.dumps({"tables": tables, "loaded": loaded,
                  "bifurcation": run(["bifurcation"])}))
"""


def test_spectrum_and_screen_run_without_scipy(capsys):
    # a fresh interpreter: this one has imported nodal_analysis already
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS,
                           json.dumps(TABLE_ARGVS)],
                          capture_output=True, text=True, env=env, check=True)
    fresh = json.loads(proc.stdout)
    assert fresh["loaded"] == []
    assert fresh["tables"] == [list(run_cli(capsys, *argv)) for argv in TABLE_ARGVS]
    # the nodal commands still find nodal_analysis, imported on first use
    code, out = fresh["bifurcation"]
    assert code == 0 and '"theta_c": 0.3005211736685075' in out
