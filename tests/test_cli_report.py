import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from courant_lab.alcove_geometry import DOMAINS, DomainKind
from courant_lab import cli_report
from courant_lab.cli_report import RATIO_FORMAT, main, parse_pair, parse_theta
from courant_lab.lattice_spectrum import MAX_COUNT, enumerate_spectrum
from courant_lab.pleijel_screening import ratio_rule, screening_summary


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_a_closed_stdout_exits_one_with_nothing_on_stderr():
    # the JSON table (about 170 kB) outgrows the pipe's buffer, so the
    # writer is still writing when the reader closes after one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "courant_lab.cli_report", "spectrum", "--domain",
         "torus", "--count", "20000", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"error:" not in err and b"Traceback" not in err


def test_ratio_format():
    assert RATIO_FORMAT % 0.375 == "0.3750000000"
    assert RATIO_FORMAT % 3.5 == "3.500000000"
    assert RATIO_FORMAT % 2.6 == "2.600000000"
    assert RATIO_FORMAT % (13 / 6) == "2.166666667"


def _template_rows(fmt, columns, ratios, skip):
    # the reference: the row template filled row by row, joined by sep
    _, row, ratio, blank, sep, _ = cli_report.TABLE_FORMATS[fmt]
    cells = [c.tolist() for c in columns]
    cells.append([blank] * skip + [ratio % x for x in ratios[skip:].tolist()])
    return sep.join(row % r for r in zip(*cells))


def _kernel_rows(fmt, columns, ratios, skip):
    sep = cli_report.TABLE_FORMATS[fmt][4]
    text = cli_report._block_text(fmt, columns, ratios, skip)
    assert text.startswith(sep)
    return text[len(sep):]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("d", list(DomainKind))
def test_block_text_is_the_row_template_on_every_table(fmt, d):
    # each block as _table cuts it, the blank prefix (the torus's first two
    # rows) among them; the whole table at 6000 holds an exact half on every
    # triangle (8617/5120 on the equilateral)
    for count, blocks in ((300, (1, 2, 7)), (6000, (6000,))):
        s = enumerate_spectrum(d, count)
        skip, ratios = ratio_rule(d, s)
        columns = (s.normalized, s.min_index, s.max_index, s.multiplicity)
        for block in blocks:
            for start in range(0, len(ratios), block):
                rows = slice(start, start + block)
                args = ([c[rows] for c in columns], ratios[rows], max(skip - start, 0))
                assert _kernel_rows(fmt, *args) == _template_rows(fmt, *args), (block, start)


# exact halves at the 11th digit (1025/1024, and 8617/5120 on the
# equilateral table), decimal halves whose doubles lie off the half by less
# than fl(x 10^k) can resolve, ratios that round up to 1 or 10, ratios
# outside [0.1, 10), and the range's ends
ADVERSARIAL_RATIOS = [1025 / 1024, 8617 / 5120, 0.20955131485, 7.2255167075,
                      4.3875410145, 0.99999999996, 9.9999999996, 0.05, 12.5, 1e-5,
                      0.1, 0.09999999999996, 1.0, 10.0, 0.375, 3.5, 13 / 6]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_text_writes_every_ratio_as_the_ratio_template(fmt):
    rng = np.random.default_rng(47)
    ratios = np.concatenate([ADVERSARIAL_RATIOS, rng.uniform(0.1, 10, 50_000),
                             10 ** rng.uniform(-1, 1, 50_000)])
    ints = [np.arange(len(ratios), dtype=np.int64)] * 4
    for skip in (0, 3):
        assert _kernel_rows(fmt, ints, ratios, skip) == _template_rows(fmt, ints, ratios, skip)
    for x in ADVERSARIAL_RATIOS:  # each alone, in a one-row block
        one, x = [np.array([1])] * 4, np.array([x])
        assert _kernel_rows(fmt, one, x, 0) == _template_rows(fmt, one, x, 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_text_writes_every_int_in_decimal(fmt):
    values = [0, 9, 10, 2 ** 62, *(10 ** k + e for k in range(1, 19) for e in (-1, 0))]
    v = np.array(values, dtype=np.int64)
    columns = [v, v[::-1], np.roll(v, 1), np.zeros_like(v)]
    ratios = np.full(len(v), 2.5)
    assert _kernel_rows(fmt, columns, ratios, 0) == _template_rows(fmt, columns, ratios, 0)
    for value in values:  # each alone, in a one-row block
        one = [np.array([value])] * 4
        assert _kernel_rows(fmt, one, ratios[:1], 1) == _template_rows(fmt, one, ratios[:1], 1)


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


@pytest.mark.parametrize("count", [0, MAX_COUNT + 1])
@pytest.mark.parametrize("stamp", [[], ["--stamp"]])
def test_a_refused_table_creates_no_file(tmp_path, capsys, count, stamp):
    p = tmp_path / "table.csv"
    assert main(["spectrum", "--domain", "torus", "--count", str(count),
                 "--out", str(p), *stamp]) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("domain", [d.value for d in DomainKind])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_written_in_blocks_is_the_one_block_text(capsys, monkeypatch,
                                                         domain, fmt):
    # the torus's two blank-ratio rows (ratio_rule) cross a block edge in
    # blocks of 1, end at one in blocks of 2 and end inside one in blocks of 7
    for count in (1, 2, 85, 300):
        argv = ("spectrum", "--domain", domain, "--count", str(count), "--format", fmt)
        monkeypatch.setattr(cli_report, "TABLE_BLOCK", MAX_COUNT)
        whole = run_cli(capsys, *argv)
        assert whole[0] == 0
        for block in (1, 2, 7):
            monkeypatch.setattr(cli_report, "TABLE_BLOCK", block)
            assert run_cli(capsys, *argv) == whole, (count, block)


def test_screen_json_candidates(capsys):
    code, out = run_cli(capsys, "screen", "--domain", "equilateral",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["candidates"] == [1, 2, 4, 5, 7, 11]
    assert data["index_cutoff"] == 40


@pytest.mark.parametrize("d", list(DomainKind))
def test_screen_json_is_the_screening_summary(capsys, d):
    code, out = run_cli(capsys, "screen", "--domain", d.value, "--format", "json")
    assert code == 0
    assert json.loads(out) == screening_summary(d)


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


@pytest.fixture
def one_more_at_2r(monkeypatch):
    """Nodal counts one more component of each sign on the doubled grid of
    64, the grid of 128 rows."""
    import courant_lab.nodal_analysis as nodal
    components = nodal._components

    def one_more_at_2r(on):
        return components(on) + (len(on) == 128)

    monkeypatch.setattr(nodal, "_components", one_more_at_2r)


def test_nodal_exits_three_when_the_doubled_grid_changes_the_count(
        capsys, one_more_at_2r):
    code, out = run_cli(capsys, "nodal", "--domain", "equilateral",
                        "--pair", "2,3", "--theta", "0.35",
                        "--resolution", "64")
    assert code == 3
    assert '"stable": false' in out


def test_validation_errors(capsys):
    assert main(["nodal", "--domain", "equilateral", "--pair", "2,3",
                 "--resolution", "8"]) == 2
    assert main(["nodal", "--domain", "equilateral", "--pair", "nope"]) == 2
    assert main(["critical-zeros", "--pair", "1,2", "--theta", "0.1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, resolution, cap", [
    ("nodal", 10, 2048), ("nodal", 4096, 2048), ("plot", 63, 4096)])
def test_resolution_errors_name_the_commands_own_range(capsys, command,
                                                       resolution, cap):
    # nodal also counts on the doubled grid, so its cap is half of plot's
    assert main([command, "--domain", "equilateral", "--pair", "2,3",
                 "--resolution", str(resolution)]) == 2
    assert capsys.readouterr().err == (f"error: resolution must be >= 64 and "
                                       f"<= {cap}, got {resolution}\n")


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
     "error: nodal grids are not defined for torus\n"),
    (("critical-zeros", "--pair", "1,1"),
     "error: pair (1, 1) not supported (use (1,3) or (2,3))\n"),
    (("plot", "--domain", "torus", "--pair", "1,2"),
     "error: nodal grids are not defined for torus\n")])
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
    ("2,3", "theta_c", "d11579ba60467bae"), ("1,3", "theta_c", "f9794d23513029e4"),
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


OUT_ARGVS = [
    ("spectrum", "--domain", "torus", "--count", "40"),
    ("spectrum", "--domain", "equilateral", "--count", "40", "--format", "json"),
    ("screen", "--domain", "right-isosceles"),
    ("screen", "--domain", "hemiequilateral", "--format", "json"),
    ("verdict", "--domain", "torus"),
    ("nodal", "--domain", "equilateral", "--pair", "2,3", "--theta", "0.35",
     "--resolution", "64"),
    ("critical-zeros", "--pair", "1,3", "--theta", "pi/12"),
    ("fixed-points", "--pair", "2,3"),
    ("bifurcation",),
    ("plot", "--domain", "hemiequilateral", "--pair", "4,2", "--resolution", "64")]


def _out_matches_stdout(capsys, path, argv):
    """--out writes the bytes the command prints, with the same exit code."""
    code, printed = run_cli(capsys, *argv)
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()
    return code


def test_out_covers_every_command():
    assert sorted({argv[0] for argv in OUT_ARGVS}) == sorted(cli_report.COMMANDS)


@pytest.mark.parametrize("argv", OUT_ARGVS, ids=lambda argv: " ".join(argv))
def test_out_writes_what_stdout_shows(tmp_path, capsys, argv):
    assert _out_matches_stdout(capsys, tmp_path / "out", argv) == 0


def test_out_of_an_unstable_nodal_count_exits_three(tmp_path, capsys,
                                                    one_more_at_2r):
    argv = ("nodal", "--domain", "equilateral", "--pair", "2,3", "--theta", "0.35",
            "--resolution", "64")
    assert _out_matches_stdout(capsys, tmp_path / "out", argv) == 3
    assert '"stable": false' in (tmp_path / "out").read_text()


DOMAIN = (["--domain"], None, True, [d.value for d in DomainKind], None)
PAIR = (["--pair"], None, True, None, None)
THETA = (["--theta"], "0", False, None, None)
RESOLUTION = (["--resolution"], 512, False, None, int)
OUT_STAMP = [(["--out"], None, False, None, None),
             (["--stamp"], False, False, None, None)]
PARSER_OPTIONS = {
    "spectrum": [DOMAIN, (["--format"], "csv", False, ["csv", "json"], None),
                 (["--count"], 85, False, None, int)],
    "screen": [DOMAIN, (["--format"], "csv", False, ["csv", "json"], None)],
    "verdict": [DOMAIN],
    "nodal": [DOMAIN, PAIR, THETA, RESOLUTION],
    "critical-zeros": [PAIR, THETA],
    "fixed-points": [PAIR],
    "bifurcation": [],
    "plot": [DOMAIN, PAIR, THETA, RESOLUTION]}


def test_parser_options():
    # (option strings, default, required, choices, type) of each command's
    # options, in order, and the runner it sets
    parser = cli_report.build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required and sub.dest == "command"
    assert list(sub.choices) == list(PARSER_OPTIONS)
    for name, command in sub.choices.items():
        options = [(a.option_strings, a.default, a.required, a.choices, a.type)
                   for a in command._actions if not isinstance(a, argparse._HelpAction)]
        assert options == PARSER_OPTIONS[name] + OUT_STAMP, name
        runner = command.get_default("run")
        assert runner is getattr(cli_report, "run_" + name.replace("-", "_"))


def test_main_parses_with_one_parser_as_a_fresh_one_would(monkeypatch, capsys):
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    argvs = [*reach.cli_argvs(), ["nodal", "--domain", "torus", "--pair", "1,0"],
             ["spectrum", "--domain", "square"]]

    def run_all():
        runs = []
        for argv in argvs:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
            runs.append((code, *capsys.readouterr()))
        return runs

    built, build = [], cli_report.build_parser
    monkeypatch.setattr(cli_report, "build_parser", lambda: built.append(1) or build())
    cli_report._parser.cache_clear()
    first, second = run_all(), run_all()
    assert len(built) == 1
    monkeypatch.setattr(cli_report, "_parser", build)
    assert first == second == run_all()
    assert {code for code, _, _ in first} == {0, 2}


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


@pytest.mark.parametrize("stamp", [[], ["--stamp"]])
def test_an_empty_out_is_refused(tmp_path, monkeypatch, capsys, stamp):
    # --out '' names no file: it is refused as a directory is, with or
    # without --stamp, not read as no --out
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--domain", "torus", "--count", "3", "--out", "", *stamp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out must name a file")
    assert list(tmp_path.iterdir()) == []


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

# the head of a script for a fresh interpreter: run(argv) is main's exit
# code and stdout
FRESH_RUN = """
import contextlib, io, json, sys
from courant_lab.cli_report import main

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return [code, buf.getvalue()]
"""

FRESH_PROCESS = FRESH_RUN + """
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


UNLABELLED_ARGVS = [["plot", "--domain", "equilateral", "--pair", "1,3", "--theta", "pi/12",
                     "--resolution", "64"],
                    ["bifurcation"],
                    ["critical-zeros", "--pair", "2,3", "--theta", "theta_c"],
                    ["verdict", "--domain", "torus"],
                    ["verdict", "--domain", "equilateral"],
                    ["verdict", "--domain", "right-isosceles"],
                    ["verdict", "--domain", "hemiequilateral"]]

FRESH_UNLABELLED = FRESH_RUN + """
def ndimage_loaded():
    return any(m.startswith("scipy.ndimage.") for m in sys.modules)

outputs, loaded = [], []
for argv in json.loads(sys.argv[1]) + [["nodal", "--domain", "equilateral",
                                        "--pair", "1,3", "--resolution", "64"]]:
    outputs.append(run(argv))
    loaded.append(ndimage_loaded())
print(json.dumps({"outputs": outputs, "loaded": loaded}))
"""


def test_commands_that_never_label_run_without_scipy_ndimage(capsys):
    # nodal_analysis binds scipy.ndimage lazily and ndimage.label loads it:
    # a plot, the root commands and the verdicts, which count their tiled
    # rows exactly and whose top-run bounds settle every other angle, run in
    # a fresh interpreter without loading it, each with
    # the output it has here, and a nodal count then loads it (its package's
    # submodules are in sys.modules only once it has run)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_UNLABELLED,
                           json.dumps(UNLABELLED_ARGVS)],
                          capture_output=True, text=True, env=env, check=True)
    fresh = json.loads(proc.stdout)
    assert fresh["loaded"] == [False] * len(UNLABELLED_ARGVS) + [True]
    assert fresh["outputs"][:-1] == [list(run_cli(capsys, *argv)) for argv in UNLABELLED_ARGVS]
    assert fresh["outputs"][-1][0] == 0


ROOT_ARGVS = [["bifurcation"],
              ["critical-zeros", "--pair", "2,3", "--theta", "theta_c"],
              ["fixed-points", "--pair", "1,3"]]

FRESH_ROOTS = FRESH_RUN + """
outputs = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"outputs": outputs, "optimize": "scipy.optimize" in sys.modules}))
"""


def test_root_commands_run_without_scipy_optimize(capsys):
    # find_roots takes its Brent steps from nodal_analysis itself
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_ROOTS, json.dumps(ROOT_ARGVS)],
                          capture_output=True, text=True, env=env, check=True)
    fresh = json.loads(proc.stdout)
    assert fresh["optimize"] is False
    assert fresh["outputs"] == [list(run_cli(capsys, *argv)) for argv in ROOT_ARGVS]
