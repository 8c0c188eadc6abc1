"""Every grid output the benchmark's golden digests do not reach, to the last
byte: one sha256 over the stdout and exit code of `nodal` and `plot` runs on
the equilateral triangle at theta = 0 (where C alone is mixed), at pi/2 for
m = n and at theta_c, on hemiequilateral (5,2), whose count at 512 is
unstable (exit 3), and on two right-isosceles pairs."""

import contextlib
import hashlib
import io

from courant_lab.cli_report import main

GRID_DIGEST = "ac40904e942ea0819eff37fef0296e9f5d3b449953b61ce01d8ab56f019e0707"


def grid_commands():
    """The argv of each output, in order."""
    runs = []
    for pair, theta in (("1,3", "0"), ("2,3", "0"), ("1,2", "0"), ("2,5", "0"),
                        ("2,2", "pi/2"), ("3,3", "pi/2"), ("2,3", "theta_c")):
        handle = ["--domain", "equilateral", "--pair", pair, "--theta", theta]
        runs += [["nodal", *handle, "--resolution", "256"],
                 ["nodal", *handle, "--resolution", "512"],
                 ["plot", *handle, "--resolution", "256"]]
    runs += [["nodal", "--domain", "hemiequilateral", "--pair", "5,2",
              "--resolution", str(resolution)] for resolution in (256, 512)]
    runs += [["nodal", "--domain", "right-isosceles", "--pair", pair,
              "--resolution", "256"] for pair in ("4,2", "5,3")]
    return runs


def test_every_grid_output_keeps_its_bytes():
    digest = hashlib.sha256()
    codes = []
    for argv in grid_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(main(argv))
        digest.update(repr((argv, codes[-1], out.getvalue())).encode())
    assert len(codes) == 25 and codes[-3] == 3
    assert digest.hexdigest() == GRID_DIGEST
