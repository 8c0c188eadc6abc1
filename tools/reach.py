"""Reach check: every function defined in src/courant_lab is entered by a CLI
command or by a benchmark op, so code that only tests call stays out of the
library (tests keep their reference implementations in tests/oracles.py).

It runs every CLI command in-process under sys.setprofile: spectrum and
screen in both formats and verdict on all four domains, nodal and plot on the
three triangles, critical-zeros, fixed-points and bifurcation.  It then runs
the first op of each kind in a `queries` op list through perfbench's
Executor.  It exits 1, naming them, if any function, method or lambda
defined in src/courant_lab was never entered, apart from those in UNREACHED.

    python tools/reach.py
"""

import contextlib
import inspect
import io
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "courant_lab"

# Functions no command and no op enters, with why they stay.
UNREACHED = {
    "pleijel_screening.courant_upper_bound": "benchmark hook (perfbench/tracer.py)",
    "pleijel_screening.fk_line": "benchmark hook (perfbench/tracer.py)",
    "pleijel_screening.cutoff_scan": "benchmark hook (perfbench/tracer.py)",
    "eigenfunction_eval.eval_psi_grid": "benchmark hook (perfbench/tracer.py)",
}

DOMAINS = ("torus", "equilateral", "right-isosceles", "hemiequilateral")
COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
TRIANGLE_HANDLES = (("equilateral", "2,3", "0.35"), ("right-isosceles", "3,1", "0"),
                    ("hemiequilateral", "4,2", "0"))


def cli_argvs():
    for d in DOMAINS:
        for fmt in ("csv", "json"):
            yield ["spectrum", "--domain", d, "--format", fmt]
            yield ["screen", "--domain", d, "--format", fmt]
        yield ["verdict", "--domain", d]
    for d, pair, theta in TRIANGLE_HANDLES:
        for command in ("nodal", "plot"):
            yield [command, "--domain", d, "--pair", pair, "--theta", theta]
    for pair in ("1,3", "2,3"):
        yield ["critical-zeros", "--pair", pair, "--theta", "theta_c"]
        yield ["fixed-points", "--pair", pair]
    yield ["bifurcation"]


def defined_functions():
    """{(file, first line, qualified name): 'module.qualname'} for every
    function, method and lambda in the package's source; comprehension and
    class bodies are parts of their enclosing code, not functions."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if (code.co_flags & inspect.CO_NEWLOCALS
                    and code.co_name not in COMPREHENSIONS):
                name = f"{path.stem}.{code.co_qualname}"
                if code.co_name == "<lambda>":
                    name += f" (line {code.co_firstlineno})"
                found[(code.co_filename, code.co_firstlineno, code.co_qualname)] = name
    return found


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    start = time.perf_counter()
    sys.setprofile(profile)
    try:
        from courant_lab.cli_report import main as cli
        from perfbench import workloads
        from perfbench.worker import Executor, import_library
        failed = []
        for argv in cli_argvs():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli(argv) != 0:
                    failed.append(" ".join(argv))
        executor = Executor(import_library())
        kinds = {}
        for op in workloads.queries_ops(seed=1, seconds=1):
            kinds.setdefault(op["op"], op)
        for op in kinds.values():
            if executor.run(op)[1] != 0:
                failed.append(workloads.op_key(op))
    finally:
        sys.setprofile(None)
    entered = {(str(Path(file).resolve()), line, name) for file, line, name in entered}
    defined = defined_functions()
    missed = sorted(name for key, name in defined.items()
                    if key not in entered and name not in UNREACHED)
    print(f"{len(list(cli_argvs()))} commands and queries ops of kinds "
          f"{sorted(kinds)} in {time.perf_counter() - start:.1f} s entered "
          f"{len(defined.keys() & entered)} of {len(defined)} functions")
    for argv in failed:
        print(f"failed: {argv}")
    for name in missed:
        print(f"never entered: {name}")
    for name, reason in UNREACHED.items():
        print(f"not required: {name} ({reason})")
    return 1 if failed or missed else 0


if __name__ == "__main__":
    sys.exit(main())
