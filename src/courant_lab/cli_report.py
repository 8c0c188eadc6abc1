"""Command-line front end: spectrum/screening tables as CSV or JSON, nodal
counts, critical zeros, the bifurcation angle, verdicts and SVG plots.

A command's runner returns its output and `main` writes it, to stdout or to
--out with --stamp's sidecar: an SVG as it is, a table piece by piece (its
head, blocks of TABLE_BLOCK rows, its tail: the whole table is never held as
text), any other document as indented JSON.  A table is enumerated and
checked before its runner returns, so a refused table writes nothing, and no
--out file is made.  `main` also picks the exit code.

Exit codes: 0 success, 1 stdout closed by its reader (as by `| head`),
2 validation error, 3 unstable nodal count.

The nodal commands import nodal_analysis where they use it, so `spectrum`
and `screen` start without scipy; nodal_analysis loads scipy.ndimage (for
ndimage.label, scipy's only use) on the first label.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from collections.abc import Iterator

from .alcove_geometry import DomainKind
from .lattice_spectrum import Mode, enumerate_spectrum
from .pleijel_screening import index_cutoff, ratio_rule, screening_summary
from .eigenfunction_eval import EigenfunctionHandle

# 10 significant digits, trailing zeros kept; fixed-point for ratios 0.27 to 7.0
RATIO_FORMAT = "%#.10g"
# Per format: head, row template, ratio template, the ratio where ratio_rule
# gives none, row separator and tail.  The JSON is the bytes that
# json.dumps(rows, indent=2) writes.
TABLE_FORMATS = {
    "csv": ("normalized,min_index,max_index,multiplicity,ratio\n",
            "%d,%d,%d,%d,%s", RATIO_FORMAT, "", "\n", "\n"),
    "json": ("[\n", '  {\n    "normalized": %d,\n    "min_index": %d,\n'
             '    "max_index": %d,\n    "multiplicity": %d,\n    "ratio": %s\n  }',
             f'"{RATIO_FORMAT}"', "null", ",\n", "\n]\n"),
}
# Rows per block of a table: `main` writes each block before the next is
# formatted, so a 10^6-row table is never held as text at once
TABLE_BLOCK = 2 ** 14
# Each option's argparse keywords; every command also takes --out and --stamp.
OPTIONS = {
    "domain": dict(required=True, choices=[d.value for d in DomainKind]),
    "pair": dict(required=True, help="mode pair, e.g. 2,3"),
    "theta": dict(default="0", help="radians, or pi/<k>, or theta_c"),
    "format": dict(default="csv", choices=list(TABLE_FORMATS)),
    "count": dict(type=int, default=85),
    "resolution": dict(type=int, default=512),
    "out": dict(default=None),
    "stamp": dict(action="store_true"),
}


def parse_theta(text: str) -> float:
    """Radians, pi/<k> or theta_c; ValueError unless a finite angle."""
    text = text.strip()
    if text == "theta_c":
        from .nodal_analysis import bifurcation_angle
        return bifurcation_angle()[1]
    try:
        theta = math.pi / int(text[3:]) if text.startswith("pi/") else float(text)
    except (ValueError, ArithmeticError):  # not a number, pi/0, or a huge k
        theta = math.nan
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite radians, pi/<k> or theta_c, got {text!r}")
    return theta


def parse_pair(text: str) -> Mode:
    """Two comma-separated integers m,n; ValueError otherwise."""
    try:
        m, n = (int(v) for v in text.split(","))
    except ValueError:  # not an integer, or not two values
        raise ValueError(f"pair must be two integers m,n, got {text!r}") from None
    return Mode(m, n)


def _table(d: DomainKind, count: int, fmt: str) -> Iterator[str]:
    """The table of the domain's eigenvalues up to index count in format fmt,
    as text pieces to write in order: the head, the rows TABLE_BLOCK at a
    time, then the tail.  The spectrum is enumerated and checked before this
    returns, so a refused count raises here, before any piece is written.
    Each row is the template `row` filled from the spectrum's int64 columns,
    the ratio written by the template `ratio`, or `blank` where it does not
    apply (see ratio_rule)."""
    head, row, ratio, blank, sep, tail = TABLE_FORMATS[fmt]
    s = enumerate_spectrum(d, count)
    skip, ratios = ratio_rule(d, s)
    columns = (s.normalized, s.min_index, s.max_index, s.multiplicity)

    def pieces():
        yield head
        for start in range(0, len(ratios), TABLE_BLOCK):
            stop = start + TABLE_BLOCK
            cells = [c[start:stop].tolist() for c in columns]
            cells.append([blank] * (min(skip, stop) - start)
                         + [ratio % x for x in ratios[max(skip, start):stop].tolist()])
            yield (sep if start else "") + sep.join(map(row.__mod__, zip(*cells)))
        yield tail
    return pieces()


def run_spectrum(args: argparse.Namespace):
    return _table(args.domain, args.count, args.format)


def run_screen(args: argparse.Namespace):
    if args.format == "json":
        return screening_summary(args.domain)
    # the screening table is the spectrum up to the index cutoff
    return _table(args.domain, index_cutoff(args.domain), "csv")


def run_verdict(args: argparse.Namespace):
    from .nodal_analysis import courant_sharp_verdict
    verdict = courant_sharp_verdict(args.domain)
    return {"domain": args.domain.value,
            "verdict": [[n, sharp] for n, sharp in verdict],
            "sharp": [n for n, sharp in verdict if sharp]}


def run_nodal(args: argparse.Namespace):
    from .nodal_analysis import count_nodal_domains
    h = EigenfunctionHandle(args.domain, args.pair, args.theta)
    report = count_nodal_domains(h, args.resolution)
    # NodalReport's field order is the document's key order
    return {"domain": args.domain.value, "m": args.pair.m, "n": args.pair.n,
            "theta": args.theta, **dataclasses.asdict(report)}


def run_critical_zeros(args: argparse.Namespace):
    from .nodal_analysis import edge_critical_zeros
    return [{"edge": z.edge_or_median, "u": z.parameter_u, "order": z.order,
             "s": z.location.s, "t": z.location.t}
            for z in edge_critical_zeros(args.pair, args.theta)]


def run_fixed_points(args: argparse.Namespace):
    from .nodal_analysis import median_fixed_points
    return [{"label": f.label, "s": f.location.s, "t": f.location.t}
            for f in median_fixed_points(args.pair)]


def run_bifurcation(args: argparse.Namespace):
    from .nodal_analysis import bifurcation_angle
    u_b, theta_c = bifurcation_angle()
    return {"u_b": u_b, "theta_c": theta_c}


def run_plot(args: argparse.Namespace):
    from .svg_export import render_nodal_svg
    return render_nodal_svg(EigenfunctionHandle(args.domain, args.pair, args.theta),
                            args.resolution)


# Each command's runner and options, in --help order.
COMMANDS = {
    "spectrum": (run_spectrum, ("domain", "format", "count")),
    "screen": (run_screen, ("domain", "format")),
    "verdict": (run_verdict, ("domain",)),
    "nodal": (run_nodal, ("domain", "pair", "theta", "resolution")),
    "critical-zeros": (run_critical_zeros, ("pair", "theta")),
    "fixed-points": (run_fixed_points, ("pair",)),
    "bifurcation": (run_bifurcation, ()),
    "plot": (run_plot, ("domain", "pair", "theta", "resolution")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courant-lab",
        description="Spectral screening and nodal-domain analysis for the "
                    "equilateral torus and the alcove triangles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        for option in (*options, "out", "stamp"):
            p.add_argument("--" + option, **OPTIONS[option])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built once per process: parse_args leaves it
    as it was, and building one takes about 1 ms."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name, parse in (("domain", DomainKind), ("pair", parse_pair),
                            ("theta", parse_theta)):
            if hasattr(args, name):
                setattr(args, name, parse(getattr(args, name)))
        if args.stamp and not args.out:
            raise ValueError("--stamp needs --out: the sidecar is written next to it")
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out must name a file in an existing directory, "
                             f"got {args.out}")
        out = args.run(args)
        pieces = (out if isinstance(out, Iterator)
                  else [out if isinstance(out, str) else json.dumps(out, indent=2) + "\n"])
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(pieces)
            if args.stamp:
                stamp = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                         "command": args.command}
                with open(args.out + ".stamp.json", "w") as fh:
                    fh.write(json.dumps(stamp, indent=2) + "\n")
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # so a closed pipe raises here, not at exit
        # a nodal count that changes on the doubled grid
        return 3 if isinstance(out, dict) and out.get("stable") is False else 0
    except BrokenPipeError:
        # the interpreter flushes stdout at exit: let that write go nowhere
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, OSError) as exc:  # OSError: --out unwritable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
