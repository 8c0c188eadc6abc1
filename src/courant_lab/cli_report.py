"""Command-line front end: spectrum/screening tables as CSV or JSON, nodal
counts, critical zeros, the bifurcation angle, verdicts and SVG plots.

A command's runner returns its output and `main` writes it, to stdout or to
--out with --stamp's sidecar: an SVG as it is, a table piece by piece (its
head, blocks of TABLE_BLOCK rows, its tail: the whole table is never held as
text), any other document as indented JSON.  A table is enumerated and
checked before its runner returns, so a refused table writes nothing, and no
--out file is made.  `main` also picks the exit code.

A block of table rows is written by one numpy kernel, `_block_text`: a uint8
array with a row of fixed-width fields per table row, the literals split
from the TABLE_FORMATS row template, the ints' decimal digits, and each
ratio's digits where their rounding is certified; only the other ratios
(exact halves, round-ups to 1 or 10, any outside [0.1, 10)) and the blank
prefix are written by `%`.  The text is the bytes the templates write.

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

import numpy as np

from .alcove_geometry import DomainKind
from .lattice_spectrum import Mode, enumerate_spectrum
from .pleijel_screening import index_cutoff, ratio_rule, screening_summary
from .eigenfunction_eval import EigenfunctionHandle

# 10 significant digits, trailing zeros kept; fixed-point for the tables'
# ratios, 0.27 to 7.0, whose digits _ratio_digits certifies on [0.1, 10)
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


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """Write the non-negative ints v into the uint8 columns of out as ASCII
    decimal digits, right-aligned, with NUL (0) left of the leading digit;
    out must have the columns for every v."""
    width = out.shape[1]
    # a column of out is strided: fill contiguous rows, then copy once
    digits = np.empty((width, len(v)), np.uint8)
    for j in range(width - 1, -1, -1):
        q = v // 10
        r = v - q * 10 + 48
        if j < width - 1:
            r *= v > 0  # a column left of the leading digit is NUL
        digits[j] = r
        v = q
    out[...] = digits.T


def _ratio_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each ratio's RATIO_FORMAT digits as an int q, and where q is certified
    to be them.  On [0.1, 10), q = rint(x 10^k), k = 9 from 1 up and 10
    below, is certified where x 10^k's fraction is more than 1e-5 from 1/2
    and q < 10^10.  fl(x 10^k) is below 2^34, so within 2^-20 of the exact
    product: away from a half both round to q, the rounding of x's exact
    value to 10 significant digits, and q < 10^10 keeps the exponent %g
    picks (a round-up to 1 or 10 moves it).  Exact and near halves,
    round-ups and ratios outside [0.1, 10) stay uncertified, their q a
    placeholder."""
    inside = (x >= 0.1) & (x < 10)
    y = np.where(inside, x, 1.0) * np.where(x >= 1, 1e9, 1e10)
    q = np.rint(y)
    certified = inside & (np.abs(y - np.floor(y) - 0.5) > 1e-5) & (q < 1e10)
    return q.astype(np.int64), certified


def _block_text(fmt: str, columns: list[np.ndarray], ratios: np.ndarray,
                skip: int) -> str:
    """Rows of a table in format fmt, each led by its separator: the row
    template filled from the four int columns and the ratios, the first
    `skip` with the ratio `blank`.  One uint8 array holds a row of
    fixed-width fields per table row, NUL (0) in every position the row's
    text does not fill, so removing the NULs gives the text.  The literals
    are the row template's text around its fields; the ints are their
    decimal digits (_digits); a certified ratio (_ratio_digits) is written
    from its digits into 12 columns, '0', '.' and 10 digits below 1, NUL, a
    digit, '.' and 9 digits from 1 up; every other ratio field holds
    `ratio % x` or `blank`."""
    _, row, ratio, blank, sep, _ = TABLE_FORMATS[fmt]
    literals = [t.encode() for t in (sep + row).replace("%s", "%d").split("%d")]
    pre, post = (t.encode() for t in ratio.split(RATIO_FORMAT))
    q, certified = _ratio_digits(ratios)
    certified[:skip] = False
    loose = np.flatnonzero(~certified).tolist()
    texts = [(blank if i < skip else ratio % x).encode()
             for i, x in zip(loose, ratios[loose].tolist())]
    # a row's fixed text: the literals, NULs for the int digits, and the
    # ratio field as a certified ratio below 1 fills it but for the digits
    fields = [bytes(len(str(int(c.max())))) for c in columns]
    fields.append((pre + b"0." + bytes(10) + post).ljust(
        max([len(pre) + 12 + len(post), *map(len, texts)]), b"\0"))
    buf = np.empty((len(ratios), sum(map(len, literals + fields))), np.uint8)
    buf[...] = np.frombuffer(b"".join(a + b for a, b in zip(literals, fields))
                             + literals[-1], np.uint8)
    views, at = [], 0
    for literal, field in zip(literals, fields):
        at += len(literal) + len(field)
        views.append(buf[:, at - len(field):at])
    for c, view in zip(columns, views):
        _digits(c, view)
    field = views[-1]
    digits = field[:, len(pre):len(pre) + 12]
    _digits(q, digits[:, 2:])
    # from 1 up: NUL, the first digit, then the point
    ones = ratios >= 1
    first = digits[:, 2].copy()
    digits[:, 0] = np.where(ones, 0, 48)
    digits[:, 1] = np.where(ones, first, 46)
    digits[:, 2] = np.where(ones, 46, first)
    for i, text in zip(loose, texts):
        field[i] = 0
        field[i, :len(text)] = np.frombuffer(text, np.uint8)
    return buf.tobytes().replace(b"\0", b"").decode("ascii")


def _table(d: DomainKind, count: int, fmt: str) -> Iterator[str]:
    """The table of the domain's eigenvalues up to index count in format fmt,
    as text pieces to write in order: the head, the rows TABLE_BLOCK at a
    time, then the tail.  The spectrum is enumerated and checked before this
    returns, so a refused count raises here, before any piece is written.
    Each row is the template `row` filled from the spectrum's int64 columns,
    the ratio written by the template `ratio`, or `blank` where it does not
    apply (see ratio_rule): the text `_block_text` writes for each block, the
    first without its leading separator."""
    head, _, _, _, sep, tail = TABLE_FORMATS[fmt]
    s = enumerate_spectrum(d, count)
    skip, ratios = ratio_rule(d, s)
    columns = (s.normalized, s.min_index, s.max_index, s.multiplicity)

    def pieces():
        yield head
        for start in range(0, len(ratios), TABLE_BLOCK):
            block = slice(start, start + TABLE_BLOCK)
            text = _block_text(fmt, [c[block] for c in columns], ratios[block],
                               max(skip - start, 0))
            yield text if start else text[len(sep):]
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
        if args.stamp and args.out is None:
            raise ValueError("--stamp needs --out: the sidecar is written next to it")
        if args.out is not None and (not args.out or os.path.isdir(args.out)
                                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out must name a file in an existing directory, "
                             f"got {args.out!r}")
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
