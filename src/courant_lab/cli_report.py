"""Command-line front end: spectrum/screening tables as CSV or JSON, nodal
counts, critical zeros, the bifurcation angle, verdicts and SVG plots.

Exit codes: 0 success, 2 validation error, 3 unstable nodal count.

The nodal commands import nodal_analysis, and with it scipy, where they use
it, so `spectrum` and `screen` start without scipy.
"""

import argparse
import json
import math
import os
import sys
import time

from .alcove_geometry import DomainKind
from .lattice_spectrum import Mode, enumerate_spectrum
from .pleijel_screening import index_cutoff, ratio_rule, screening_summary
from .eigenfunction_eval import EigenfunctionHandle

CSV_HEADER = "normalized,min_index,max_index,multiplicity,ratio"
CSV_ROW = "%d,%d,%d,%d,%s"
JSON_ROW = ('  {\n    "normalized": %d,\n    "min_index": %d,\n    "max_index": %d,\n'
            '    "multiplicity": %d,\n    "ratio": %s\n  }')
# 10 significant digits, trailing zeros kept; fixed-point for ratios 0.27 to 7.0
RATIO_FORMAT = "%#.10g"


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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if args.stamp:
            stamp = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                     "command": args.command}
            with open(args.out + ".stamp.json", "w") as fh:
                fh.write(json.dumps(stamp, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def _spectrum_rows(d: DomainKind, count: int, row: str, ratio: str, blank: str):
    """The template `row` filled from each row of the spectrum's int64 columns,
    the ratio written by the template `ratio`, or `blank` where it does not
    apply (see ratio_rule)."""
    s = enumerate_spectrum(d, count)
    skip, ratios = ratio_rule(d, s)
    rows = zip(s.normalized.tolist(), s.min_index.tolist(), s.max_index.tolist(),
               s.multiplicity.tolist(),
               [blank] * skip + [ratio % x for x in ratios[skip:].tolist()])
    return list(map(row.__mod__, rows))


def _csv_table(d: DomainKind, count: int) -> str:
    """The CSV table of the domain's eigenvalues up to index count."""
    rows = _spectrum_rows(d, count, CSV_ROW, RATIO_FORMAT, "")
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def run_spectrum(args: argparse.Namespace) -> int:
    if args.format == "json":
        # the bytes json.dumps(rows, indent=2) writes, one template per row
        rows = _spectrum_rows(args.domain, args.count, JSON_ROW,
                              f'"{RATIO_FORMAT}"', "null")
        _emit(args, "[\n" + ",\n".join(rows) + "\n]\n")
    else:
        _emit(args, _csv_table(args.domain, args.count))
    return 0


def run_screen(args: argparse.Namespace) -> int:
    if args.format == "json":
        _emit(args, json.dumps(screening_summary(args.domain), indent=2) + "\n")
    else:
        # the screening table is the spectrum up to the index cutoff
        _emit(args, _csv_table(args.domain, index_cutoff(args.domain)))
    return 0


def run_verdict(args: argparse.Namespace) -> int:
    from .nodal_analysis import courant_sharp_verdict
    verdict = courant_sharp_verdict(args.domain)
    out = {"domain": args.domain.value,
           "verdict": [[n, sharp] for n, sharp in verdict],
           "sharp": [n for n, sharp in verdict if sharp]}
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0


def run_nodal(args: argparse.Namespace) -> int:
    from .nodal_analysis import count_nodal_domains
    h = EigenfunctionHandle(args.domain, args.pair, args.theta)
    report = count_nodal_domains(h, args.resolution)
    out = {"domain": args.domain.value, "m": args.pair.m, "n": args.pair.n,
           "theta": args.theta, "resolution": report.resolution,
           "domain_count": report.domain_count,
           "positive_components": report.positive_components,
           "negative_components": report.negative_components,
           "stable": report.stable}
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0 if report.stable else 3


def run_critical_zeros(args: argparse.Namespace) -> int:
    from .nodal_analysis import edge_critical_zeros
    zeros = edge_critical_zeros(args.pair, args.theta)
    out = [{"edge": z.edge_or_median, "u": z.parameter_u, "order": z.order,
            "s": z.location.s, "t": z.location.t} for z in zeros]
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0


def run_fixed_points(args: argparse.Namespace) -> int:
    from .nodal_analysis import median_fixed_points
    out = [{"label": f.label, "s": f.location.s, "t": f.location.t}
           for f in median_fixed_points(args.pair)]
    _emit(args, json.dumps(out, indent=2) + "\n")
    return 0


def run_bifurcation(args: argparse.Namespace) -> int:
    from .nodal_analysis import bifurcation_angle
    u_b, theta_c = bifurcation_angle()
    _emit(args, json.dumps({"u_b": u_b, "theta_c": theta_c}, indent=2) + "\n")
    return 0


def run_plot(args: argparse.Namespace) -> int:
    from .svg_export import render_nodal_svg
    h = EigenfunctionHandle(args.domain, args.pair, args.theta)
    _emit(args, render_nodal_svg(h, args.resolution))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courant-lab",
        description="Spectral screening and nodal-domain analysis for the "
                    "equilateral torus and the alcove triangles.")
    sub = parser.add_subparsers(dest="command", required=True)
    domains = [d.value for d in DomainKind]

    def add(name, run, *, domain=False, pair=False, theta=False, fmt=False,
            count=False, resolution=False):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if domain:
            p.add_argument("--domain", required=True, choices=domains)
        if pair:
            p.add_argument("--pair", required=True,
                           help="mode pair, e.g. 2,3")
        if theta:
            p.add_argument("--theta", default="0",
                           help="radians, or pi/<k>, or theta_c")
        if fmt:
            p.add_argument("--format", default="csv", choices=["csv", "json"])
        if count:
            p.add_argument("--count", type=int, default=85)
        if resolution:
            p.add_argument("--resolution", type=int, default=512)
        p.add_argument("--out", default=None)
        p.add_argument("--stamp", action="store_true")
        return p

    add("spectrum", run_spectrum, domain=True, fmt=True, count=True)
    add("screen", run_screen, domain=True, fmt=True)
    add("verdict", run_verdict, domain=True)
    add("nodal", run_nodal, domain=True, pair=True, theta=True, resolution=True)
    add("critical-zeros", run_critical_zeros, pair=True, theta=True)
    add("fixed-points", run_fixed_points, pair=True)
    add("bifurcation", run_bifurcation)
    add("plot", run_plot, domain=True, pair=True, theta=True, resolution=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "domain"):
            args.domain = DomainKind(args.domain)
        if hasattr(args, "pair"):
            args.pair = parse_pair(args.pair)
        if hasattr(args, "theta"):
            args.theta = parse_theta(args.theta)
        if args.stamp and not args.out:
            raise ValueError("--stamp needs --out: the sidecar is written next to it")
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out must name a file in an existing directory, "
                             f"got {args.out}")
        return args.run(args)
    except (ValueError, KeyError, OSError) as exc:  # OSError: --out unwritable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
