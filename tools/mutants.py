"""Mutation check: each row of MUTANTS is one edit to src/courant_lab that a
named test must catch.

For each row it copies src/, tests/, tools/ and pyproject.toml to a temporary
directory, checks that the old text occurs exactly once in the file, applies
the edit and runs the named test, a test function with all its parameters,
alone with `pytest -x`.  A mutant is caught when pytest reports a failed
test, so only when the named test fails.  The script exits 1 if a mutant
survives, if an old text does not occur exactly once, or if pytest ends any
other way (an error in collection, say).  Mutants run two at a time, each in
its own copy.  When a refactor moves an old text, update its row; a row is a
check like any test, so none is dropped or weakened to get a pass.

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file in src/courant_lab, exact old text, new text, test file::function)
MUTANTS = (
    # the verdict counts indices 1 and 2 without a grid, and no higher one
    ("nodal_analysis.py", "mu = n if n <= 2 else", "mu = n if n <= 1 else",
     "test_nodal_analysis.py::test_verdict_counts_only_candidates_above_two"),
    # the theta partition loses its breakpoints, theta_c among them
    ("nodal_analysis.py",
     "breaks = [0.0, *sorted(theta for _, theta in bifurcations(pair)), PI / 6.0]",
     "breaks = [0.0, PI / 6.0]", "test_nodal_analysis.py::test_theta_partition_counts"),
    # the fixed points rotated about another centre than the centroid
    ("nodal_analysis.py", "F(2, 3) - t", "F(1, 3) - t",
     "test_nodal_analysis.py::test_fixed_points_13"),
    # m = n mixes in C_{m,m}, which vanishes, in place of S
    ("nodal_analysis.py", "return [PI / 2.0]", "return [0.0]",
     "test_nodal_analysis.py::test_theta_partition_of_a_simple_equilateral_eigenvalue"),
    ("nodal_analysis.py", "BRENT_XTOL = 1e-13", "BRENT_XTOL = 1e-12",
     "test_cli_report.py::test_critical_zeros_bytes"),
    # Brent's step: a tighter cap on accepted interpolation, and the inverse
    # quadratic step pointing the wrong way
    ("nodal_analysis.py", "3 * abs(sbis) - delta", "2 * abs(sbis) - delta",
     "test_nodal_analysis.py::test_brent_step_is_scipys_bit_for_bit"),
    ("nodal_analysis.py", "stry = -fcur * (fblk * dblk", "stry = fcur * (fblk * dblk",
     "test_nodal_analysis.py::test_brent_step_is_scipys_bit_for_bit"),
    # the root commands would load scipy.optimize again
    ("nodal_analysis.py", "from scipy import ndimage\n",
     "from scipy import ndimage, optimize\n",
     "test_cli_report.py::test_root_commands_run_without_scipy_optimize"),
    # gc, and dK's gc' part with PI, regrouped: the same values to rounding,
    # other bits
    ("nodal_analysis.py", "return s * (c - 1.0) * _polyval(p_c, c), _polyval(p_s, c)",
     "return s * ((c - 1.0) * _polyval(p_c, c)), _polyval(p_s, c)",
     "test_nodal_analysis.py::test_edge_scans_sample_k_and_dk_bit_for_bit"),
    ("nodal_analysis.py", "PI * (c * g - s * s * dg)",
     "PI * c * g - PI * s * s * dg",
     "test_nodal_analysis.py::test_edge_scans_sample_k_and_dk_bit_for_bit"),
    # K's theta-mix with +sin(theta) on OB and BA: the sign dropped
    ("nodal_analysis.py", "sign * math.sin(theta)", "math.sin(theta)",
     "test_nodal_analysis.py::test_k_theta_is_the_edge_function_combination"),
    # the polynomial scan handed f's samples as df's
    ("nodal_analysis.py", "(xs, f(xs), df(xs))", "(xs, f(xs), f(xs))",
     "test_nodal_analysis.py::test_polynomial_and_median_scans_sample_f_and_df_bit_for_bit"),
    # the tangential pass handed f's samples in place of df's
    ("nodal_analysis.py", "= _tangent_floor(xs, ys, dys, bounds)",
     "= _tangent_floor(xs, ys, ys, bounds)",
     "test_nodal_analysis.py::test_chord_roots_s23_tangent"),
    # the tangential floor: the chord's M2 dropped, the d^2 M2 / 2 term
    # dropped, and the comparison flipped, solving only what can be skipped
    ("nodal_analysis.py",
     "weight * sum((2.0 * PI * (ta - tb)) ** 2 for _, ta, tb in terms))", "0.0)",
     "test_nodal_analysis.py::test_skipped_tangential_solves_could_not_give_a_root"),
    ("nodal_analysis.py", "             - d * d * curvature / 2.0 - 2.0 * ROUNDING * size)",
     "             - 2.0 * ROUNDING * size)",
     "test_nodal_analysis.py::test_a_tangent_root_between_flat_samples_is_solved"),
    ("nodal_analysis.py", "for i in brackets[floor <= threshold]]",
     "for i in brackets[floor > threshold]]",
     "test_nodal_analysis.py::test_chord_roots_s23_tangent"),
    # the verdict's handle at theta 0, which is C_{m,m} = 0 for m = n
    ("nodal_analysis.py", "EigenfunctionHandle(d, pair, thetas[0])",
     "EigenfunctionHandle(d, pair)",
     "test_nodal_analysis.py::test_verdict_counts_only_candidates_above_two"),
    # the certificate without the exact reads at the largest table values,
    # which fix the band, or at the band's edges, and with its band halved
    ("eigenfunction_eval.py", "    values[top] = basis.exact_at(theta, top)\n", "",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    ("eigenfunction_eval.py", "    values[edge] = basis.exact_at(theta, edge)\n", "",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    ("eigenfunction_eval.py", "band = rel * float(", "band = 0.5 * rel * float(",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    # a 1 fill outside the mask
    ("eigenfunction_eval.py", "signs = np.zeros(mask.shape, dtype=np.int8)",
     "signs = np.ones(mask.shape, dtype=np.int8)",
     "test_nodal_analysis.py::test_counts_13_family_res256"),
    # nodal's cap without the doubled grid
    ("nodal_analysis.py", "resolution <= MAX_GRID // 2:", "resolution <= MAX_GRID:",
     "test_nodal_analysis.py::test_count_refuses_a_doubled_grid_above_the_cap_before_any_grid"),
    # the ratio test on the prefix it skips: the torus row at index 2 passes
    ("pleijel_screening.py", "passes[:skip] = False", "passes[:0] = False",
     "test_pleijel_screening.py::test_screening_rows"),
    # indices 1 and 2 kept only by the ratio test
    ("pleijel_screening.py", "keep = (s.min_index <= 2) | passes", "keep = passes",
     "test_pleijel_screening.py::test_screening_table_is_the_box_oracle_table"),
    ("lattice_spectrum.py", "n + 1 if spec.ordered", "n if spec.ordered",
     "test_lattice_spectrum.py::test_isosceles_first_two"),
    # each row's m-interval one short
    ("lattice_spectrum.py", "r = math.isqrt(4 * limit - (4 - c * c) * n * n)",
     "r = math.isqrt(4 * limit - (4 - c * c) * n * n) - 1",
     "test_lattice_spectrum.py::test_multiplicity_examples"),
    ("lattice_spectrum.py", 'if not math.isfinite(lam):\n        raise ValueError',
     'if False:\n        raise ValueError',
     "test_lattice_spectrum.py::test_queries_reject_values_outside_their_domain"),
    ("lattice_spectrum.py", "if normalized < 0:", "if False:",
     "test_lattice_spectrum.py::test_queries_reject_values_outside_their_domain"),
    ("eigenfunction_eval.py", "if not math.isfinite(self.theta):", "if False:",
     "test_nodal_analysis.py::test_chord_roots_reject_a_non_finite_theta"),
    # S left out of the equilateral basis
    ("eigenfunction_eval.py", "    return c, eval_S(m, n, s, t)\n", "    return (c,)\n",
     "test_eigenfunction_eval.py::test_eigenbasis_spans_each_triangle_eigenspace"),
    # the table product read at the block's columns one to the right of the mask
    ("eigenfunction_eval.py", "self.mask[i:i + step, c0:c1]",
     "self.mask[i:i + step, c0 + 1:c1 + 1]",
     "test_svg_export.py::test_table_signs_differ_from_the_sums_only_within_delta"),
    # a last block of rows with no inside sample reduced like a full one
    ("eigenfunction_eval.py", "            if not full.any():\n                continue\n", "",
     "test_eigenfunction_eval.py::"
     "test_separable_skips_a_last_block_of_rows_with_no_inside_sample"),
    # the table values taken as the sums: no margin for the exact reads
    ("eigenfunction_eval.py", "return values, 2.0 * (sums + table)",
     "return values, 0.0 * (sums + table)",
     "test_nodal_analysis.py::test_certified_signs_on_every_verdict_candidate"),
    # eval_psi's value back to the per-term sum of sign (ct c + st sn)
    ("eigenfunction_eval.py", "return EvalResult(mix((cs, ss), h.theta), gs, gt)",
     "return EvalResult(sum(sign * (ct * np.cos(TWO_PI * (a * s + b * t))"
     " + st * np.sin(TWO_PI * (a * s + b * t)))"
     " for sign, a, b in weyl_coefficients(m, n)), gs, gt)",
     "test_eigenfunction_eval.py::test_eval_psi_value_is_the_mixed_sums_bit_for_bit"),
    # S off by 0.1%
    ("eigenfunction_eval.py", "acc = acc + sign * np.sin(",
     "acc = acc + 1.001 * sign * np.sin(",
     "test_eigenfunction_eval.py::test_eval_psi_value_is_the_mixed_sums_bit_for_bit"),
    # a vertex typo and an area typo, on the hemiequilateral triangle
    ("alcove_geometry.py", "(2.0 / 3.0, 1.0 / 3.0), (0.5, 0.5))",
     "(2.0 / 3.0, 1.0 / 3.0), (0.5, 0.49))",
     "test_alcove_geometry.py::test_inside_on_the_axes_is_the_reference_predicate"),
    ("alcove_geometry.py", "area=SQRT3 / 8.0", "area=SQRT3 / 8.1",
     "test_alcove_geometry.py::test_area_is_the_area_of_the_vertices"),
    # the row ends left at their closed-form guesses, not settled by inside
    ("alcove_geometry.py",
     "        lo, hi = np.where(inside, cols, r).min(1), np.where(inside, cols + 1, 0).max(1)\n",
     "", "test_alcove_geometry.py::test_row_ends_are_the_rows_of_the_predicate"),
    ("cli_report.py", 'RATIO_FORMAT = "%#.10g"', 'RATIO_FORMAT = "%#.11g"',
     "test_cli_report.py::test_ratio_format"),
    ("cli_report.py", "if not math.isfinite(theta):", "if False:",
     "test_cli_report.py::test_parse_theta_rejects_what_is_not_a_finite_angle"),
    # every JSON document without a "stable" key would exit 3
    ("cli_report.py", 'out.get("stable") is False', 'out.get("stable") is None',
     "test_cli_report.py::test_screen_json_candidates"),
    # the CSV tables lose their last newline
    ("cli_report.py", 'RATIO_FORMAT, "", "\\n", "\\n")', 'RATIO_FORMAT, "", "\\n", "")',
     "test_cli_report.py::test_spectrum_csv_is_the_box_oracle_table"),
    # main building a parser on every call
    ("cli_report.py", "args = _parser().parse_args(argv)",
     "args = build_parser().parse_args(argv)",
     "test_cli_report.py::test_main_parses_with_one_parser_as_a_fresh_one_would"),
    # spectrum and screen would import scipy
    ("cli_report.py", "from .eigenfunction_eval import EigenfunctionHandle\n",
     "from .eigenfunction_eval import EigenfunctionHandle\n"
     "from .nodal_analysis import bifurcation_angle  # noqa: F401\n",
     "test_cli_report.py::test_spectrum_and_screen_run_without_scipy"),
    # marching squares: the crossing test, the corner order, the segment ends
    ("svg_export.py", "(v > 0) != (np.roll(v, -1, axis=1) > 0)",
     "(v >= 0) != (np.roll(v, -1, axis=1) >= 0)",
     "test_svg_export.py::test_zero_segments_match_the_loop_on_domain_grids"),
    ("svg_export.py", "np.stack((i, i + 1, i + 1, i), 1)",
     "np.stack((i, i + 1, i, i + 1), 1)",
     "test_svg_export.py::test_zero_segments_match_the_loop_on_domain_grids"),
    ("svg_export.py", "zip(pts[0::2], pts[1::2])", "zip(pts[1::2], pts[0::2])",
     "test_svg_export.py::test_zero_segments_match_the_loop_on_domain_grids"),
    # a cell whose only changed corner is the diagonal one left ungathered
    ("svg_export.py", " | (first != pos[1:, 1:])", "",
     "test_svg_export.py::test_zero_segments_match_the_loop_on_domain_grids"),
    # a plot whose signs read the sums back at the count's band edge, not
    # where the table's sign may be wrong, or with the corners read at (j, i)
    ("svg_export.py", "_certified_values(basis, h.theta, 0.0)",
     "_certified_values(basis, h.theta, 1e-5)",
     "test_svg_export.py::test_plot_segments_are_those_of_the_sums"),
    ("svg_export.py", "v = read(ci, cj)", "v = read(cj, ci)",
     "test_svg_export.py::test_zero_segments_match_the_loop_on_domain_grids"),
)


def run(file: str, old: str, new: str, test: str) -> str:
    """'caught' or 'survived' for one mutant, or what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        junk = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for tree in ("src", "tests", "tools"):
            shutil.copytree(ROOT / tree, tmp / tree, ignore=junk)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "courant_lab" / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times: {old!r}"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        # the copy, not an installed courant_lab, is what the tests import
        where = subprocess.run([sys.executable, "-c", "import courant_lab; "
                                "print(courant_lab.__file__)"], cwd=tmp, env=env,
                               capture_output=True, text=True).stdout.strip()
        if Path(where) != path.with_name("__init__.py"):
            return f"courant_lab imports from {where!r}, not from the copy"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"tests/{test}"], cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        failed = [line.split(" - ")[0] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return f"caught by {failed[0][len('FAILED '):]}" if failed else "caught"
    if proc.returncode == 0:
        return "survived"
    return f"pytest exit {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def timed(row):
    t = time.perf_counter()
    return run(*row), time.perf_counter() - t


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for (file, old, new, _), (outcome, seconds) in zip(MUTANTS,
                                                          pool.map(timed, MUTANTS)):
            failures += not outcome.startswith("caught")
            print(f"{file}: {old!r} -> {new!r}\n    {outcome} ({seconds:.1f} s)",
                  flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
