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
    # the root commands would load scipy.optimize again, and scipy.ndimage
    # loaded on import, not on the first label
    ("nodal_analysis.py", 'ndimage = _lazy_module("scipy.ndimage")\n',
     'ndimage = _lazy_module("scipy.ndimage")\nfrom scipy import optimize  # noqa\n',
     "test_cli_report.py::test_root_commands_run_without_scipy_optimize"),
    ("nodal_analysis.py", 'ndimage = _lazy_module("scipy.ndimage")\n',
     "from scipy import ndimage  # noqa\n",
     "test_cli_report.py::test_commands_that_never_label_run_without_scipy_ndimage"),
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
    # the cell test handed f's samples in place of df's, and the chord's M2
    # dropped
    ("nodal_analysis.py", "else _cell_test(x, ys, dys, bounds))",
     "else _cell_test(x, ys, ys, bounds))",
     "test_nodal_analysis.py::test_edge_scans_sample_k_and_dk_bit_for_bit"),
    ("nodal_analysis.py", "(6.0 * w, w * curvature)", "(6.0 * w, 0.0)",
     "test_nodal_analysis.py::test_cleared_cells_could_not_give_a_root"),
    # an edge's M2 from its Chebyshev coefficients without their k^2
    ("nodal_analysis.py", "float(np.abs(q_s) @ (k_s * k_s))", "float(np.abs(q_s) @ k_s)",
     "test_nodal_analysis.py::test_cleared_cells_could_not_give_a_root"),
    # the cell test without its w^2 M2 / 2 term, without its w |f'| term and
    # without its slope clause
    ("nodal_analysis.py", "    low -= w * w * (curvature / 2.0)\n", "",
     "test_nodal_analysis.py::test_a_dip_between_flat_samples_is_a_root_only_within_the_margin"),
    ("nodal_analysis.py",
     "low = np.minimum(value[:-1] - w * slope[:-1], value[1:] - w * slope[1:])",
     "low = np.minimum(value[:-1], value[1:])",
     "test_nodal_analysis.py::test_random_scans_clear_no_cell_with_a_root"),
    ("nodal_analysis.py", "- w * w * curvature > margin)", "- w * w * curvature > np.inf)",
     "test_nodal_analysis.py::test_cleared_cells_could_not_give_a_root"),
    # no open cell split; the tangent margin set back to 1e-9 max |f|; a
    # sign change of rounding by a root of f' taken for a root; a zero's
    # order not taken from how it was found
    ("nodal_analysis.py", "    if steep.all():\n        return roots\n",
     "    if True:\n        return roots\n",
     "test_nodal_analysis.py::test_the_pair_born_at_theta_c_is_found_at_once"),
    ("nodal_analysis.py", "if abs(f(u)) <= 2.0 * ROUNDING * bounds[0]]",
     "if abs(f(u)) < 1e-9 * np.max(np.abs(ys))]",
     "test_nodal_analysis.py::test_a_dip_between_flat_samples_is_a_root_only_within_the_margin"),
    ("nodal_analysis.py", "(sure | (np.bincount(run, turn)[run] == 0))", "(sure | True)",
     "test_nodal_analysis.py::test_chord_roots_s23_tangent"),
    ("nodal_analysis.py", "3 if tangent else 2", "2 if tangent else 2",
     "test_nodal_analysis.py::test_theta_c_keeps_one_double_zero_at_u_b"),
    # the chord's form with its slope's sign flipped and its rounding floor
    # taken as 0, and Brent's f read through the sums, not the form the
    # samples come from
    ("nodal_analysis.py", "acc = acc + ok * (qk * ck - pk * sk)",
     "acc = acc + ok * (pk * sk - qk * ck)",
     "test_nodal_analysis.py::test_chord_form_rounds_within_its_floor"),
    ("nodal_analysis.py", "floor = _table_error(np.abs(mixed), ",
     "floor = 0.0 * _table_error(np.abs(mixed), ",
     "test_nodal_analysis.py::test_chord_form_rounds_within_its_floor"),
    ("nodal_analysis.py", "return values(trig(u))",
     "return eval_psi(EigenfunctionHandle(DomainKind.EQUILATERAL, pair, theta), u, a - u).value",
     "test_nodal_analysis.py::test_chord_scan_samples_the_restriction_bit_for_bit"),
    # a chord sampler that takes no cell near a root in full; a bracket only
    # in a cell no wider than the scan's narrowest
    ("nodal_analysis.py", "bounds)[0]] = True", "bounds)[0]] = False",
     "test_nodal_analysis.py::test_chord_scan_decides_what_every_sample_would"),
    ("nodal_analysis.py", "ends[sign[:, 0] * sign[:, 1] < 0]",
     "ends[(sign[:, 0] * sign[:, 1] < 0) & (np.diff(x)[near] <= np.diff(x).min())]",
     "test_nodal_analysis.py::test_find_roots_brackets_every_gap_and_splits_the_open_ones"),
    # a Newton polish kept wherever it lands
    ("nodal_analysis.py", "if a <= polished <= b:", "if True:",
     "test_nodal_analysis.py::test_a_polish_that_would_leave_its_bracket_is_not_taken"),
    # a chord within rounding of zero scanned for noise roots, and a chord's
    # ends below the sums' rounding scanned too
    ("nodal_analysis.py", "if np.max(np.abs(ys)) <= ROUNDING * bounds[0]:", "if False:",
     "test_nodal_analysis.py::test_chords_within_rounding_of_zero_are_refused"),
    ("nodal_analysis.py", "scan = slice(known.argmax(), len(ys) - known[::-1].argmax())",
     "scan = slice(None)",
     "test_nodal_analysis.py::test_chord_ends_below_the_sums_rounding_give_no_noise_roots"),
    # the verdict counting a candidate whose cluster holds two pair classes
    ("nodal_analysis.py",
     "if n > 2 and len({tuple(sorted(p)) for p in modes}) > 1:", "if False:",
     "test_nodal_analysis.py::test_verdict_refuses_a_candidate_with_two_pair_classes"),
    # the verdict's handle at theta 0, which is C_{m,m} = 0 for m = n
    ("nodal_analysis.py", "EigenfunctionHandle(d, pair, thetas[0])",
     "EigenfunctionHandle(d, pair)",
     "test_nodal_analysis.py::test_a_bound_of_n_is_labelled_and_reaches_the_count"),
    # the grid certificate without the exact reads at the largest table
    # values, which fix the band, or at the band's edges, with its band
    # halved, and with the band window missing the rel delta gap between the
    # table's band and the sums'
    ("eigenfunction_eval.py", "        read[high] = True\n", "",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    ("eigenfunction_eval.py", "read = np.abs(size, out=size) <= (1.0 + rel) * delta",
     "read = np.zeros_like(size, dtype=bool)",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    ("eigenfunction_eval.py", "band = rel * float(", "band = 0.5 * rel * float(",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    ("eigenfunction_eval.py", "<= (1.0 + rel) * delta", "<= delta",
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    # the certificate's largest |value| taken as the largest value, which
    # misses a negative top
    ("eigenfunction_eval.py", "top = max(values.max(), -values.min())", "top = values.max()",
     "test_eigenfunction_eval.py::test_decisive_block_by_block_is_the_whole_array_rule"),
    # a sign's bounding box without its last row or its last column, and an
    # absent sign's label skipped
    ("nodal_analysis.py", "slice(rows[0], rows[-1] + 1)", "slice(rows[0], rows[-1])",
     "test_nodal_analysis.py::test_a_sign_labelled_over_its_box_has_the_whole_grid_components"),
    ("nodal_analysis.py", "slice(cols[0], cols[-1] + 1)", "slice(cols[0], cols[-1])",
     "test_nodal_analysis.py::test_a_sign_labelled_over_its_box_has_the_whole_grid_components"),
    ("nodal_analysis.py", "return ndimage.label(on[box])[1]",
     "return ndimage.label(on[box])[1] if on[box].size else 0",
     "test_nodal_analysis.py::test_each_grid_labels_each_sign_once_present_or_not"),
    # a top run taken as a run whose first sample has its value above it,
    # each row's first sample no longer starting a run, so that runs wrap
    # across rows, every run counted, and a run covered by its value below
    # it, not above; the verdict not labelling an angle whose bound is n
    ("nodal_analysis.py", "np.logical_or.reduceat(above, starts)", "above[starts]",
     "test_nodal_analysis.py::test_top_runs_are_the_per_row_count_and_bound_the_components"),
    ("nodal_analysis.py", "    starts[::width] = True\n", "",
     "test_nodal_analysis.py::test_top_runs_are_the_per_row_count_and_bound_the_components"),
    ("nodal_analysis.py", "top = flat[starts[~np.logical_or.reduceat(above, starts)]]",
     "top = flat[starts]",
     "test_nodal_analysis.py::test_top_runs_are_the_per_row_count_and_bound_the_components"),
    ("nodal_analysis.py", "np.equal(flat[width:], flat[:-width], out=above[width:])",
     "np.equal(flat[:-width], flat[width:], out=above[:-width])",
     "test_nodal_analysis.py::test_top_runs_are_the_per_row_count_and_bound_the_components"),
    ("nodal_analysis.py", "if sum(_top_runs(signs)) < n:", "if sum(_top_runs(signs)) <= n:",
     "test_nodal_analysis.py::test_a_bound_of_n_is_labelled_and_reaches_the_count"),
    # the verdict's sweep reading the positive mask for both signs
    ("nodal_analysis.py",
     "best = max(best, _components(signs == 1) + _components(signs == -1))",
     "best = max(best, _components(signs == 1) + _components(signs == 1))",
     "test_nodal_analysis.py::test_a_bound_of_n_is_labelled_and_reaches_the_count"),
    # a tiled pair's count g k where g^2 k is due, and a pair tiled from a
    # primitive pair of any candidate row, whose count is not known
    ("nodal_analysis.py", "return k * g * g", "return k * g",
     "test_nodal_analysis.py::test_tiled_count_is_the_grid_count_at_1024"),
    ("nodal_analysis.py", "for k, modes in rows[:2]:", "for k, modes in rows:",
     "test_nodal_analysis.py::"
     "test_tiled_count_refuses_a_primitive_pair_whose_count_is_unknown"),
    # the grid geometry cached by domain alone: another resolution's geometry
    # is handed back
    ("eigenfunction_eval.py", "key = (d, resolution)", "key = d",
     "test_eigenfunction_eval.py::test_a_new_geometry_drops_the_old_one_before_it_is_built"),
    # a 1 fill outside the mask
    ("eigenfunction_eval.py", "signs = np.zeros(basis.mask.shape, dtype=np.int8)",
     "signs = np.ones(basis.mask.shape, dtype=np.int8)",
     "test_nodal_analysis.py::test_counts_13_family_res256"),
    # nodal's cap without the doubled grid, and its doubled grid taken at r:
    # hemiequilateral (5,2) at 512 no longer exits 3
    ("nodal_analysis.py", "resolution <= MAX_GRID // 2:", "resolution <= MAX_GRID:",
     "test_nodal_analysis.py::test_count_refuses_a_doubled_grid_above_the_cap_before_any_grid"),
    ("nodal_analysis.py", "for r in (resolution, 2 * resolution):",
     "for r in (resolution, resolution):",
     "test_grid_digest.py::test_every_grid_output_keeps_its_bytes"),
    # the ratio test on the prefix it skips: the torus row at index 2 passes
    ("pleijel_screening.py", "passes[:skip] = False", "passes[:0] = False",
     "test_pleijel_screening.py::test_screening_rows"),
    # indices 1 and 2 kept only by the ratio test
    ("pleijel_screening.py", "keep = (s.min_index <= 2) | passes", "keep = passes",
     "test_pleijel_screening.py::test_screening_table_is_the_box_oracle_table"),
    # modes_up_to without its admissibility check of each row's first cell
    ("lattice_spectrum.py", "if not all(_admissible(spec, lo, n) for n, lo, _ in rows):",
     "if False:",
     "test_lattice_spectrum.py::test_modes_up_to_refuses_a_row_whose_first_cell_is_not_admissible"),
    # the sort key's m field written without its shift, and a limit whose key
    # does not fit in 63 bits let through to _rows
    ("lattice_spectrum.py", "2 * bits | (m - origin) << bits |", "2 * bits | (m - origin) |",
     "test_lattice_spectrum.py::test_enumeration_box_oracle"),
    ("lattice_spectrum.py", "if width > 63:", "if False:",
     "test_lattice_spectrum.py::"
     "test_modes_up_to_refuses_a_limit_whose_key_does_not_fit_before_any_row"),
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
    # S left out of the equilateral basis, and evaluated, to no effect on the
    # values, on the hemiequilateral
    ("eigenfunction_eval.py", "(eval_C, eval_S) if d is DomainKind.EQUILATERAL",
     "(eval_C,) if d is DomainKind.EQUILATERAL",
     "test_eigenfunction_eval.py::test_eigenbasis_spans_each_triangle_eigenspace"),
    ("eigenfunction_eval.py", "else (eval_C,))", "else (eval_C, eval_S))",
     "test_eigenfunction_eval.py::test_eigenbasis_spans_each_triangle_eigenspace"),
    # a plot's fixed points and critical zeros drawn in alcove coordinates
    ("svg_export.py", "px(spec.frame(fp.location))", "px(fp.location)",
     "test_svg_export.py::test_overlays_mark_the_fixed_points_and_critical_zeros_at_their_images"),
    ("svg_export.py", "px(spec.frame(cz.location))", "px(cz.location)",
     "test_svg_export.py::test_overlays_mark_the_fixed_points_and_critical_zeros_at_their_images"),
    # a grid sample's sums read at (x[j], x[i]), and the certificate's row of
    # a row's first position taken as the row before
    ("eigenfunction_eval.py", "self.x[i], self.x[j]", "self.x[j], self.x[i]",
     "test_nodal_analysis.py::test_masked_evaluation_keeps_the_values"),
    ("eigenfunction_eval.py", 'side="right"', 'side="left"',
     "test_nodal_analysis.py::test_certificate_reads_the_sums_at_the_top_and_the_band_edge"),
    # the table product read at the block's columns one to the right of the mask
    ("eigenfunction_eval.py", "self.mask[i:i + step, c0:c1]",
     "self.mask[i:i + step, c0 + 1:c1 + 1]",
     "test_svg_export.py::test_table_signs_differ_from_the_sums_only_within_delta"),
    # a block's column window read with no start for a block of empty rows
    ("eigenfunction_eval.py", "hi.max(initial=0, where=lo < hi)", "hi.max(where=lo < hi)",
     "test_eigenfunction_eval.py::"
     "test_separable_skips_a_last_block_of_rows_with_no_inside_sample"),
    # the sums' rounding without numpy's trig error, the table bound (the
    # grid's, and a chord's floor) without the products' roundings, and the
    # table values taken as the sums: no margin for the exact reads
    ("eigenfunction_eval.py", "eta = _gamma(6) * TWO_PI * k * x + TRIG_ERR",
     "eta = _gamma(6) * TWO_PI * k * x",
     "test_eigenfunction_eval.py::test_sums_error_grants_each_cos_and_sin_the_trig_error"),
    ("eigenfunction_eval.py", " + _gamma(16) * (1.0 + alpha) ** 2)", ")",
     "test_eigenfunction_eval.py::test_grid_bounds_cover_the_table_and_the_sums"),
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
    # a vertex typo on the hemiequilateral triangle, a corner typo in the
    # torus's unit cell, and the right-isosceles vertices taken as alcove
    # coordinates
    ("alcove_geometry.py", "(2.0 / 3.0, 1.0 / 3.0), (0.5, 0.5))",
     "(2.0 / 3.0, 1.0 / 3.0), (0.5, 0.49))",
     "test_alcove_geometry.py::test_inside_on_the_axes_is_the_reference_predicate"),
    ("alcove_geometry.py", "(1, 1), (0, 1))", "(1, 1), (0, 2))",
     "test_alcove_geometry.py::test_area_is_the_area_of_the_vertices"),
    ("alcove_geometry.py", "frame=CartesianPoint._make", "frame=to_cartesian",
     "test_alcove_geometry.py::test_outline_and_extent_derive_from_the_vertices"),
    # the row ends left at their closed-form guesses, not settled by inside
    ("alcove_geometry.py",
     "        lo, hi = np.where(inside, cols, r).min(1), np.where(inside, cols + 1, 0).max(1)\n",
     "", "test_alcove_geometry.py::test_row_ends_are_the_rows_of_the_predicate"),
    # an empty --out read as no --out, by the --out check and by --stamp's
    ("cli_report.py", "(not args.out or os.path.isdir(args.out)", "(os.path.isdir(args.out)",
     "test_cli_report.py::test_an_empty_out_is_refused"),
    ("cli_report.py", "if args.stamp and args.out is None:", "if args.stamp and not args.out:",
     "test_cli_report.py::test_an_empty_out_is_refused"),
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
    # a table's blocks written with no separator between them
    ("cli_report.py", "yield text if start else text[len(sep):]",
     "yield text[len(sep):]",
     "test_cli_report.py::test_a_table_written_in_blocks_is_the_one_block_text"),
    # the table kernel: a ratio within 1e-5 of a half, or outside [0.1, 10),
    # taken as certified; '0' left of an int's leading digit; ratios from 1
    # up written as if below 1
    ("cli_report.py", "inside & (np.abs(y - np.floor(y) - 0.5) > 1e-5) & ",
     "inside & ",
     "test_cli_report.py::test_block_text_writes_every_ratio_as_the_ratio_template"),
    ("cli_report.py", "inside = (x >= 0.1) & (x < 10)", "inside = np.isfinite(x)",
     "test_cli_report.py::test_block_text_writes_every_ratio_as_the_ratio_template"),
    ("cli_report.py", "            r *= v > 0", "            pass",
     "test_cli_report.py::test_block_text_writes_every_int_in_decimal"),
    ("cli_report.py", "ones = ratios >= 1", "ones = ratios < 0",
     "test_cli_report.py::test_block_text_is_the_row_template_on_every_table"),
    # a closed stdout reported as a validation error
    ("cli_report.py", "    except BrokenPipeError:\n"
     "        # the interpreter flushes stdout at exit: let that write go nowhere\n"
     "        with open(os.devnull, \"w\") as null:\n"
     "            os.dup2(null.fileno(), sys.stdout.fileno())\n"
     "        return 1\n", "",
     "test_cli_report.py::test_a_closed_stdout_exits_one_with_nothing_on_stderr"),
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
    ("svg_export.py", "sign_grid(basis, h.theta, 0.0)",
     "sign_grid(basis, h.theta, 1e-5)",
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
        # loading the hypothesis and pytest-benchmark plugins takes about 1 s,
        # most of a row's time; no test needs either plugin (a @given test
        # runs and fails the same without hypothesis's)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-p", "no:hypothesispytest", "-p", "no:benchmark", f"tests/{test}"],
            cwd=tmp, env=env, capture_output=True, text=True)
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
