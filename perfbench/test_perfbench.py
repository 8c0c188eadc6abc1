"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import sys
import types

import pytest

from perfbench import checks, hostref, tracer, workloads
from perfbench.worker import run_batch

WORKLOADS = ("verdict", "gallery", "spectrum", "queries")


# --- op generation -------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert (workloads.op_lists(workload, 7, 12)
            == workloads.op_lists(workload, 7, 12))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_ops(workload):
    assert (workloads.op_lists(workload, 7, 12)
            != workloads.op_lists(workload, 8, 12))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_input_repeats_within_a_process(workload):
    for batch in workloads.op_lists(workload, 3, 12):
        keys = [workloads.op_key(op) for op in batch]
        assert len(keys) == len(set(keys))
        warm = {workloads.op_key(op) for op in workloads.WARMUP[workload]}
        assert not warm & set(keys)


def test_op_mix_does_not_depend_on_seed():
    def mix(seed):
        ops = workloads.op_lists("queries", seed, 12)[0]
        return sorted((op["op"], op.get("domain", "")) for op in ops)
    assert mix(1) == mix(2)


def test_verdict_median_op_is_a_right_isosceles_verdict():
    def domains(seed):
        return [op["argv"][2] for batch in workloads.op_lists("verdict", seed, 12)
                for op in batch]
    assert sorted(domains(1)) == sorted(domains(2))
    by_cost = ("torus", "right-isosceles", "hemiequilateral", "equilateral")
    ranked = sorted(domains(1), key=by_cost.index)
    assert ranked.count("equilateral") == 1
    assert ranked[len(ranked) // 2 - 1] == ranked[len(ranked) // 2] == "right-isosceles"


def test_gallery_never_repeats_a_grid():
    for seed in range(5):
        ops = workloads.op_lists("gallery", seed, 12)[0]
        handles = [(op["argv"][2], op["argv"][4]) for op in ops]
        assert len(handles) == len(set(handles))
        eq = {op["argv"][4] for op in ops if op["argv"][2] == "equilateral"}
        assert {"1,3", "2,3"} <= eq


def test_every_digest_checked_draw_has_a_digest():
    golden = checks.golden()
    for workload in WORKLOADS:
        for seed in range(3):
            for batch in workloads.op_lists(workload, seed, 12):
                for op in batch:
                    if op["op"] == "cli" and op["argv"][0] in (
                            "spectrum", "critical-zeros"):
                        continue
                    if op["op"] in ("cli", "median_critical_zeros"):
                        assert workloads.op_key(op) in golden


# --- statistics ----------------------------------------------------------------

def test_tail_rule():
    # the highest percentile with ten samples beyond it, never below p90
    assert hostref.tail_percentile(18) == 90.0
    assert hostref.tail_percentile(100) == 90.0
    assert hostref.tail_percentile(200) == 95.0
    assert hostref.tail_percentile(2000) == 99.5
    value, label = hostref.tail(list(range(2000)))
    assert label == "p99.50 of 2000"
    assert abs(value - 0.995 * 1999) < 2.0


def test_harrell_davis_quantile():
    assert hostref.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    assert hostref.quantile([3.0], 0.5) == 3.0
    assert hostref.quantile(list(range(1001)), 0.5) == pytest.approx(500.0)
    # a smooth estimate: between the order statistics around the quantile
    xs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    assert 8.0 < hostref.quantile(xs, 0.5) < 64.0
    assert hostref.quantile(xs, 0.9) < 512.0
    # few values: the plain median, which one slow value does not move
    assert hostref.quantile([0.002, 10.0, 0.2, 0.3], 0.5) == pytest.approx(0.25)
    assert hostref.quantile([0.002, 100.0, 0.2, 0.3], 0.5) == pytest.approx(0.25)


def test_host_adjustment_arithmetic():
    nominal = hostref.NOMINAL_REF_MS
    # a host running at half speed doubles the reference and the raw time
    factor = hostref.adjustment_factor([2 * nominal, 2 * nominal, 100.0 * nominal])
    assert factor == pytest.approx(0.5)
    assert 10.0 * factor == pytest.approx(5.0)
    assert hostref.adjustment_factor([nominal]) == 1.0
    with pytest.raises(ValueError):
        hostref.adjustment_factor([])


def test_op_factors_use_the_samples_taken_during_each_op():
    nominal = hostref.NOMINAL_REF_MS
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    values = [nominal] * 3 + [2 * nominal] * 4
    fast, slow = hostref.op_factors([(-0.5, 1.5), (3.5, 6.5)], times, values)
    assert fast == pytest.approx(1.0)      # samples at 0 and 1, widened to 0..2
    assert slow == pytest.approx(0.5)      # samples at 4, 5 and 6
    # a short op between two samples widens to its neighbours on both sides
    (mid,) = hostref.op_factors([(2.4, 2.6)], times, values)
    assert mid == pytest.approx(2.0 / 3.0)  # samples at 1 to 4: median 1.5x


def test_spread_is_interquartile_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    import statistics
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert hostref.spread(values) == pytest.approx((q3 - q1) / q2)


# --- oracles -------------------------------------------------------------------

def test_integer_oracle_spot_checks():
    # torus: 0 once, then the hexagonal shells 1, 3, 4 of six points each
    assert checks.spectrum_entries("torus", 19)[:4] == [
        (0, 1, 1, 1), (1, 6, 2, 7), (3, 6, 8, 13), (4, 6, 14, 19)]
    assert checks.spectrum_entries("equilateral", 1)[0] == (3, 1, 1, 1)
    assert checks.spectrum_entries("right-isosceles", 1)[0] == (5, 1, 1, 1)
    # the strict counts named by the counting_function rounding defect
    assert checks.strict_count("torus", 117) == 421
    assert checks.strict_count("equilateral", 243) == 130
    for domain in workloads.DOMAINS:
        for v, k, lo, hi in checks.spectrum_entries(domain, 300):
            assert checks.strict_count(domain, v) == lo - 1
            assert checks.multiplicity(domain, v) == k == hi - lo + 1


def test_spectrum_format():
    text = checks.expected_spectrum("torus", 8, "csv")
    assert text.splitlines() == [checks.CSV_HEADER, "0,1,1,1,", "1,2,7,6,",
                                 "3,8,13,6,0.3750000000"]
    rows = json.loads(checks.expected_spectrum("equilateral", 2, "json"))
    assert rows[0] == {"normalized": 3, "min_index": 1, "max_index": 1,
                       "multiplicity": 1, "ratio": "3.000000000"}


def test_published_verdicts_and_pins():
    assert checks.PUBLISHED_SHARP["equilateral"] == [1, 2, 4]
    assert checks.pinned_count("equilateral", (1, 3), math.pi / 12) == 3
    assert checks.pinned_count("equilateral", (2, 3), 0.25) == 3
    assert checks.pinned_count("equilateral", (2, 3), 0.35) == 4
    assert checks.pinned_count("equilateral", (2, 3), 0.30) is None
    assert checks.pinned_count("hemiequilateral", (3, 1), 0.0) == 2


def test_independent_evaluator_finds_fixed_point():
    # F_C = (1/3, 1/3) is a common zero of C and S for both pairs
    mp = checks._mpmath()
    third = mp.mpf(1) / 3
    for pair in workloads.EQ_FAMILIES:
        for theta in (0, mp.pi / 2):
            assert abs(checks.psi(*pair, theta, third, third)) < 1e-25


# --- the checker rejects corrupted output -----------------------------------------

def _spectrum_op(domain, count, fmt):
    return {"op": "cli", "argv": ["spectrum", "--domain", domain, "--count",
                                  str(count), "--format", fmt]}


def test_checker_accepts_and_rejects_spectrum():
    op = _spectrum_op("hemiequilateral", 500, "json")
    text = checks.expected_spectrum("hemiequilateral", 500, "json")
    assert checks.check(op, workloads.op_key(op), checks.Output.of(text, 0)).ok
    bad = text.replace('"min_index": 7,', '"min_index": 8,', 1)
    assert bad != text
    assert not checks.check(op, workloads.op_key(op), checks.Output.of(bad, 0)).ok
    assert not checks.check(op, workloads.op_key(op), checks.Output.of(text, 2)).ok


def test_checker_counting_function_defect_is_labelled():
    op = {"op": "counting_function", "domain": "torus", "k": 117, "lam": 0.0}
    key = workloads.op_key(op)
    assert checks.check(op, key, checks.Output.of("421", 0)).ok
    defect = checks.check(
        op, key, checks.Output.of(str(421 + checks.multiplicity("torus", 117)), 0))
    assert not defect.ok and defect.known_defect
    other = checks.check(op, key, checks.Output.of("420", 0))
    assert not other.ok and not other.known_defect


def test_checker_rejects_corrupted_digest_and_roots():
    op = workloads.queries_fixed_ops()[0]
    assert not checks.check(op, workloads.op_key(op), checks.Output.of("garbage", 0)).ok
    op = {"op": "edge_restriction_roots", "pair": [1, 3], "a": 0.5, "theta": 0.3}
    assert not checks.check(op, workloads.op_key(op), checks.Output.of("[0.2]", 0)).ok


def test_checker_fails_unreadable_output_instead_of_raising():
    op = {"op": "cli", "argv": ["nodal", "--domain", "hemiequilateral", "--pair",
                                "2,1", "--resolution", "512"]}
    result = checks.check(op, workloads.op_key(op), checks.Output.of("", 2))
    assert not result.ok and not result.known_defect
    op = {"op": "cli", "argv": ["critical-zeros", "--pair", "1,3", "--theta", "0.2"]}
    assert not checks.check(op, workloads.op_key(op), checks.Output.of("{", 0)).ok
    op = {"op": "multiplicity", "domain": "torus", "k": 7}
    assert not checks.check(op, workloads.op_key(op), checks.Output.of("seven", 0)).ok


def test_missing_root_needs_a_root_in_every_sign_change():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
    assert checks.missing_root(xs, ys, [0.5, 3.5]) is None
    assert checks.missing_root(xs, ys, [0.5]) == (3.0, 4.0)
    assert checks.missing_root(xs, ys, []) == (0.0, 1.0)


# --- library runs (need src on PYTHONPATH) ------------------------------------------


def test_library_outputs_pass_their_checks_and_show_the_defect():
    from courant_lab.alcove_geometry import DomainKind
    from courant_lab.lattice_spectrum import counting_function
    lam = workloads.physical_lambda("torus", 117)
    got = counting_function(DomainKind.TORUS, lam)
    op = {"op": "counting_function", "domain": "torus", "k": 117, "lam": lam}
    result = checks.check(op, workloads.op_key(op), checks.Output.of(str(got), 0))
    assert got == 433 and result.known_defect


def test_critical_zero_residuals_of_the_library():
    from courant_lab.nodal_analysis import edge_critical_zeros
    zeros = [{"edge": z.edge_or_median, "u": z.parameter_u, "order": z.order,
              "s": z.location.s, "t": z.location.t}
             for z in edge_critical_zeros((2, 3), 0.2)]
    assert zeros
    assert checks.check_critical_zeros((2, 3), 0.2, zeros).ok
    for i in range(len(zeros)):                   # a dropped zero is missed
        assert not checks.check_critical_zeros((2, 3), 0.2, zeros[:i] + zeros[i + 1:]).ok
    zeros[0]["u"] += 1e-4
    zeros[0]["s"], zeros[0]["t"] = checks._EDGE_POINT[zeros[0]["edge"]](zeros[0]["u"])
    assert not checks.check_critical_zeros((2, 3), 0.2, zeros).ok


def test_chord_roots_of_the_library_are_complete():
    from courant_lab.nodal_analysis import edge_restriction_roots
    roots = [float(u) for u in edge_restriction_roots((2, 3), 0.8, 1.1)]
    assert roots
    assert checks.check_chord_roots((2, 3), 0.8, 1.1, roots).ok
    for i in range(len(roots)):
        assert not checks.check_chord_roots((2, 3), 0.8, 1.1, roots[:i] + roots[i + 1:]).ok


def test_worker_batch_with_tracing():
    ops = [op for op in workloads.op_lists("queries", 1, 1)[0]][:40]
    ops.append({"op": "cli", "argv": ["nodal", "--domain", "hemiequilateral",
                                      "--pair", "2,1", "--resolution", "512"]})
    out = run_batch({"ops": ops, "warmup": [], "trace": True})
    assert len(out["latencies_s"]) == len(out["adjusted_s"]) == len(ops)
    assert out["ref_ms"] and out["missing_hooks"] == [] and not out["errors"]
    for op, output in zip(ops, out["outputs"]):
        result = checks.check(op, workloads.op_key(op), checks.Output(*output))
        assert result.ok or result.known_defect
    metrics = tracer.per_layer_metrics(out["layer_totals"])
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["nodal_analysis.grid_values.calls"] == 2
    assert metrics["nodal_analysis.label.calls"] == 4
    assert metrics["cli_report.self_ms"] > 0


def test_box_cells_are_counted_only_in_their_own_pass():
    ops = [{"op": "cli", "argv": ["spectrum", "--domain", "equilateral", "--count", "50"]}]
    key = "lattice_spectrum.enumerate.box_cells"
    plain = run_batch({"ops": ops, "warmup": [], "trace": True})
    counted = run_batch({"ops": ops, "warmup": [], "trace": True, "box_cells": True})
    assert plain["layer_totals"][key] == 0
    assert counted["layer_totals"][key] >= counted["layer_totals"][
        "lattice_spectrum.enumerate.modes"] > 0


def test_tracer_reports_missing_hooks_without_crashing():
    package = types.ModuleType("fakelab")
    lattice = types.ModuleType("fakelab.lattice_spectrum")

    def multiplicity(d, k):
        return 1

    lattice.multiplicity = multiplicity          # counting_function "renamed"
    sys.modules["fakelab"] = package
    sys.modules["fakelab.lattice_spectrum"] = lattice
    try:
        t = tracer.Tracer(clock=iter(range(1000)).__next__)
        t.install(package="fakelab")
        assert "lattice_spectrum.counting_function" in t.missing
        assert "cli_report" in t.missing_layers()
        assert "lattice_spectrum.query" not in t.missing_layers()
        assert lattice.multiplicity("torus", 3) == 1
        t.op = 0
        assert lattice.multiplicity("torus", 4) == 1
        totals = t.layer_totals([2.0])
        assert totals["lattice_spectrum.query.calls"] == 2
        assert totals["lattice_spectrum.query.self_s"] == 3.0   # 1 + 2 * 1
        t.uninstall()
        assert lattice.multiplicity is multiplicity
    finally:
        del sys.modules["fakelab"], sys.modules["fakelab.lattice_spectrum"]


def test_benchmark_json_names_what_the_run_reports():
    import os
    from perfbench import run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(tracer.PER_LAYER) | {
        "cli_report.bytes_out", "host.ref_ms_p50", "host.ref_spread",
        "host.raw_run_s", "tracing.overhead_ratio", "tracing.missing_hooks"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for m in spec["per_layer"]:
        assert m["unit"] == tracer.unit_of(m["name"])


def test_reuse_ratio_counts_repeated_grids_inside_a_sweep_of_one_op():
    package = types.ModuleType("fakelab")
    nodal = types.ModuleType("fakelab.nodal_analysis")
    nodal._grid_values = lambda h, resolution: 0
    nodal._max_count_over_thetas = lambda h, resolution: [
        nodal._grid_values(h, resolution) for _ in range(4)]
    sys.modules["fakelab"] = package
    sys.modules["fakelab.nodal_analysis"] = nodal
    try:
        t = tracer.Tracer(clock=iter(range(1000)).__next__)
        t.install(package="fakelab")
        sweep = types.SimpleNamespace(domain=types.SimpleNamespace(value="equilateral"),
                                      mode=(1, 3))
        single = types.SimpleNamespace(domain=types.SimpleNamespace(value="torus"),
                                       mode=(1, 0))
        t.op = 0
        nodal._max_count_over_thetas(sweep, 512)
        nodal._grid_values(single, 512)          # outside a sweep: not counted
        t.op = 1
        nodal._max_count_over_thetas(sweep, 512)  # same key, other op
        totals = t.layer_totals([1.0, 1.0])
        t.uninstall()
    finally:
        del sys.modules["fakelab"], sys.modules["fakelab.nodal_analysis"]
    metrics = tracer.per_layer_metrics(totals)
    assert metrics["nodal_analysis.grid_values.calls"] == 9
    assert metrics["nodal_analysis.grid_values.reuse_ratio"] == 1.0 - 2 / 8
