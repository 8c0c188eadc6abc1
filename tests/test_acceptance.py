"""End-to-end acceptance checks.  Each test prints a single pass/fail line
(visible in the pytest log via --capture=tee-sys)."""

import contextlib
import json
import math
import time

import numpy as np

from courant_lab.alcove_geometry import DOMAINS, DomainKind
from courant_lab.cli_report import main
from courant_lab.eigenfunction_eval import (EigenfunctionHandle,
                                            eval_isosceles, eval_psi_grid)
from courant_lab.lattice_spectrum import Mode, modes_up_to
from courant_lab.nodal_analysis import (EDGE_PAIRS, bifurcation_angle,
                                        count_nodal_domains,
                                        courant_sharp_verdict,
                                        median_critical_zeros,
                                        polynomial_roots_unit_interval)
from oracles import apply_symmetry, pullback_theta
from test_nodal_analysis import wronskian_is_16_pi_p_w

T = DomainKind.TORUS
E = DomainKind.EQUILATERAL
B = DomainKind.RIGHT_ISOSCELES
H = DomainKind.HEMIEQUILATERAL


@contextlib.contextmanager
def criterion(num, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE {num}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s"
    print(f"[ACCEPTANCE {num}] PASS ({elapsed:.2f}s): {description}")


def cli_lines(tmp_path, *argv):
    out = tmp_path / "out.txt"
    assert main(list(argv) + ["--out", str(out)]) == 0
    return out.read_text().strip().split("\n")


def test_criterion_1_torus_table(tmp_path):
    expected = [
        "normalized,min_index,max_index,multiplicity,ratio",
        "0,1,1,1,", "1,2,7,6,", "3,8,13,6,0.3750000000",
        "4,14,19,6,0.2857142857", "7,20,31,12,0.3500000000",
        "9,32,37,6,0.2812500000", "12,38,43,6,0.3157894737",
        "13,44,55,12,0.2954545455", "16,56,61,6,0.2857142857",
        "19,62,73,12,0.3064516129", "21,74,85,12,0.2837837838",
    ]
    with criterion(1, "torus spectrum table, ratios to 10 digits", 1.0):
        lines = cli_lines(tmp_path, "spectrum", "--domain", "torus",
                          "--count", "85", "--format", "csv")
        assert lines == expected


TABLE2 = [
    (3, 1, 1, 1, "3"), (7, 2, 3, 2, "3.5"), (12, 4, 4, 1, "3"),
    (13, 5, 6, 2, "2.6000000"), (19, 7, 8, 2, "2.7142857"),
    (21, 9, 10, 2, "2.333333333"), (27, 11, 11, 1, "2.45454545"),
    (28, 12, 13, 2, "2.333333333"), (31, 14, 15, 2, "2.214285714"),
    (37, 16, 17, 2, "2.312500000"), (39, 18, 19, 2, "2.166666667"),
    (43, 20, 21, 2, "2.150000000"), (48, 22, 22, 1, "2.181818182"),
    (49, 23, 24, 2, "2.130434783"), (52, 25, 26, 2, "2.080000000"),
    (57, 27, 28, 2, "2.111111111"), (61, 29, 30, 2, "2.103448276"),
    (63, 31, 32, 2, "2.032258065"), (67, 33, 34, 2, "2.030303030"),
    (73, 35, 36, 2, "2.085714286"), (75, 37, 37, 1, "2.027027027"),
    (76, 38, 39, 2, "2."), (79, 40, 41, 2, "1.975000000"),
]


def test_criterion_2_equilateral_table(tmp_path):
    with criterion(2, "equilateral table, all 23 rows and printed ratios", 1.0):
        lines = cli_lines(tmp_path, "spectrum", "--domain", "equilateral",
                          "--count", "41", "--format", "csv")
        assert len(lines) == 24
        for line, (lam, lo, hi, mult, printed) in zip(lines[1:], TABLE2):
            cells = line.split(",")
            assert [int(c) for c in cells[:4]] == [lam, lo, hi, mult]
            decimals = len(printed.split(".")[1]) if "." in printed else 0
            tol = 0.5 * 10.0 ** (-decimals) + 1e-12
            assert abs(float(cells[4]) - float(printed)) <= tol


def test_criterion_3_screening(tmp_path):
    with criterion(3, "screening thresholds, cutoffs and candidate sets", 1.0):
        from courant_lab.pleijel_screening import (candidate_indices,
                                                   faber_krahn_threshold,
                                                   index_cutoff)
        assert abs(faber_krahn_threshold(T) - 0.3985546913) < 1e-8
        assert abs(faber_krahn_threshold(E) - 2.391328148) < 1e-8
        assert abs(faber_krahn_threshold(B) - 3.681690532) < 1e-8
        assert [index_cutoff(d) for d in (T, E, B, H)] == [63, 40, 26, 32]
        assert candidate_indices(T) == [1, 2]
        assert candidate_indices(E) == [1, 2, 4, 5, 7, 11]
        assert candidate_indices(B) == [1, 2, 3, 4, 5, 6, 7, 9, 10]
        assert candidate_indices(H) == [1, 2, 3, 4, 5, 6, 7, 8, 10]


def test_criterion_4_critical_zero_numerics():
    with criterion(4, "critical-zero numerics", 5.0):
        (root,) = polynomial_roots_unit_interval((1, 3), "P_C")
        assert abs(math.acos(root) / math.pi - 0.433595245) < 1e-8
        xi = polynomial_roots_unit_interval((1, 3), "P_S")
        assert abs(xi[0] + 0.9094691258) < 1e-9
        assert abs(xi[1] - 0.6638481772) < 1e-9
        eta = polynomial_roots_unit_interval((2, 3), "P_S")
        assert abs(eta[0] - 0.06784981490) < 1e-9
        assert abs(eta[1] - 0.5658979255) < 1e-9
        assert abs(eta[2] - 0.7261887036) < 1e-9
        (z,) = [z for z in median_critical_zeros((1, 3), "C")
                if 0 < z.parameter_u < 1]
        assert abs(z.parameter_u - 0.7699465439) < 1e-8
        (z,) = [z for z in median_critical_zeros((2, 3), "C")
                if 0 < z.parameter_u < 1]
        assert abs(z.parameter_u - 0.5946180472) < 1e-8
        u_b, theta_c = bifurcation_angle()
        assert abs(u_b - 0.3912873205) < 1e-8
        assert abs(theta_c - 0.3005211736) < 1e-8


ISO_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 3),
             (6, 1)]
ISO_COUNTS = (1, 2, 2, 2, 4, 3, 4, 4, 3)


def test_criterion_5_nodal_counts():
    with criterion(5, "nodal-domain counts, stable at 512 vs 1024", 60.0):
        def check(domain, pair, theta, expected):
            r = count_nodal_domains(
                EigenfunctionHandle(domain, Mode(*pair), theta), 512)
            assert r.domain_count == expected, (pair, theta, r)
            assert r.stable, (pair, theta)

        check(E, (2, 2), math.pi / 2, 4)
        check(E, (3, 3), math.pi / 2, 9)
        for theta in (math.pi / 24, math.pi / 12, math.pi / 8, math.pi / 6):
            check(E, (1, 3), theta, 3)
        for theta in (0.05, 0.15, 0.29):
            check(E, (2, 3), theta, 3)
        for theta in (0.31, 0.45, math.pi / 6):
            check(E, (2, 3), theta, 4)
        for pair, expected in zip(ISO_PAIRS, ISO_COUNTS):
            check(B, pair, 0.0, expected)


def test_criterion_6_verdicts():
    with criterion(6, "Courant-sharp verdicts for all four domains", 120.0):
        expected = {T: [1, 2], E: [1, 2, 4], B: [1, 2], H: [1, 2]}
        for d, sharp in expected.items():
            verdict = courant_sharp_verdict(d)
            assert [n for n, ok in verdict if ok] == sharp, d


def _pde_residual_ok():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.6, size=(100, 2))
    handles = [((1, 3), 0.0), ((1, 3), math.pi / 2), ((2, 3), 0.3),
               ((2, 2), math.pi / 2), ((3, 3), math.pi / 2)]
    h = 1e-4
    for (m, n), theta in handles:
        lam = (16 * math.pi ** 2 / 9) * (m * m + m * n + n * n)

        def f(s, t):
            return eval_psi_grid(m, n, theta, s, t)

        scale = lam * max(abs(f(s, t)) for s, t in pts)
        for s, t in pts:
            lap = (4.0 / 9.0) * (
                (f(s + h, t) - 2 * f(s, t) + f(s - h, t)) / h ** 2
                + (f(s, t + h) - 2 * f(s, t) + f(s, t - h)) / h ** 2
                + (f(s + h, t + h) - f(s + h, t - h) - f(s - h, t + h)
                   + f(s - h, t - h)) / (4 * h ** 2))
            assert abs(lap + lam * f(s, t)) < 1e-5 * scale
    m, n = 4, 3
    lam = float(m * m + n * n)
    iso_pts = [(max(x, y), min(x, y))
               for x, y in rng.uniform(0.3, 2.8, size=(100, 2))]
    scale = lam * max(abs(eval_isosceles(m, n, x, y)) for x, y in iso_pts)
    for x, y in iso_pts:
        lap = ((eval_isosceles(m, n, x + h, y) - 2 * eval_isosceles(m, n, x, y)
                + eval_isosceles(m, n, x - h, y)) / h ** 2
               + (eval_isosceles(m, n, x, y + h)
                  - 2 * eval_isosceles(m, n, x, y)
                  + eval_isosceles(m, n, x, y - h)) / h ** 2)
        assert abs(lap + lam * eval_isosceles(m, n, x, y)) < 1e-5 * scale


def _dirichlet_ok():
    u1 = np.linspace(0.0, 2 / 3, 100)
    u2 = np.linspace(2 / 3, 4 / 3, 100)
    edge_pts = [(u, u / 2) for u in u1] + [(u / 2, u) for u in u1] \
        + [(u / 2, 1 - u / 2) for u in u2]
    for pair in ((1, 3), (2, 3), (2, 2), (3, 3)):
        for theta in (0.0, math.pi / 12, math.pi / 2):
            for s, t in edge_pts:
                assert abs(eval_psi_grid(*pair, theta, s, t)) < 1e-10


def _pullbacks_ok():
    grid = np.linspace(0.01, 0.6, 50)
    for pair in ((1, 3), (2, 3)):
        for sym in (1, 2, 3, "rot+", "rot-"):
            theta = 0.237
            new, sign = pullback_theta(sym, Mode(*pair), theta)
            for s in grid:
                for t in grid:
                    ss, tt = apply_symmetry(sym, (s, t))
                    lhs = eval_psi_grid(*pair, theta, ss, tt)
                    rhs = sign * eval_psi_grid(*pair, new, s, t)
                    assert abs(lhs - rhs) < 1e-10


def _wronskian_ok():
    for pair in EDGE_PAIRS:
        wronskian_is_16_pi_p_w(pair)


def _bounds_ok():
    from courant_lab.lattice_spectrum import (counting_function,
                                              enumerate_spectrum)
    from oracles import counting_lower_bound
    for d in DomainKind:
        for value in enumerate_spectrum(d, 500).normalized.tolist():
            if value == 0:
                continue
            lam = DOMAINS[d].scale * value
            assert counting_lower_bound(d, lam) <= counting_function(d, lam) + 1e-9


def test_criterion_7_property_suites():
    with criterion(7, "property suites (PDE, Dirichlet, pullbacks, "
                      "Wronskian, counting bounds)", 120.0):
        _pde_residual_ok()
        _dirichlet_ok()
        _pullbacks_ok()
        _wronskian_ok()
        _bounds_ok()


def test_criterion_8_enumeration_oracle(box_scan):
    with criterion(8, "lattice-box enumeration oracle (+2 margin)", 10.0):
        for d in DomainKind:
            for limit in (50, 100, 200):
                modes = list(map(Mode._make, modes_up_to(d, limit).tolist()))
                assert modes == box_scan(d, limit)
