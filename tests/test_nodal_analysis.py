import math

import numpy as np
import pytest

from courant_lab.alcove_geometry import AlcovePoint, DomainKind, in_domain
from courant_lab.eigenfunction_eval import (EigenfunctionHandle, eval_C,
                                            eval_isosceles, eval_psi,
                                            eval_psi_grid, mix,
                                            pullback_theta)
from courant_lab.lattice_spectrum import Mode
from courant_lab.nodal_analysis import (EDGE_PAIRS, CriticalZero,
                                        _grid_values, _max_count_over_thetas,
                                        _polyval, _sweep_counts,
                                        _theta_partition, bifurcation_angle,
                                        bifurcations, count_nodal_domains,
                                        courant_sharp_verdict,
                                        edge_critical_zeros,
                                        edge_polynomials,
                                        edge_restriction_roots, fc,
                                        find_roots, fs, gc, gc_prime, gs,
                                        gs_prime, median_critical_zeros,
                                        median_fixed_points,
                                        polynomial_roots_unit_interval)

E = DomainKind.EQUILATERAL
B = DomainKind.RIGHT_ISOSCELES
H = DomainKind.HEMIEQUILATERAL


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_points_13():
    pts = {f.label: tuple(f.location) for f in median_fixed_points((1, 3))}
    assert pts["F_O"] == pytest.approx((0.25, 0.25))
    assert pts["F_C"] == pytest.approx((1 / 3, 1 / 3))
    assert pts["F_A"] == pytest.approx((5 / 12, 1 / 3))
    assert len(pts) == 4


def test_fixed_points_23():
    pts = {f.label: tuple(f.location) for f in median_fixed_points((2, 3))}
    assert pts["F_{1,A}"] == pytest.approx((7 / 15, 1 / 3))
    assert pts["F_{1,O}"] == pytest.approx((0.2, 0.2))
    assert pts["F_{2,O}"] == pytest.approx((0.4, 0.4))
    assert len(pts) == 7


def test_fixed_points_reject_other_pairs():
    with pytest.raises(ValueError):
        median_fixed_points((1, 2))


# ---------------------------------------------------------------------------
# chord restrictions
# ---------------------------------------------------------------------------

def test_chord_roots_c13():
    roots = edge_restriction_roots((1, 3), 2 / 3, 0.0)
    assert roots == pytest.approx([7 / 30, 1 / 3, 13 / 30], abs=1e-10)


def test_chord_roots_s23_tangent():
    roots = edge_restriction_roots((2, 3), 2 / 5, math.pi / 2)
    assert roots == pytest.approx([0.2], abs=1e-10)


def test_chord_roots_c23():
    roots = edge_restriction_roots((2, 3), 3 / 5, 0.0)
    assert roots == pytest.approx([4 / 15, 0.3, 1 / 3], abs=1e-10)


def test_chord_roots_validation():
    with pytest.raises(ValueError):
        edge_restriction_roots((1, 3), 1.5, 0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_chord_roots_reject_a_non_finite_theta(theta):
    # nan used to report no roots, and +-inf a bare math domain error
    with pytest.raises(ValueError, match="theta must be finite"):
        edge_restriction_roots((2, 3), 0.5, theta)


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------

def test_polynomial_roots():
    roots = polynomial_roots_unit_interval((1, 3), "P_S")
    assert roots == pytest.approx([-0.9094691258, 0.6638481772], abs=1e-9)
    roots = polynomial_roots_unit_interval((1, 3), "P_C")
    assert roots == pytest.approx([(math.sqrt(2) - 1) / 2], abs=1e-12)
    roots = polynomial_roots_unit_interval((2, 3), "P_S")
    assert roots == pytest.approx(
        [0.06784981490, 0.5658979255, 0.7261887036], abs=1e-9)
    roots = polynomial_roots_unit_interval((2, 3), "P_C")
    assert roots == pytest.approx([-0.9311441818], abs=1e-9)
    roots = polynomial_roots_unit_interval((2, 3), "P_W")
    assert roots == pytest.approx([-(9 - math.sqrt(15)) / 6, 1.0], abs=1e-9)
    # P_W of (1,3) has only the vertex root x = 1: no bifurcation
    assert polynomial_roots_unit_interval((1, 3), "P_W") == [1.0]
    with pytest.raises(ValueError):
        polynomial_roots_unit_interval((1, 3), "P_X")


# ---------------------------------------------------------------------------
# critical zeros
# ---------------------------------------------------------------------------

def test_edge_zeros_small_theta_limit_13():
    zeros = edge_critical_zeros((1, 3), 1e-6)
    by_edge = {}
    for z in zeros:
        by_edge.setdefault(z.edge_or_median, []).append(z.parameter_u)
    u1c = math.acos((math.sqrt(2) - 1) / 2) / math.pi
    assert by_edge["OA"][-1] == pytest.approx(u1c, abs=1e-4)
    assert by_edge["OB"] == pytest.approx([u1c], abs=1e-4)
    assert len(by_edge["BA"]) == 1


def test_edge_zeros_pi_over_6_23():
    zeros = [z.parameter_u for z in edge_critical_zeros((2, 3), math.pi / 6)
             if z.edge_or_median == "OA"]
    u_s = [0.2412898667, 0.3085296215, 0.4783861278]
    expected = sorted(2 / 3 - u for u in u_s)
    assert zeros == pytest.approx(expected, abs=1e-8)


def test_edge_zeros_below_theta_c_23():
    zeros = edge_critical_zeros((2, 3), 0.1)
    counts = {"OA": 0, "OB": 0, "BA": 0}
    for z in zeros:
        counts[z.edge_or_median] += 1
    assert counts == {"OA": 1, "OB": 0, "BA": 3}


def test_edge_zeros_satisfy_defining_system():
    for pair in ((1, 3), (2, 3)):
        for theta in (0.1, 0.25, math.pi / 6):
            for z in edge_critical_zeros(pair, theta):
                r = eval_psi(EigenfunctionHandle(E, Mode(*pair), theta),
                             z.location.s, z.location.t)
                assert abs(r.value) < 1e-9
                assert abs(r.grad_s) < 1e-7 and abs(r.grad_t) < 1e-7
                assert z.order >= 2


def test_edge_zero_monotonicity_13():
    thetas = [0.05, 0.15, 0.25, math.pi / 6]
    tracks = {"OA": [], "OB": [], "BA": []}
    for theta in thetas:
        by_edge = {}
        for z in edge_critical_zeros((1, 3), theta):
            by_edge.setdefault(z.edge_or_median, []).append(z.parameter_u)
        for edge in tracks:
            tracks[edge].append(sorted(by_edge[edge]))
    for prev, nxt in zip(tracks["OA"], tracks["OA"][1:]):
        assert nxt[0] > prev[0] and nxt[1] > prev[1]  # beta1, beta2 increase
    for prev, nxt in zip(tracks["OB"], tracks["OB"][1:]):
        assert nxt[0] < prev[0]  # alpha1 decreases
    for prev, nxt in zip(tracks["BA"], tracks["BA"][1:]):
        assert nxt[0] < prev[0]  # omega1 decreases


def test_edge_zeros_theta_validation():
    with pytest.raises(ValueError):
        edge_critical_zeros((1, 3), 0.0)


def test_median_critical_zeros():
    zeros = median_critical_zeros((1, 3), "C")
    interior = [z.parameter_u for z in zeros if 0 < z.parameter_u < 1]
    assert interior == pytest.approx([0.7699465439], abs=1e-8)
    zeros = median_critical_zeros((2, 3), "C")
    interior = [z.parameter_u for z in zeros if 0 < z.parameter_u < 1]
    assert interior == pytest.approx([0.5946180472], abs=1e-8)
    zeros = median_critical_zeros((1, 3), "S")
    assert [z.parameter_u for z in zeros] == [0.0]


def test_median_critical_zeros_s_is_vertex_o():
    assert median_critical_zeros((2, 3), "S") == [
        CriticalZero(AlcovePoint(0.0, 0.0), "OM", 0.0, 3)]


def test_median_critical_zeros_validation():
    with pytest.raises(ValueError):
        median_critical_zeros((1, 3), "X")


# ---------------------------------------------------------------------------
# The edge algebra, the Wronskian and bifurcation
# ---------------------------------------------------------------------------

PI = math.pi

# The hand-typed reduction and Wronskian polynomials, ascending, that
# edge_polynomials derives: the reference it must equal exactly.
_P_C = {(1, 3): (-1.0, 4.0, 4.0),                 # 4x^2 + 4x - 1
        (2, 3): (1.0, -4.0, 2.0, 8.0)}            # 8x^3 + 2x^2 - 4x + 1
_P_S = {(1, 3): (-1.0, 1.0, -1.0, 0.0, 4.0),      # 4x^4 - x^2 + x - 1
        (2, 3): (-0.25, 4.0, -4.0, -10.0, 6.0, 8.0)}
_P_W = {(1, 3): (4.0, -9.0, 3.0, 5.0, -3.0),      # (1 - T)^3 (3T + 4)
        (2, 3): (11.0, -15.0, -15.0, 25.0, 0.0, -6.0)}  # (1 - T)^3 (6T^2 + 18T + 11)


# The hand-typed edge functions that the Weyl-term sums replaced: the
# reference the derived fc and fs must equal bit for bit, and the sums whose
# Wronskian must be 16 pi P_W(cos 3 pi u).
def _fc_typed(pair, u):
    if pair == (1, 3):
        return -np.sin(7 * PI * u) + 3 * np.sin(5 * PI * u) - 4 * np.sin(2 * PI * u)
    return -2 * np.sin(8 * PI * u) + 3 * np.sin(7 * PI * u) - 5 * np.sin(PI * u)


def _fs_typed(pair, u):
    if pair == (1, 3):
        return -np.cos(7 * PI * u) - 3 * np.cos(5 * PI * u) + 4 * np.cos(2 * PI * u)
    return -2 * np.cos(8 * PI * u) - 3 * np.cos(7 * PI * u) + 5 * np.cos(PI * u)


def _fc_prime_typed(pair, u):
    if pair == (1, 3):
        return PI * (-7 * np.cos(7 * PI * u) + 15 * np.cos(5 * PI * u)
                     - 8 * np.cos(2 * PI * u))
    return PI * (-16 * np.cos(8 * PI * u) + 21 * np.cos(7 * PI * u)
                 - 5 * np.cos(PI * u))


def _fs_prime_typed(pair, u):
    if pair == (1, 3):
        return PI * (7 * np.sin(7 * PI * u) + 15 * np.sin(5 * PI * u)
                     - 8 * np.sin(2 * PI * u))
    return PI * (16 * np.sin(8 * PI * u) + 21 * np.sin(7 * PI * u)
                 - 5 * np.sin(PI * u))


def _wronskian_13_closed(u):
    """The typed closed form of W(gc, gs) for (1,3), in c = cos pi u."""
    c = np.cos(PI * u)
    return PI * (1.0 - c) * (2.0 * c + 1.0) ** 2 * (12.0 * c ** 3 - 9.0 * c + 4.0)


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_edge_polynomials_equal_the_typed_ones(pair):
    derived = edge_polynomials(pair)
    assert derived == (_P_C[pair], _P_S[pair], _P_W[pair])
    coefficients = [c for poly in derived for c in poly]
    assert {type(c) for c in coefficients} == {float}
    assert all(math.copysign(1.0, c) == 1.0 for c in coefficients if c == 0)


@pytest.mark.parametrize("pair, factor", [((1, 3), [4, 3]),
                                          ((2, 3), [11, 18, 6])])
def test_wronskian_polynomial_factorization(pair, factor):
    # P_W = (1 - T)^3 times the factor, by integer multiplication
    cube = np.convolve(np.convolve([1, -1], [1, -1]), [1, -1])
    assert np.convolve(cube, factor).tolist() == list(edge_polynomials(pair)[2])


@pytest.mark.parametrize("pair", EDGE_PAIRS)
@pytest.mark.parametrize("field", [1, 2])
def test_a_wrong_edge_term_leaves_a_remainder(monkeypatch, pair, field):
    import courant_lab.nodal_analysis as nodal

    (first, *rest) = nodal._edge_terms(Mode(*pair))
    wrong = tuple(v + (i == field) for i, v in enumerate(first))
    monkeypatch.setattr(nodal, "_edge_terms", lambda _: [wrong, *rest])
    with pytest.raises(AssertionError, match="leaves"):
        nodal.edge_polynomials.__wrapped__(Mode(*pair))


def test_wronskian_13_nonnegative():
    # P_W = (1 - T)^3 (3T + 4), and 3T + 4 >= 1 on [-1, 1]
    x = np.linspace(-1.0, 1.0, 1000)
    assert np.min(_polyval(edge_polynomials((1, 3))[2], x)) >= 0.0


def wronskian_is_16_pi_p_w(pair):
    """W(fc, fs), from the typed edge sums, is 16 pi P_W(cos 3 pi u)."""
    u = np.linspace(-1 / 6, 1.5, 1000)
    direct = (_fc_typed(pair, u) * _fs_prime_typed(pair, u)
              - _fs_typed(pair, u) * _fc_prime_typed(pair, u))
    closed = 16.0 * PI * _polyval(edge_polynomials(pair)[2], np.cos(3 * PI * u))
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(direct - closed)) < 1e-10 * scale


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_wronskian_is_16_pi_p_w(pair):
    wronskian_is_16_pi_p_w(pair)


def test_reduced_wronskian_13_closed_form():
    u = np.linspace(-1 / 6, 1.5, 1000)
    pair = Mode(1, 3)
    direct = gc(pair, u) * gs_prime(pair, u) - gs(pair, u) * gc_prime(pair, u)
    closed = _wronskian_13_closed(u)
    assert np.max(np.abs(direct - closed)) < 1e-10 * np.max(np.abs(closed))


def test_wronskian_23_zeros():
    pair = (2, 3)
    u0 = math.acos((9 - math.sqrt(15)) / 6) / (3 * math.pi)
    # 0, 2/3, 4/3 are even-order contacts (no sign change): check directly
    for v in (0.0, 2 / 3, 4 / 3):
        w = (_fc_typed(pair, v) * _fs_prime_typed(pair, v)
             - _fs_typed(pair, v) * _fc_prime_typed(pair, v))
        assert abs(w) < 1e-8
    simple = sorted([1 / 3 - u0, 1 / 3 + u0, 1 - u0, 1 + u0])
    p_w = edge_polynomials(pair)[2]
    found = find_roots(lambda u: 16.0 * PI * _polyval(p_w, np.cos(3.0 * PI * u)),
                       -1 / 6 + 1e-9, 1.5)
    # discard noise-level brackets right at the even-order contacts
    found = [r for r in found
             if min(abs(r - c) for c in (0.0, 2 / 3, 4 / 3)) > 0.01]
    assert found == pytest.approx(simple, abs=1e-9)
    assert 1 / 3 + u0 == pytest.approx(0.3912873205, abs=1e-8)


@pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
@pytest.mark.parametrize("derived, typed", [(fc, _fc_typed), (fs, _fs_typed)])
def test_edge_functions_equal_the_typed_sums(pair, derived, typed):
    u = np.linspace(-2.0, 2.0, 20001)
    assert np.array_equal(derived(Mode(*pair), u), typed(pair, u))
    assert derived(Mode(*pair), 0.3912873205) == typed(pair, 0.3912873205)


def test_bifurcation_angle_digits():
    assert bifurcation_angle()[1] == 0.3005211736685075


def test_bifurcation_angle():
    u_b, theta_c = bifurcation_angle()
    assert u_b == pytest.approx(0.3912873205, abs=1e-8)
    assert theta_c == pytest.approx(0.3005211736, abs=1e-8)
    # K_+ has a double zero at u_b for theta_c
    k = math.cos(theta_c) * fc((2, 3), u_b) + math.sin(theta_c) * fs((2, 3), u_b)
    assert abs(k) < 1e-12
    eps = 1e-6
    kp = (math.cos(theta_c) * fc((2, 3), u_b + eps)
          + math.sin(theta_c) * fs((2, 3), u_b + eps)
          - math.cos(theta_c) * fc((2, 3), u_b - eps)
          - math.sin(theta_c) * fs((2, 3), u_b - eps)) / (2 * eps)
    assert abs(kp) < 1e-6
    # exactly one double zero, the one on OA at u_b
    double = [z for z in edge_critical_zeros((2, 3), theta_c) if z.order == 3]
    assert [z.edge_or_median for z in double] == ["OA"]
    assert double[0].parameter_u == pytest.approx(u_b, abs=1e-9)


def test_edge_zero_orders_near_vertex():
    # near vertex O a simple root of K sits where dk is O(u^2), so only the
    # sign of K on either side tells it from a double root
    for theta in (1e-12, 1e-300):
        for pair in ((1, 3), (2, 3)):
            zeros = edge_critical_zeros(pair, theta)
            near_o = [z.parameter_u for z in zeros if z.edge_or_median == "OA"]
            assert min(near_o) < 1e-4
            assert [z.order for z in zeros] == [2] * len(zeros)


def test_roots_are_python_floats():
    roots = (find_roots(np.sin, 1.0, 7.0, df=np.cos)
             + polynomial_roots_unit_interval((2, 3), "P_W")
             + [z.parameter_u for z in edge_critical_zeros((2, 3), 0.1)])
    assert {type(r) for r in roots} == {float}


def test_boundary_zero_sets_symmetric_under_pullback():
    # Psi vanishes identically along the boundary edges, so the meaningful
    # 1-D zero set on an edge is that of the normal-derivative function K.
    # sigma2 maps edge [OA] to itself reversing the parameter: zeros of
    # K for theta at u must reappear for the pulled-back angle at 2/3 - u.
    from courant_lab.nodal_analysis import _k_theta

    for pair in ((1, 3), (2, 3)):
        theta = 0.2
        new, _ = pullback_theta(2, Mode(*pair), theta)
        k_orig, _d = _k_theta(Mode(*pair), theta, +1)
        k_pull, _d = _k_theta(Mode(*pair), new, +1)
        za = find_roots(k_orig, 1e-6, 2 / 3 - 1e-6)
        zb = find_roots(k_pull, 1e-6, 2 / 3 - 1e-6)
        assert sorted(2 / 3 - u for u in za) == pytest.approx(sorted(zb),
                                                              abs=1e-9)


# ---------------------------------------------------------------------------
# nodal-domain counting
# ---------------------------------------------------------------------------

def count(domain, pair, theta=0.0, res=256):
    h = EigenfunctionHandle(domain, Mode(*pair), theta)
    return count_nodal_domains(h, res)


def sweep(domain, pair, res, thetas):
    """The nodal count at each of thetas, from one _sweep_counts."""
    h = EigenfunctionHandle(domain, Mode(*pair))
    return [pos + neg for pos, neg in _sweep_counts(h, res, thetas)]


def test_counts_13_family_res256():
    for theta in (math.pi / 24, math.pi / 12, math.pi / 8, math.pi / 6):
        assert count(E, (1, 3), theta).domain_count == 3
    assert count(E, (1, 3), 0.0, res=512).domain_count == 4
    assert count(E, (1, 3), math.pi / 2, res=512).domain_count == 3


def test_count_transition_at_theta_c():
    _, theta_c = bifurcation_angle()
    grid = np.arange(0.01, math.pi / 6, 1e-3)
    counts = sweep(E, (2, 3), 512, grid)
    changes = [i for i in range(1, len(counts)) if counts[i] != counts[i - 1]]
    assert len(changes) == 1
    crossing = grid[changes[0]]
    assert abs(crossing - theta_c) <= 1e-3 + 1e-9
    assert counts[0] == 3 and counts[-1] == 4


def sampled_thetas():
    """The 65 angles the verdict sampled before the theta partition: 64
    evenly spaced from 0 to pi/6, then theta_c."""
    return list(np.linspace(0.0, math.pi / 6, 64)) + [bifurcation_angle()[1]]


@pytest.mark.parametrize(
    "d,pair", [(E, (1, 2)), (E, (1, 3)), (E, (2, 3)), (B, (4, 1)), (H, (4, 2))],
    ids=[f"pair{i}" for i in range(5)])
def test_sweep_counts_match_count_once(d, pair):
    # a one-function eigenbasis has only theta 0
    thetas = sampled_thetas() if d is E else [0.0]
    counts = _sweep_counts(EigenfunctionHandle(d, Mode(*pair)), 128, thetas)
    assert len(counts) == len(thetas)
    for theta, pos_neg in zip(thetas, counts):
        h = EigenfunctionHandle(d, Mode(*pair), theta)
        assert [pos_neg] == _sweep_counts(h, 128, [theta])
        r = count_nodal_domains(h, 128)
        assert pos_neg == (r.positive_components, r.negative_components)


def _orbit(pair, theta):
    """The orbit of theta in [0, 2 pi) under the maps that keep the nodal
    count of Psi^theta: the triangle's symmetries (pullback_theta) and the
    sign change theta -> theta + pi."""
    orbit, todo = [], [theta]
    while todo:
        theta = todo.pop() % (2 * math.pi)
        if any(abs(theta - seen) < 1e-9 for seen in orbit):
            continue
        orbit.append(theta)
        todo += [pullback_theta(sym, pair, theta)[0]
                 for sym in (1, 2, 3, "rot+", "rot-")]
        todo.append(theta + math.pi)
    return orbit


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_zero_to_pi_over_6_is_a_fundamental_interval(pair):
    orbit = _orbit(pair, 0.1234)
    assert len(orbit) == 12
    assert sum(0.0 <= theta <= math.pi / 6 for theta in orbit) == 1


def test_every_double_edge_zero_reduces_to_the_partition_breakpoint():
    # each edge point where cos 3 pi u is P_W's root x0 != 1 has a double zero
    # of K = cos(theta) gc + sign sin(theta) gs at one angle; the symmetry
    # group takes every such angle to theta_c, the breakpoint in [0, pi/6]
    pair = Mode(2, 3)
    (x0,) = [x for x in polynomial_roots_unit_interval(pair, "P_W") if x < 1.0]
    orbit = _orbit(pair, bifurcation_angle()[1])
    a = math.acos(x0)
    angles = []
    for u in (a / (3 * PI), (2 * PI - a) / (3 * PI), (2 * PI + a) / (3 * PI),
              (4 * PI - a) / (3 * PI)):
        assert 0.0 < u < 4 / 3
        # OA with sign +1 and OB with -1 below 2/3, BA with -1 beyond
        for sign in ((+1, -1) if u < 2 / 3 else (-1,)):
            theta = math.atan2(-gc(pair, u), sign * gs(pair, u))
            angles.append(theta)
            assert min(abs((theta - o + PI) % (2 * PI) - PI) for o in orbit) < 1e-12
    assert len(angles) == 6
    assert bifurcations((1, 3)) == []


def test_count_13_has_no_breakpoint_inside():
    grid = np.arange(0.001, math.pi / 6, 1e-3)
    counts = sweep(E, (1, 3), 512, grid)
    assert len(counts) == len(grid) and set(counts) == {3}


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_theta_partition_counts(pair):
    thetas = _theta_partition(E, pair)
    breaks = [0.0, math.pi / 6]
    if pair == (2, 3):
        breaks.insert(1, bifurcation_angle()[1])
    assert thetas[0::2] == breaks
    assert thetas[1::2] == [(lo + hi) / 2 for lo, hi in zip(breaks, breaks[1:])]
    at_512 = sweep(E, pair, 512, thetas)
    assert at_512 == sweep(E, pair, 1024, thetas)
    sampled = max(sweep(E, pair, 512, sampled_thetas()))
    best = _max_count_over_thetas(E, pair, 512)
    assert best == max(at_512)
    assert best == sampled


@pytest.mark.parametrize("d,pair", [(B, (4, 1)), (H, (4, 2)), (H, (5, 3))])
def test_theta_partition_of_a_one_function_eigenspace(d, pair):
    assert _theta_partition(d, Mode(*pair)) == [0.0]


def test_theta_partition_of_a_simple_equilateral_eigenvalue():
    # C_{2,2} vanishes identically: the eigenfunction is S_{2,2}
    assert _theta_partition(E, Mode(2, 2)) == [math.pi / 2]


def test_theta_partition_rejects_an_unsupported_mixed_pair():
    with pytest.raises(ValueError, match="not supported"):
        _theta_partition(E, Mode(1, 4))


@pytest.mark.parametrize("h", [
    *(EigenfunctionHandle(E, Mode(1, 2), theta)
      for theta in (0.0, math.pi / 12, math.pi / 6)),
    EigenfunctionHandle(B, Mode(3, 1))])
def test_second_eigenfunctions_have_two_domains(h):
    # what Courant's theorem says of every lambda_2 eigenfunction
    r = count_nodal_domains(h, 512)
    assert r.domain_count == 2 and r.stable


@pytest.mark.parametrize("d", [E, B, H])
def test_grid_mask_is_the_strict_domain_predicate(d):
    pair = {E: (1, 2), B: (3, 1), H: (2, 1)}[d]
    _, mask, (p, q) = _grid_values(EigenfunctionHandle(d, Mode(*pair)), 64)
    expected = [[in_domain(d, (p[i, j], q[i, j]), strict=True)
                 for j in range(64)] for i in range(64)]
    assert mask.tolist() == expected
    assert 0 < mask.sum() < mask.size


@pytest.mark.parametrize("resolution", [64, 256])
@pytest.mark.parametrize("h,full", [
    (EigenfunctionHandle(E, Mode(2, 3), 0.35),
     lambda p, q: eval_psi_grid(2, 3, 0.35, p, q)),
    (EigenfunctionHandle(H, Mode(5, 2)), lambda p, q: eval_C(5, 2, p, q)),
    (EigenfunctionHandle(B, Mode(6, 1)),
     lambda p, q: eval_isosceles(6, 1, p, q))])
def test_masked_evaluation_keeps_the_values(h, full, resolution):
    basis, mask, (p, q) = _grid_values(h, resolution)
    assert np.array_equal(mix(basis, h.theta), full(p, q)[mask])


def test_hemiequilateral_counts():
    assert count(H, (2, 1), res=512).domain_count == 1
    assert count(H, (3, 1), res=512).domain_count == 2


def test_report_invariants():
    r = count(B, (4, 2), res=256)
    assert r.domain_count == r.positive_components + r.negative_components
    assert r.domain_count >= 1
    with pytest.raises(ValueError):
        count(B, (4, 2), res=32)
    with pytest.raises(ValueError):
        count_nodal_domains(
            EigenfunctionHandle(DomainKind.TORUS, Mode(1, 0)), 256)


@pytest.mark.parametrize("domain,pair,theta", [
    (E, (0, 0), 0.0),            # no eigenfunction: the zero function
    (E, (1, 1), 0.0),            # C_{1,1} vanishes identically
    (E, (2, 2), math.pi),        # so does sin(pi) S_{2,2}, up to rounding
    (E, (0, 3), math.pi / 2),    # not admissible
    (H, (1, 1), 0.0),            # not admissible: m > n is required
    (H, (2, 1), 0.7),            # hemiequilateral eigenfunctions do not mix
    (B, (2, 1), 0.7)])           # nor do right-isosceles ones
def test_handles_that_name_no_eigenfunction_are_rejected(domain, pair, theta):
    with pytest.raises(ValueError):
        count(domain, pair, theta)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_is_rejected(theta):
    with pytest.raises(ValueError, match="finite"):
        count(E, (2, 3), theta)


def test_swapped_pair_names_the_same_eigenfunction():
    # C_{n,m} = -C_{m,n}: the swap exchanges the two signs
    r, swapped = count(H, (3, 1)), count(H, (1, 3))
    assert (swapped.positive_components, swapped.negative_components,
            swapped.stable) == (r.negative_components, r.positive_components,
                                r.stable)
    assert count(E, (3, 1), math.pi / 2).domain_count == count(
        E, (1, 3), math.pi / 2).domain_count


@pytest.mark.parametrize("pair", [(1, 2), (2, 5)])
def test_swapped_right_isosceles_pair_exchanges_the_signs(pair):
    # sin(nx)sin(my) - sin(mx)sin(ny) is minus the (m, n) function exactly
    r, swapped = count(B, pair[::-1], res=128), count(B, pair, res=128)
    assert (swapped.positive_components, swapped.negative_components,
            swapped.stable) == (r.negative_components, r.positive_components,
                                r.stable)


def test_folding_identity_preserves_counts():
    # counting phi_{m,n}(x+y, x-y) on the half-square grid gives the same
    # result as counting phi_{m+n,m-n}(x, y)
    from scipy import ndimage

    from courant_lab.eigenfunction_eval import eval_isosceles
    from courant_lab.nodal_analysis import ZERO_BAND_REL

    res = 512
    x = np.linspace(0.0, math.pi, res)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    mask = (yy > 1e-12) & (xx - yy > 1e-12) & (math.pi - xx > 1e-12)
    four = ndimage.generate_binary_structure(2, 1)
    for m, n in ((2, 1), (3, 1), (3, 2)):
        vals = eval_isosceles(m, n, xx + yy, xx - yy)
        band = ZERO_BAND_REL * np.max(np.abs(vals[mask]))
        folded = (ndimage.label(mask & (vals > band), four)[1]
                  + ndimage.label(mask & (vals < -band), four)[1])
        assert folded == count(B, (m + n, m - n), res=res).domain_count


def test_verdict_counts_only_candidates_above_two(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    calls, grids = [], []
    sweep_counts, grid_values = nodal._sweep_counts, nodal._grid_values

    def record_sweep(h, resolution, thetas):
        calls.append((tuple(h.mode), len(thetas)))
        return sweep_counts(h, resolution, thetas)

    def record_grid(h, resolution):
        grids.append((tuple(h.mode), resolution))
        return grid_values(h, resolution)

    monkeypatch.setattr(nodal, "_sweep_counts", record_sweep)
    monkeypatch.setattr(nodal, "_grid_values", record_grid)
    assert nodal.courant_sharp_verdict(DomainKind.TORUS) == [(1, True), (2, True)]
    assert calls == grids == []
    nodal.courant_sharp_verdict(E, 128)
    # (1,2) at n = 2 is decided by the theorem; (2,2) and (3,3) are simple
    assert calls == [((2, 2), 1), ((1, 3), 3), ((2, 3), 5), ((3, 3), 1)]
    # one grid evaluation per candidate, whatever its number of angles
    assert grids == [((2, 2), 128), ((1, 3), 128), ((2, 3), 128), ((3, 3), 128)]


def test_verdict_refuses_a_candidate_with_two_pair_classes(monkeypatch):
    import courant_lab.nodal_analysis as nodal
    from courant_lab.pleijel_screening import screening_table

    def refused(*args):
        raise AssertionError("a candidate was counted")

    # right-isosceles lambda_19 = 65 = 7^2 + 4^2 = 8^2 + 1^2 is no candidate,
    # but were it one, counting min(row.modes) alone would miss (8, 1)
    (row,) = [r for r in screening_table(B) if r.min_index == 19]
    assert row.modes == ((7, 4), (8, 1))
    monkeypatch.setattr(nodal, "_sweep_counts", refused)
    monkeypatch.setattr(nodal, "candidates", lambda d: [row])
    with pytest.raises(AssertionError, match="more than one pair class"):
        nodal.courant_sharp_verdict(B)


def test_count_evaluates_one_grid_at_each_resolution(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    grids, grid_values = [], nodal._grid_values

    def record_grid(h, resolution):
        grids.append(resolution)
        return grid_values(h, resolution)

    monkeypatch.setattr(nodal, "_grid_values", record_grid)
    count_nodal_domains(EigenfunctionHandle(E, Mode(2, 3), 0.35), 128)
    assert grids == [128, 256]


def test_count_refuses_a_doubled_grid_above_the_cap_before_any_grid(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    def refused(h, resolution):
        raise AssertionError(f"a grid at {resolution} was built")

    monkeypatch.setattr(nodal, "_grid_values", refused)
    with pytest.raises(ValueError, match="<= 2048, got 2049"):
        count_nodal_domains(EigenfunctionHandle(E, Mode(2, 3)), 2049)


@pytest.mark.parametrize("d", [DomainKind.TORUS, B])
def test_verdict_enumerates_the_spectrum_once(monkeypatch, d):
    import sys

    from courant_lab import lattice_spectrum

    calls, original = [], lattice_spectrum.enumerate_spectrum

    def record(*args):
        calls.append(args)
        return original(*args)

    # every module that imported the function holds its own reference
    for name, module in list(sys.modules.items()):
        if (name.startswith("courant_lab")
                and getattr(module, "enumerate_spectrum", None) is original):
            monkeypatch.setattr(module, "enumerate_spectrum", record)
    courant_sharp_verdict(d, 64)
    assert len(calls) == 1


def test_verdict_fast_domains():
    assert courant_sharp_verdict(DomainKind.TORUS) == [(1, True), (2, True)]
    verdict = dict(courant_sharp_verdict(B))
    assert [n for n, s in verdict.items() if s] == [1, 2]
    verdict = dict(courant_sharp_verdict(H))
    assert [n for n, s in verdict.items() if s] == [1, 2]
