import math

import numpy as np
import pytest

from courant_lab.alcove_geometry import (DOMAINS, EDGE_TOL, AlcovePoint,
                                         DomainKind, weyl_coefficients)
from courant_lab.eigenfunction_eval import (EigenfunctionHandle,
                                            _certified_values, _grid_values,
                                            eval_C, eval_S, eval_isosceles,
                                            eval_psi, eval_psi_grid, mix,
                                            sign_grid)
from courant_lab.lattice_spectrum import Mode
from courant_lab.nodal_analysis import (_EDGES, BRENT_XTOL, EDGE_PAIRS,
                                        MERGE_TOL, ROOT_SAMPLES,
                                        CriticalZero, _brentq, _cos_sin,
                                        _edge_functions, _edge_tables,
                                        _k_theta, _max_count_over_thetas,
                                        _polyder, _polyval, _sweep_counts,
                                        _tangent_floor, _theta_partition,
                                        bifurcation_angle, bifurcations,
                                        count_nodal_domains,
                                        courant_sharp_verdict,
                                        edge_critical_zeros,
                                        edge_polynomials,
                                        edge_restriction_roots, find_roots,
                                        median_critical_zeros,
                                        median_fixed_points,
                                        polynomial_roots_unit_interval)
from oracles import in_domain, pullback_theta

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


# the table median_fixed_points derives, typed in: labels, order and floats
FIXED_POINT_TABLE = {
    (1, 3): [("F_C", (1 / 3, 1 / 3)), ("F_O", (1 / 4, 1 / 4)),
             ("F_A", (5 / 12, 1 / 3)), ("F_B", (1 / 3, 5 / 12))],
    (2, 3): [("F_C", (1 / 3, 1 / 3)), ("F_{1,O}", (1 / 5, 1 / 5)),
             ("F_{2,O}", (2 / 5, 2 / 5)), ("F_{1,A}", (7 / 15, 1 / 3)),
             ("F_{2,A}", (4 / 15, 1 / 3)), ("F_{1,B}", (1 / 3, 7 / 15)),
             ("F_{2,B}", (1 / 3, 4 / 15))]}


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_derived_fixed_points_are_the_typed_table(pair):
    got = [(f.label, (f.location.s, f.location.t)) for f in median_fixed_points(pair)]
    assert got == FIXED_POINT_TABLE[tuple(pair)]


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_on_the_median_c_vanishes_and_s_is_a_product_of_sines(pair):
    # the facts median_fixed_points derives its points from
    m, n = pair
    for v in np.linspace(0.01, 0.49, 25):
        assert abs(eval_C(m, n, v, v)) < 1e-13
        product = -8 * math.sin(math.pi * m * v) * math.sin(math.pi * n * v) \
            * math.sin(math.pi * (m + n) * v)
        assert eval_S(m, n, v, v) == pytest.approx(product, abs=1e-13)


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


def sampled(f, lo, hi, df=None):
    """f's samples, and df's or None, at linspace(lo, hi, ROOT_SAMPLES), as
    find_roots takes them."""
    xs = np.linspace(lo, hi, ROOT_SAMPLES)
    return xs, f(xs), None if df is None else df(xs)


def _record_scans(monkeypatch):
    """Every find_roots call from now on, as (f, samples, df, bounds), and
    every read of its tangential pass, as _tangent_floor's (xs, ys, dys,
    bounds), each in call order."""
    import courant_lab.nodal_analysis as nodal

    calls, reads = [], []
    original, floor = nodal.find_roots, nodal._tangent_floor

    def record(f, samples, df=None, bounds=None):
        calls.append((f, samples, df, bounds))
        return original(f, samples, df=df, bounds=bounds)

    def read(xs, ys, dys, bounds):
        reads.append((xs, ys, dys, bounds))
        return floor(xs, ys, dys, bounds)

    monkeypatch.setattr(nodal, "find_roots", record)
    monkeypatch.setattr(nodal, "_tangent_floor", read)
    return calls, reads


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_polynomial_and_median_scans_sample_f_and_df_bit_for_bit(monkeypatch, pair):
    # the scans that evaluate their own functions on the sample array, P_C,
    # P_S and P_W on [-1, 1] and the median's g from 0.05, hand find_roots
    # f(xs), and df(xs) where there is one, at xs = linspace(lo, hi,
    # ROOT_SAMPLES)
    calls, _ = _record_scans(monkeypatch)
    for which in ("P_C", "P_S", "P_W"):
        polynomial_roots_unit_interval(pair, which)
    median_critical_zeros(pair, "C")
    ranges = [(-1.0, 1.0)] * 3 + [(0.05, 1.0 - 1e-6)]
    assert len(calls) == len(ranges)
    assert [df is None for _, _, df, _ in calls] == [False, False, False, True]
    for (f, (xs, ys, dys), df, _), (lo, hi) in zip(calls, ranges):
        assert np.array_equal(xs, np.linspace(lo, hi, ROOT_SAMPLES))
        assert np.array_equal(ys, f(xs))
        assert dys is None if df is None else np.array_equal(dys, df(xs))


def test_a_tangent_root_just_under_the_threshold_is_solved(monkeypatch):
    # S_{2,3} touches zero at u = 0.2 on the chord s + t = 2/5.  Shifted by
    # 0.9 times the threshold toward its sign there, the chord keeps a
    # tangent root at 0.2 with |f| just under the threshold, and the floor
    # must let find_roots solve it
    calls, _ = _record_scans(monkeypatch)
    assert edge_restriction_roots((2, 3), 2 / 5, math.pi / 2) == pytest.approx([0.2], abs=1e-10)
    (f, (xs, ys, dys), df, bounds), = calls
    shift = math.copysign(0.9e-9 * np.max(np.abs(ys)), f(0.2 + 1e-3))
    shifted = ys + shift
    threshold = 1e-9 * np.max(np.abs(shifted))
    roots = find_roots(lambda u: f(u) + shift, (xs, shifted, dys), df=df,
                       bounds=(bounds[0] + abs(shift), bounds[1]))
    tangent = [r for r in roots if abs(r - 0.2) < 1e-10]
    assert len(tangent) == 1 and 0.5 * threshold < abs(f(tangent[0]) + shift) < threshold


def test_a_tangent_root_between_flat_samples_is_solved():
    # f = 1 - depth / (1 + ((x - x0) / w)^2) dips to 5e-10, half the
    # threshold, between two samples where |f| is near 1 and |f'| h is near
    # 0.02; only the floor's d^2 M2 / 2 term, with |f''| <= 2 depth / w^2,
    # keeps the solve
    xs = np.linspace(0.0, 1.0, ROOT_SAMPLES)
    x0, w, depth = (xs[2000] + xs[2001]) / 2, xs[1] / 20, 1.0 - 5e-10

    def f(x):
        return 1.0 - depth / (1.0 + ((x - x0) / w) ** 2)

    def df(x):
        return 2.0 * depth * (x - x0) / w ** 2 / (1.0 + ((x - x0) / w) ** 2) ** 2

    roots = find_roots(f, sampled(f, 0.0, 1.0, df), df=df,
                       bounds=(1.0 + depth, 2.0 * depth / w ** 2))
    assert roots == [pytest.approx(x0, abs=1e-12)]


def test_skipped_tangential_solves_could_not_give_a_root(monkeypatch):
    # on every scan with a derivative, each bracket of df's samples that the
    # floor lets find_roots skip, solved as the tangential pass solved every
    # bracket before, gives a root of df where |f| is at or above the
    # threshold, so it would have been thrown away; the floor is below |f|
    # on dense samples of the bracket widened by MERGE_TOL; and the caller's
    # M2 is above |f''|, by central differences of df, on dense samples of
    # the range (to their rounding: M2 = 8 = P_C'' is exact for (1,3)).  The
    # scans are the root digest's, then the CI's fixed sweeps: (2,3)'s edges
    # at 100 angles and 100 chords
    from test_root_digest import root_reprs

    calls, reads = _record_scans(monkeypatch)
    root_reprs()
    for j in range(1, 101):
        edge_critical_zeros((2, 3), math.pi / 6 * j / 100)
    for j in range(100):
        edge_restriction_roots((1, 3) if j % 2 else (2, 3), 0.05 + 0.9 * j / 99,
                               math.pi * j / 99)
    scans = [call for call in calls if call[2] is not None]
    assert len(scans) == len(reads)
    skipped = solved = 0
    for (f, _, df, bounds), (xs, ys, dys, _) in zip(scans, reads):
        lo, hi = xs[0], xs[-1]
        threshold = 1e-9 * (float(np.max(np.abs(ys))) or 1.0)
        brackets, floor = _tangent_floor(xs, ys, dys, bounds)
        skip = floor > threshold
        for i in brackets[skip]:
            assert abs(f(_brentq(df, xs[i], xs[i + 1], xtol=BRENT_XTOL))) >= threshold
        dense = np.clip(np.linspace(xs[brackets[skip]] - MERGE_TOL,
                                    xs[brackets[skip] + 1] + MERGE_TOL, 17, axis=-1),
                        lo, hi)
        assert np.all(floor[skip, None] <= np.abs(f(dense)))
        u, eta = np.linspace(lo, hi, ROOT_SAMPLES // 4)[1:-1], (hi - lo) * 1e-6
        assert np.max(np.abs(df(u + eta) - df(u - eta))) / (2 * eta) <= bounds[1] * (1 + 1e-6)
        skipped, solved = skipped + np.count_nonzero(skip), solved + np.count_nonzero(~skip)
    assert (skipped, solved) == (3697, 2)


@pytest.mark.parametrize("pair", EDGE_PAIRS)
@pytest.mark.parametrize("theta", [1e-300, 0.1, bifurcation_angle()[1], math.pi / 6])
def test_edge_scans_sample_k_and_dk_bit_for_bit(monkeypatch, pair, theta):
    # the samples edge_critical_zeros hands to find_roots are _k_theta's k
    # and dk at the edge's samples, for its sign, and the tangential pass
    # reads those very arrays
    calls, reads = _record_scans(monkeypatch)
    edge_critical_zeros(pair, theta)
    assert len(calls) == len(reads) == len(_EDGES)
    for (_, sign, (lo, hi), _), (_, (xs, ys, dys), df, bounds), tangent in zip(
            _EDGES, calls, reads):
        k, dk, _ = _k_theta(pair, theta, sign)
        assert (xs[0], xs[-1]) == (lo, hi)
        assert np.array_equal(xs, np.linspace(lo, hi, ROOT_SAMPLES))
        assert np.array_equal(ys, k(xs)) and np.array_equal(dys, dk(xs))
        assert tangent[0] is xs and tangent[1] is ys and tangent[2] is dys
        assert tangent[3] == bounds
    # each range's tables combine with either sign into k's and dk's bits
    ct, st = math.cos(theta), math.sin(theta)
    for _, _, (lo, hi), _ in _EDGES:
        xs, gc_xs, gs_xs, dgc_xs, dgs_xs = _edge_tables(pair, lo, hi)
        gc_u, gs_u = _edge_values(pair, xs)
        assert np.array_equal(gc_xs, gc_u) and np.array_equal(gs_xs, gs_u)
        assert np.array_equal(gc_xs, _gc_typed(tuple(pair), xs))
        assert np.array_equal(gs_xs, _gs_typed(tuple(pair), xs))
        assert np.array_equal(dgc_xs, _gc_prime_typed(tuple(pair), xs))
        assert np.array_equal(dgs_xs, _gs_prime_typed(tuple(pair), xs))
        for sign in (+1, -1):
            k, dk, _ = _k_theta(pair, theta, sign)
            assert np.array_equal(ct * gc_xs + sign * st * gs_xs, k(xs))
            assert np.array_equal(ct * dgc_xs + sign * st * dgs_xs, dk(xs))


@pytest.mark.parametrize("pair, a, theta", [((1, 3), 2 / 3, 0.0), ((2, 3), 2 / 5, math.pi / 2),
                                            ((2, 3), 0.7, 0.4), ((1, 3), 0.31, 2.9)])
def test_chord_scan_samples_the_restriction_bit_for_bit(monkeypatch, pair, a, theta):
    # one eval_psi call gives f's samples, eval_psi_grid's bits, and df's,
    # and the tangential pass reads those very arrays
    calls, reads = _record_scans(monkeypatch)
    edge_restriction_roots(pair, a, theta)
    (_, (xs, ys, dys), df, bounds), = calls
    assert np.array_equal(xs, np.linspace(xs[0], xs[-1], ROOT_SAMPLES))
    assert np.array_equal(ys, eval_psi_grid(*pair, theta, xs, a - xs))
    r = eval_psi(EigenfunctionHandle(E, Mode(*pair), theta), xs, a - xs)
    assert np.array_equal(dys, r.grad_s - r.grad_t)
    (tangent,) = reads
    assert tangent[0] is xs and tangent[1] is ys and tangent[2] is dys
    assert tangent[3] == bounds


def test_edge_tables_are_built_once_per_pair_and_range():
    import courant_lab.nodal_analysis as nodal

    nodal._edge_tables.cache_clear()
    for theta in np.linspace(math.pi / 6 / 200, math.pi / 6, 200):
        for pair in EDGE_PAIRS:
            edge_critical_zeros(pair, float(theta))
    # OA and OB scan one range, BA another
    assert nodal._edge_tables.cache_info().currsize == 4
    for pair in EDGE_PAIRS:
        for _, _, (lo, hi), _ in _EDGES:
            assert not any(table.flags.writeable for table in _edge_tables(pair, lo, hi))
    assert nodal._edge_tables.cache_info().misses == 4


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


# sigma of edge_polynomials: the content of the C quotient, with its sign
_SIGMA = {(1, 3): -4.0, (2, 3): -8.0}


# The hand-typed edge sums fc and fs: sigma (cos 3 pi u - 1) times gc and gs,
# and the sums whose Wronskian must be 16 pi P_W(cos 3 pi u).
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


def _edge_values(pair, u):
    """The library's (gc, gs) at u: _edge_functions' values at cos pi u
    and sin pi u, as bifurcations reads them."""
    return _edge_functions(Mode(*pair))[0](*_cos_sin(u))


# gc and gs and their derivatives, written out from the typed P_C and P_S in
# the operation order of _edge_functions, which must give their bits: gc = s
# (c - 1) P_C(c) and gs = P_S(c), c = cos pi u and s = sin pi u.
def _gc_typed(pair, u):
    return np.sin(PI * u) * (np.cos(PI * u) - 1.0) * _polyval(_P_C[pair], np.cos(PI * u))


def _gs_typed(pair, u):
    return _polyval(_P_S[pair], np.cos(PI * u))


def _gc_prime_typed(pair, u):
    c = np.cos(PI * u)
    s = np.sin(PI * u)
    p_c = _P_C[pair]
    g = (c - 1.0) * _polyval(p_c, c)
    dg = _polyval(p_c, c) + (c - 1.0) * _polyval(_polyder(p_c), c)
    return PI * (c * g - s * s * dg)


def _gs_prime_typed(pair, u):
    c = np.cos(PI * u)
    return -PI * np.sin(PI * u) * _polyval(_polyder(_P_S[pair]), c)


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
    gc_u, gs_u = _edge_values(pair, u)
    direct = gc_u * _gs_prime_typed(pair, u) - gs_u * _gc_prime_typed(pair, u)
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
    def w(u):
        return 16.0 * PI * _polyval(p_w, np.cos(3.0 * PI * u))

    found = find_roots(w, sampled(w, -1 / 6 + 1e-9, 1.5))
    # discard noise-level brackets right at the even-order contacts
    found = [r for r in found
             if min(abs(r - c) for c in (0.0, 2 / 3, 4 / 3)) > 0.01]
    assert found == pytest.approx(simple, abs=1e-9)
    assert 1 / 3 + u0 == pytest.approx(0.3912873205, abs=1e-8)


@pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
@pytest.mark.parametrize("name, typed", [("gc", _fc_typed), ("gs", _fs_typed)])
def test_edge_functions_times_the_vertex_factor(pair, name, typed):
    u = np.linspace(-2.0, 2.0, 20001)
    reduced = dict(zip(("gc", "gs"), _edge_values(pair, u)))[name]
    full = _SIGMA[pair] * (np.cos(3 * PI * u) - 1.0) * reduced
    expected = typed(pair, u)
    assert np.max(np.abs(full - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("pair", EDGE_PAIRS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("theta", [1e-12, 0.1, bifurcation_angle()[1], PI / 6])
def test_k_theta_is_the_edge_function_combination(pair, sign, theta):
    # bit for bit on each edge's scanned samples: K is cos(theta) gc + sign
    # sin(theta) gs, and dK the same combination of the typed derivatives
    k, dk, _ = _k_theta(pair, theta, sign)
    ct, st = math.cos(theta), math.sin(theta)
    for _, _, (lo, hi), _ in _EDGES:
        u = np.linspace(lo, hi, ROOT_SAMPLES)
        gc_u, gs_u = _edge_values(pair, u)
        assert np.array_equal(k(u), ct * gc_u + sign * st * gs_u)
        assert np.array_equal(dk(u), ct * _gc_prime_typed(pair, u)
                              + sign * st * _gs_prime_typed(pair, u))


@pytest.mark.parametrize("pair", EDGE_PAIRS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("theta", [1e-300, 0.1, bifurcation_angle()[1], PI / 6])
def test_k_theta_scalar_reads_are_the_array_reads(pair, sign, theta):
    # k and dk at a Python float are Python floats with the bits of the same
    # sample read in an array, at every sample of each edge's range
    k, dk, _ = _k_theta(pair, theta, sign)
    for _, _, (lo, hi), _ in _EDGES:
        u = np.linspace(lo, hi, ROOT_SAMPLES)
        for read in (k, dk):
            values = [read(x) for x in u.tolist()]
            assert {type(v) for v in values} == {float}
            assert np.array(values).tobytes() == read(u).tobytes()


def test_bifurcation_angle_digits():
    assert bifurcation_angle()[1] == 0.3005211736685075


def test_bifurcation_angle():
    u_b, theta_c = bifurcation_angle()
    assert u_b == pytest.approx(0.3912873205, abs=1e-8)
    assert theta_c == pytest.approx(0.3005211736, abs=1e-8)
    # K_+ has a double zero at u_b for theta_c
    def k(u):
        return (math.cos(theta_c) * _fc_typed((2, 3), u)
                + math.sin(theta_c) * _fs_typed((2, 3), u))

    assert abs(k(u_b)) < 1e-12
    eps = 1e-6
    kp = (k(u_b + eps) - k(u_b - eps)) / (2 * eps)
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
    roots = (find_roots(np.sin, sampled(np.sin, 1.0, 7.0, np.cos), df=np.cos,
                        bounds=(1.0, 1.0))
             + polynomial_roots_unit_interval((2, 3), "P_W")
             + [z.parameter_u for z in edge_critical_zeros((2, 3), 0.1)])
    assert {type(r) for r in roots} == {float}


def _calls(f):
    """f, and the list of the points it is called at, in order."""
    xs = []

    def traced(x):
        xs.append(x)
        return f(x)
    return traced, xs


# (f, a, b): brackets built for each branch of Brent's step, counted on a
# copy that tallies them: a line takes one secant step, atan 23 and a signed
# square root 27 (some near the cap 3|sbis| on an accepted step), Brent's
# cubic secant and inverse quadratic steps, the flat cubic 3 refused
# interpolations among them, and a sign function only bisections; e^x - 2
# gets its bracket reversed
BRENT_BRACKETS = [
    (lambda x: 3.0 * x - 1.0, 0.0, 1.0),
    (lambda x: math.atan(1e6 * (x - 0.3)), 0.0, 1.0),
    (lambda x: math.copysign(math.sqrt(abs(x - 0.3)), x - 0.3), 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: (x - 0.3) ** 3 + 1e-3 * (x - 0.3), 0.0, 1.0),
    (lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0),
    (lambda x: math.exp(x) - 2.0, 2.0, 0.0),
    # an endpoint that is an exact zero, either end
    (lambda x: x - 1.0, 0.0, 1.0),
    (lambda x: x - 1.0, 1.0, 2.0),
]


@pytest.mark.parametrize("f, a, b", BRENT_BRACKETS)
def test_brent_step_is_scipys_bit_for_bit(f, a, b):
    from scipy.optimize import brentq

    port, port_xs = _calls(f)
    ref, ref_xs = _calls(f)
    root = _brentq(port, a, b, xtol=1e-13)
    assert type(root) is float
    assert root.hex() == brentq(ref, a, b, xtol=1e-13).hex()
    assert port_xs == ref_xs


def test_brent_step_raises_as_scipy_does():
    from scipy.optimize import brentq

    with pytest.raises(ValueError, match="different signs"):
        brentq(math.cos, 0.0, 1.0, xtol=1e-13)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(math.cos, 0.0, 1.0, xtol=1e-13)
    # a triple root: interpolation creeps, and 100 iterations do not reach
    # xtol on either side
    with pytest.raises(RuntimeError):
        brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0, xtol=1e-13)
    with pytest.raises(RuntimeError, match="did not converge"):
        _brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0, xtol=1e-13)


def test_find_roots_brackets_give_scipys_roots(monkeypatch):
    # all 44 brackets find_roots solves on the way to the edge zeros, the
    # P_W roots and a chord's roots, solved by both
    from scipy.optimize import brentq

    import courant_lab.nodal_analysis as nodal

    brackets = []

    def both(f, a, b, xtol):
        root = _brentq(f, a, b, xtol=xtol)
        brackets.append((root, brentq(f, a, b, xtol=xtol)))
        return root

    monkeypatch.setattr(nodal, "_brentq", both)
    for pair in EDGE_PAIRS:
        for theta in (1e-12, math.pi / 12, bifurcation_angle()[1], math.pi / 6):
            edge_critical_zeros(pair, theta)
        bifurcations(pair)
        edge_restriction_roots(pair, 0.7, 0.4)
    assert len(brackets) == 44
    assert all(root.hex() == ref.hex() for root, ref in brackets)


def test_root_scans_round_within_a_tenth_of_the_margin(monkeypatch):
    # the premise of the floor's margin (_tangent_floor): each sample of f,
    # and d = h/2 + MERGE_TOL times each sample of f', is within 1e-13 M0 of
    # the true value, a tenth of ROUNDING M0, against 40-digit mpmath (f'
    # by mpmath's differentiation) on chords, edges and the reduction
    # polynomials
    import mpmath as mp

    _, reads = _record_scans(monkeypatch)
    truths = []
    for pair, a, theta in [((1, 3), 0.05, 2.9), ((2, 3), 0.5, 0.4), ((2, 3), 0.95, PI / 2)]:
        edge_restriction_roots(pair, a, theta)
        # cos(theta) cos(phase) + sin(theta) sin(phase) = cos(phase - theta)
        truths.append(lambda u, a=a, theta=theta, terms=weyl_coefficients(*pair): sum(
            sign * mp.cos(2 * mp.pi * (ta * u + tb * (a - u)) - theta)
            for sign, ta, tb in terms))
    for pair in EDGE_PAIRS:
        p_c, p_s = (list(reversed(p)) for p in edge_polynomials(pair)[:2])
        for theta in (1e-300, 0.1, PI / 6):
            edge_critical_zeros(pair, theta)
            truths += [lambda u, sign=sign, theta=theta, p_c=p_c, p_s=p_s: (
                mp.cos(theta) * mp.sinpi(u) * (mp.cospi(u) - 1) * mp.polyval(p_c, mp.cospi(u))
                + sign * mp.sin(theta) * mp.polyval(p_s, mp.cospi(u)))
                for _, sign, _, _ in _EDGES]
        for which, coeffs in zip(("P_C", "P_S", "P_W"), edge_polynomials(pair)):
            polynomial_roots_unit_interval(pair, which)
            truths.append(lambda x, coeffs=list(reversed(coeffs)): mp.polyval(coeffs, x))
    assert len(truths) == len(reads)
    with mp.workdps(40):
        for truth, (xs, ys, dys, (size, _)) in zip(truths, reads):
            d = (xs[1] - xs[0]) / 2 + MERGE_TOL
            for i in range(0, ROOT_SAMPLES, 113):
                x = mp.mpf(float(xs[i]))
                assert abs(ys[i] - truth(x)) <= 1e-13 * size
                assert d * abs(dys[i] - mp.diff(truth, x)) <= 1e-13 * size


def test_boundary_zero_sets_symmetric_under_pullback():
    # Psi vanishes identically along the boundary edges, so the meaningful
    # 1-D zero set on an edge is that of the normal-derivative function K.
    # sigma2 maps edge [OA] to itself reversing the parameter: zeros of
    # K for theta at u must reappear for the pulled-back angle at 2/3 - u.
    for pair in ((1, 3), (2, 3)):
        theta = 0.2
        new, _ = pullback_theta(2, Mode(*pair), theta)
        k_orig = _k_theta(Mode(*pair), theta, +1)[0]
        k_pull = _k_theta(Mode(*pair), new, +1)[0]
        za = find_roots(k_orig, sampled(k_orig, 1e-6, 2 / 3 - 1e-6))
        zb = find_roots(k_pull, sampled(k_pull, 1e-6, 2 / 3 - 1e-6))
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
            gc_u, gs_u = _edge_values(pair, u)
            theta = math.atan2(-gc_u, sign * gs_u)
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


def grid(h, resolution):
    """_grid_values' basis, its mask and the coordinate grids (x[i], x[j])
    of its samples, the references' inputs."""
    basis = _grid_values(h, resolution)
    return basis, basis.mask, np.meshgrid(basis.x, basis.x, indexing="ij")


@pytest.mark.parametrize("d", [E, B, H])
def test_grid_mask_is_the_strict_domain_predicate(d):
    pair = {E: (1, 2), B: (3, 1), H: (2, 1)}[d]
    _, mask, (p, q) = grid(EigenfunctionHandle(d, Mode(*pair)), 64)
    expected = [[in_domain(d, (p[i, j], q[i, j]), strict=True)
                 for j in range(64)] for i in range(64)]
    assert mask.tolist() == expected
    assert 0 < mask.sum() < mask.size


@pytest.mark.parametrize("resolution", [255, 256, 511, 512, 640, 1023, 1024,
                                        2048, 4096])
@pytest.mark.parametrize("d", [E, B, H])
def test_grid_mask_is_the_domain_predicate_at_the_resolutions_used(d, resolution):
    pair = {E: (1, 2), B: (3, 1), H: (2, 1)}[d]
    _, mask, (p, q) = grid(EigenfunctionHandle(d, Mode(*pair)), resolution)
    x = p[:, 0]
    assert np.array_equal(x, q[0])
    assert np.array_equal(mask, DOMAINS[d].inside(x[:, None], x[None, :], -EDGE_TOL))


def test_inside_sample_counts_at_256():
    # the grid points the CI's traced plots evaluate, per triangle
    counts = {d: int(_grid_values(EigenfunctionHandle(d, Mode(*pair)), 256).mask.sum())
              for d, pair in ((E, (1, 2)), (H, (2, 1)), (B, (3, 1)))}
    assert counts == {E: 24257, H: 12033, B: 32131}


def pointwise(h, s, t):
    """The handle's eigenfunction at the samples (s, t), each evaluated
    alone by the elementwise evaluators: the whole-grid oracle for a grid's
    table values and read-backs."""
    m, n = h.mode
    if h.domain is B:
        return eval_isosceles(m, n, s, t)
    if h.domain is H:
        return eval_C(m, n, s, t)
    return eval_psi_grid(m, n, h.theta, s, t)


@pytest.mark.parametrize("resolution", [64, 256, 511, 1024])
@pytest.mark.parametrize("h,full", [
    (EigenfunctionHandle(E, Mode(2, 3), 0.35),
     lambda p, q: eval_psi_grid(2, 3, 0.35, p, q)),
    (EigenfunctionHandle(H, Mode(5, 2)), lambda p, q: eval_C(5, 2, p, q)),
    (EigenfunctionHandle(B, Mode(6, 1)),
     lambda p, q: eval_isosceles(6, 1, p, q))])
def test_masked_evaluation_keeps_the_values(h, full, resolution):
    basis, mask, (p, q) = grid(h, resolution)
    every = np.arange(mask.sum())
    assert np.array_equal(basis.exact_at(h.theta, every), full(p, q)[mask])


@pytest.mark.parametrize("resolution", [64, 511])
@pytest.mark.parametrize("pair", [(2, 3), (1, 2)])
def test_single_angle_at_zero_evaluates_c_only(pair, resolution):
    h = EigenfunctionHandle(E, Mode(*pair))
    basis, mask, (p, q) = grid(h, resolution)
    # the sums mixed at theta 0 have the bits of C alone
    mixed = basis.exact_at(0.0, np.arange(mask.sum()))
    c = eval_C(*pair, p[mask], q[mask])
    assert np.array_equal(mixed, c)
    assert np.array_equal(np.signbit(mixed), np.signbit(c))
    expected = count_nodal_domains(h, resolution)
    sweep = _sweep_counts(h, resolution, [0.0, 0.1])
    assert sweep[0] == (expected.positive_components, expected.negative_components)


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
    monkeypatch.setattr(nodal, "VERDICT_RESOLUTION", 128)
    nodal.courant_sharp_verdict(E)
    # (1,2) at n = 2 is decided by the theorem; (2,2) and (3,3) are simple
    assert calls == [((2, 2), 1), ((1, 3), 3), ((2, 3), 5), ((3, 3), 1)]
    # one grid evaluation per candidate, whatever its number of angles
    assert grids == [((2, 2), 128), ((1, 3), 128), ((2, 3), 128), ((3, 3), 128)]


def test_count_refuses_a_doubled_grid_above_the_cap_before_any_grid(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    def refused(h, resolution):
        raise AssertionError(f"a grid at {resolution} was built")

    monkeypatch.setattr(nodal, "_grid_values", refused)
    with pytest.raises(ValueError, match="<= 2048, got 2049"):
        count_nodal_domains(EigenfunctionHandle(E, Mode(2, 3)), 2049)


class _TableStub:
    """A basis whose table values are given: exact_at reads the sums and
    records the samples read."""

    def __init__(self, exact, table, delta):
        self.exact, self.table, self.delta, self.read = exact, table, delta, []

    def separable(self, theta):
        return self.table.copy(), self.delta

    def exact_at(self, theta, idx):
        self.read += idx.tolist()
        return self.exact[idx]


def test_certificate_reads_the_sums_at_the_top_and_the_band_edge():
    import courant_lab.nodal_analysis as nodal

    delta = 1e-9
    # the largest sum at 0, the largest table value at 1; the sum at 2 is
    # just above the band 1e-5, its table value just below; 3 and 4 are far
    # from both
    exact = np.array([1.0, 1.0 - 0.5 * delta, 1e-5 + 0.1 * delta, -0.5, 2e-6])
    table = exact + np.array([-0.9, 0.9, -0.6, 0.9, -0.9]) * delta
    stub = _TableStub(exact, table, delta)
    mask = np.ones((1, 5), dtype=bool)
    values, band = _certified_values(stub, 0.3, nodal.ZERO_BAND_REL)
    assert sorted(set(stub.read)) == [0, 1, 2]
    assert np.max(np.abs(values)) == 1.0 and band == nodal.ZERO_BAND_REL
    assert sign_grid(values, band, mask).tolist() == [[1, 1, 1, -1, 0]]
    # the table alone, banded at its own largest |value|, misreads sample 2
    table_band = nodal.ZERO_BAND_REL * np.max(np.abs(table))
    assert sign_grid(table, table_band, mask).tolist() == [[1, 1, 0, -1, 0]]


# the benchmark gallery's modes and angles on each triangle
FAMILY_THETAS = [j * math.pi / 48 for j in range(1, 9)]
GALLERY = {
    E: [((1, 3), FAMILY_THETAS), ((2, 3), FAMILY_THETAS),
        *[(pair, [math.pi / 10, math.pi / 7, math.pi / 4])
          for pair in ((1, 2), (1, 4), (2, 5), (3, 4), (1, 5), (3, 5), (4, 5))]],
    H: [(pair, [0.0]) for pair in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
                                   (5, 1), (5, 2), (5, 3))],
    B: [(pair, [0.0]) for pair in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1),
                                   (5, 2), (5, 4), (6, 1))],
}


def _check_certified_signs(d, pair, thetas, resolution):
    """The certified sign grid is the sign grid of the sums at each angle, its
    largest |value| is theirs, its band is ZERO_BAND_REL times that value,
    and the table is well within delta of them."""
    import courant_lab.nodal_analysis as nodal

    h = EigenfunctionHandle(d, Mode(*pair), thetas[0])
    basis, mask, (p, q) = grid(h, resolution)
    # the sums at every inside sample (pointwise), C and S taken once
    s, t = p[mask], q[mask]
    sums = (eval_C(*pair, s, t), eval_S(*pair, s, t)) if d is E else (pointwise(h, s, t),)
    for theta in thetas:
        exact = mix(sums, theta)
        table, delta = basis.separable(theta)
        assert np.max(np.abs(table - exact)) <= delta / 10, (pair, theta)
        values, band = _certified_values(basis, theta, nodal.ZERO_BAND_REL)
        assert np.max(np.abs(values)) == np.max(np.abs(exact)), (pair, theta)
        assert band == nodal.ZERO_BAND_REL * np.max(np.abs(exact)), (pair, theta)
        assert np.array_equal(sign_grid(values, band, mask),
                              sign_grid(exact, band, mask)), (pair, theta)


@pytest.mark.parametrize("resolution", [512, 1023, 1024])
@pytest.mark.parametrize("d", [E, H, B])
def test_certified_signs_on_every_verdict_candidate(d, resolution):
    from courant_lab.pleijel_screening import candidates

    for n, modes in candidates(d):
        if n > 2:
            pair = min(modes)
            _check_certified_signs(d, pair, _theta_partition(d, pair), resolution)


@pytest.mark.parametrize("resolution", [512, 1024])
@pytest.mark.parametrize("d", [E, H, B])
def test_certified_signs_on_the_gallery_modes(d, resolution):
    for pair, thetas in GALLERY[d]:
        _check_certified_signs(d, pair, thetas, resolution)


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


def test_verdict_refuses_a_candidate_with_two_pair_classes(monkeypatch):
    import courant_lab.nodal_analysis as nodal
    from courant_lab.pleijel_screening import screening_table

    def refused(*args):
        raise AssertionError("a candidate was counted")

    # right-isosceles lambda_19 = 65 = 7^2 + 4^2 = 8^2 + 1^2 is no candidate,
    # but were it one, counting min(modes) alone would miss (8, 1)
    s, _ = screening_table(B)
    (i,) = (s.min_index == 19).nonzero()[0]
    assert s.modes[s.min_index[i] - 1:s.max_index[i]].tolist() == [[7, 4], [8, 1]]
    monkeypatch.setattr(nodal, "_sweep_counts", refused)
    monkeypatch.setattr(nodal, "candidates", lambda d: [(19, ((7, 4), (8, 1)))])
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
    import courant_lab.nodal_analysis as nodal

    monkeypatch.setattr(nodal, "VERDICT_RESOLUTION", 64)
    courant_sharp_verdict(d)
    assert len(calls) == 1


def test_verdict_fast_domains():
    assert courant_sharp_verdict(DomainKind.TORUS) == [(1, True), (2, True)]
    verdict = dict(courant_sharp_verdict(B))
    assert [n for n, s in verdict.items() if s] == [1, 2]
    verdict = dict(courant_sharp_verdict(H))
    assert [n for n, s in verdict.items() if s] == [1, 2]

