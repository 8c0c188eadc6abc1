import math
import random

import numpy as np
import pytest
from scipy import ndimage

from courant_lab.alcove_geometry import (DOMAINS, EDGE_TOL, AlcovePoint,
                                         DomainKind, weyl_coefficients)
from courant_lab.eigenfunction_eval import (EigenfunctionHandle, _grid_values,
                                            eval_C, eval_S, eval_isosceles,
                                            eval_psi, eval_psi_grid, mix,
                                            sign_grid)
from courant_lab.lattice_spectrum import Mode
from courant_lab.nodal_analysis import (_CELL_ENDS, _EDGES, BRENT_XTOL,
                                        CHORD_STRIDE, EDGE_PAIRS,
                                        MERGE_TOL, ROOT_SAMPLES, ROUNDING,
                                        ZERO_BAND_REL,
                                        CriticalZero, _brentq,
                                        _chord_functions, _cos_sin,
                                        _edge_functions, _edge_tables,
                                        _cell_test, _k_theta,
                                        _max_count_over_thetas, _polyder,
                                        _polyval, _theta_partition,
                                        _tiled_count, _top_runs,
                                        bifurcation_angle, bifurcations,
                                        count_nodal_domains,
                                        courant_sharp_verdict,
                                        edge_critical_zeros,
                                        edge_polynomials,
                                        edge_restriction_roots, find_roots,
                                        median_critical_zeros,
                                        median_fixed_points,
                                        polynomial_roots_unit_interval)
from oracles import band_signs, in_domain, pullback_theta, sweep_counts

E = DomainKind.EQUILATERAL
B = DomainKind.RIGHT_ISOSCELES
H = DomainKind.HEMIEQUILATERAL
# bifurcation_angle()'s theta_c (test_bifurcation_angle_digits), written out
# so that collecting this module runs no root scan
THETA_C = 0.3005211736685075


# ---------------------------------------------------------------------------
# tiled counts and the verdict's top-run bound
# ---------------------------------------------------------------------------

# the verdict rows above n = 2 whose pair tiles a lambda_1 pair, g = 2 or 3
TILED_ROWS = [(E, (2, 2), 4), (E, (3, 3), 9), (B, (4, 2), 4), (H, (4, 2), 4)]


def test_a_bound_of_n_is_labelled_and_reaches_the_count():
    # (2,2) at pi/2 has 1 + 3 domains and a top-run bound of exactly 4: an
    # angle whose bound is n is labelled, both signs read
    basis = _grid_values(EigenfunctionHandle(E, Mode(2, 2), math.pi / 2), 512)
    signs = sign_grid(basis, math.pi / 2, ZERO_BAND_REL)
    assert sum(_top_runs(signs)) == 4
    assert _max_count_over_thetas(E, Mode(2, 2), 512, 4) == 4


@pytest.mark.parametrize("d,pair,count", TILED_ROWS)
def test_tiled_count_is_the_grid_count_at_1024(d, pair, count):
    from courant_lab.pleijel_screening import candidates

    assert _tiled_count(d, Mode(*pair), candidates(d)) == count
    thetas = _theta_partition(d, Mode(*pair))
    counts = sweep_counts(EigenfunctionHandle(d, Mode(*pair), thetas[0]), 1024, thetas)
    assert [pos + neg for pos, neg in counts] == [count] * len(thetas)


@pytest.mark.parametrize("d", [E, H, B])
def test_the_tiled_verdict_rows_are_the_four_known(d):
    from courant_lab.pleijel_screening import candidates

    rows = candidates(d)
    tiled = [(d, tuple(min(modes)), _tiled_count(d, min(modes), rows))
             for n, modes in rows if n > 2 and _tiled_count(d, min(modes), rows)]
    assert tiled == [row for row in TILED_ROWS if row[0] is d]


def test_tiled_count_refuses_a_primitive_pair_whose_count_is_unknown():
    from courant_lab.pleijel_screening import candidates

    rows = candidates(E)
    # (2,6) = 2 (1,3), and (1,3) is lambda_5, whose count is not known
    assert _tiled_count(E, Mode(2, 6), rows) is None
    assert _tiled_count(E, Mode(1, 3), rows) is None
    # (4,2) = 2 (2,1) and (2,4) tile the equilateral lambda_2 pair (1,2)
    assert _tiled_count(E, Mode(4, 2), rows) == _tiled_count(E, Mode(2, 4), rows) == 8
    # the torus has no mirrors: cos 4 pi x has 4 domains, not 8
    assert _tiled_count(DomainKind.TORUS, Mode(-2, 0),
                        candidates(DomainKind.TORUS)) is None


@pytest.mark.parametrize("g", [2, 3])
def test_weyl_coefficients_are_linear_in_the_pair(g):
    for m in range(1, 9):
        for n in range(1, 9):
            assert weyl_coefficients(g * m, g * n) == tuple(
                (sign, g * a, g * b) for sign, a, b in weyl_coefficients(m, n))
            if m != n:
                x, y = np.array([2.9, 1.3, 0.4]), np.array([0.2, 1.1, 0.3])
                np.testing.assert_allclose(eval_isosceles(g * m, g * n, x, y),
                                           eval_isosceles(m, n, g * x, g * y),
                                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("pair", [(2, 2), (2, 4)])
def test_tile_edges_are_in_the_zero_set(pair):
    # the three midlines of the triangle O, A = (2/3, 1/3), B = (1/3, 2/3),
    # between the midpoints of its edges, are the edges of its four tiles
    mids = [(1 / 3, 1 / 6), (1 / 6, 1 / 3), (1 / 2, 1 / 2)]
    tau = np.linspace(0.0, 1.0, 21)
    for (s0, t0), (s1, t1) in [(mids[0], mids[1]), (mids[0], mids[2]), (mids[1], mids[2])]:
        s, t = s0 + tau * (s1 - s0), t0 + tau * (t1 - t0)
        for f in (eval_C, eval_S):
            assert np.max(np.abs(f(*pair, s, t))) < 1e-12


# ---------------------------------------------------------------------------
# labelling each sign over its bounding box
# ---------------------------------------------------------------------------

def _whole_square_counts(signs):
    """(positive, negative) components labelled over the whole grid."""
    return ndimage.label(signs == 1)[1], ndimage.label(signs == -1)[1]


def _record_sign_grids(monkeypatch):
    """The sign grids nodal_analysis makes, in order, as they are made."""
    import courant_lab.nodal_analysis as nodal

    grids, made = [], nodal.sign_grid

    def record(*args):
        grids.append(made(*args))
        return grids[-1]

    monkeypatch.setattr(nodal, "sign_grid", record)
    return grids


@pytest.mark.parametrize("resolution", [256, 512, 1024])
@pytest.mark.parametrize("d", [E, H, B])
def test_cropped_counts_are_the_whole_square_counts_on_every_verdict_candidate(
        monkeypatch, d, resolution):
    from courant_lab.pleijel_screening import candidates

    grids = _record_sign_grids(monkeypatch)
    for n, modes in candidates(d):
        if n > 2:
            pair = min(modes)
            thetas = _theta_partition(d, pair)
            grids.clear()
            counts = sweep_counts(EigenfunctionHandle(d, pair, thetas[0]),
                                  resolution, thetas)
            assert len(grids) == len(thetas)
            assert counts == [_whole_square_counts(s) for s in grids], (pair, resolution)


def _edge_grids():
    """Sign grids whose samples of a sign touch the first or last row or
    column, some only there, in a few separate runs."""
    grids = []
    for shape in [(1, 1), (1, 7), (7, 1), (6, 9)]:
        r, c = shape
        for rows, cols in [([0], range(c)), ([r - 1], range(c)), (range(r), [0]),
                           (range(r), [c - 1])]:
            for step in (1, 2):
                signs = np.zeros(shape, dtype=np.int8)
                for i in list(rows)[::step]:
                    for j in list(cols)[::step]:
                        signs[i, j] = 1
                grids += [signs, -signs]
        corners = np.zeros(shape, dtype=np.int8)
        corners[0, 0] = corners[-1, -1] = 1
        corners[0, -1] = corners[-1, 0] = -1
        grids.append(corners)
    return grids


def _random_grids():
    """Seeded random sign grids of several shapes and densities, whose
    components often touch the edges of the grid."""
    rng = np.random.default_rng(20260)
    grids = []
    for _ in range(60):
        shape = tuple(rng.integers(1, 40, 2))
        p = rng.uniform(0.05, 0.6, 2)
        draw = rng.random(shape)
        grids.append((draw < p[0]).astype(np.int8) - (draw > 1.0 - p[1]))
    return grids


@pytest.mark.parametrize("signs", _edge_grids() + _random_grids())
def test_a_sign_labelled_over_its_box_has_the_whole_grid_components(signs):
    import courant_lab.nodal_analysis as nodal

    assert ((nodal._components(signs == 1), nodal._components(signs == -1))
            == _whole_square_counts(signs))


def _per_row_top_runs(signs, sign):
    """The top runs of the sign read row by row: each maximal run of it in a
    row, counted when no sample of the row above it, over its columns, has
    the sign."""
    count = 0
    for i, row in enumerate(signs.tolist()):
        j = 0
        while j < len(row):
            if row[j] != sign:
                j += 1
                continue
            end = j
            while end < len(row) and row[end] == sign:
                end += 1
            count += i == 0 or sign not in signs[i - 1, j:end].tolist()
            j = end
    return count


@pytest.mark.parametrize("signs", _edge_grids() + _random_grids())
def test_top_runs_are_the_per_row_count_and_bound_the_components(signs):
    bounds = _top_runs(signs)
    assert bounds == (_per_row_top_runs(signs, 1), _per_row_top_runs(signs, -1))
    assert all(b >= c for b, c in zip(bounds, _whole_square_counts(signs)))


@pytest.mark.parametrize("resolution", [256, 512, 1024])
@pytest.mark.parametrize("d", [E, H, B])
def test_top_runs_bound_the_counts_on_every_verdict_candidate(monkeypatch, d, resolution):
    from courant_lab.pleijel_screening import candidates

    grids = _record_sign_grids(monkeypatch)
    for n, modes in candidates(d):
        if n > 2:
            pair = min(modes)
            thetas = _theta_partition(d, pair)
            grids.clear()
            counts = sweep_counts(EigenfunctionHandle(d, pair, thetas[0]),
                                  resolution, thetas)
            for signs, (pos, neg) in zip(grids, counts, strict=True):
                bound = _top_runs(signs)
                assert bound[0] >= pos and bound[1] >= neg


@pytest.mark.parametrize("resolution", [256, 512, 1024])
@pytest.mark.parametrize("d", [E, H, B])
def test_verdict_is_the_verdict_of_the_exact_counts(monkeypatch, d, resolution):
    import courant_lab.nodal_analysis as nodal
    from courant_lab.pleijel_screening import candidates

    # a tiled pair's count is exact; its grid can overcount, as equilateral
    # (2,2) does at 256 with 5 where the truth is 4
    exact, rows = [], candidates(d)
    for n, modes in rows:
        if n > 2:
            pair = min(modes)
            thetas = _theta_partition(d, pair)
            mu = _tiled_count(d, pair, rows) or max(
                pos + neg for pos, neg in sweep_counts(
                    EigenfunctionHandle(d, pair, thetas[0]), resolution, thetas))
            exact.append((n, mu == n))
        else:
            exact.append((n, True))
    monkeypatch.setattr(nodal, "VERDICT_RESOLUTION", resolution)
    assert courant_sharp_verdict(d) == exact


class _LabelCalls:
    """nodal_analysis.ndimage with the shape of each label input recorded."""

    def __init__(self, module):
        self.module, self.shapes = module, []

    def __getattr__(self, name):
        return getattr(self.module, name)

    def label(self, on):
        self.shapes.append(on.shape)
        return self.module.label(on)


def _box_shapes(signs):
    """The shapes of the bounding boxes of the positive and the negative
    samples, (0, 0) for an absent sign."""
    shapes = []
    for sign in (1, -1):
        i, j = np.nonzero(signs == sign)
        shapes.append((i.max() - i.min() + 1, j.max() - j.min() + 1) if i.size else (0, 0))
    return shapes


def test_each_grid_labels_each_sign_once_present_or_not(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    calls = _LabelCalls(nodal.ndimage)
    monkeypatch.setattr(nodal, "ndimage", calls)
    grids = _record_sign_grids(monkeypatch)
    # hemiequilateral (2,1), a first eigenfunction, is negative: no positive
    # sample on either grid, and the positive sign is labelled over (0, 0)
    report = count_nodal_domains(EigenfunctionHandle(H, Mode(2, 1)), 128)
    assert (report.positive_components, report.negative_components) == (0, 1)
    assert len(grids) == 2 and len(calls.shapes) == 4
    assert calls.shapes[0] == calls.shapes[2] == (0, 0)
    # each negative box lies in its grid and is smaller than it
    for shape, signs in zip(calls.shapes[1::2], grids):
        assert 0 < shape[0] * shape[1] < signs.size
    calls.shapes.clear()
    grids.clear()
    monkeypatch.setattr(nodal, "VERDICT_RESOLUTION", 128)
    nodal.courant_sharp_verdict(E)
    # a verdict reads the 8 angles of (1,3) and (2,3), for n = 5 and 7
    # ((2,2) and (3,3) are tiled: no grid), and labels each sign once only
    # where the top-run bound reaches n: at 128 that is nowhere
    ns = [5] * 3 + [7] * 5
    reach = [sum(_top_runs(s)) >= n for s, n in zip(grids, ns, strict=True)]
    assert reach == [False] * 8
    assert calls.shapes == []



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


@pytest.mark.parametrize("a, count", [(1.0 - 1e-9, 3), (4e-5, 0)])
def test_chord_ends_below_the_sums_rounding_give_no_noise_roots(a, count):
    # (2,3) at theta 0.3: max |f| clears ROUNDING M0, but by the chord's ends
    # the samples are below the form's own rounding (_chord_functions'
    # floor), where they gave 5 roots for 3 and 1 for none; the roots are the
    # sign changes of 40-digit mpmath at the scan's samples, where |f| is
    # small, and of eval_psi where |f| > 1e-10 M0, a thousand times the
    # sums' rounding
    import mpmath as mp

    theta, xs = 0.3, _chord_xs(a)
    h = EigenfunctionHandle(E, Mode(2, 3), theta)
    truth = eval_psi(h, xs, a - xs).value
    size = 6 * (abs(math.cos(theta)) + abs(math.sin(theta)))
    small = np.flatnonzero(np.abs(truth) <= 1e-10 * size)
    with mp.workdps(40):
        c, s = mp.mpf(math.cos(theta)), mp.mpf(math.sin(theta))
        terms = [(sign, 2 * mp.pi * tb * mp.mpf(a), 2 * mp.pi * (ta - tb))
                 for sign, ta, tb in weyl_coefficients(2, 3)]
        for i in small:
            f = mp.mpf(0)
            for sign, beta, omega in terms:
                cos, sin = mp.cos_sin(beta + omega * float(xs[i]))
                f += sign * (c * cos + s * sin)
            truth[i] = math.copysign(1.0, f) if f else 0.0
    changes = np.flatnonzero(truth[:-1] * truth[1:] < 0)
    roots = edge_restriction_roots((2, 3), a, theta)
    assert len(roots) == len(changes) == count
    assert all(xs[i] <= r <= xs[i + 1] for r, i in zip(roots, changes))


def sampled(f, lo, hi, df=None):
    """f's samples, and df's or None, at every point of xs = linspace(lo,
    hi, ROOT_SAMPLES), as find_roots takes them: (xs, f(xs), df(xs))."""
    xs = np.linspace(lo, hi, ROOT_SAMPLES)
    return xs, f(xs), None if df is None else df(xs)


def _record_scans(monkeypatch):
    """Every root scan from now on, as (f, samples, df, bounds), and for each
    the cell test's reads within it, as _cell_test's (x, ys, dys, bounds):
    the first of the scan's own samples, then of the cells it splits."""
    import courant_lab.nodal_analysis as nodal

    calls, reads, inside = [], [], []
    scan, test = nodal._scan_roots, nodal._cell_test

    def record(f, samples, df, bounds):
        calls.append((f, samples, df, bounds))
        reads.append([])
        inside.append(True)
        try:
            return scan(f, samples, df, bounds)
        finally:
            inside.pop()

    def read(x, ys, dys, bounds):
        if inside:
            reads[-1].append((x, ys, dys, bounds))
        return test(x, ys, dys, bounds)

    monkeypatch.setattr(nodal, "_scan_roots", record)
    monkeypatch.setattr(nodal, "_cell_test", read)
    return calls, reads


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_polynomial_and_median_scans_sample_f_and_df_bit_for_bit(monkeypatch, pair):
    # the scans that evaluate their own functions on the sample array, P_C,
    # P_S and P_W on [-1, 1] and the median's g from 0.05, hand find_roots
    # f(xs), and df(xs) where there is one, at every point of xs =
    # linspace(lo, hi, ROOT_SAMPLES)
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


@pytest.mark.parametrize("times, kept", [(0.9, True), (1.1, False)])
def test_a_tangent_root_just_within_the_margin_is_solved(monkeypatch, times, kept):
    # S_{2,3} touches zero at u = 0.2 on the chord s + t = 2/5.  Shifted
    # toward its sign there by 0.9 times the margin 2 ROUNDING M0 (M0 grown
    # by the shift), the chord keeps a tangent root at 0.2 with |f| just
    # within the margin, which find_roots solves; shifted by 1.1 times it,
    # the chord has no root
    calls, _ = _record_scans(monkeypatch)
    assert edge_restriction_roots((2, 3), 2 / 5, math.pi / 2) == pytest.approx([0.2], abs=1e-10)
    (f, (x, ys, dys), df, (size, curvature)), = calls
    margin = 2 * ROUNDING * size / (1 - 2 * ROUNDING)
    shift = math.copysign(times * margin, f(0.2 + 1e-3))
    roots = find_roots(lambda u: f(u) + shift, (x, ys + shift, dys), df=df,
                       bounds=(size + abs(shift), curvature))
    assert roots == ([pytest.approx(0.2, abs=1e-10)] if kept else [])
    if kept:
        assert 0.5 * margin < abs(f(roots[0]) + shift) <= 2 * ROUNDING * (size + abs(shift))


@pytest.mark.parametrize("low, roots", [(5e-10, 0), (1e-12, 1)])
def test_a_dip_between_flat_samples_is_a_root_only_within_the_margin(low, roots):
    # f = 1 - depth / (1 + ((x - x0) / w)^2) dips to low between two samples
    # where |f| is near 1 and |f'| h is near 0.02, so only the cell test's
    # w^2 M2 / 2 term, with |f''| <= 2 depth / w^2, leaves the cell open.
    # Split to its leaves, it holds a root of f' at x0, a tangent root only
    # where |f| is within the margin 2 ROUNDING M0 = 4e-12: a dip to 5e-10
    # is no root, and one to 1e-12 is
    xs = np.linspace(0.0, 1.0, ROOT_SAMPLES)
    x0, w, depth = (xs[2000] + xs[2001]) / 2, xs[1] / 20, 1.0 - low

    def f(x):
        return 1.0 - depth / (1.0 + ((x - x0) / w) ** 2)

    def df(x):
        return 2.0 * depth * (x - x0) / w ** 2 / (1.0 + ((x - x0) / w) ** 2) ** 2

    found = find_roots(f, sampled(f, 0.0, 1.0, df), df=df,
                       bounds=(1.0 + depth, 2.0 * depth / w ** 2))
    assert found == [pytest.approx(x0, abs=1e-12)] * roots


def _dense(cells, lo, hi, points):
    """points samples of each cell [a, b] widened by MERGE_TOL, within [lo,
    hi]."""
    return np.clip(np.linspace(cells[:, 0] - MERGE_TOL, cells[:, 1] + MERGE_TOL, points,
                               axis=-1), lo, hi)


def _check_cleared_cells(f, df, x, ys, dys, bounds, points):
    """(cells, near, open) of one scan's cell test, after checking that no
    cell it clears holds a root its brackets miss, on points dense samples
    of each: f keeps the sign of the cell's ends where the test bounds |f|
    away from 0, and where it proves f' one-signed (steep), f' keeps its
    sign, and f changes sign on the cell at most once, only where its ends
    do."""
    near, steep = _cell_test(x, ys, dys, bounds)
    far = np.ones(len(x) - 1, dtype=bool)
    far[near] = False
    lo, hi = x[0], x[-1]
    cells = np.column_stack([x[:-1], x[1:]])
    values = f(_dense(cells[far], lo, hi, points))
    assert np.all(np.sign(values) == np.sign(ys[:-1][far])[:, None])
    shut = near[steep]
    slopes = df(_dense(cells[shut], lo, hi, points))
    assert np.all(np.sign(slopes) == np.sign(dys[shut])[:, None])
    sign = np.sign(f(np.linspace(cells[shut, 0], cells[shut, 1], points, axis=-1)))
    changes = np.count_nonzero(sign[:, :-1] * sign[:, 1:] < 0, axis=1)
    assert np.all(changes <= (ys[shut] * ys[shut + 1] < 0))
    return len(cells), len(near), np.count_nonzero(~steep)


def test_cleared_cells_could_not_give_a_root(monkeypatch):
    # on every scan with a derivative, the root digest's and then the CI's
    # fixed sweeps, (2,3)'s edges at 100 angles and 100 chords, no cell the
    # cell test clears holds a root the scan's brackets miss, on its ends
    # and middle, widened by MERGE_TOL (_check_cleared_cells), and
    # the caller's M2 is above |f''|, by central differences of df, on dense
    # samples of the range (to their rounding: M2 = 8 = P_C'' is exact for
    # (1,3)).  Of their 9.0M cells, 8.1k are near a root, and the test
    # leaves 316 of those open: most by the vertices at angles up to 1e-12,
    # where |f| is within the margin, the others by P_W's triple root at x =
    # 1, by u_b near theta_c and at the median's zero on a chord at theta = 0
    from test_root_digest import root_reprs

    calls, reads = _record_scans(monkeypatch)
    root_reprs()
    for j in range(1, 101):
        edge_critical_zeros((2, 3), math.pi / 6 * j / 100)
    for j in range(100):
        edge_restriction_roots((1, 3) if j % 2 else (2, 3), 0.05 + 0.9 * j / 99,
                               math.pi * j / 99)
    scans = [(call, scan_reads[0]) for call, scan_reads in zip(calls, reads) if call[2]]
    for (_, (x, _, _), df, bounds), _ in scans:
        lo, hi = x[0], x[-1]
        u, eta = np.linspace(lo, hi, ROOT_SAMPLES // 4)[1:-1], (hi - lo) * 1e-6
        assert np.max(np.abs(df(u + eta) - df(u - eta))) / (2 * eta) <= bounds[1] * (1 + 1e-6)
    totals = np.sum([_check_cleared_cells(f, df, x, ys, dys, bounds, 3)
                     for (f, _, df, bounds), (x, ys, dys, _) in scans], axis=0)
    assert tuple(totals) == (8953381, 8074, 316)


@pytest.mark.parametrize("pair", EDGE_PAIRS)
@pytest.mark.parametrize("theta", [1e-300, 0.1, THETA_C, math.pi / 6])
def test_edge_scans_sample_k_and_dk_bit_for_bit(monkeypatch, pair, theta):
    # the samples edge_critical_zeros hands to its root scans are _k_theta's
    # k and dk at the edge's samples, for its sign, and the cell test reads
    # those very arrays of K and dK, at xs
    calls, reads = _record_scans(monkeypatch)
    edge_critical_zeros(pair, theta)
    assert len(calls) == len(reads) == len(_EDGES)
    for (_, sign, (lo, hi), _), (_, (xs, ys, dys), df, bounds), scan_reads in zip(
            _EDGES, calls, reads):
        k, dk, _ = _k_theta(pair, theta, sign)
        assert (xs[0], xs[-1]) == (lo, hi)
        assert np.array_equal(xs, np.linspace(lo, hi, ROOT_SAMPLES))
        assert np.array_equal(ys, k(xs)) and np.array_equal(dys, dk(xs))
        (x, read_ys, read_dys, read_bounds), *_ = scan_reads
        assert np.array_equal(x, xs) and read_ys is ys and read_dys is dys
        assert read_bounds == bounds
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


def _chord_xs(a):
    """edge_restriction_roots' grid on the chord s + t = a."""
    lo, hi = a / 3.0, 2.0 * a / 3.0
    return np.linspace(lo + (hi - lo) * 1e-6, hi - (hi - lo) * 1e-6, ROOT_SAMPLES)


def _full_chord_scan(pair, a, theta):
    """(roots, samples, bounds) of the chord scan on every sample of its
    grid, as edge_restriction_roots scanned before it cleared cells: the
    form's f and df at each sample, refused within rounding of zero and run
    from the first sample above the form's floor to the last."""
    trig, values, slopes, bounds, floor = _chord_functions(
        EigenfunctionHandle(E, Mode(*pair), theta), a)
    xs = _chord_xs(a)
    cs = trig(xs)
    ys, dys = values(cs), slopes(cs)
    if np.max(np.abs(ys)) <= ROUNDING * bounds[0]:
        raise ValueError("within rounding of zero")
    known = np.abs(ys) > floor
    run = slice(known.argmax(), len(ys) - known[::-1].argmax())
    samples = xs[run], ys[run], dys[run]
    roots = find_roots(lambda u: values(trig(u)), samples,
                       df=lambda u: slopes(trig(u)), bounds=bounds)
    return roots, samples, bounds


@pytest.mark.parametrize("pair, a, theta", [((1, 3), 2 / 3, 0.0), ((2, 3), 2 / 5, math.pi / 2),
                                            ((2, 3), 0.7, 0.4), ((1, 3), 0.31, 2.9)])
def test_chord_scan_samples_the_restriction_bit_for_bit(monkeypatch, pair, a, theta):
    # the samples edge_restriction_roots hands to find_roots are its f and df
    # at each sample taken, called on a scalar as Brent's method and Newton's
    # step call them.  Their points x = xs[at] are points of the chord's
    # grid xs, and lie on the run of it from its first sample above the
    # form's floor to its last: both ends of the run, the cell ends in it and
    # every sample of the cells they take an inner sample of, fewer than
    # all; the cell test reads those very arrays of x, f and df
    _, (full_x, _, _), _ = _full_chord_scan(pair, a, theta)
    calls, reads = _record_scans(monkeypatch)
    edge_restriction_roots(pair, a, theta)
    (f, (x, ys, dys), df, bounds), = calls
    xs = _chord_xs(a)
    at = np.searchsorted(xs, x)
    assert xs[at].tobytes() == x.tobytes()
    (first,) = np.flatnonzero(xs == full_x[0])
    assert at[0] == first and at[-1] == first + len(full_x) - 1
    assert np.all(np.diff(at) > 0)
    assert len(at) < len(full_x)
    ends = _CELL_ENDS[(_CELL_ENDS >= at[0]) & (_CELL_ENDS <= at[-1])]
    assert np.isin(ends, at).all()
    inner = np.setdiff1d(at, _CELL_ENDS)
    for cell in np.unique(np.minimum(inner // CHORD_STRIDE, len(_CELL_ENDS) - 2)):
        lo, hi = _CELL_ENDS[cell], _CELL_ENDS[cell + 1]
        assert np.isin(np.arange(max(lo, at[0]), min(hi, at[-1]) + 1), at).all()
    assert np.array([f(u) for u in x.tolist()]).tobytes() == ys.tobytes()
    assert np.array([df(u) for u in x.tolist()]).tobytes() == dys.tobytes()
    ((read_x, read_ys, read_dys, read_bounds), *_), = reads
    assert read_x is x and read_ys is ys and read_dys is dys
    assert read_bounds == bounds


def _scan_chords():
    """Chords of every kind the cleared cells must keep the output of: the
    root digest's 200, drawn as test_root_digest.root_reprs draws them, 600
    drawn as the benchmark's queries draw theirs, 600 with a log-uniform in
    [1e-5, 1) and theta in [-7, 7], the (2,3) family at pi/2 and the (1,3)
    one at 0 on a = j/400, a chord with a root 1.15e-5 from its end, chords
    whose ends are below the form's rounding and chords within rounding of
    zero."""
    rng = random.Random(7)
    for _ in range(300):
        rng.random()
    chords = [(EDGE_PAIRS[i % 2], rng.uniform(0.05, 0.95), rng.uniform(0.0, math.pi))
              for i in range(200)]
    rng = random.Random(1)
    chords += [(rng.choice(EDGE_PAIRS), rng.uniform(0.05, 0.95), rng.uniform(0.0, math.pi))
               for _ in range(600)]
    chords += [(rng.choice(EDGE_PAIRS), 10.0 ** rng.uniform(-5.0, -1e-9), rng.uniform(-7.0, 7.0))
               for _ in range(600)]
    chords += [((2, 3), j / 400, math.pi / 2) for j in range(1, 400)]
    chords += [((1, 3), j / 400, 0.0) for j in range(1, 400)]
    chords += [((1, 3), 0.5714017037121516, 6.9843154764202815),
               ((2, 3), 1.0 - 1e-9, 0.3), ((2, 3), 4e-5, 0.3)]
    chords += [(pair, a, theta) for pair, theta in [((2, 3), 0.3), ((1, 3), 1.0)]
               for a in (1e-6, 1.0 - 2.0 ** -53)]
    return chords


def test_chord_scan_decides_what_every_sample_would(monkeypatch):
    # on 2205 chords the scan over the cells it leaves open reports the roots
    # and refusals of the scan over every sample (_full_chord_scan), bit for
    # bit, and no sample it leaves out could have decided anything there:
    # none is in a sign change of f or an exact zero of f, and each lies in
    # a cell of the samples taken that the cell test (_cell_test) finds far
    # from a root.  Each scan's points are points of the full scan's, its
    # range ends bit for bit the full scan's.  The scans take fewer than a
    # fifth of the samples
    calls, _ = _record_scans(monkeypatch)
    chords, refused, taken, total = _scan_chords(), 0, 0, 0
    for pair, a, theta in chords:
        calls.clear()
        try:
            roots = edge_restriction_roots(pair, a, theta)
        except ValueError as refusal:
            assert "within rounding of zero" in str(refusal)
            with pytest.raises(ValueError, match="within rounding of zero"):
                _full_chord_scan(pair, a, theta)
            refused += 1
            continue
        (_, (sparse_x, sparse_ys, sparse_dys), _, _), = calls
        full_roots, (xs, ys, dys), bounds = _full_chord_scan(pair, a, theta)
        assert repr(roots) == repr(full_roots)
        # the index of each point taken in the full scan
        sparse_at = np.searchsorted(xs, sparse_x)
        assert xs[sparse_at].tobytes() == sparse_x.tobytes()
        assert sparse_x[0].tobytes() == xs[0].tobytes()
        assert sparse_x[-1].tobytes() == xs[-1].tobytes()
        left_out = np.ones(len(xs), dtype=bool)
        left_out[sparse_at] = False
        sign = np.sign(ys)
        changes = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        assert not np.any(left_out[changes] | left_out[changes + 1])
        assert not np.any(left_out & (ys == 0))
        gaps = np.flatnonzero(np.diff(sparse_at) > 1)
        near, _ = _cell_test(sparse_x, sparse_ys, sparse_dys, bounds)
        assert not np.any(np.isin(gaps, near))
        taken, total = taken + len(sparse_at), total + len(xs)
    assert (len(chords), refused) == (2205, 68)
    assert taken < total / 5


def test_a_root_by_a_chord_end_keeps_its_bits():
    # (1,3) on the chord a = 0.5714017037121516 at theta 6.98: its first root
    # is 1.15e-5 from the chord's end a/3, in the first cell of the scan
    a = 0.5714017037121516
    roots = edge_restriction_roots((1, 3), a, 6.9843154764202815)
    assert [repr(r) for r in roots] == ["0.19047876871512567", "0.27895384396824724"]
    assert roots[0] - a / 3 == pytest.approx(1.15e-5, abs=5e-8)


def test_find_roots_brackets_every_gap_and_splits_the_open_ones():
    # a cell between two samples that are not neighbours on the grid is a
    # cell like any other: f = x - 1/2 taken only at the grid's first two and
    # last two samples has its root bracketed there.  With df, the cell test
    # clears that gap for (x - 1/2)^2 + 1, and leaves it open for (x - 1/2)^2
    # - 1/100, whose two roots its split finds; without df the samples are
    # trusted, and no sign change of them brackets those
    xs = np.linspace(0.0, 1.0, ROOT_SAMPLES)
    at = np.array([0, 1, ROOT_SAMPLES - 2, ROOT_SAMPLES - 1])
    u = xs[at]

    def f(x):
        return x - 0.5

    assert find_roots(f, sampled(f, 0.0, 1.0)) == [0.5]
    assert find_roots(f, (u, f(u), None)) == [pytest.approx(0.5, abs=1e-15)]
    for depth, roots in ((-1.0, []), (0.01, [0.4, 0.6])):
        def g(x, depth=depth):
            return (x - 0.5) ** 2 - depth

        def dg(x):
            return 2.0 * (x - 0.5)

        near, steep = _cell_test(u, g(u), dg(u), (1.25, 2.0))
        assert list(near[~steep]) == ([] if depth < 0 else [1])
        assert find_roots(g, (u, g(u), dg(u)), df=dg, bounds=(1.25, 2.0)) == pytest.approx(
            roots, abs=1e-12)
        assert find_roots(g, (u, g(u), None)) == []


def test_digest_chord_roots_match_mpmath():
    # the root digest's 200 chords, drawn as test_root_digest.root_reprs
    # draws them after its 300 angles: each root is within 1e-13 a of the
    # root 40-digit mpmath reaches from it, the restriction mixed with the
    # same floats cos(theta) and sin(theta)
    import mpmath as mp

    rng = random.Random(7)
    for _ in range(300):
        rng.random()
    chords = [(EDGE_PAIRS[i % 2], rng.uniform(0.05, 0.95), rng.uniform(0.0, math.pi))
              for i in range(200)]
    count = 0
    with mp.workdps(40):
        for pair, a, theta in chords:
            c, s, a_mp = mp.mpf(math.cos(theta)), mp.mpf(math.sin(theta)), mp.mpf(a)
            terms = weyl_coefficients(*pair)

            def f(u):
                phases = [(sign, 2 * mp.pi * (ta * u + tb * (a_mp - u)))
                          for sign, ta, tb in terms]
                return sum(sign * (c * mp.cos(p) + s * mp.sin(p)) for sign, p in phases)

            for u in edge_restriction_roots(pair, a, theta):
                truth = mp.findroot(f, (mp.mpf(u), mp.mpf(u) + 1e-10 * a))
                assert abs(u - truth) <= 1e-13 * a
                count += 1
    assert count == 221


@pytest.mark.parametrize("pair, a, theta, which", [
    ((1, 3), 0.3, 0.0, 0), ((2, 3), 0.7, 0.0, 0), ((2, 3), 0.9, 0.0, 0),
    ((1, 3), 0.64, math.pi / 2, 1), ((2, 3), 0.61, math.pi / 2, 1)])
def test_chord_form_keeps_the_median_zeros_of_the_sums(pair, a, theta, which):
    # on the median s = t, at u = a/2, eval_psi's C is exactly 0, and so is
    # the slope of S on these chords; the form (_chord_functions) is within
    # its floor of 0 there, or 1e-10 M0 for the slope
    # (test_chord_form_rounds_within_its_floor), and has the sums' sign
    # wherever they are above that; so the roots pair up about the median,
    # and a zero of C there is one root, at a/2 to 1e-13 a
    h = EigenfunctionHandle(E, Mode(*pair), theta)
    u = np.append(np.linspace(a / 3, 2 * a / 3, 257)[1:-1], a / 2)
    r = eval_psi(h, u, a - u)
    exact = (r.value, r.grad_s - r.grad_t)[which]
    trig, values, slopes, (size, _), floor = _chord_functions(h, a)
    cs = trig(u)
    got = (values(cs), slopes(cs))[which]
    bound = (floor, 1e-10 * size)[which]
    assert exact[-1] == 0.0 and abs(got[-1]) <= bound
    known = np.abs(exact) > bound
    assert np.count_nonzero(~known) == 2
    assert np.array_equal(np.sign(got[known]), np.sign(exact[known]))
    roots = edge_restriction_roots(pair, a, theta)
    assert roots == pytest.approx([a - x for x in reversed(roots)], abs=1e-13 * a)
    if which == 0:
        assert len(roots) % 2 == 1
        assert roots[len(roots) // 2] == pytest.approx(a / 2, abs=1e-13 * a)


def test_chord_form_rounds_within_its_floor():
    # the premises of find_roots and its cell test on a chord, against
    # 40-digit mpmath, the truth mixed with the same floats cos(theta) and
    # sin(theta), on chords from a = 1e-4 to 1 - 1e-10 and at angles in [-7,
    # 7]: each value of the form (_chord_functions) is within its floor, the
    # floor is within the 1e-13 M0 that find_roots grants a sample, and each
    # slope's error within the 1e-10 M0 it grants a sample of f'
    import mpmath as mp

    with mp.workdps(40):
        for pair in EDGE_PAIRS:
            terms = weyl_coefficients(*pair)
            for a in (1e-4, 0.05, 1 / 3, 0.7, 0.95, 1.0 - 1e-10):
                xs = _chord_xs(a)[list(range(0, ROOT_SAMPLES, 273)) + [-1]]
                for theta in (-7.0, -2.9, 0.0, 0.3, PI / 2, 7.0):
                    h = EigenfunctionHandle(E, Mode(*pair), theta)
                    trig, values, slopes, (size, _), floor = _chord_functions(h, a)
                    assert floor <= 1e-13 * size
                    cs = trig(xs)
                    got, got_slopes = values(cs), slopes(cs)
                    c, s = mp.mpf(math.cos(theta)), mp.mpf(math.sin(theta))
                    for i, u in enumerate(xs):
                        u = mp.mpf(float(u))
                        phases = [(sign, 2 * mp.pi * (ta * u + tb * (mp.mpf(a) - u)),
                                   2 * mp.pi * (ta - tb)) for sign, ta, tb in terms]
                        f = sum(sign * (c * mp.cos(p) + s * mp.sin(p)) for sign, p, _ in phases)
                        df = sum(sign * k * (s * mp.cos(p) - c * mp.sin(p))
                                 for sign, p, k in phases)
                        assert abs(got[i] - f) <= floor
                        assert 1e-3 * abs(got_slopes[i] - df) <= 1e-13 * size


@pytest.mark.parametrize("pair, theta", [((2, 3), 0.3), ((1, 3), 1.0)])
@pytest.mark.parametrize("a", [1e-6, 1.0 - 2.0 ** -53])
def test_chords_within_rounding_of_zero_are_refused(pair, a, theta):
    # max |f(xs)| is below ROUNDING M0 there (8e-17 M0 and 2e-15 M0 for
    # (2,3)), where the sums' rounding decides every sign: they used to
    # report 143 and 711 noise roots for (2,3), 55 and 795 for (1,3)
    h = EigenfunctionHandle(E, Mode(*pair), theta)
    xs = _chord_xs(a)
    size = 6 * (abs(math.cos(theta)) + abs(math.sin(theta)))
    assert np.max(np.abs(eval_psi(h, xs, a - xs).value)) <= ROUNDING * size
    with pytest.raises(ValueError, match="within rounding of zero"):
        edge_restriction_roots(pair, a, theta)


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
    return _edge_functions(Mode(*pair))[0](*_cos_sin(PI * u))


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
@pytest.mark.parametrize("theta", [1e-12, 0.1, THETA_C, PI / 6])
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
@pytest.mark.parametrize("theta", [1e-300, 0.1, THETA_C, PI / 6])
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
    assert bifurcation_angle()[1] == THETA_C


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


def _oa_zeros_by_u_b(theta):
    """(u, order) of each OA zero of (2,3) within 1e-3 of u_b at theta."""
    u_b = bifurcation_angle()[0]
    return [(z.parameter_u, z.order) for z in edge_critical_zeros((2, 3), theta)
            if z.edge_or_median == "OA" and abs(z.parameter_u - u_b) < 1e-3]


@pytest.mark.parametrize("after", [1e-9, 1e-8, 1e-7, 1e-6])
def test_the_pair_born_at_theta_c_is_found_at_once(after):
    # past theta_c two simple zeros of K part from u_b, 4.7e-6 apart at
    # theta_c + 1e-9 and 1.5e-4 at + 1e-6, within one sample step of the
    # scan: its cell test leaves their cell open and the split finds both,
    # each a sign change, so of order 2
    u_b, theta_c = bifurcation_angle()
    zeros = _oa_zeros_by_u_b(theta_c + after)
    assert [order for _, order in zeros] == [2, 2]
    assert zeros[0][0] < u_b < zeros[1][0]


def test_no_zero_by_u_b_before_theta_c():
    # at theta_c - 1e-9, K is -3.9e-10 at u_b, five times the margin 2
    # ROUNDING M0 of the scan: its split clears every cell there
    assert _oa_zeros_by_u_b(bifurcation_angle()[1] - 1e-9) == []


def test_theta_c_keeps_one_double_zero_at_u_b():
    # at theta_c itself K's zeros by u_b are one tangent root, within the
    # margin, of order 3, and its sign changes of rounding are none
    u_b, theta_c = bifurcation_angle()
    (zero,) = _oa_zeros_by_u_b(theta_c)
    assert zero == (pytest.approx(u_b, abs=1e-12), 3)


def test_random_scans_clear_no_cell_with_a_root(monkeypatch):
    # 64 dense samples of every cell the cell test clears, on the edge scans
    # at 12 random (pair, theta) and the chord scans at 12 random (pair, a,
    # theta), find no root that the scan's brackets miss
    # (_check_cleared_cells)
    rng = random.Random(51)
    calls, reads = _record_scans(monkeypatch)
    for _ in range(12):
        edge_critical_zeros(rng.choice(EDGE_PAIRS), math.pi / 6 * (1.0 - rng.random()))
        edge_restriction_roots(rng.choice(EDGE_PAIRS), rng.uniform(0.05, 0.95),
                               rng.uniform(0.0, math.pi))
    assert len(calls) == 12 * 4
    for (f, _, df, bounds), ((x, ys, dys, _), *_) in zip(calls, reads):
        _check_cleared_cells(f, df, x, ys, dys, bounds, 64)


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
    root = _brentq(port, a, b)
    assert type(root) is float
    assert root.hex() == brentq(ref, a, b, xtol=BRENT_XTOL).hex()
    assert port_xs == ref_xs


def test_brent_step_raises_as_scipy_does():
    from scipy.optimize import brentq

    with pytest.raises(ValueError, match="different signs"):
        brentq(math.cos, 0.0, 1.0, xtol=BRENT_XTOL)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(math.cos, 0.0, 1.0)
    # a triple root: interpolation creeps, and 100 iterations do not reach
    # xtol on either side
    with pytest.raises(RuntimeError):
        brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0, xtol=BRENT_XTOL)
    with pytest.raises(RuntimeError, match="did not converge"):
        _brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0)


def test_find_roots_brackets_give_scipys_roots(monkeypatch):
    # all 48 brackets find_roots solves on the way to the edge zeros, the
    # P_W roots and a chord's roots, of f and of df, those its splits give
    # with them, solved by both
    from scipy.optimize import brentq

    import courant_lab.nodal_analysis as nodal

    brackets = []

    def both(f, a, b):
        root = _brentq(f, a, b)
        brackets.append((root, brentq(f, a, b, xtol=BRENT_XTOL)))
        return root

    monkeypatch.setattr(nodal, "_brentq", both)
    for pair in EDGE_PAIRS:
        for theta in (1e-12, math.pi / 12, bifurcation_angle()[1], math.pi / 6):
            edge_critical_zeros(pair, theta)
        bifurcations(pair)
        edge_restriction_roots(pair, 0.7, 0.4)
    assert len(brackets) == 48
    assert all(root.hex() == ref.hex() for root, ref in brackets)


def test_every_root_lies_in_its_bracket_and_its_scan(monkeypatch):
    # the premise that lets find_roots return its roots as found: Brent's
    # root lies in its bracket, on BRENT_BRACKETS and on 2000 random
    # sign-changing brackets of cubics 1e-14 to 10 wide, and every root the
    # root digest's scans return lies in [x[0], x[-1]] of their samples
    from test_root_digest import root_reprs

    import courant_lab.nodal_analysis as nodal

    rng = random.Random(11)
    brackets = list(BRENT_BRACKETS)
    while len(brackets) < len(BRENT_BRACKETS) + 2000:
        r0, c1, c2 = rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        a = r0 - 10.0 ** rng.uniform(-14.0, 1.0)
        b = r0 + 10.0 ** rng.uniform(-14.0, 1.0)

        def f(x, r0=r0, c1=c1, c2=c2):
            return (x - r0) * (1.0 + c1 * x + c2 * x * x)

        if f(a) * f(b) < 0:
            brackets.append((f, *rng.sample((a, b), 2)))
    for f, a, b in brackets:
        assert min(a, b) <= _brentq(f, a, b) <= max(a, b)

    scans, scan = [], nodal._scan_roots

    def record(f, samples, df, bounds):
        roots = scan(f, samples, df, bounds)
        scans.append((samples[0], [r for r, _ in roots]))
        return roots

    monkeypatch.setattr(nodal, "_scan_roots", record)
    root_reprs()
    assert sum(len(roots) for _, roots in scans) > 1000
    assert all(x[0] <= r <= x[-1] for x, roots in scans for r in roots)


def test_a_polish_that_would_leave_its_bracket_is_not_taken():
    # Newton's step from Brent's root is kept only where it lands in the
    # root's bracket.  Handed a df 1e-20 times e^x, the step from Brent's
    # root of e^x - 3/2, where f is not 0, is far longer than the cell, and
    # the root returned is Brent's; handed e^x, it is the polished root
    xs = np.linspace(0.0, 1.0, ROOT_SAMPLES)

    def f(x):
        return np.exp(x) - 1.5

    def flat(x):
        return 1e-20 * np.exp(x)

    (i,), = np.nonzero(f(xs[:-1]) * f(xs[1:]) < 0)
    brent = _brentq(f, xs[i], xs[i + 1])
    assert f(brent) != 0.0
    assert abs(f(brent) / flat(brent)) > xs[i + 1] - xs[i]
    samples, bounds = (xs, f(xs), np.exp(xs)), (math.e + 1.5, math.e)
    assert find_roots(f, samples, df=flat, bounds=bounds) == [brent]
    polished = brent - f(brent) / np.exp(brent)
    assert polished != brent
    assert find_roots(f, samples, df=np.exp, bounds=bounds) == [polished]


def test_root_scans_round_within_a_tenth_of_the_margin(monkeypatch):
    # the premise of the cell test's margin (find_roots, _cell_test): each
    # sample of f is within 1e-13 M0 of the true value, a tenth of ROUNDING
    # M0, and each of f' within 1e-10 M0, against 40-digit mpmath (f' by
    # mpmath's differentiation) on chords, edges and the reduction
    # polynomials
    import mpmath as mp

    calls, _ = _record_scans(monkeypatch)
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
    assert len(truths) == len(calls)
    with mp.workdps(40):
        for truth, (_, (xs, ys, dys), _, (size, _)) in zip(truths, calls):
            # every 113th sample of a full scan, as many of a chord's
            for i in range(0, len(ys), max(1, 113 * len(ys) // ROOT_SAMPLES)):
                x = mp.mpf(float(xs[i]))
                assert abs(ys[i] - truth(x)) <= 1e-13 * size
                assert abs(dys[i] - mp.diff(truth, x)) <= 1e-10 * size


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
    """The nodal count at each of thetas, from one sweep_counts."""
    h = EigenfunctionHandle(domain, Mode(*pair))
    return [pos + neg for pos, neg in sweep_counts(h, res, thetas)]


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
    counts = sweep_counts(EigenfunctionHandle(d, Mode(*pair)), 128, thetas)
    assert len(counts) == len(thetas)
    for theta, pos_neg in zip(thetas, counts):
        h = EigenfunctionHandle(d, Mode(*pair), theta)
        assert [pos_neg] == sweep_counts(h, 128, [theta])
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
    best = _max_count_over_thetas(E, pair, 512, 0)  # n = 0: every angle is labelled
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
    assert np.array_equal(basis.exact_at(h.theta, *np.nonzero(mask)), full(p, q)[mask])
    # a plot's (k, 4) corners of the cells whose four corners are inside
    i, j = np.nonzero(mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:])
    ci, cj = np.stack((i, i + 1, i + 1, i), 1), np.stack((j, j, j + 1, j + 1), 1)
    assert ci.shape == (len(i), 4) and len(i) > 0
    assert np.array_equal(basis.exact_at(h.theta, ci, cj), full(p, q)[ci, cj])


@pytest.mark.parametrize("resolution", [64, 511])
@pytest.mark.parametrize("pair", [(2, 3), (1, 2)])
def test_single_angle_at_zero_evaluates_c_only(pair, resolution):
    h = EigenfunctionHandle(E, Mode(*pair))
    basis, mask, (p, q) = grid(h, resolution)
    # the sums mixed at theta 0 have the bits of C alone
    mixed = basis.exact_at(0.0, *np.nonzero(mask))
    c = eval_C(*pair, p[mask], q[mask])
    assert np.array_equal(mixed, c)
    assert np.array_equal(np.signbit(mixed), np.signbit(c))
    expected = count_nodal_domains(h, resolution)
    sweep = sweep_counts(h, resolution, [0.0, 0.1])
    assert sweep[0] == (expected.positive_components, expected.negative_components)


def test_verdict_counts_only_candidates_above_two(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    calls, grids, angles = [], [], []
    sweep, grid_values, signs_at = (nodal._max_count_over_thetas, nodal._grid_values,
                                    nodal.sign_grid)

    def record_sweep(d, pair, resolution, n):
        calls.append((tuple(pair), resolution, n))
        return sweep(d, pair, resolution, n)

    def record_grid(h, resolution):
        grids.append((tuple(h.mode), resolution))
        return grid_values(h, resolution)

    def record_angle(basis, theta, rel):
        angles.append(tuple(basis.pair))
        return signs_at(basis, theta, rel)

    monkeypatch.setattr(nodal, "_max_count_over_thetas", record_sweep)
    monkeypatch.setattr(nodal, "_grid_values", record_grid)
    monkeypatch.setattr(nodal, "sign_grid", record_angle)
    assert nodal.courant_sharp_verdict(DomainKind.TORUS) == [(1, True), (2, True)]
    assert calls == grids == angles == []
    monkeypatch.setattr(nodal, "VERDICT_RESOLUTION", 128)
    nodal.courant_sharp_verdict(E)
    # (1,2) at n = 2 is decided by the theorem; (2,2) and (3,3) tile (1,1)
    # and are counted exactly, with no grid
    assert calls == [((1, 3), 128, 5), ((2, 3), 128, 7)]
    # one grid evaluation per counted candidate, whatever its number of
    # angles, and one sign grid per angle of its partition
    assert grids == [((1, 3), 128), ((2, 3), 128)]
    assert angles == [(1, 3)] * 3 + [(2, 3)] * 5


def test_count_refuses_a_doubled_grid_above_the_cap_before_any_grid(monkeypatch):
    import courant_lab.nodal_analysis as nodal

    def refused(h, resolution):
        raise AssertionError(f"a grid at {resolution} was built")

    monkeypatch.setattr(nodal, "_grid_values", refused)
    with pytest.raises(ValueError, match="<= 2048, got 2049"):
        count_nodal_domains(EigenfunctionHandle(E, Mode(2, 3)), 2049)


class _TableStub:
    """A basis whose table values are given, on a one-column grid whose
    starts and lo map each position to its own row and whose mask is all
    inside: exact_at reads the sums and records the rows read and the
    calls."""

    def __init__(self, exact, table, delta):
        self.exact, self.table, self.delta, self.read, self.calls = exact, table, delta, [], 0
        self.starts, self.lo = np.arange(len(table)), np.zeros(len(table), dtype=int)
        self.mask = np.ones((len(table), 1), dtype=bool)

    def separable(self, theta):
        return self.table.copy(), self.delta

    def exact_at(self, theta, i, j):
        self.read += i.tolist()
        self.calls += 1
        return self.exact[i]


def test_certificate_reads_the_sums_at_the_top_and_the_band_edge():
    import courant_lab.nodal_analysis as nodal

    rel, delta = nodal.ZERO_BAND_REL, 1e-9
    # the largest sum at 0, the largest table value at 1; the sum at 2 is
    # just above the band 1e-5, its table value just below; 3 and 4 are far
    # from both
    exact = np.array([1.0, 1.0 - 0.5 * delta, 1e-5 + 0.1 * delta, -0.5, 2e-6])
    table = exact + np.array([-0.9, 0.9, -0.6, 0.9, -0.9]) * delta
    stub = _TableStub(exact, table, delta)
    signs = sign_grid(stub, 0.3, rel)
    assert sorted(set(stub.read)) == [0, 1, 2] and stub.calls == 1
    assert signs.ravel().tolist() == [1, 1, 1, -1, 0]
    # the table alone, banded at its own largest |value|, misreads sample 2
    table_band = rel * np.max(np.abs(table))
    assert band_signs(table, table_band, stub.mask).ravel().tolist() == [1, 1, 0, -1, 0]
    # the table's largest |value| nearly delta below the sums', so its band
    # is 0.99 rel delta below theirs: the sum at 1 lies between the two
    # bands, and its table value (1 + rel / 2) delta above the table's band
    # is read only by the window's (1 + rel) factor; the sums' band, rel,
    # halved would give it a sign
    top = 1.0 - 0.99 * delta
    table_band = rel * top
    exact = np.array([1.0, table_band + 0.7 * rel * delta, -0.5])
    table = np.array([top, table_band + (1.0 + 0.5 * rel) * delta, -0.5 + 0.5 * delta])
    assert np.max(np.abs(table - exact)) <= delta and table[1] - table_band > delta
    stub = _TableStub(exact, table, delta)
    signs = sign_grid(stub, 0.3, rel)
    assert stub.read == [0, 1] and stub.calls == 1
    assert signs.ravel().tolist() == [1, 0, -1]
    assert band_signs(table, rel, stub.mask).ravel().tolist() == [1, 1, -1]


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
    """The certified sign grid at each angle is the sums' signs banded at
    ZERO_BAND_REL times their largest |value| (band_signs), and the table is
    well within delta of the sums."""
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
        band = nodal.ZERO_BAND_REL * np.max(np.abs(exact))
        assert np.array_equal(sign_grid(basis, theta, nodal.ZERO_BAND_REL),
                              band_signs(exact, band, mask)), (pair, theta)


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
    monkeypatch.setattr(nodal, "_max_count_over_thetas", refused)
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

