import math
import re

import numpy as np
import pytest

from courant_lab.alcove_geometry import (DOMAINS, CartesianPoint, DomainKind,
                                         to_cartesian)
from courant_lab.eigenfunction_eval import EigenfunctionHandle
from courant_lab.lattice_spectrum import Mode
from courant_lab.nodal_analysis import edge_critical_zeros, median_fixed_points
from courant_lab.svg_export import (MARGIN, PX_PER_UNIT, render_nodal_svg,
                                    zero_segments)
from test_nodal_analysis import THETA_C, grid, pointwise

E = DomainKind.EQUILATERAL
B = DomainKind.RIGHT_ISOSCELES
H = DomainKind.HEMIEQUILATERAL


def _lerp(p, q, vp, vq):
    w = vp / (vp - vq)
    return (p[0] + w * (q[0] - p[0]), p[1] + w * (q[1] - p[1]))


def loop_zero_segments(values, mask, xs, ys):
    """The per-cell marching-squares loop zero_segments replaced, kept as
    the reference for its output."""
    segs = []
    ni, nj = values.shape
    for i in range(ni - 1):
        for j in range(nj - 1):
            if not (mask[i, j] and mask[i + 1, j] and mask[i, j + 1]
                    and mask[i + 1, j + 1]):
                continue
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            vals = [values[c] for c in corners]
            pts = [(xs[c], ys[c]) for c in corners]
            crossings = []
            for k in range(4):
                a, b = k, (k + 1) % 4
                va, vb = vals[a], vals[b]
                if (va > 0) != (vb > 0):
                    crossings.append(_lerp(pts[a], pts[b], va, vb))
            if len(crossings) == 2:
                segs.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                segs.append((crossings[0], crossings[1]))
                segs.append((crossings[2], crossings[3]))
    return segs


def segments(values, mask, x, frame=CartesianPoint._make):
    """zero_segments on the grid values over the axis x, read at the
    gathered corners."""
    return zero_segments(values > 0, mask, x, lambda i, j: values[i, j], frame)


def corners(x, frame=CartesianPoint._make):
    """The loop's corner coordinates: the grids (x[i], x[j]) in the frame."""
    return frame(np.meshgrid(x, x, indexing="ij"))


def _saddle_cells(values, mask):
    v = np.stack((values[:-1, :-1], values[1:, :-1], values[1:, 1:],
                  values[:-1, 1:])) > 0
    inner = mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:]
    return int(np.sum(inner & (v[0] == v[2]) & (v[1] == v[3])
                      & (v[0] != v[1])))


def _plot_inputs(h, resolution):
    # the sums evaluated pointwise on the whole grid: a plot's reference
    # inputs, with its axis and frame
    basis, mask, (p, q) = grid(h, resolution)
    values = np.zeros(mask.shape)
    values[mask] = pointwise(h, p[mask], q[mask])
    return values, mask, basis.x, DOMAINS[h.domain].frame


@pytest.mark.parametrize("pair,theta", [((1, 3), 0.2618),
                                         ((2, 3), THETA_C)])
def test_overlays_mark_the_fixed_points_and_critical_zeros_at_their_images(pair, theta):
    # each circle is centred on a median fixed point's image in the
    # Euclidean frame, and each cross on an edge critical zero's, in order
    svg = render_nodal_svg(EigenfunctionHandle(E, Mode(*pair), theta), 64)
    height = float(re.search(r'<svg [^>]*height="([-\d.]+)"', svg)[1])

    def px(location):
        x, y = to_cartesian(location)
        return MARGIN + x * PX_PER_UNIT, height - MARGIN - y * PX_PER_UNIT

    circles = [tuple(map(float, c)) for c in
               re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)]
    crosses = [(float(x) + 5, float(y) + 5) for x, y in
               re.findall(r'<path d="M([-\d.]+) ([-\d.]+)L[^"]*" stroke="red"', svg)]
    fixed, zeros = median_fixed_points(pair), edge_critical_zeros(pair, theta)
    assert len(circles) == len(fixed) and len(crosses) == len(zeros) > 0
    for drawn, points in ((circles, fixed), (crosses, zeros)):
        for centre, point in zip(drawn, points):
            assert np.allclose(centre, px(point.location), rtol=0.0, atol=1e-3)


@pytest.mark.parametrize("resolution", [64, 128])
@pytest.mark.parametrize("h", [
    EigenfunctionHandle(E, Mode(1, 3), math.pi / 12),
    EigenfunctionHandle(E, Mode(2, 3), 0.0),
    EigenfunctionHandle(H, Mode(5, 2), 0.0),
    EigenfunctionHandle(B, Mode(6, 1), 0.0)])
def test_zero_segments_match_the_loop_on_domain_grids(h, resolution):
    values, mask, x, frame = _plot_inputs(h, resolution)
    segs = segments(values, mask, x, frame)
    assert len(segs) > 0
    assert segs == loop_zero_segments(values, mask, *corners(x, frame))


def test_table_signs_differ_from_the_sums_only_within_delta():
    # C_{1,3} vanishes on s = t, where the table values take either sign: the
    # plot's read-back of the samples with |value| <= delta is needed
    h = EigenfunctionHandle(E, Mode(1, 3))
    basis, mask, (p, q) = grid(h, 512)
    table, delta = basis.separable(0.0)
    s, t = p[mask], q[mask]
    differ = (table > 0) != (pointwise(h, s, t) > 0)
    assert differ.any() and np.array_equal(s[differ], t[differ])
    assert np.all(np.abs(table[differ]) <= delta)


@pytest.mark.parametrize("h,resolution", [
    (EigenfunctionHandle(E, Mode(1, 3)), 512),
    (EigenfunctionHandle(E, Mode(1, 3), math.pi / 12), 256),
    (EigenfunctionHandle(E, Mode(2, 3), 0.2), 255),
    (EigenfunctionHandle(H, Mode(4, 2)), 512),
    (EigenfunctionHandle(B, Mode(6, 1)), 512)])
def test_plot_segments_are_those_of_the_sums(monkeypatch, h, resolution):
    # the segments a plot draws from the tables and its read-backs are, float
    # for float, those of the sums on the whole grid
    import courant_lab.svg_export as svg

    drawn = []

    def spy(*args):
        drawn.append(zero_segments(*args))
        return drawn[-1]

    monkeypatch.setattr(svg, "zero_segments", spy)
    render_nodal_svg(h, resolution)
    assert drawn == [segments(*_plot_inputs(h, resolution))]


def test_zero_segments_match_the_loop_on_saddles_and_exact_zeros():
    # a checkerboard of nodal lines crossing between samples gives saddle
    # cells; rounding to quarters gives exact zero corners, which count as
    # non-positive
    x = np.linspace(0.0, 1.0, 96)
    xs, ys = np.meshgrid(x, x, indexing="ij")
    values = np.sin(9.3 * math.pi * xs) * np.sin(7.7 * math.pi * ys)
    mask = (xs + ys < 1.6) & (ys > 0.05)
    assert _saddle_cells(values, mask) > 0
    assert segments(values, mask, x) == loop_zero_segments(
        values, mask, xs, ys)
    quarters = np.round(4.0 * values) / 4.0
    assert np.sum(mask & (quarters == 0.0)) > 0
    assert segments(quarters, mask, x) == loop_zero_segments(
        quarters, mask, xs, ys)
    # both at once: three saddle cells, one of them with an exact zero corner
    small = np.array([[1.0, -2.0, 0.5], [-0.5, 3.0, -1.0], [0.0, 0.0, 2.0]])
    x = np.arange(3.0)
    xs, ys = corners(x)
    full = np.ones((3, 3), bool)
    assert _saddle_cells(small, full) == 3
    segs = segments(small, full, x)
    assert len(segs) == 7
    assert segs == loop_zero_segments(small, full, xs, ys)


def test_zero_segments_without_crossings_is_empty():
    x = np.linspace(0.0, 1.0, 8)
    assert segments(np.ones((8, 8)), np.ones((8, 8), bool), x) == []


def test_render_rejects_a_resolution_below_the_grid_floor():
    with pytest.raises(ValueError, match=">= 64"):
        render_nodal_svg(EigenfunctionHandle(E, Mode(1, 3)), 32)


def test_render_rejects_a_resolution_above_the_grid_cap():
    with pytest.raises(ValueError, match="<= 4096, got 4097"):
        render_nodal_svg(EigenfunctionHandle(E, Mode(1, 3)), 4097)
