import math

import numpy as np
import pytest

from courant_lab.alcove_geometry import DOMAINS, DomainKind, to_cartesian
from courant_lab.eigenfunction_eval import EigenfunctionHandle, mix
from courant_lab.lattice_spectrum import Mode
from courant_lab.nodal_analysis import _grid_values
from courant_lab.svg_export import render_nodal_svg, zero_segments

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


def _saddle_cells(values, mask):
    v = np.stack((values[:-1, :-1], values[1:, :-1], values[1:, 1:],
                  values[:-1, 1:])) > 0
    inner = mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:]
    return int(np.sum(inner & (v[0] == v[2]) & (v[1] == v[3])
                      & (v[0] != v[1])))


def _plot_inputs(h, resolution):
    basis, mask, points = _grid_values(h, resolution)
    values = np.zeros(mask.shape)
    values[mask] = mix(basis, h.theta)
    xs, ys = to_cartesian(points) if DOMAINS[h.domain].alcove else points
    return values, mask, xs, ys


@pytest.mark.parametrize("resolution", [64, 128])
@pytest.mark.parametrize("h", [
    EigenfunctionHandle(E, Mode(1, 3), math.pi / 12),
    EigenfunctionHandle(E, Mode(2, 3), 0.0),
    EigenfunctionHandle(H, Mode(5, 2), 0.0),
    EigenfunctionHandle(B, Mode(6, 1), 0.0)])
def test_zero_segments_match_the_loop_on_domain_grids(h, resolution):
    args = _plot_inputs(h, resolution)
    segs = zero_segments(*args)
    assert len(segs) > 0
    assert segs == loop_zero_segments(*args)


def test_zero_segments_match_the_loop_on_saddles_and_exact_zeros():
    # a checkerboard of nodal lines crossing between samples gives saddle
    # cells; rounding to quarters gives exact zero corners, which count as
    # non-positive
    x = np.linspace(0.0, 1.0, 96)
    xs, ys = np.meshgrid(x, x, indexing="ij")
    values = np.sin(9.3 * math.pi * xs) * np.sin(7.7 * math.pi * ys)
    mask = (xs + ys < 1.6) & (ys > 0.05)
    assert _saddle_cells(values, mask) > 0
    assert zero_segments(values, mask, xs, ys) == loop_zero_segments(
        values, mask, xs, ys)
    quarters = np.round(4.0 * values) / 4.0
    assert np.sum(mask & (quarters == 0.0)) > 0
    assert zero_segments(quarters, mask, xs, ys) == loop_zero_segments(
        quarters, mask, xs, ys)
    # both at once: three saddle cells, one of them with an exact zero corner
    small = np.array([[1.0, -2.0, 0.5], [-0.5, 3.0, -1.0], [0.0, 0.0, 2.0]])
    xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    full = np.ones((3, 3), bool)
    assert _saddle_cells(small, full) == 3
    segs = zero_segments(small, full, xs, ys)
    assert len(segs) == 7
    assert segs == loop_zero_segments(small, full, xs, ys)


def test_zero_segments_without_crossings_is_empty():
    x = np.linspace(0.0, 1.0, 8)
    xs, ys = np.meshgrid(x, x, indexing="ij")
    assert zero_segments(np.ones((8, 8)), np.ones((8, 8), bool), xs, ys) == []


def test_render_rejects_a_resolution_below_the_grid_floor():
    with pytest.raises(ValueError, match=">= 64"):
        render_nodal_svg(EigenfunctionHandle(E, Mode(1, 3)), 32)


def test_render_rejects_a_resolution_above_the_grid_cap():
    with pytest.raises(ValueError, match="<= 4096, got 4097"):
        render_nodal_svg(EigenfunctionHandle(E, Mode(1, 3)), 4097)
