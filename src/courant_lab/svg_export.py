"""Nodal-set plots as plain SVG 1.1 line art: marching-squares segments of
the zero level set, the domain outline, fixed points as circles and critical
zeros as crosses, all in the Euclidean frame at 512 px per unit.  The grid's
signs are the sign grid of the certified values the nodal counts read
(eigenfunction_eval's _certified_values and sign_grid), and marching squares
interpolates on the sums read at the crossing cells' corners."""

from typing import List, Tuple

import numpy as np

from .alcove_geometry import DOMAINS, CartesianPoint, DomainKind, to_cartesian
from .eigenfunction_eval import (EigenfunctionHandle, _certified_values,
                                 _grid_values, sign_grid)
from .nodal_analysis import (EDGE_PAIRS, edge_critical_zeros, edge_theta_in_range,
                             median_fixed_points)

PX_PER_UNIT = 512.0
MARGIN = 24.0


def zero_segments(pos: np.ndarray, mask: np.ndarray, x: np.ndarray, read,
                  frame) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Marching-squares segments of the zero level set over cells whose four
    corners all lie inside the mask, from pos, the grid of value > 0.  Corner
    (i, j) is at (x[i], x[j]), and frame maps the gathered corners' (x, y)
    arrays to the plot's; read(i, j) gives the values at the gathered
    corners (i, j), with pos's signs, and only those are read.
    Cells go in row-major order, corners (i,j), (i+1,j), (i+1,j+1), (i,j+1);
    edge k, from corner k to k+1 mod 4, is crossed where one end is > 0 and
    the other is not, so a cell is gathered only when its corners are not all
    on one side of that test.  A cell has 0, 2 or 4 crossings; they pair up
    in edge order, so a saddle cell pairs consecutive edges."""
    first = pos[:-1, :-1]
    i, j = np.nonzero(mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:]
                      & ((first != pos[1:, :-1]) | (first != pos[1:, 1:])
                         | (first != pos[:-1, 1:])))
    ci, cj = np.stack((i, i + 1, i + 1, i), 1), np.stack((j, j, j + 1, j + 1), 1)
    v = read(ci, cj)
    cx, cy = frame((x[ci], x[cj]))
    cell, a = np.nonzero((v > 0) != (np.roll(v, -1, axis=1) > 0))
    b = (a + 1) % 4
    w = v[cell, a] / (v[cell, a] - v[cell, b])
    px = cx[cell, a] + w * (cx[cell, b] - cx[cell, a])
    py = cy[cell, a] + w * (cy[cell, b] - cy[cell, a])
    pts = list(zip(px.tolist(), py.tolist()))
    return list(zip(pts[0::2], pts[1::2]))


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_nodal_svg(h: EigenfunctionHandle, resolution: int) -> str:
    """Deterministic SVG document for the nodal set of the handle, with the
    segments of the sums: the signs are the certified values' strict signs
    (sign_grid of _certified_values at band 0, which reads the sums back
    where the table's sign could differ), tested > 0 in place, in one r^2
    grid, and the values interpolated on are the gathered corners' sums."""
    basis = _grid_values(h, resolution)
    signs = sign_grid(*_certified_values(basis, h.theta, 0.0), basis.mask)
    pos = np.greater(signs, 0, out=signs.view(bool))

    def sums(i, j):
        # the sums at the inside samples (i, j), by their positions in row order
        return basis.exact_at(h.theta, basis.starts[i] + j - basis.lo[i])

    spec = DOMAINS[h.domain]
    frame = to_cartesian if spec.alcove else CartesianPoint._make
    outline = [frame(v) for v in spec.vertices]
    xmax, ymax = map(max, zip(*outline))
    width = xmax * PX_PER_UNIT + 2 * MARGIN
    height = ymax * PX_PER_UNIT + 2 * MARGIN

    def px(point):
        x, y = point
        return (MARGIN + x * PX_PER_UNIT, height - MARGIN - y * PX_PER_UNIT)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    pts = " ".join(",".join(map(_fmt, px(p))) for p in outline)
    parts.append(f'<polygon points="{pts}" fill="none" stroke="black" '
                 'stroke-width="1.5"/>')

    path = "".join("M{} {}L{} {}".format(*map(_fmt, px(a) + px(b)))
                   for a, b in zero_segments(pos, basis.mask, basis.x, sums, frame))
    parts.append(f'<path d="{path}" fill="none" stroke="blue" '
                 'stroke-width="1"/>')

    if h.domain is DomainKind.EQUILATERAL and tuple(h.mode) in EDGE_PAIRS:
        for fp in median_fixed_points(h.mode):
            cx, cy = px(to_cartesian(fp.location))
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" '
                         'fill="none" stroke="red" stroke-width="1.5"/>')
        if edge_theta_in_range(h.theta):
            for cz in edge_critical_zeros(h.mode, h.theta):
                cx, cy = px(to_cartesian(cz.location))
                parts.append(
                    f'<path d="M{_fmt(cx - 5)} {_fmt(cy - 5)}L{_fmt(cx + 5)} '
                    f'{_fmt(cy + 5)}M{_fmt(cx - 5)} {_fmt(cy + 5)}'
                    f'L{_fmt(cx + 5)} {_fmt(cy - 5)}" stroke="red" '
                    'stroke-width="1.5" fill="none"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
