"""Nodal-set plots as plain SVG 1.1 line art: marching-squares segments of
the zero level set, the domain outline, fixed points as circles and critical
zeros as crosses, all in the Euclidean frame at 512 px per unit."""

import math
from typing import List, Tuple

import numpy as np

from .alcove_geometry import DOMAINS, DomainKind, to_cartesian
from .eigenfunction_eval import EigenfunctionHandle
from .nodal_analysis import (_grid_values, edge_critical_zeros,
                             median_fixed_points)

PX_PER_UNIT = 512.0
MARGIN = 24.0

def _lerp(p, q, vp, vq):
    w = vp / (vp - vq)
    return (p[0] + w * (q[0] - p[0]), p[1] + w * (q[1] - p[1]))


def zero_segments(values: np.ndarray, mask: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Marching-squares segments of the zero level set over cells whose four
    corners all lie inside the mask.  xs/ys give the corner coordinates."""
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
                # saddle cell: pair crossings by consecutive edges
                segs.append((crossings[0], crossings[1]))
                segs.append((crossings[2], crossings[3]))
    return segs


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_nodal_svg(h: EigenfunctionHandle, resolution: int = 256) -> str:
    """Deterministic SVG document for the nodal set of the handle."""
    values, mask, points = _grid_values(h, resolution)
    spec = DOMAINS[h.domain]
    xs, ys = to_cartesian(points) if spec.alcove else points
    outline = spec.outline
    xmax = max(p[0] for p in outline)
    ymax = max(p[1] for p in outline)
    width = xmax * PX_PER_UNIT + 2 * MARGIN
    height = ymax * PX_PER_UNIT + 2 * MARGIN

    def px(x, y):
        return (MARGIN + x * PX_PER_UNIT, height - MARGIN - y * PX_PER_UNIT)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    pts = " ".join(f"{_fmt(px(x, y)[0])},{_fmt(px(x, y)[1])}" for x, y in outline)
    parts.append(f'<polygon points="{pts}" fill="none" stroke="black" '
                 'stroke-width="1.5"/>')

    path = []
    for (x0, y0), (x1, y1) in zero_segments(values, mask, xs, ys):
        a, b = px(x0, y0), px(x1, y1)
        path.append(f"M{_fmt(a[0])} {_fmt(a[1])}L{_fmt(b[0])} {_fmt(b[1])}")
    parts.append(f'<path d="{"".join(path)}" fill="none" stroke="blue" '
                 'stroke-width="1"/>')

    if (h.domain is DomainKind.EQUILATERAL and tuple(h.mode) in ((1, 3), (2, 3))):
        for fp in median_fixed_points(h.mode):
            x, y = to_cartesian(fp.location)
            cx, cy = px(x, y)
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" '
                         'fill="none" stroke="red" stroke-width="1.5"/>')
        if 0.0 < h.theta <= math.pi / 6.0 + 1e-12:
            for cz in edge_critical_zeros(h.mode, h.theta):
                x, y = to_cartesian(cz.location)
                cx, cy = px(x, y)
                parts.append(
                    f'<path d="M{_fmt(cx - 5)} {_fmt(cy - 5)}L{_fmt(cx + 5)} '
                    f'{_fmt(cy + 5)}M{_fmt(cx - 5)} {_fmt(cy + 5)}'
                    f'L{_fmt(cx + 5)} {_fmt(cy - 5)}" stroke="red" '
                    'stroke-width="1.5" fill="none"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
