"""The alcove-to-Euclidean map, the reflection-group images of a lattice
pair, and the DomainSpec table that holds every per-domain fact (spectrum
form, screening constants, the triangle's vertices, their Euclidean frame)
for the equilateral torus and the three triangles.  The area, the
point-in-domain predicate, a grid row's interval of inside columns, the
nodal grid's extent and the SVG outline all derive from the vertices.

Coordinates: a point may be given in Euclidean coordinates (x, y) or in
alcove coordinates (s, t), meaning s*alpha1 + t*alpha2 in the coroot basis.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

SQRT3 = math.sqrt(3.0)


class CartesianPoint(NamedTuple):
    x: float
    y: float


class AlcovePoint(NamedTuple):
    s: float
    t: float


class DomainKind(Enum):
    TORUS = "torus"
    EQUILATERAL = "equilateral"
    RIGHT_ISOSCELES = "right-isosceles"
    HEMIEQUILATERAL = "hemiequilateral"


# Half-plane tolerance for the closed point-in-triangle test, applied to each
# edge's cross product (so scaled by the edge's length); the strict variant
# uses the negated tolerance so grid points exactly on an edge are out.
EDGE_TOL = 1e-12


def to_cartesian(p) -> CartesianPoint:
    """Map alcove coordinates (s, t) to Euclidean (x, y) = s*a1 + t*a2."""
    s, t = p
    return CartesianPoint(1.5 * s, SQRT3 * (t - 0.5 * s))


# The six reflection-group images of a dual-lattice pair (m, n), as
# (determinant sign, a, b): the eigenfunction term is sign*e^{2 i pi (a s + b t)}.
def weyl_coefficients(m: int, n: int):
    return (
        (+1, m, n),
        (-1, -m, m + n),
        (-1, m + n, -n),
        (-1, -n, -m),
        (+1, n, -(m + n)),
        (+1, -(m + n), m),
    )


@dataclass(frozen=True)
class DomainSpec:
    """Every per-domain fact in one place.

    Eigenvalues are scale * (m^2 + cross*m*n + n^2) over the admissible
    integer pairs: all of them when lowest is None, else n >= lowest and
    either m > n (ordered) or m >= lowest.  The counting function satisfies
    N(lambda) >= a*lambda - bound_b*sqrt(lambda) + bound_c with
    a = area / 4 pi.  The Faber-Krahn ratio test applies from index
    first_ratio_index on (on the torus from 4: the small nodal domains
    assumption behind Faber-Krahn there needs n >= 4), and index_cutoff is
    the published screening cutoff.
    vertices holds the triangle's corners, counterclockwise, in the
    coordinates that frame maps to Euclidean (x, y); it is None on the
    torus, which has no boundary.  Nodal grids sample [0, e]^2 in those
    coordinates, e the largest vertex coordinate, and SVG plots draw the
    vertices' images under frame.
    """
    scale: float
    cross: int
    lowest: Optional[int]
    ordered: bool
    bound_b: float
    bound_c: float
    index_cutoff: int
    first_ratio_index: int
    frame: Callable[[Tuple[float, float]], CartesianPoint]
    vertices: Optional[Tuple[Tuple[float, float], ...]]

    @property
    def area(self) -> float:
        """|Omega|: the shoelace area of the vertices' images under frame, on
        the torus of the unit cell that the coroots span."""
        v = [*map(self.frame, self.vertices or ((0, 0), (1, 0), (1, 1), (0, 1)))]
        return sum(a.x * b.y - a.y * b.x for a, b in zip(v, v[1:] + v[:1])) / 2.0

    def value(self, m: int, n: int) -> int:
        """Normalized (integer) eigenvalue of the pair (m, n)."""
        return m * m + self.cross * m * n + n * n

    def inside(self, p, q, tol):
        """Membership of (p, q) in the closed domain widened by tol, for
        scalars or broadcasting arrays: for each edge a -> b, the cross
        product (b - a) x ((p, q) - a) is at least -tol.  The terms in p are
        added first, so an edge's sum is fl(u(p) + v(q)) with v(q) = fl((bx -
        ax) q): monotone in q, which makes each row's inside columns of a
        grid one interval (row_ends)."""
        result, v = True, self.vertices or ()
        for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
            result = result & ((ay - by) * p + (ax * by - ay * bx)
                               + (bx - ax) * q >= -tol)
        return result

    def row_ends(self, x, tol):
        """(lo, hi): row i of the grid on the increasing axis x (column p =
        x[i], row q = x[j]) has inside(x[i], x[j], tol) exactly for lo[i] <=
        j < hi[i].  Each end is first read off the edges' lines q(p) through
        the vertices, in O(len(x)); rounding and |tol|, far below a column,
        put the predicate's end within one column of it, so each end is
        settled by inside itself at the three columns around it."""
        r, v = len(x), self.vertices
        lo, hi = np.zeros(r), np.full(r, float(r))
        for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
            if bx != ax:    # the edge bounds q below when bx > ax, else above
                j = (ay + (by - ay) / (bx - ax) * (x - ax)) * ((r - 1) / x[-1])
                if bx > ax:
                    lo = np.maximum(lo, np.ceil(j))
                else:
                    hi = np.minimum(hi, np.floor(j) + 1)
        lo, hi = (np.clip(end, 0, r).astype(np.intp) for end in (lo, hi))
        cols = np.clip(np.stack((lo - 1, lo, lo + 1, hi - 2, hi - 1, hi), 1), 0, r - 1)
        inside = self.inside(x[:, None], x[cols], tol)
        lo, hi = np.where(inside, cols, r).min(1), np.where(inside, cols + 1, 0).max(1)
        return lo, np.maximum(lo, hi)


# Physical eigenvalue per normalized unit on the A2 lattice domains.
SCALE_A2 = 16.0 * math.pi ** 2 / 9.0

DOMAINS = {
    DomainKind.TORUS: DomainSpec(
        scale=SCALE_A2, cross=1, lowest=None, ordered=False,
        bound_b=9.0 / (2.0 * math.pi), bound_c=1.0, index_cutoff=63,
        first_ratio_index=4, frame=to_cartesian, vertices=None),
    DomainKind.EQUILATERAL: DomainSpec(
        scale=SCALE_A2, cross=1, lowest=1, ordered=False,
        bound_b=3.0 / (2.0 * math.pi), bound_c=1.0, index_cutoff=40,
        first_ratio_index=1, frame=to_cartesian,
        vertices=((0.0, 0.0), (2.0 / 3.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0))),
    DomainKind.RIGHT_ISOSCELES: DomainSpec(
        scale=1.0, cross=0, lowest=1, ordered=True,
        bound_b=(4.0 + math.sqrt(2.0)) / 4.0, bound_c=0.5, index_cutoff=26,
        first_ratio_index=1, frame=CartesianPoint._make,
        vertices=((0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi))),
    DomainKind.HEMIEQUILATERAL: DomainSpec(
        scale=SCALE_A2, cross=1, lowest=1, ordered=True,
        bound_b=(6.0 + SQRT3) / (8.0 * math.pi), bound_c=0.5, index_cutoff=32,
        first_ratio_index=1, frame=to_cartesian,
        vertices=((0.0, 0.0), (2.0 / 3.0, 1.0 / 3.0), (0.5, 0.5))),
}
