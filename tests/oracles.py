"""Reference implementations that the tests compare the library against.

They state facts the library relies on without calling them: the lattice
bases and the coordinate duality behind `to_cartesian`, the closed-domain
predicate, the triangle's symmetry group and its action on the mixing angle
(which reduces theta to [0, pi/6] and so fixes the verdict's theta
partition), the torus exponentials, and the Weyl counting lower bound that
`bound_inverse` inverts.  No command runs them, so they live beside the
tests, independent of the code they check.  One composes the library's own
steps instead: `sweep_counts`, the nodal counts of one grid at many angles,
which no command takes.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

import courant_lab.nodal_analysis as nodal
from courant_lab.alcove_geometry import (DOMAINS, EDGE_TOL, SQRT3, AlcovePoint,
                                         CartesianPoint, DomainKind)
from courant_lab.eigenfunction_eval import TWO_PI
from courant_lab.lattice_spectrum import Mode, bound_coefficients


@dataclass(frozen=True)
class LatticeBasis:
    alpha1_check: CartesianPoint
    alpha2_check: CartesianPoint
    alpha3_check: CartesianPoint
    omega1: CartesianPoint
    omega2: CartesianPoint


# All constants are derived from a single sqrt(3) so the duality and sum
# identities hold to a couple of ulp.
BASIS = LatticeBasis(
    alpha1_check=CartesianPoint(1.5, -SQRT3 / 2.0),
    alpha2_check=CartesianPoint(0.0, SQRT3),
    alpha3_check=CartesianPoint(1.5, SQRT3 / 2.0),
    omega1=CartesianPoint(2.0 / 3.0, 0.0),
    omega2=CartesianPoint(1.0 / 3.0, 1.0 / SQRT3),
)


def to_alcove(q) -> AlcovePoint:
    """Inverse of to_cartesian."""
    x, y = q
    s = 2.0 * x / 3.0
    return AlcovePoint(s, y / SQRT3 + 0.5 * s)


def in_domain(d: DomainKind, p, strict: bool = False) -> bool:
    """Closed-domain membership; strict=True excludes the boundary.

    Right-isosceles points are Euclidean (x, y) in [0, pi]^2; the other
    domains use alcove coordinates. The torus has no boundary.
    """
    tol = -EDGE_TOL if strict else EDGE_TOL
    return bool(DOMAINS[d].inside(*p, tol))


_SYMMETRIES = {
    1: lambda s, t: (t, s),
    2: lambda s, t: (-s + 2.0 / 3.0, t - s + 1.0 / 3.0),
    3: lambda s, t: (s - t + 1.0 / 3.0, -t + 2.0 / 3.0),
    "rot+": lambda s, t: (-t + 2.0 / 3.0, s - t + 1.0 / 3.0),
    "rot-": lambda s, t: (t - s + 1.0 / 3.0, -s + 2.0 / 3.0),
}


def apply_symmetry(k, p) -> AlcovePoint:
    """Apply a mirror (k in {1,2,3}) or rotation ('rot+', 'rot-') to (s, t)."""
    try:
        sym = _SYMMETRIES[k]
    except KeyError:
        raise ValueError(f"unknown symmetry {k!r}") from None
    s, t = p
    return AlcovePoint(*sym(s, t))


def eval_torus_mode(m: int, n: int, s: float, t: float) -> complex:
    """Unit-modulus exponential e^{2 i pi (m s + n t)}."""
    return cmath.exp(2j * math.pi * (m * s + n * t))


def alpha_mn(m: int, n: int) -> float:
    return TWO_PI * (2 * m + n) / 3.0


def pullback_theta(sym, pair: Mode, theta: float) -> Tuple[float, int]:
    """Mixing angle theta' with Psi^theta o sym = sign * Psi^theta'.

    sym is a mirror 1/2/3 or a rotation 'rot+'/'rot-'; theta' is reduced to
    [0, 2 pi) and the sign is always +1 in that representation.
    """
    m, n = pair
    a = alpha_mn(m, n)
    if sym == 1:
        new = math.pi - theta
    elif sym == 2:
        new = math.pi + a - theta
    elif sym == 3:
        new = math.pi - a - theta
    elif sym == "rot+":
        new = theta - a
    elif sym == "rot-":
        new = theta + a
    else:
        raise ValueError(f"unknown symmetry {sym!r}")
    return new % TWO_PI, 1


def counting_lower_bound(d: DomainKind, lam: float) -> float:
    """Closed-form lower bound for the counting function (physical units)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    a, b, c = bound_coefficients(d)
    return a * lam - b * math.sqrt(lam) + c


def band_signs(values, band: float, mask):
    """{+1, -1, 0} per sample of mask: the sign of values, given in the
    mask's row order, outside the zero band [-band, band], and 0 in the band
    and outside the mask."""
    signs = np.zeros(mask.shape, dtype=np.int8)
    signs[mask] = np.where(values > band, 1, np.where(values < -band, -1, 0))
    return signs


def sweep_counts(h, resolution: int, thetas):
    """(positive, negative) 4-connected sign components of the handle's basis
    mixed at each of thetas, in order, on one grid (_grid_values): per angle
    one sign_grid read and a label of each sign's mask (_components).  Each
    step is read from nodal_analysis at the call, so a test's patch of it
    applies."""
    basis = nodal._grid_values(h, resolution)
    counts = []
    for theta in thetas:
        signs = nodal.sign_grid(basis, theta, nodal.ZERO_BAND_REL)
        counts.append((nodal._components(signs == 1), nodal._components(signs == -1)))
    return counts
