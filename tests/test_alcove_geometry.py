import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from courant_lab.alcove_geometry import (DOMAINS, EDGE_TOL, DomainKind,
                                         to_cartesian, weyl_coefficients)
from courant_lab.eigenfunction_eval import EigenfunctionHandle, _grid_values
from courant_lab.lattice_spectrum import Mode
from oracles import BASIS, apply_symmetry, in_domain, to_alcove

SQRT3 = math.sqrt(3.0)

coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def dot(p, q):
    return p.x * q.x + p.y * q.y


def test_vertex_images():
    assert to_cartesian((0.0, 0.0)) == (0.0, 0.0)
    x, y = to_cartesian((2 / 3, 1 / 3))
    assert abs(x - 1.0) < 1e-15 and abs(y) < 1e-15
    x, y = to_cartesian((1 / 3, 1 / 3))
    assert abs(x - 0.5) < 1e-15 and abs(y - SQRT3 / 6) < 1e-15


def test_to_alcove_vertex_b():
    s, t = to_alcove((0.5, SQRT3 / 2))
    assert abs(s - 1 / 3) < 1e-15 and abs(t - 2 / 3) < 1e-15


@given(coord, coord)
def test_round_trip(x, y):
    q = to_cartesian(to_alcove((x, y)))
    assert abs(q.x - x) < 1e-14 and abs(q.y - y) < 1e-14


def test_basis_duality():
    alphas = (BASIS.alpha1_check, BASIS.alpha2_check)
    omegas = (BASIS.omega1, BASIS.omega2)
    for i, w in enumerate(omegas):
        for j, a in enumerate(alphas):
            assert abs(dot(w, a) - (1.0 if i == j else 0.0)) < 1e-15


def test_alpha3_is_sum():
    assert abs(BASIS.alpha3_check.x
               - BASIS.alpha1_check.x - BASIS.alpha2_check.x) < 1e-15
    assert abs(BASIS.alpha3_check.y
               - BASIS.alpha1_check.y - BASIS.alpha2_check.y) < 1e-15


SIGN_PATTERN = (1, -1, -1, -1, 1, 1)


def weyl_images(m, n, s, t):
    """The six (sign, phase) pairs of the reflection-group orbit of (m, n),
    with phase = a*s + b*t from the coefficient form."""
    return [(sign, a * s + b * t) for sign, a, b in weyl_coefficients(m, n)]


def test_weyl_images_origin():
    images = weyl_images(1, 3, 0.0, 0.0)
    assert [s for s, _ in images] == list(SIGN_PATTERN)
    assert all(phase == 0.0 for _, phase in images)


def test_weyl_images_quarter_point():
    phases = [phase for _, phase in weyl_images(1, 3, 0.25, 0.25)]
    expected = [1.0, 0.75, 0.25, -1.0, -0.25, -0.75]
    assert phases == pytest.approx(expected, abs=1e-15)


@given(st.integers(1, 6), st.integers(1, 6), coord, coord)
def test_weyl_images_signs_and_distinct(m, n, s, t):
    images = weyl_images(m, n, s, t)
    assert len(images) == 6
    assert [sg for sg, _ in images] == list(SIGN_PATTERN)
    assert sum(sg for sg, _ in images) == 0


def test_weyl_sum_swap_conjugate():
    # summing sign * e^{2 i pi phase} with (s,t) swapped gives minus the
    # conjugate of the unswapped sum
    m, n, s, t = 2, 5, 0.137, 0.411

    def total(s, t):
        return sum(sg * cmath.exp(2j * math.pi * ph)
                   for sg, ph in weyl_images(m, n, s, t))

    assert abs(total(t, s) + total(s, t).conjugate()) < 1e-13


def test_in_domain_examples():
    assert in_domain(DomainKind.EQUILATERAL, (1 / 3, 1 / 3))
    assert not in_domain(DomainKind.EQUILATERAL, (0.7, 0.7))
    assert in_domain(DomainKind.RIGHT_ISOSCELES, (2.0, 1.0))
    assert not in_domain(DomainKind.RIGHT_ISOSCELES, (1.0, 2.0))
    assert in_domain(DomainKind.TORUS, (17.0, -3.0))
    assert in_domain(DomainKind.HEMIEQUILATERAL, (0.4, 0.3))
    assert not in_domain(DomainKind.HEMIEQUILATERAL, (0.3, 0.4))


def test_in_domain_strict_excludes_boundary():
    assert in_domain(DomainKind.EQUILATERAL, (0.2, 0.1))
    assert not in_domain(DomainKind.EQUILATERAL, (0.2, 0.1), strict=True)


def _equilateral(s, t, tol):
    return (t - 0.5 * s >= -tol) & (s - 0.5 * t >= -tol) & (1.0 - s - t >= -tol)


# The three triangles written out by hand, independently of their vertices:
# the closed-domain predicate widened by tol, the grid extent and the
# Euclidean outline.
REFERENCE = {
    DomainKind.EQUILATERAL: (
        _equilateral, 2.0 / 3.0, ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0))),
    DomainKind.HEMIEQUILATERAL: (
        lambda s, t, tol: _equilateral(s, t, tol) & (s - t >= -tol), 2.0 / 3.0,
        ((0.0, 0.0), (1.0, 0.0), (0.75, SQRT3 / 4.0))),
    DomainKind.RIGHT_ISOSCELES: (
        lambda x, y, tol: (y >= -tol) & (x - y >= -tol) & (math.pi - x >= -tol),
        math.pi, ((0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi))),
}


@pytest.mark.parametrize("resolution", [64, 511, 512, 1023, 1024, 2048, 4096])
@pytest.mark.parametrize("d", list(REFERENCE))
def test_inside_on_the_axes_is_the_reference_predicate(d, resolution):
    predicate, extent, _ = REFERENCE[d]
    x = np.linspace(0.0, extent, resolution)
    p, q = np.meshgrid(x, x, indexing="ij", copy=False)
    for tol in (EDGE_TOL, -EDGE_TOL):
        mask = DOMAINS[d].inside(x[:, None], x[None, :], tol)
        assert np.array_equal(mask, predicate(p, q, tol))


@pytest.mark.parametrize("resolution", [64, 255, 256, 511, 512, 640, 1023, 1024,
                                        2048, 4096])
@pytest.mark.parametrize("d", list(REFERENCE))
def test_row_ends_are_the_rows_of_the_predicate(d, resolution):
    x = np.linspace(0.0, REFERENCE[d][1], resolution)
    j = np.arange(resolution)
    for tol in (EDGE_TOL, -EDGE_TOL):
        lo, hi = DOMAINS[d].row_ends(x, tol)
        rows = (j >= lo[:, None]) & (j < hi[:, None])
        assert np.array_equal(rows, DOMAINS[d].inside(x[:, None], x[None, :], tol))


@pytest.mark.parametrize("d", list(REFERENCE))
def test_vertices_and_edge_midpoints_are_on_the_boundary(d):
    v = DOMAINS[d].vertices
    midpoints = [((ax + bx) / 2, (ay + by) / 2)
                 for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1])]
    for point in (*v, *midpoints):
        assert in_domain(d, point) and not in_domain(d, point, strict=True)


@pytest.mark.parametrize("d", list(REFERENCE))
def test_outline_and_extent_derive_from_the_vertices(d):
    _, extent, outline = REFERENCE[d]
    spec = DOMAINS[d]
    derived = tuple(tuple(to_cartesian(v)) if spec.alcove else v
                    for v in spec.vertices)
    assert derived == outline
    pair = {DomainKind.EQUILATERAL: (1, 2), DomainKind.HEMIEQUILATERAL: (2, 1),
            DomainKind.RIGHT_ISOSCELES: (3, 1)}[d]
    x = _grid_values(EigenfunctionHandle(d, Mode(*pair)), 64).x
    assert x[-1] == extent


@pytest.mark.parametrize("d", list(DomainKind))
def test_area_is_the_area_of_the_vertices(d):
    if d is DomainKind.TORUS:
        a, b = BASIS.alpha1_check, BASIS.alpha2_check
        assert DOMAINS[d].area == abs(a.x * b.y - a.y * b.x)
        return
    outline = REFERENCE[d][2]
    shoelace = sum(ax * by - ay * bx for (ax, ay), (bx, by)
                   in zip(outline, outline[1:] + outline[:1])) / 2.0
    assert DOMAINS[d].area == shoelace


def test_apply_symmetry_examples():
    assert apply_symmetry(1, (0.2, 0.5)) == pytest.approx((0.5, 0.2))
    assert apply_symmetry(2, (1 / 3, 1 / 3)) == pytest.approx((1 / 3, 1 / 3))
    assert apply_symmetry("rot+", (2 / 3, 1 / 3)) == pytest.approx((1 / 3, 2 / 3))


@given(coord, coord)
def test_symmetry_relations(s, t):
    p = (s, t)
    for k in (1, 2, 3):
        q = apply_symmetry(k, apply_symmetry(k, p))
        assert q == pytest.approx(p, abs=1e-12)
    q = apply_symmetry("rot+", apply_symmetry("rot-", p))
    assert q == pytest.approx(p, abs=1e-12)
    lhs = apply_symmetry(3, p)
    rhs = apply_symmetry(1, apply_symmetry(2, apply_symmetry(1, p)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(st.floats(0, 0.7), st.floats(0, 0.7))
def test_symmetries_preserve_triangle(s, t):
    # points within tolerance of an edge have ambiguous membership, so only
    # clear-cut cases are required to be preserved
    margin = min(t - 0.5 * s, s - 0.5 * t, 1.0 - s - t)
    assume(abs(margin) > 1e-9)
    inside = in_domain(DomainKind.EQUILATERAL, (s, t))
    for k in (1, 2, 3, "rot+", "rot-"):
        q = apply_symmetry(k, (s, t))
        assert in_domain(DomainKind.EQUILATERAL, q) == inside


def test_unknown_symmetry_rejected():
    with pytest.raises(ValueError):
        apply_symmetry(4, (0.1, 0.1))
