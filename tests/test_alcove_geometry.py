import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from courant_lab.alcove_geometry import (BASIS, DomainKind, apply_symmetry,
                                         in_domain, to_alcove, to_cartesian,
                                         weyl_coefficients)

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
