import math

import numpy as np
import pytest

from courant_lab.alcove_geometry import DomainKind
from courant_lab.eigenfunction_eval import (BLOCK, TRIG_ERR, EigenfunctionHandle,
                                            _grid_values, eigenbasis, eval_C,
                                            eval_isosceles, eval_psi,
                                            eval_psi_grid, eval_S, mix)
from courant_lab.lattice_spectrum import Mode
from courant_lab.nodal_analysis import bifurcation_angle
from oracles import (alpha_mn, apply_symmetry, eval_torus_mode,
                     pullback_theta)
from test_nodal_analysis import _fc_typed

E = DomainKind.EQUILATERAL
H, B = DomainKind.HEMIEQUILATERAL, DomainKind.RIGHT_ISOSCELES
RNG = np.random.default_rng(42)


def random_points(k):
    return RNG.uniform(0.02, 0.62, size=(k, 2))


ARRAY_HANDLES = [EigenfunctionHandle(E, Mode(*pair), theta)
                 for pair in [(1, 3), (2, 3)]
                 for theta in [0.0, bifurcation_angle()[1], math.pi / 6,
                               math.pi / 2]]
ARRAY_HANDLES.append(EigenfunctionHandle(DomainKind.HEMIEQUILATERAL,
                                         Mode(2, 5), 0.0))


@pytest.mark.parametrize("h", ARRAY_HANDLES)
def test_eval_psi_value_is_the_mixed_sums_bit_for_bit(h):
    # the value is eval_psi_grid's, for arrays and for scalars
    s, t = np.random.default_rng(11).uniform(0.02, 0.62, size=(2, 20, 15))
    m, n = h.mode
    assert np.array_equal(eval_psi(h, s, t).value, eval_psi_grid(m, n, h.theta, s, t))
    for i, j in np.ndindex(s.shape):
        v, w = float(s[i, j]), float(t[i, j])
        assert eval_psi(h, v, w).value == eval_psi_grid(m, n, h.theta, v, w)


def test_eigenbasis_spans_each_triangle_eigenspace():
    s, t = np.meshgrid(np.linspace(0.02, 0.62, 7), np.linspace(0.03, 0.61, 7))
    c, sn = eigenbasis(E, (2, 3), s, t)
    assert np.array_equal(c, eval_C(2, 3, s, t))
    assert np.array_equal(sn, eval_S(2, 3, s, t))
    assert np.array_equal(mix((c, sn), 0.35), eval_psi_grid(2, 3, 0.35, s, t))
    (h,) = eigenbasis(DomainKind.HEMIEQUILATERAL, (4, 2), s, t)
    assert np.array_equal(mix((h,), 0.0), eval_C(4, 2, s, t))
    (b,) = eigenbasis(DomainKind.RIGHT_ISOSCELES, (4, 1), s, t)
    assert np.array_equal(b, eval_isosceles(4, 1, s, t))
    with pytest.raises(ValueError, match="torus"):
        eigenbasis(DomainKind.TORUS, (1, 0), s, t)


@pytest.mark.parametrize("h", [EigenfunctionHandle(E, Mode(2, 3), 0.35),
                               EigenfunctionHandle(H, Mode(4, 2)),
                               EigenfunctionHandle(B, Mode(6, 1))])
def test_separable_skips_a_last_block_of_rows_with_no_inside_sample(h):
    # at 571 the last block of BLOCK // 571 rows is the vertex row alone,
    # which holds no inside sample
    basis = _grid_values(h, 571)
    assert 571 % (BLOCK // 571) == 1 and not basis.lo[-1] < basis.hi[-1]
    values, delta = basis.separable(h.theta)
    exact = basis.exact_at(h.theta, np.arange(basis.mask.sum()))
    assert values.shape == exact.shape
    assert np.max(np.abs(values - exact)) <= delta


def test_plots_and_counts_read_one_certified_grid():
    # one certificate for both, and one object for each name to hook
    import courant_lab.eigenfunction_eval as ev
    import courant_lab.nodal_analysis as nodal
    import courant_lab.svg_export as svg

    for name in ("_grid_values", "_certified_values", "sign_grid"):
        assert getattr(svg, name) is getattr(nodal, name) is getattr(ev, name)


def test_torus_mode_values():
    assert eval_torus_mode(0, 0, 0.37, 0.91) == pytest.approx(1.0)
    assert eval_torus_mode(1, 0, 0.5, 0.0) == pytest.approx(-1.0)
    assert abs(abs(eval_torus_mode(3, -2, 0.123, 0.456)) - 1.0) < 1e-14


def test_c_diagonal_pair_vanishes():
    for s, t in random_points(20):
        for m in (1, 2, 3):
            assert abs(eval_C(m, m, s, t)) < 1e-12


def test_c_antisymmetric_s_symmetric():
    for s, t in random_points(20):
        assert eval_C(1, 3, t, s) == pytest.approx(-eval_C(1, 3, s, t), abs=1e-12)
        assert eval_S(2, 3, t, s) == pytest.approx(eval_S(2, 3, s, t), abs=1e-12)
        assert eval_S(3, 2, s, t) == pytest.approx(eval_S(2, 3, s, t), abs=1e-12)


def test_s_diagonal_scaling():
    for s, t in random_points(20):
        for m in (2, 3):
            assert eval_S(m, m, s, t) == pytest.approx(
                eval_S(1, 1, m * s, m * t), abs=1e-11)


def test_s13_median_factorization():
    for u in (0.1, 0.2, 0.45):
        expected = -8 * math.sin(math.pi * u) * math.sin(3 * math.pi * u) \
            * math.sin(4 * math.pi * u)
        assert eval_S(1, 3, u, u) == pytest.approx(expected, rel=1e-12)


def test_s23_median_factorization():
    for u in (0.13, 0.29, 0.41):
        expected = -8 * math.sin(2 * math.pi * u) * math.sin(3 * math.pi * u) \
            * math.sin(5 * math.pi * u)
        assert eval_S(2, 3, u, u) == pytest.approx(expected, rel=1e-11)


def edge_points(k):
    """k points on each closed edge of the triangle, in alcove coordinates."""
    u1 = np.linspace(0.0, 2 / 3, k)
    u2 = np.linspace(2 / 3, 4 / 3, k)
    pts = [(u, u / 2) for u in u1] + [(u / 2, u) for u in u1] \
        + [(u / 2, 1 - u / 2) for u in u2]
    return pts


@pytest.mark.parametrize("pair", [(1, 3), (2, 3), (2, 2), (3, 3)])
@pytest.mark.parametrize("theta", [0.0, math.pi / 12, math.pi / 6, math.pi / 2])
def test_dirichlet_boundary(pair, theta):
    for s, t in edge_points(100):
        assert abs(eval_psi_grid(*pair, theta, s, t)) < 1e-10


def laplacian_f(f, s, t, h=1e-4):
    """(4/9)(d_ss + d_st + d_tt) by central differences."""
    dss = (f(s + h, t) - 2 * f(s, t) + f(s - h, t)) / h ** 2
    dtt = (f(s, t + h) - 2 * f(s, t) + f(s, t - h)) / h ** 2
    dst = (f(s + h, t + h) - f(s + h, t - h) - f(s - h, t + h)
           + f(s - h, t - h)) / (4 * h ** 2)
    return (4.0 / 9.0) * (dss + dst + dtt)


@pytest.mark.parametrize("pair,theta", [
    ((1, 3), 0.0), ((1, 3), math.pi / 2), ((2, 3), 0.3),
    ((2, 2), math.pi / 2), ((3, 3), math.pi / 2),
])
def test_pde_residual_triangle(pair, theta):
    m, n = pair
    lam = (16 * math.pi ** 2 / 9) * (m * m + m * n + n * n)

    def f(s, t):
        return eval_psi_grid(m, n, theta, s, t)

    scale = lam * max(abs(f(s, t)) for s, t in random_points(100))
    for s, t in random_points(100):
        resid = laplacian_f(f, s, t) + lam * f(s, t)
        assert abs(resid) < 1e-5 * scale


def test_pde_residual_isosceles():
    m, n = 4, 3
    lam = float(m * m + n * n)

    def f(x, y):
        return eval_isosceles(m, n, x, y)

    pts = RNG.uniform(0.3, 2.8, size=(100, 2))
    pts = np.array([(max(x, y), min(x, y)) for x, y in pts])
    scale = lam * max(abs(f(x, y)) for x, y in pts)
    for x, y in pts:
        dxx = (f(x + 1e-4, y) - 2 * f(x, y) + f(x - 1e-4, y)) / 1e-8
        dyy = (f(x, y + 1e-4) - 2 * f(x, y) + f(x, y - 1e-4)) / 1e-8
        assert abs(dxx + dyy + lam * f(x, y)) < 1e-5 * scale


def test_torus_mode_pde_residual():
    m, n = 2, 5
    lam = (16 * math.pi ** 2 / 9) * (m * m + m * n + n * n)

    def f(s, t):
        return eval_torus_mode(m, n, s, t).real

    s, t = 0.271, 0.413
    resid = laplacian_f(f, s, t) + lam * f(s, t)
    assert abs(resid) < 1e-5 * lam


def test_eval_psi_gradients_match_finite_differences():
    h = EigenfunctionHandle(E, Mode(2, 3), 0.4)
    step = 1e-6
    for s, t in random_points(20):
        r = eval_psi(h, s, t)
        fd_s = (eval_psi_grid(2, 3, 0.4, s + step, t)
                - eval_psi_grid(2, 3, 0.4, s - step, t)) / (2 * step)
        fd_t = (eval_psi_grid(2, 3, 0.4, s, t + step)
                - eval_psi_grid(2, 3, 0.4, s, t - step)) / (2 * step)
        assert r.grad_s == pytest.approx(fd_s, rel=1e-6, abs=1e-4)
        assert r.grad_t == pytest.approx(fd_t, rel=1e-6, abs=1e-4)


@pytest.mark.parametrize("h", ARRAY_HANDLES)
def test_eval_psi_arrays_equal_scalar_calls(h):
    # a local generator keeps the shared RNG's draws for the other tests
    s, t = np.random.default_rng(7).uniform(0.02, 0.62, size=(2, 20, 15))
    r = eval_psi(h, s, t)
    for field in r:
        assert field.shape == s.shape
    for i, j in np.ndindex(s.shape):
        q = eval_psi(h, float(s[i, j]), float(t[i, j]))
        assert r.value[i, j] == q.value
        assert r.grad_s[i, j] == q.grad_s
        assert r.grad_t[i, j] == q.grad_t


@pytest.mark.parametrize("domain", [DomainKind.TORUS,
                                    DomainKind.RIGHT_ISOSCELES])
def test_eval_psi_rejects_other_domains(domain):
    with pytest.raises(ValueError):
        eval_psi(EigenfunctionHandle(domain, Mode(2, 1), 0.0), 0.2, 0.1)


def test_eval_psi_rejects_a_hemiequilateral_theta():
    # S is symmetric, so a mixed handle would not vanish on the edge s = t
    with pytest.raises(ValueError):
        h = EigenfunctionHandle(DomainKind.HEMIEQUILATERAL, Mode(2, 1), 0.7)
        eval_psi(h, 0.2, 0.2)


@pytest.mark.parametrize("domain,pair,theta,message", [
    (E, (0, 0), 0.0, "pair (0, 0) is not admissible on equilateral"),
    (E, (1, 1), 0.0, "pair (1, 1) at theta 0.0 is identically zero"),
    (E, (2, 2), math.pi, f"pair (2, 2) at theta {math.pi} is identically zero"),
    (E, (0, 3), math.pi / 2, "pair (0, 3) is not admissible on equilateral"),
    (H, (1, 1), 0.0, "pair (1, 1) is not admissible on hemiequilateral"),
    (H, (2, 1), 0.7, "theta must be 0 on hemiequilateral"),
    (B, (2, 1), 0.7, "theta must be 0 on right-isosceles"),
    (E, (2, 3), math.nan, "theta must be finite, got nan"),
    (E, (2, 3), math.inf, "theta must be finite, got inf"),
    (E, (2, 3), -math.inf, "theta must be finite, got -inf")])
def test_a_handle_that_names_no_eigenfunction_cannot_be_built(domain, pair,
                                                              theta, message):
    with pytest.raises(ValueError) as raised:
        EigenfunctionHandle(domain, Mode(*pair), theta)
    assert str(raised.value) == message


@pytest.mark.parametrize("pair,u", [((1, 3), 0.3), ((2, 3), 0.5)])
def test_edge_normal_derivative_reduction(pair, u):
    # d/ds of the cosine sum along edge (u, u/2) equals 2 pi FC(u)
    r = eval_psi(EigenfunctionHandle(E, Mode(*pair), 0.0), u, u / 2)
    assert r.grad_s == pytest.approx(2 * math.pi * _fc_typed(pair, u), rel=1e-12)


def test_psi_basis_cases():
    for s, t in random_points(10):
        assert eval_psi_grid(1, 3, 0.0, s, t) == pytest.approx(
            eval_C(1, 3, s, t), abs=1e-13)
        assert eval_psi_grid(1, 3, math.pi / 2, s, t) == pytest.approx(
            eval_S(1, 3, s, t), abs=1e-13)


def test_psi_theta_plus_pi():
    for s, t in random_points(10):
        assert eval_psi_grid(2, 3, 0.3 + math.pi, s, t) == pytest.approx(
            -eval_psi_grid(2, 3, 0.3, s, t), abs=1e-12)


def test_pullback_specializations():
    two_pi = 2 * math.pi
    theta = 0.21
    new, _ = pullback_theta(2, Mode(1, 3), theta)
    assert new == pytest.approx((math.pi / 3 - theta) % two_pi, abs=1e-12)
    new, _ = pullback_theta(2, Mode(2, 3), theta)
    assert new == pytest.approx((5 * math.pi / 3 - theta) % two_pi, abs=1e-12)
    new, _ = pullback_theta(1, Mode(2, 3), theta)
    assert new == pytest.approx(math.pi - theta, abs=1e-12)


@pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
@pytest.mark.parametrize("sym", [1, 2, 3, "rot+", "rot-"])
def test_pullback_identity_on_grid(pair, sym):
    theta = 0.237
    new, sign = pullback_theta(sym, Mode(*pair), theta)
    grid = np.linspace(0.01, 0.6, 50)
    for s in grid:
        for t in grid:
            ss, tt = apply_symmetry(sym, (s, t))
            lhs = eval_psi_grid(*pair, theta, ss, tt)
            rhs = sign * eval_psi_grid(*pair, new, s, t)
            assert abs(lhs - rhs) < 1e-10


def test_isosceles_identities():
    assert eval_isosceles(3, 2, 1.1, 1.1) == 0.0
    for x, y in RNG.uniform(0.2, 1.3, size=(20, 2)):
        assert eval_isosceles(3, 2, x, y) == pytest.approx(
            -eval_isosceles(3, 2, y, x), abs=1e-12)
        # folding and scaling identities
        assert eval_isosceles(5, 1, x, y) == pytest.approx(
            eval_isosceles(3, 2, x + y, x - y), abs=1e-11)
        assert eval_isosceles(4, 2, x, y) == pytest.approx(
            eval_isosceles(2, 1, 2 * x, 2 * y), abs=1e-11)
    with pytest.raises(ValueError):
        eval_isosceles(2, 2, 0.5, 0.2)


def test_isosceles_swapped_pair_is_the_exact_negative():
    x, y = np.random.default_rng(5).uniform(0.0, math.pi, size=(2, 200))
    assert np.array_equal(eval_isosceles(1, 3, x, y), -eval_isosceles(3, 1, x, y))
    for m, n in ((0, 2), (2, 0), (-1, 2), (3, 3)):
        with pytest.raises(ValueError):
            eval_isosceles(m, n, 0.5, 0.2)


@pytest.mark.parametrize("pair", [(1, 3), (2, 3), (2, 5)])
def test_mix_at_zero_is_c_bit_for_bit_on_the_nodal_median(pair):
    # C vanishes on s = t, where it is often an exact 0 and S < 0 there:
    # 1.0 C + 0.0 S is still C, sign bit included, as C is never -0.0
    s = np.linspace(0.0, 1.0, 100001)
    c, sn = eigenbasis(E, pair, s, s)
    zeros = (c == 0.0) & (sn < 0.0)
    assert zeros.sum() > 1000
    assert not np.signbit(c[c == 0.0]).any()
    for theta in (0.0, -0.0):
        mixed = mix((c, sn), theta)
        assert np.array_equal(mixed, c)
        assert np.array_equal(np.signbit(mixed), np.signbit(c))


def vanishing_order(f, origin, direction, lo=1e-3, hi=1e-2):
    rs = np.geomspace(lo, hi, 8)
    norm = math.hypot(*direction)
    vals = [abs(f(origin[0] + r * direction[0] / norm,
                  origin[1] + r * direction[1] / norm)) for r in rs]
    slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    return slope


def test_vertex_vanishing_orders():
    order = vanishing_order(
        lambda s, t: eval_psi_grid(1, 3, math.pi / 12, s, t), (0, 0), (0.9, 0.7))
    assert order == pytest.approx(3.0, abs=0.1)
    order = vanishing_order(
        lambda s, t: eval_psi_grid(1, 3, 0.0, s, t), (0, 0), (0.9, 0.7))
    assert order == pytest.approx(6.0, abs=0.2)
    # ray must avoid the median from A, which lies in this function's nodal
    # set; wider radii keep the r^6 signal above double-precision noise
    order = vanishing_order(
        lambda s, t: eval_psi_grid(2, 3, 2 * math.pi / 3, s, t),
        (2 / 3, 1 / 3), (-1.0, -0.2), lo=3e-3, hi=3e-2)
    assert order == pytest.approx(6.0, abs=0.2)


def test_numpy_trig_is_within_the_error_the_table_bound_allows():
    # GridBasis.separable's delta takes numpy's float64 cos and sin to be
    # within TRIG_ERR of the true values (its phases stay below 80 on the
    # modes the tests and the benchmark count); they are within 1 ulp of 1
    import mpmath

    x = np.random.default_rng(7).uniform(-400.0, 400.0, 2000)
    with mpmath.workprec(120):
        for f, true in ((np.cos, mpmath.cos), (np.sin, mpmath.sin)):
            err = max(abs(float(true(mpmath.mpf(float(v))) - float(w)))
                      for v, w in zip(x, f(x)))
            assert err <= TRIG_ERR / 2, f.__name__
