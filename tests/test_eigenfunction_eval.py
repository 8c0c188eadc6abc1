import math
import weakref

import numpy as np
import pytest

from courant_lab import eigenfunction_eval
from courant_lab.alcove_geometry import (DOMAINS, DomainKind, DomainSpec,
                                         weyl_coefficients)
from courant_lab.eigenfunction_eval import (BLOCK, TRIG_ERR, EigenfunctionHandle,
                                            _gamma, _grid_values, _sums_error,
                                            eval_C, eval_isosceles, eval_psi,
                                            eval_psi_grid, eval_S, mix)
from courant_lab.lattice_spectrum import Mode
from oracles import (alpha_mn, apply_symmetry, eval_torus_mode,
                     pullback_theta)
from test_nodal_analysis import THETA_C, _fc_typed

E = DomainKind.EQUILATERAL
H, B = DomainKind.HEMIEQUILATERAL, DomainKind.RIGHT_ISOSCELES
RNG = np.random.default_rng(42)


def random_points(k):
    return RNG.uniform(0.02, 0.62, size=(k, 2))


ARRAY_HANDLES = [EigenfunctionHandle(E, Mode(*pair), theta)
                 for pair in [(1, 3), (2, 3)]
                 for theta in [0.0, THETA_C, math.pi / 6,
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
    # each grid chooses its evaluators once, and exact_at mixes them alone: a
    # hemiequilateral basis that also evaluated S would have C's bits at
    # theta 0 all the same, so the tuples are asserted too
    def basis_at(d, pair):
        basis = _grid_values(EigenfunctionHandle(d, Mode(*pair)), 64)
        i, j = np.nonzero(basis.mask)
        return basis, i[::7], j[::7], basis.x[i[::7]], basis.x[j[::7]]

    basis, i, j, s, t = basis_at(E, (2, 3))
    assert basis.functions == (eval_C, eval_S)
    assert np.array_equal(basis.exact_at(0.0, i, j), eval_C(2, 3, s, t))
    assert np.array_equal(basis.exact_at(0.35, i, j), eval_psi_grid(2, 3, 0.35, s, t))
    basis, i, j, s, t = basis_at(H, (4, 2))
    assert basis.functions == (eval_C,)
    assert np.array_equal(basis.exact_at(0.0, i, j), eval_C(4, 2, s, t))
    basis, i, j, s, t = basis_at(B, (4, 1))
    assert basis.functions == (eval_isosceles,)
    assert np.array_equal(basis.exact_at(0.0, i, j), eval_isosceles(4, 1, s, t))
    with pytest.raises(ValueError, match="torus"):
        _grid_values(EigenfunctionHandle(DomainKind.TORUS, Mode(1, 0)), 64)


# ---------------------------------------------------------------------------
# the one-slot grid geometry
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """The (domain, resolution) of each geometry built, from an empty cache:
    a build settles each row's ends (DomainSpec.row_ends) once."""
    builds, row_ends = [], DomainSpec.row_ends

    def record(spec, x, tol):
        builds.append((spec, len(x)))
        return row_ends(spec, x, tol)

    monkeypatch.setattr(DomainSpec, "row_ends", record)
    monkeypatch.setattr(eigenfunction_eval, "_GEOMETRY", {})
    return builds


# the candidates above n = 2 less the tiled (4,2) or (2,2) and (3,3), which
# build no grid
@pytest.mark.parametrize("d, candidates", [(E, 2), (H, 6), (B, 6)])
def test_a_verdict_builds_its_grid_geometry_once(monkeypatch, d, candidates):
    from courant_lab import nodal_analysis

    builds = _count_builds(monkeypatch)
    grids, grid_values = [], nodal_analysis._grid_values
    monkeypatch.setattr(nodal_analysis, "_grid_values",
                        lambda h, r: grids.append(h.mode) or grid_values(h, r))
    monkeypatch.setattr(nodal_analysis, "VERDICT_RESOLUTION", 128)
    nodal_analysis.courant_sharp_verdict(d)
    assert len(grids) == candidates and builds == [(DOMAINS[d], 128)]


@pytest.mark.parametrize("d", [E, H, B])
@pytest.mark.parametrize("resolution", [64, 571, 1024])
def test_cached_geometry_is_read_only_and_a_fresh_build_bit_for_bit(
        monkeypatch, d, resolution):
    builds = _count_builds(monkeypatch)
    first = _grid_values(EigenfunctionHandle(d, Mode(3, 1)), resolution)
    second = _grid_values(EigenfunctionHandle(d, Mode(4, 3)), resolution)
    assert builds == [(DOMAINS[d], resolution)]
    eigenfunction_eval._GEOMETRY.clear()
    fresh = eigenfunction_eval._grid_geometry(d, resolution)
    assert len(builds) == 2
    for name, array in zip(("x", "lo", "hi", "starts", "mask"), fresh):
        cached = getattr(first, name)
        assert getattr(second, name) is cached and cached is not array
        assert cached.dtype == array.dtype and np.array_equal(cached, array)
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = cached[-1]
    assert first.mask.shape == (resolution, resolution)


def test_a_new_geometry_drops_the_old_one_before_it_is_built(monkeypatch):
    builds = _count_builds(monkeypatch)
    old = weakref.ref(eigenfunction_eval._grid_geometry(E, 128)[4])
    held = []
    row_ends = DomainSpec.row_ends

    def record(spec, x, tol):
        held.append(old() is not None)
        return row_ends(spec, x, tol)

    monkeypatch.setattr(DomainSpec, "row_ends", record)
    for d, resolution in [(E, 256), (H, 256), (H, 256), (E, 128)]:
        mask = eigenfunction_eval._grid_geometry(d, resolution)[4]
        assert mask.shape == (resolution, resolution)
        assert list(eigenfunction_eval._GEOMETRY) == [(d, resolution)]
        old = weakref.ref(mask)
        del mask
    # the repeated key is a hit, and each new key dropped the only other
    # reference to the last geometry before building its own
    assert builds == [(DOMAINS[d], r) for d, r in [(E, 128), (E, 256), (H, 256), (E, 128)]]
    assert held == [False, False, False]


@pytest.mark.parametrize("h", [EigenfunctionHandle(E, Mode(2, 3), 0.35),
                               EigenfunctionHandle(H, Mode(4, 2)),
                               EigenfunctionHandle(B, Mode(6, 1))])
def test_separable_skips_a_last_block_of_rows_with_no_inside_sample(h):
    # at 571 the last block of BLOCK // 571 rows is the vertex row alone,
    # which holds no inside sample
    basis = _grid_values(h, 571)
    assert 571 % (BLOCK // 571) == 1 and not basis.lo[-1] < basis.hi[-1]
    values, delta = basis.separable(h.theta)
    exact = basis.exact_at(h.theta, *np.nonzero(basis.mask))
    assert values.shape == exact.shape
    assert np.max(np.abs(values - exact)) <= delta


def _decisive_whole(values, delta, rel):
    """_decisive's rule on the whole array at once, with |values| copied."""
    size = np.abs(values)
    top = size.max()
    read = np.abs(size - rel * top) <= (1.0 + rel) * delta
    read[size >= top - 2.0 * delta] = True
    return read


@pytest.mark.parametrize("rel", [0.0, 1e-5])
def test_decisive_block_by_block_is_the_whole_array_rule(rel):
    # three blocks and a part, with the largest |value| and band edges in
    # each, a negative largest value, and delta wide enough to read many
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, 3 * BLOCK + 1234)
    values[[5, BLOCK + 7, 2 * BLOCK + 9]] = [0.999, -1.25, 1.2499]
    values[3 * BLOCK + 17] = rel * 1.25
    for delta in (1e-9, 1e-3, 0.3):
        read = eigenfunction_eval._decisive(values, delta, rel)
        assert read.dtype == bool and np.array_equal(read, _decisive_whole(values, delta, rel))
        assert read[BLOCK + 7] and read[3 * BLOCK + 17]


# GridBasis.separable's delta on the grids below, typed in: a chord's floor
# is the grid's table bound (_table_error), so a change to it for one shows here;
# each grid's largest phase is at the vertex e, whatever the resolution
GRID_DELTAS = {(E, -7.0): 1.0557322100009117e-12, (E, 0.3): 9.359842208488066e-13,
               (E, math.pi / 2): 7.48274541761121e-13, (E, 7.0): 1.0557322100009117e-12,
               (H, 0.0): 8.822086920846534e-13}


@pytest.mark.parametrize("resolution", [512, 4096])
def test_grid_bounds_cover_the_table_and_the_sums(resolution):
    # delta >= |table - truth| + |exact_at - truth| against 40-digit mpmath,
    # the truth mixed with the same floats cos(theta) and sin(theta), at the
    # inside samples with the largest Weyl phases and a few drawn ones; and
    # delta keeps its bits (GRID_DELTAS)
    import mpmath as mp

    rng = np.random.default_rng(5)
    for h, thetas in ((EigenfunctionHandle(E, Mode(2, 3)), (-7.0, 0.3, math.pi / 2, 7.0)),
                      (EigenfunctionHandle(H, Mode(4, 2)), (0.0,))):
        basis = _grid_values(h, resolution)
        terms = weyl_coefficients(*h.mode)
        # each row's first and last inside samples, and their largest phase
        rows = np.flatnonzero(basis.lo < basis.hi)
        i = np.concatenate((rows, rows))
        j = np.concatenate((basis.lo[rows], basis.hi[rows] - 1))
        s, t = basis.x[i], basis.x[j]
        phase = np.max([np.abs(a * s + b * t) for _, a, b in terms], axis=0)
        ends = basis.starts[i] + j - basis.lo[i]
        idx = np.concatenate((ends[np.argsort(phase)[-4:]],
                              rng.integers(0, basis.mask.sum(), 4)))
        i = np.searchsorted(basis.starts, idx, side="right") - 1
        j = basis.lo[i] + idx - basis.starts[i]
        s, t = basis.x[i], basis.x[j]
        for theta in thetas:
            values, delta = basis.separable(theta)
            assert delta == GRID_DELTAS[h.domain, theta]
            exact = basis.exact_at(theta, i, j)
            c, sn = math.cos(theta), math.sin(theta)
            with mp.workdps(40):
                for k in range(len(idx)):
                    p = [(sign, 2 * mp.pi * (a * mp.mpf(float(s[k])) + b * mp.mpf(float(t[k]))))
                         for sign, a, b in terms]
                    truth = sum(sign * mp.cos(q) for sign, q in p)
                    if h.domain is E:
                        truth = c * truth + sn * sum(sign * mp.sin(q) for sign, q in p)
                    assert abs(values[idx[k]] - truth) + abs(exact[k] - truth) <= delta


def test_plots_and_counts_read_one_certified_grid():
    # one certificate for both, and one object for each name to hook
    import courant_lab.eigenfunction_eval as ev
    import courant_lab.nodal_analysis as nodal
    import courant_lab.svg_export as svg

    for name in ("_grid_values", "sign_grid"):
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
    c, sn = eval_C(*pair, s, s), eval_S(*pair, s, s)
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
    # the table bound (_table_error) and the sums' (_sums_error) take numpy's
    # float64 cos and sin to be within TRIG_ERR of the true values (the
    # phases stay below 80 on the modes the tests and the benchmark count),
    # and math's, which a chord's row A_r(a) takes
    # (nodal_analysis._chord_functions), to be;
    # they are within 1 ulp of 1
    import mpmath

    def scalar(f):
        return lambda x: [f(v) for v in x.tolist()]

    x = np.random.default_rng(7).uniform(-400.0, 400.0, 2000)
    with mpmath.workprec(120):
        for f, true in ((np.cos, mpmath.cos), (np.sin, mpmath.sin),
                        (scalar(math.cos), mpmath.cos), (scalar(math.sin), mpmath.sin)):
            err = max(abs(float(true(mpmath.mpf(float(v))) - float(w)))
                      for v, w in zip(x, f(x)))
            assert err <= TRIG_ERR / 2, f.__name__


def test_sums_error_grants_each_cos_and_sin_the_trig_error():
    # the floor of the sums' rounding: where no phase rounds, each of the six
    # Weyl terms' cos and sin may still be TRIG_ERR off, and C, S and the mix
    # round seven times over terms of size at most 1
    for w in (1.0, math.sqrt(2.0)):
        assert _sums_error(w, 0, 0.0) >= 6.0 * w * (TRIG_ERR + _gamma(7))
