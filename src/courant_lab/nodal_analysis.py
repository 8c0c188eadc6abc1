"""Fixed points on medians, chord restrictions, critical zeros, the edge
algebra of the mixed equilateral pairs and its bifurcations, and nodal-domain
counts: the 4-connected ndimage.label components of the certified sign grid
(eigenfunction_eval).

On an edge, in x = cos pi u, the edge sums are fc = sigma (T_3 - 1)(x - 1) sin(pi
u) P_C(x) and fs = sigma (T_3 - 1) P_S(x), where T_3 - 1 = 4 (x - 1)(x + 1/2)^2
vanishes only at the vertices.  The edge functions gc and gs, the only ones
evaluated, drop sigma (T_3 - 1).  W(fc, fs) = 16 pi P_W(cos 3 pi u), and each
root x0 != 1 of P_W is a breakpoint of the theta partition.

Each root scan samples once and hands find_roots the samples: an edge scan
mixes at its angle the theta-independent tables of gc, gs, gc' and gs'
(_edge_functions), built once per pair and range (_edge_tables), a chord
scan reads one eval_psi call, and the others evaluate on the sample array.
Every sample, so every root, has the bits of the function at that point.

find_roots solves a sign change of the derivative, a candidate tangent root,
only where Taylor's theorem cannot prove |f| too large for the root to be
kept (_tangent_floor).  Each caller bounds its function's terms and |f''|
in closed form: the chord by its Weyl frequencies, an edge by Bernstein's
inequality on gc and gs, a reduction polynomial by its coefficients.  A
skipped solve is one whose root would have been thrown away, so every
output is the one of solving them all."""

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np
from scipy import ndimage

from .alcove_geometry import AlcovePoint, DomainKind, weyl_coefficients
from .eigenfunction_eval import (MAX_GRID, MIN_GRID, EigenfunctionHandle,
                                 _certified_values, _grid_values, eval_C,
                                 eval_psi, eval_psi_grid, eval_S, sign_grid)
from .lattice_spectrum import Mode
from .pleijel_screening import candidates

PI = math.pi

# Relative half-width of the zero band in the sign grid.  1e-5 (rather than a
# tighter band) is required so that the single grid pixel closest to a
# multi-valent vertex of the nodal set, whose value scales like h^3, is
# classified as zero instead of surviving as a spurious one-pixel component.
ZERO_BAND_REL = 1e-5

# the grid side a verdict counts at
VERDICT_RESOLUTION = 512

# the equilateral mode pairs whose edge analysis is implemented
EDGE_PAIRS = (Mode(1, 3), Mode(2, 3))


def _check_pair(pair) -> Mode:
    pair = Mode(*pair)
    if pair not in EDGE_PAIRS:
        raise ValueError(f"pair ({pair.m}, {pair.n}) not supported "
                         "(use (1,3) or (2,3))")
    return pair


# ---------------------------------------------------------------------------
# The edge algebra: edge sums, reduction and Wronskian polynomials.
# ---------------------------------------------------------------------------

def _edge_terms(pair: Mode):
    """The pair's edge sums as (k, c_k, s_k), k descending: fc = sum c_k
    sin(k pi u) and fs = sum s_k cos(k pi u).  On edge OA, where (s, t) =
    (u, u/2), the Weyl term (sign, a, b) has phase pi (2a + b) u, so fc = -sum
    sign a sin(pi (2a + b) u) and fs = sum sign a cos(pi (2a + b) u); the six
    terms are merged by k = |2a + b| (sin is odd, cos even) with exact
    integer coefficients."""
    merged = {}
    for sign, a, b in weyl_coefficients(*pair):
        k = 2 * a + b
        c, s = merged.get(abs(k), (0, 0))
        merged[abs(k)] = (c - sign * a * ((k > 0) - (k < 0)), s + sign * a)
    return [(k, c, s) for k, (c, s) in sorted(merged.items(), reverse=True)]


def _polyval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polyder(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


@functools.lru_cache(maxsize=None)
def edge_polynomials(pair) -> Tuple[tuple, tuple, tuple]:
    """(P_C, P_S, P_W) of the pair, ascending, derived from _edge_terms in
    exact integer-valued float arithmetic.  FS = sum s_k T_k and FC = sum c_k
    T_k' / k, as cos k pi u = T_k(x) and T_k'(x) sin pi u = k sin k pi u.
    Dividing FC by (T_3 - 1)(x - 1) and FS by T_3 - 1 leaves sigma P_C and
    sigma P_S, sigma the content of the C quotient with the sign of its leading
    coefficient (-4 for (1,3), -8 for (2,3)).  As sin^2 pi u = 1 - x^2 and
    dx/du = -pi sin pi u, W(fc, fs) / pi = (1 - x^2)(FS FC' - FC FS') - x FC FS
    = 16 P_W(T_3), whose coefficients are peeled off as constant terms (T_3(0)
    = 0) between divisions by T_3.  A remainder raises AssertionError."""
    pair = _check_pair(pair)
    P = np.polynomial.polynomial
    terms = _edge_terms(pair)
    t = [np.array([1.0]), np.array([0.0, 1.0])]     # T_k+1 = 2x T_k - T_k-1
    while len(t) <= terms[0][0]:
        t.append(P.polysub(P.polymulx(2.0 * t[-1]), t[-2]))
    fc_x, fs_x = np.zeros(len(t) - 1), np.zeros(len(t))
    for k, c, s in terms:
        fc_x[:k] += c * P.polyder(t[k]) / k
        fs_x[:k + 1] += s * t[k]

    def divide(num, den):
        quotient, remainder = P.polydiv(num, den)
        if np.any(remainder):
            raise AssertionError(f"{tuple(pair)}: {num} / {den} leaves {remainder}")
        return quotient

    vertex = P.polysub(t[3], [1.0])
    q_c = divide(fc_x, P.polymul(vertex, [-1.0, 1.0]))
    q_s = divide(fs_x, vertex)
    sigma = math.copysign(math.gcd(*map(int, q_c)), q_c[-1])
    wronskian = P.polysub(
        P.polymul([1.0, 0.0, -1.0], P.polysub(P.polymul(fs_x, P.polyder(fc_x)),
                                              P.polymul(fc_x, P.polyder(fs_x)))),
        P.polymulx(P.polymul(fc_x, fs_x)))
    p_w = []
    while np.any(wronskian):
        p_w.append(wronskian[0] / 16.0)
        wronskian = divide(P.polysub(wronskian, [wronskian[0]]), t[3])
    return tuple(tuple(float(a) + 0.0 for a in coefs)
                 for coefs in (q_c / sigma, q_s / sigma, p_w))


@functools.lru_cache(maxsize=None)
def _edge_functions(pair: Mode):
    """(values, slopes, bounds), the pair's edge functions written once.
    values(c, s) = (gc, gs) and slopes(c, s) = (gc', gs'), the derivatives
    in u, at c = cos pi u and s = sin pi u, scalars or arrays: gc = s g with
    g = (c - 1) P_C(c) and gs = P_S(c), and as dc/du = -pi s, gc' = pi (c g -
    s^2 dg/dc) and gs' = -pi s P_S'(c).  bounds = ((A_C, A_S), (B_C, B_S)):
    |gc| <= A_C and |gs| <= A_S, the sums of their terms' sizes, and |gc''|
    <= B_C and |gs''| <= B_S, so K's bounds at theta (find_roots) are |cos
    theta| A_C + |sin theta| A_S and the same in B.  As |c| <= 1, A_C = 2 sum
    |P_C| and A_S = sum |P_S|.  In pi u, gc is a trigonometric polynomial of
    degree deg P_C + 2 and gs one of degree deg P_S, and Bernstein's
    inequality bounds the second derivative of one of degree N by N^2 times
    its largest value, so B = (pi N)^2 A."""
    p_c, p_s = edge_polynomials(pair)[:2]
    dp_c, dp_s = _polyder(p_c), _polyder(p_s)

    def values(c, s):
        return s * (c - 1.0) * _polyval(p_c, c), _polyval(p_s, c)

    def slopes(c, s):
        pc = _polyval(p_c, c)
        g = (c - 1.0) * pc
        dg = pc + (c - 1.0) * _polyval(dp_c, c)
        return PI * (c * g - s * s * dg), -PI * s * _polyval(dp_s, c)

    sizes = 2.0 * sum(map(abs, p_c)), sum(map(abs, p_s))
    degrees = len(p_c) + 1, len(p_s) - 1
    return values, slopes, (sizes, tuple((PI * n) ** 2 * a
                                         for n, a in zip(degrees, sizes)))


def _cos_sin(u):
    """cos pi u and sin pi u, numpy's, as Python floats for a scalar u: the
    same bits, and the arithmetic on them is cheaper than on numpy scalars."""
    c, s = np.cos(PI * u), np.sin(PI * u)
    return (float(c), float(s)) if isinstance(u, float) else (c, s)


# ---------------------------------------------------------------------------
# The one root-finding protocol: sample, bracket, Brent, one Newton polish.
# Each caller takes its scan's samples once and hands them to find_roots.
# ---------------------------------------------------------------------------

ROOT_SAMPLES = 4096
# Brent's absolute tolerance; its relative tolerance and iteration cap are
# scipy brentq's defaults
BRENT_XTOL = 1e-13
BRENT_RTOL, BRENT_MAXITER = 4 * sys.float_info.epsilon, 100
# roots closer than MERGE_TOL are reported once
MERGE_TOL = 1e-9
# a bound on the rounding of a value of f, relative to the size M0 of its
# terms that the caller states, ten times the callers' (find_roots)
ROUNDING = 1e-12


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), step for step scipy's
    brentq: the same iterates, so the same bits.  xcur is the best estimate
    and xblk the other end of the bracket; a secant or inverse quadratic step
    is taken when it stays well inside the bracket, else a bisection."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre > 0) == (fcur > 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre > 0) != (fcur > 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAXITER} "
                       f"iterations, value is {xcur!r}")


def find_roots(f, samples, df=None, bounds=None) -> List[float]:
    """All roots of f on [lo, hi], as floats, from its samples = (xs, f(xs),
    df(xs) or None), xs = linspace(lo, hi, ROOT_SAMPLES): solve each sign
    change by Brent's method (_brentq) and, given df, Newton-polish it and
    add the tangent (even-order) roots, the roots of df where |f| < 1e-9 max
    |f(xs)|.  A root on a sample is caught as an exact grid zero: on [-1,
    1], where the reduction polynomials are solved, that is how P_W's triple
    root at the sample x = 1 is found.  Roots within MERGE_TOL of the last
    one kept are dropped, the roots of df before |f| is tested.

    With df come bounds = (M0, M2): M2 >= max |f''| on [lo, hi], and M0 the
    sum of the absolute values of the terms f is summed from.  The callers'
    values of f, and d times those of f' (d < 1e-3, _tangent_floor), round
    by less than 1e-13 M0, a tenth of ROUNDING M0: a Weyl term's phase has a
    few roundings relative to a phase of at most 2 pi (m + n), numpy's cos
    and sin are within 1 ulp, a polynomial of degree n <= 5 evaluated by
    Horner's rule at |x| <= 1 rounds by at most 2n u M0 (u the unit
    roundoff), and one in a rounded cosine is off by at most n^2 M0 times
    the cosine's error (Markov's inequality); a test checks it against
    mpmath.  A sign change of df's samples is solved only where
    _tangent_floor cannot prove its root's |f| above the threshold;
    elsewhere the root would have been thrown away, so the output is that
    of solving every one."""
    xs, ys, dys = samples
    lo, hi = float(xs[0]), float(xs[-1])
    ys = np.asarray(ys, dtype=float)
    threshold = 1e-9 * (float(np.max(np.abs(ys))) or 1.0)
    roots = []
    sign = np.sign(ys)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        r = _brentq(f, xs[i], xs[i + 1], xtol=BRENT_XTOL)
        if df is not None:
            d = df(r)
            if d != 0.0:
                step = f(r) / d
                if abs(step) < (xs[1] - xs[0]):
                    r -= step
        roots.append(float(min(max(r, lo), hi)))
    # grid points that are exact zeros
    for i in np.nonzero(sign == 0)[0]:
        roots.append(float(xs[i]))
    if df is not None:
        dys = np.asarray(dys, dtype=float)
        brackets, floor = _tangent_floor(xs, ys, dys, bounds)
        tangent = [float(min(max(_brentq(df, xs[i], xs[i + 1], xtol=BRENT_XTOL), lo), hi))
                   for i in brackets[floor <= threshold]]
        tangent += [float(xs[i]) for i in np.nonzero(dys == 0)[0]]
        roots += [r for r in _merged(tangent) if abs(f(r)) < threshold]
    return _merged(roots)


def _tangent_floor(xs, ys, dys, bounds):
    """(i, floor): the sign changes i of df's samples dys and, for each, a
    lower bound on the computed |f| at every point within MERGE_TOL of the
    bracket [xs[i], xs[i + 1]], all brackets in one pass.  find_roots skips
    the solve where floor exceeds its threshold, and the output is unchanged:
    - Taylor's theorem with remainder: such a point x lies within d = h/2 +
      MERGE_TOL of an end e of the bracket (h its width), so |f(x)| >= |f(e)|
      - d |f'(e)| - d^2 M2 / 2, and the lesser of the two ends' bounds holds
      at every x;
    - the margin 2 ROUNDING M0 = 2e-12 M0 covers the rounding of the
      samples of f and of d f', and of f(x) when it is computed, 1e-13 M0 each
      (bounds = (M0, M2), find_roots), and the floor's own few operations,
      so at a skipped bracket's root r of df the computed |f(r)| exceeds the
      threshold and r would have been thrown away;
    - the merge: a root of df within MERGE_TOL after r would have been
      dropped with it.  That root is within MERGE_TOL of the bracket, so its
      |f| is above the threshold too and it is thrown away either way.  With
      h > 2 MERGE_TOL a root of df is within MERGE_TOL of at most one other,
      so no other merge changes; on narrower brackets floor is -inf and
      every bracket is solved.
    An exact zero of df's samples is no sign change; find_roots tests it."""
    size, curvature = bounds
    sign = np.sign(dys)
    i = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    d = (xs[i + 1] - xs[i]) / 2.0 + MERGE_TOL
    floor = (np.minimum(np.abs(ys[i]) - d * np.abs(dys[i]),
                        np.abs(ys[i + 1]) - d * np.abs(dys[i + 1]))
             - d * d * curvature / 2.0 - 2.0 * ROUNDING * size)
    return i, np.where(d > 2.0 * MERGE_TOL, floor, -np.inf)


def _merged(roots) -> List[float]:
    """roots in order, less each one within MERGE_TOL of the last one kept."""
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > MERGE_TOL:
            out.append(r)
    return out


def polynomial_roots_unit_interval(pair, which: str) -> List[float]:
    """Real roots in [-1, 1] of the pair's reduction polynomial P_C or P_S,
    or of its Wronskian polynomial P_W, by find_roots."""
    polys = dict(zip(("P_C", "P_S", "P_W"), edge_polynomials(_check_pair(pair))))
    if which not in polys:
        raise ValueError(f"unknown polynomial {which!r}")
    coeffs, dcoeffs = polys[which], _polyder(polys[which])
    f, df = functools.partial(_polyval, coeffs), functools.partial(_polyval, dcoeffs)
    # on [-1, 1] a polynomial is at most the sum of its |coefficients|
    bounds = sum(map(abs, coeffs)), sum(map(abs, _polyder(dcoeffs)))
    xs = np.linspace(-1.0, 1.0, ROOT_SAMPLES)
    return find_roots(f, (xs, f(xs), df(xs)), df=df, bounds=bounds)


# ---------------------------------------------------------------------------
# Fixed points and critical zeros.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    location: AlcovePoint
    label: str


@dataclass(frozen=True)
class CriticalZero:
    location: AlcovePoint
    edge_or_median: str
    parameter_u: float
    order: int


def median_fixed_points(pair) -> List[FixedPoint]:
    """Common zeros of the C/S pair located on the medians.  C vanishes on the
    median s = t, where S(v, v) = -8 sin(pi m v) sin(pi n v) sin(pi (m + n) v),
    so the fixed points there are v = j/k < 1/2 for k in (m, n, m + n); v = 1/3 is
    the centroid F_C.  The rotation (s, t) -> (2/3 - t, 1/3 + s - t) about the
    centroid carries the others to the medians from A and from B.  Exact in
    fractions, rounded once."""
    m, n = pair = _check_pair(pair)
    F = Fraction
    zeros = {F(j, k) for k in (m, n, m + n) for j in range(1, k) if 2 * j < k}
    points = [("F_C", (F(1, 3), F(1, 3)))]
    median = [(v, v) for v in sorted(zeros - {F(1, 3)})]  # the median from O
    for vertex in "OAB":
        points += [(f"F_{vertex}" if len(median) == 1 else f"F_{{{i},{vertex}}}", p)
                   for i, p in enumerate(median, 1)]
        median = [(F(2, 3) - t, F(1, 3) + s - t) for s, t in median]
    out = []
    for label, (s, t) in points:
        s, t = float(s), float(t)
        resid = abs(eval_C(*pair, s, t)) + abs(eval_S(*pair, s, t))
        if resid > 1e-12:
            raise AssertionError(f"fixed point {label} residual {resid:g}")
        out.append(FixedPoint(AlcovePoint(s, t), label))
    return out


def edge_restriction_roots(pair, a: float, theta: float) -> List[float]:
    """Zeros of u -> Psi^theta(u, a-u) on [a/3, 2a/3] (the chord s+t=a),
    including tangential double roots."""
    pair = _check_pair(pair)
    if not 0.0 < a < 1.0:
        raise ValueError("a must be in (0, 1)")
    m, n = pair
    h = EigenfunctionHandle(DomainKind.EQUILATERAL, pair, theta)

    def f(u):
        return eval_psi_grid(m, n, theta, u, a - u)

    def df(u):
        # directional derivative of Psi along the chord direction (1, -1)
        r = eval_psi(h, u, a - u)
        return r.grad_s - r.grad_t

    # the chord endpoints sit on the boundary edges, where the restriction
    # vanishes trivially; only interior intersections are reported
    lo, hi = a / 3.0, 2.0 * a / 3.0
    margin = (hi - lo) * 1e-6
    # f's and df's samples from one evaluation: its value is f's bits
    xs = np.linspace(lo + margin, hi - margin, ROOT_SAMPLES)
    r = eval_psi(h, xs, a - xs)
    # each Weyl term is sign (cos(theta) cos + sin(theta) sin) of a phase
    # whose derivative in u is 2 pi (a - b)
    weight = abs(math.cos(theta)) + abs(math.sin(theta))
    terms = weyl_coefficients(m, n)
    bounds = (weight * len(terms),
              weight * sum((2.0 * PI * (ta - tb)) ** 2 for _, ta, tb in terms))
    return find_roots(f, (xs, r.value, r.grad_s - r.grad_t), df=df, bounds=bounds)


# The open edges: name, the sign of gs in K, the scanned range of the edge
# parameter u (1e-9 inside the vertices) and the edge point at u.
_EDGES = (
    ("OA", +1, (1e-9, 2.0 / 3.0 - 1e-9), lambda u: AlcovePoint(u, u / 2.0)),
    ("OB", -1, (1e-9, 2.0 / 3.0 - 1e-9), lambda u: AlcovePoint(u / 2.0, u)),
    ("BA", -1, (2.0 / 3.0 + 1e-9, 4.0 / 3.0 - 1e-9),
     lambda u: AlcovePoint(u / 2.0, 1.0 - u / 2.0)),
)


def _k_theta(pair: Mode, theta: float, sign: int):
    """(k, dk, mix): mix(a, b) = cos(theta) a + sign sin(theta) b, the one
    theta-combination of an edge, and K = mix(gc, gs) and dK/du = mix(gc',
    gs') (_edge_functions), each taking cos pi u and sin pi u once."""
    values, slopes, _ = _edge_functions(pair)
    ct, st = math.cos(theta), sign * math.sin(theta)

    def mix(a, b):
        return ct * a + st * b

    def k(u):
        return mix(*values(*_cos_sin(u)))

    def dk(u):
        return mix(*slopes(*_cos_sin(u)))

    return k, dk, mix


@functools.lru_cache(maxsize=None)
def _edge_tables(pair: Mode, lo: float, hi: float):
    """The theta-independent samples of an edge scan, read-only: xs =
    linspace(lo, hi, ROOT_SAMPLES) and, at xs, gc, gs, gc' and gs', with cos
    pi u and sin pi u taken once.  K's and dK's samples at theta are
    _k_theta's mix of gc and gs and of gc' and gs', as its k and dk are, so
    each sample has their bits.  OA and OB scan one range: two per pair."""
    xs = np.linspace(lo, hi, ROOT_SAMPLES)
    c, s = np.cos(PI * xs), np.sin(PI * xs)
    values, slopes, _ = _edge_functions(pair)
    tables = (xs, *values(c, s), *slopes(c, s))
    for table in tables:
        table.flags.writeable = False
    return tables


def edge_theta_in_range(theta: float) -> bool:
    """Whether theta is in (0, pi/6], the angles edge_critical_zeros takes."""
    return 0.0 < theta <= PI / 6.0 + 1e-12


def edge_critical_zeros(pair, theta: float) -> List[CriticalZero]:
    """Critical zeros of Psi^theta on the open edges, for theta in (0, pi/6].
    A zero of K is a double root, and Psi^theta's zero there has order 3,
    when K keeps its sign one find_roots sample step on either side of it;
    else K crosses and the order is 2."""
    pair = _check_pair(pair)
    if not edge_theta_in_range(theta):
        raise ValueError("theta must be in (0, pi/6]")
    zeros = []
    # cos(theta) and sin(theta) are positive on (0, pi/6], so K's bounds are
    # the edge functions' bounds mixed with sign +1
    plus = _k_theta(pair, theta, +1)[2]
    bounds = tuple(plus(*b) for b in _edge_functions(pair)[2])
    for edge, sign, (lo, hi), point in _EDGES:
        k, dk, mix = _k_theta(pair, theta, sign)
        xs, gc_xs, gs_xs, dgc_xs, dgs_xs = _edge_tables(pair, lo, hi)
        samples = xs, mix(gc_xs, gs_xs), mix(dgc_xs, dgs_xs)
        step = (hi - lo) / (ROOT_SAMPLES - 1)
        for u in find_roots(k, samples, df=dk, bounds=bounds):
            order = 3 if k(u - step) * k(u + step) > 0 else 2
            zeros.append(CriticalZero(point(u), edge, u, order))
    return zeros


def median_critical_zeros(pair, which: str) -> List[CriticalZero]:
    """Critical zeros on the median from O, parametrized by u -> (u/2, u/2)
    for u in [0, 1].  For C the median lies in the nodal set; for S the only
    critical zero is the vertex O."""
    pair = _check_pair(pair)
    if which == "C":
        h = EigenfunctionHandle(DomainKind.EQUILATERAL, pair, 0.0)

        def g(u):
            return eval_psi(h, 0.5 * u, 0.5 * u).grad_s

        out = [CriticalZero(AlcovePoint(0.0, 0.0), "OM", 0.0, 6)]
        # g has a zero of order >= 4 at O, so start the scan past the noise
        # floor; the interior zeros are well away from the vertex
        xs = np.linspace(0.05, 1.0 - 1e-6, ROOT_SAMPLES)
        for u in find_roots(g, (xs, g(xs), None)):
            out.append(CriticalZero(AlcovePoint(u / 2.0, u / 2.0), "OM", u, 2))
        out.append(CriticalZero(AlcovePoint(0.5, 0.5), "OM", 1.0, 2))
        return out
    if which == "S":
        return [CriticalZero(AlcovePoint(0.0, 0.0), "OM", 0.0, 3)]
    raise ValueError(f"which must be 'C' or 'S', got {which!r}")


# ---------------------------------------------------------------------------
# Bifurcations: the double edge zeros, from the roots of P_W.
# ---------------------------------------------------------------------------

def bifurcations(pair) -> List[Tuple[float, float]]:
    """(u_b, theta) for each root x0 != 1 (the vertex) of the pair's P_W on
    [-1, 1]: the edge system has a double zero at u_b = 1/3 + acos(-x0) / (3
    pi) on edge OA, in [1/3, 2/3] where cos 3 pi u_b = x0, for the mixing angle
    theta in (0, pi/6) at which cos(theta) gc + sin(theta) gs vanishes."""
    pair = _check_pair(pair)
    out = []
    for x0 in polynomial_roots_unit_interval(pair, "P_W"):
        if x0 == 1.0:
            continue
        u_b = 1.0 / 3.0 + math.acos(-x0) / (3.0 * PI)
        g_c, g_s = _edge_functions(pair)[0](*_cos_sin(u_b))
        theta = math.atan2(-g_c, g_s)
        if not 0.0 < theta < PI / 6.0:
            raise AssertionError("bifurcation angle outside (0, pi/6)")
        out.append((u_b, theta))
    return out


def bifurcation_angle() -> Tuple[float, float]:
    """(u_b, theta_c), the one bifurcation of the (2,3) pair."""
    (u_b, theta_c), = bifurcations(Mode(2, 3))
    return u_b, theta_c


# ---------------------------------------------------------------------------
# Nodal-domain counting.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodalReport:
    resolution: int
    domain_count: int
    positive_components: int
    negative_components: int
    stable: bool


def _sweep_counts(h: EigenfunctionHandle, resolution: int,
                  thetas) -> List[Tuple[int, int]]:
    """(positive, negative) 4-connected sign components (ndimage.label's
    default structure in 2-D) of the basis mixed at theta on the handle's
    grid at each of thetas, in order.  The grid is built once, so an angle
    costs one table product, a few exact samples and the labelling
    (_certified_values)."""
    basis = _grid_values(h, resolution)
    counts = []
    for theta in thetas:
        signs = sign_grid(*_certified_values(basis, theta, ZERO_BAND_REL), basis.mask)
        counts.append((ndimage.label(signs == 1)[1], ndimage.label(signs == -1)[1]))
    return counts


def count_nodal_domains(h: EigenfunctionHandle, resolution: int) -> NodalReport:
    """Count sign components on the grid; stable means the total is unchanged
    when the resolution is doubled."""
    # 2r above the cap: refuse before building the r grid, naming r's range
    if not MIN_GRID <= resolution <= MAX_GRID // 2:
        raise ValueError(f"resolution must be >= {MIN_GRID} and <= "
                         f"{MAX_GRID // 2}, got {resolution}")
    (pos, neg), = _sweep_counts(h, resolution, [h.theta])
    (pos2, neg2), = _sweep_counts(h, 2 * resolution, [h.theta])
    return NodalReport(resolution, pos + neg, pos, neg,
                       pos + neg == pos2 + neg2)


# ---------------------------------------------------------------------------
# Final verdict.
# ---------------------------------------------------------------------------

def _theta_partition(d: DomainKind, pair: Mode) -> List[float]:
    """Angles attaining the largest nodal count over the pair's eigenspace.
    Off the equilateral triangle it is one function, and so it is for m = n,
    where C_{m,m} vanishes: pi/2 picks S.  Else the breakpoints of [0, pi/6]
    and each piece's midpoint: theta + pi and the triangle's symmetries keep
    the nodal count and, as 2m + n is not divisible by 3, take every theta
    into [0, pi/6] (test_zero_to_pi_over_6_is_a_fundamental_interval).
    There the count changes only at an edge critical zero on the nodal set,
    a zero of the pair's Wronskian: the angles of bifurcations."""
    if d is not DomainKind.EQUILATERAL:
        return [0.0]
    if pair[0] == pair[1]:
        return [PI / 2.0]
    breaks = [0.0, *sorted(theta for _, theta in bifurcations(pair)), PI / 6.0]
    thetas = [0.0]
    for lo, hi in zip(breaks, breaks[1:]):
        thetas += [(lo + hi) / 2.0, hi]
    return thetas


def _max_count_over_thetas(d: DomainKind, pair: Mode, resolution: int) -> int:
    thetas = _theta_partition(d, pair)
    sweep = _sweep_counts(EigenfunctionHandle(d, pair, thetas[0]), resolution,
                          thetas)
    return max(pos + neg for pos, neg in sweep)


def courant_sharp_verdict(d: DomainKind):
    """(index, sharp) for each screening candidate of the domain: lambda_n is
    sharp if some eigenfunction of it has n nodal domains, so its count is
    the largest over the eigenspace of its cluster's smallest pair, which
    must be the cluster's only pair up to swap (AssertionError otherwise).
    By Courant's theorem every n <= 2 is sharp: a lambda_2 eigenfunction is
    orthogonal to the one-signed first one, so it has exactly two nodal
    domains."""
    verdict = []
    for n, modes in candidates(d):
        if n > 2 and len({tuple(sorted(p)) for p in modes}) > 1:
            raise AssertionError(f"lambda_{n} on {d.value} holds more than one pair "
                                 f"class: {list(modes)}")
        mu = n if n <= 2 else _max_count_over_thetas(d, min(modes), VERDICT_RESOLUTION)
        verdict.append((n, mu == n))
    return verdict
