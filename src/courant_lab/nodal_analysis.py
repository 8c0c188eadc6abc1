"""Fixed points on medians, chord restrictions, critical zeros, the edge
algebra of the mixed equilateral pairs and its bifurcations, and nodal-domain
counts: the 4-connected ndimage.label components of each sign's mask of the
certified sign grid (eigenfunction_eval), signs == 1 or -1, compared once and
labelled over the bounding box of its samples alone.  The counts are the
whole grid's, as a 4-path between two samples of one sign runs through that
sign and so stays in their box.  ndimage.label costs about the same per pixel
set or not, and the triangles fill 3/8 (equilateral), 3/16 (hemiequilateral)
and 1/2 (right-isosceles) of the square their grid samples.

A verdict labels less.  A pair g (m, n), g >= 2, that tiles the domain's
lambda_1 or lambda_2 pair has g^2 or 2 g^2 nodal domains at every theta, by
the reflection group (_tiled_count), and builds no grid.  For any other pair
the verdict needs to know whether some count reaches n: each sign's top
runs (_top_runs), its runs in a row with none of it directly above, bound
its components from above, as the topmost row of a component holds one, and
one pass over the sign grid reads both signs'.  An angle whose two bounds
sum to less than n has fewer than n domains and is never labelled, so a
false verdict is settled by the bound on the grid; only an angle whose bound
reaches n forms the sign masks and is labelled.  At 512 none does.

On an edge, in x = cos pi u, the edge sums are fc = sigma (T_3 - 1)(x - 1) sin(pi
u) P_C(x) and fs = sigma (T_3 - 1) P_S(x), where T_3 - 1 = 4 (x - 1)(x + 1/2)^2
vanishes only at the vertices.  The edge functions gc and gs, the only ones
evaluated, drop sigma (T_3 - 1).  W(fc, fs) = 16 pi P_W(cos 3 pi u), and each
root x0 != 1 of P_W is a breakpoint of the theta partition.

Each root scan hands find_roots the points it sampled and f's and f''s
values there.  An edge scan mixes at its angle the theta-independent tables
of gc, gs, gc' and gs' (_edge_functions), built once per pair and edge
(_edge_tables) and holding only the cells of its grid that some angle in (0,
pi/6] can leave near a root, in runs with one NaN sample between two; no
cell spans a gap, and the cells left out hold no root at any angle.  The
polynomial and median scans evaluate their functions on their whole grid.
A chord scan evaluates the restriction's three-frequency form and its slope
(_chord_functions) at every CHORD_STRIDE-th point of its grid and the last,
then at every point of each cell between two of those that the cell test
leaves near a root.  Every sample has the bits of the f or df that
find_roots solves on, so Brent's method reads a bracket's ends from the
samples and every root has the function's bits.

One cell test (_cell_test) decides what a scan with a derivative reads: by
Taylor's theorem, from f and f' at a cell's ends and the bounds on f's
terms and |f''| its caller states in closed form, f has no root on the cell
or is monotone there.  A cell it leaves open is split (_split), so two
zeros within one sample step, as just past theta_c, are found."""

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .alcove_geometry import AlcovePoint, DomainKind, weyl_coefficients
from .eigenfunction_eval import (MAX_GRID, MIN_GRID, TWO_PI, EigenfunctionHandle,
                                 _grid_values, _table_error, eval_C, eval_psi,
                                 eval_S, sign_grid, weyl_tables)
from .lattice_spectrum import Mode
from .pleijel_screening import candidates

PI = math.pi


def _lazy_module(name: str):
    """The module name, bound now and executed on first attribute access
    (importlib.util.LazyLoader), or the module itself if it is loaded."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scipy.ndimage, for ndimage.label alone, is most of this module's import
# time; it loads on the first label, so the commands that never label (plot,
# the root scans, the verdicts) start without it
ndimage = _lazy_module("scipy.ndimage")

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
    |P_C| and A_S = sum |P_S|.  In Chebyshev form g = sum q_k T_k(c) and P_S
    = sum s_k T_k(c), and T_k(cos pi u) = cos k pi u, so gs'' = -sum s_k (k
    pi)^2 cos k pi u and gc = sum q_k (sin (k + 1) pi u - sin (k - 1) pi u) /
    2: B_S = pi^2 sum |s_k| k^2 and B_C = pi^2 sum |q_k| (k^2 + 1)."""
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
    q_c, q_s = map(np.polynomial.chebyshev.poly2cheb, (np.convolve([-1.0, 1.0], p_c), p_s))
    k_c, k_s = np.arange(len(q_c)), np.arange(len(q_s))
    return values, slopes, (sizes, (PI * PI * float(np.abs(q_c) @ (k_c * k_c + 1.0)),
                                    PI * PI * float(np.abs(q_s) @ (k_s * k_s))))


def _chord_functions(h: EigenfunctionHandle, a: float):
    """(trig, values, slopes, bounds, floor), the restriction of Psi^theta to
    the chord s + t = a written once, as a trigonometric polynomial in u with
    the chord's three frequencies (weyl_tables, chord=True): (p, q) = A_r(a)
    W, W = c M_C + s M_S and (c, s) = (cos theta, sin theta), gives
    Psi^theta(u, a - u) = sum p_k cos o_k u + q_k sin o_k u, o_k = 2 pi k for
    k in the columns.  trig(u) takes each cos o_k u and sin o_k u once,
    values(trig(u)) is the restriction and slopes(trig(u)) its derivative in
    u, sum o_k (q_k cos o_k u - p_k sin o_k u), each summed term by term in
    one order with Python's + on floats or arrays, so an array of u and a
    scalar u give the same bits.  bounds = (6 w, w curvature), w = |c| +
    |s|: the size of the six Weyl terms and a bound on |f''| (weyl_tables).
    floor bounds the rounding of values against the restriction mixed with
    the same c and s: the form is A_r W A_c^T in (a, u), whose largest
    phases are 2 pi (m + n) a in the row and o_k 2a/3 in the columns on the
    scanned u <= 2a/3 (_table_error).  Below it a sample's sign is not
    known."""
    rows, cols, mc, ms, curvature = weyl_tables(*h.mode, chord=True)
    c, s = math.cos(h.theta), math.sin(h.theta)
    row = [TWO_PI * k * a for k in rows]
    mixed = c * mc + s * ms
    pq = (np.array([*map(math.cos, row), *map(math.sin, row)]) @ mixed).tolist()
    p, q = pq[:len(cols)], pq[len(cols):]
    omega = [TWO_PI * k for k in cols]

    def trig(u):
        return [_cos_sin(ok * u) for ok in omega]

    def values(cs):
        acc = 0.0
        for pk, qk, (ck, sk) in zip(p, q, cs):
            acc = acc + pk * ck + qk * sk
        return acc

    def slopes(cs):
        acc = 0.0
        for ok, pk, qk, (ck, sk) in zip(omega, p, q, cs):
            acc = acc + ok * (qk * ck - pk * sk)
        return acc

    w = abs(c) + abs(s)
    floor = _table_error(np.abs(mixed), max(row[-1], omega[-1] * 2.0 * a / 3.0))
    return trig, values, slopes, (6.0 * w, w * curvature), floor


def _cos_sin(x):
    """cos x and sin x, numpy's, as Python floats for a scalar x: the same
    bits, and the arithmetic on them is cheaper than on numpy scalars."""
    c, s = np.cos(x), np.sin(x)
    return (float(c), float(s)) if isinstance(x, float) else (c, s)


# ---------------------------------------------------------------------------
# The one root-finding protocol: sample, bracket, Brent, one Newton polish.
# Each caller takes its scan's samples once and hands them to find_roots.
# ---------------------------------------------------------------------------

ROOT_SAMPLES = 4096
# Brent's absolute tolerance; its relative tolerance and iteration cap are
# scipy brentq's defaults
BRENT_XTOL = 1e-13
BRENT_RTOL, BRENT_MAXITER = 4 * sys.float_info.epsilon, 100
# roots closer than MERGE_TOL are reported once, and no cell narrower than it
# is split
MERGE_TOL = 1e-9
# a bound on the rounding of a value of f, relative to the size M0 of its
# terms that the caller states, ten times the callers' (find_roots)
ROUNDING = 1e-12
# a chord scan takes every CHORD_STRIDE-th sample of its grid and the last,
# the ends of its cells, and every sample of the cells the cell test leaves
# near a root
CHORD_STRIDE = 32
_CELL_ENDS = np.append(np.arange(0, ROOT_SAMPLES - 1, CHORD_STRIDE), ROOT_SAMPLES - 1)


def _brentq(f, xa: float, xb: float) -> float:
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
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
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
    """All roots of f on [x[0], x[-1]], as floats, from its samples = (x,
    f(x), df(x) or None) at the increasing points x: a scan's whole grid of
    ROOT_SAMPLES points spaced evenly, or on a chord the part of it its
    sampler takes, which leaves out only cells the cell test (_cell_test)
    finds far from a root, or on an edge runs of it with one NaN sample
    between two, which leave out only cells the cell test finds far from a
    root at every angle (_edge_tables).  A cell with a NaN end is never near
    a root, so no cell spans the gap between two runs.  A bracket [a, b] is
    a cell of two consecutive samples of opposite signs, solved by Brent's
    method (_brentq), whose root lies in [a, b] and which reads f at a and b
    from their samples; given df, one Newton step from it, reading f there
    from Brent's own call, is kept where it lands in [a, b] too, so every
    root lies in [x[0], x[-1]].  A sample where f is 0 is a root too, as
    P_W's triple root x = 1.  Roots within MERGE_TOL of the last one kept
    are dropped.  Without df, as on the median, the samples are trusted.

    With df come bounds = (M0, M2): M2 >= max |f''| on [x[0], x[-1]] and
    M0 the sum of the sizes of the terms f is summed from.  Only a cell the
    test leaves near a root can be a bracket, and each it leaves open is
    split (_split); its brackets are solved the same way, a root of df in its
    leaves where |f| <= 2 ROUNDING M0 is a tangent (even-order) root, and a
    root found so is kept where no root of the scan's own brackets is within
    MERGE_TOL: a scan whose cells all clear keeps every root's bits.  The
    callers' values of f round by less than 1e-13 M0 and those of f' by less
    than 1e-10 M0: a Weyl term's phase has a few roundings relative to a
    phase of at most 2 pi (m + n), numpy's cos and sin are within 1 ulp, a
    chord's form is within its floor, at most 5e-14 M0 (_chord_functions),
    a polynomial of degree n <= 5 evaluated by Horner's rule at |x| <= 1
    rounds by at most 2n u M0 (u the unit roundoff), and one in a rounded
    cosine is off by at most n^2 M0 times the cosine's error (Markov's
    inequality); tests check it against mpmath."""
    return [r for r, _ in _scan_roots(f, samples, df, bounds)]


def _scan_roots(f, samples, df, bounds) -> List[Tuple[float, bool]]:
    """find_roots' roots in order, each with whether it is a tangent root."""
    x, ys, dys = samples

    def solve(a, b, fa, fb):
        # Brent's method reads f at a and b from their samples, which have
        # f's bits, and Newton's step reads f at Brent's root from Brent
        seen = {a: fa, b: fb}

        def memo(u):
            if u not in seen:
                seen[u] = f(u)
            return seen[u]

        r = _brentq(memo, a, b)
        if df is not None:
            d = df(r)
            if d != 0.0:
                polished = r - memo(r) / d
                if a <= polished <= b:
                    r = polished
        return float(r)

    near, steep = ((np.arange(len(x) - 1), np.ones(len(x) - 1, dtype=bool)) if df is None
                   else _cell_test(x, ys, dys, bounds))
    # each near cell's two ends, a row: a sign change or a sample where f is
    # 0 is at one
    ends = near[:, None] + (0, 1)
    sign = np.sign(ys[ends])
    cells = ends[sign[:, 0] * sign[:, 1] < 0]
    roots = [solve(*row) for row in np.hstack([x[cells], ys[cells]]).tolist()]
    roots = _merged((r, False) for r in roots + x[ends[sign == 0]].tolist())
    if steep.all():
        return roots
    ends = ends[~steep]
    brackets, tangents = _split(f, df, bounds, x[ends], ys[ends], dys[ends])
    # a bracket that holds a root found already, within MERGE_TOL, holds no other
    kept = np.array([r for r, _ in roots])
    found = [(solve(a, b, fa, fb), False) for a, b, fa, fb in brackets
             if not np.any((a - MERGE_TOL <= kept) & (kept <= b + MERGE_TOL))]
    found += [(u, True) for u in tangents
              if abs(f(u)) <= 2.0 * ROUNDING * bounds[0]]
    return _merged(roots + [(r, tangent) for r, tangent in _merged(found)
                            if not np.any(np.abs(kept - r) <= MERGE_TOL)])


def _meets_zero(ends):
    """Which rows of ends, a function at two ends of a cell, reach 0."""
    return np.sign(ends[:, 0]) * np.sign(ends[:, 1]) <= 0


def _cell_test(x, ys, dys, bounds):
    """(near, steep) for the cells between consecutive samples x, with f's
    and f''s samples ys and dys and bounds = (M0, M2) (find_roots): near,
    the cells Taylor's bound on |f| leaves near a root, and for each whether
    f' keeps one sign on it, so that f has one root there at most, where its
    ends differ in sign.  A cell not near, or steep, is cleared.  Each point
    within MERGE_TOL of a cell is within w, half its width plus MERGE_TOL,
    of an end e, so |f(x)| >= |f(e)| - w |f'(e)| - w^2 M2 / 2 and |f'(x) -
    f'(e)| <= w M2.  A cell is near unless that bound exceeds the margin 2
    ROUNDING M0 at both ends, and steep where w |f'(e)| - w^2 M2 does and f'
    has one sign at them.  The margin covers the rounding of f, 1e-13 M0,
    of w f', w < 1e-2 in every scan, and of the test's few operations.  A
    cell with a NaN end, across the gap between two runs of an edge scan's
    samples (_edge_tables), is never near: NaN <= margin is false."""
    size, curvature = bounds
    margin = 2.0 * ROUNDING * size
    w = np.diff(x) / 2.0 + MERGE_TOL
    value, slope = np.abs(ys), np.abs(dys)
    low = np.minimum(value[:-1] - w * slope[:-1], value[1:] - w * slope[1:])
    low -= w * w * (curvature / 2.0)
    near = np.flatnonzero(low <= margin)
    w = w[near]
    steep = ((w * np.minimum(slope[near], slope[near + 1]) - w * w * curvature > margin)
             & ((dys[near] > 0) == (dys[near + 1] > 0)))
    return near, steep


def _split(f, df, bounds, x, ys, dys):
    """(brackets, tangents) in the open cells, rows [a, b] of x with f's and
    f''s samples ys and dys; a bracket is a row [a, b, f(a), f(b)], its
    values the samples'.  Each cell is split into CHORD_STRIDE cells, by the
    scan's own vectorized f and df, until it clears (_cell_test), is
    narrower than MERGE_TOL or has |f| within the margin 2 ROUNDING M0 at
    both ends, a leaf.  A cleared cell where f reaches 0 is a bracket; so is
    such a leaf if |f| is beyond the margin at both ends, where their signs
    are f's, else only if f' keeps one sign, not 0, on its run of adjoining
    leaves, as a sign change of rounding by a root of f' is not f's.  Where
    f' reaches 0 in a leaf, its root is a candidate tangent root."""
    margin = 2.0 * ROUNDING * bounds[0]
    brackets, leaves = [], []
    while True:
        leaf = (x[:, 1] - x[:, 0] < MERGE_TOL) | np.all(np.abs(ys) <= margin, axis=1)
        leaves.append((x[leaf], ys[leaf], dys[leaf]))
        x, ys, dys = x[~leaf], ys[~leaf], dys[~leaf]
        if not len(x):
            break
        inner = x[:, :1] + (x[:, 1:] - x[:, :1]) * (np.arange(1, CHORD_STRIDE) / CHORD_STRIDE)
        # each cell's samples in one row, the rows in one array
        x, ys, dys = (np.concatenate([v[:, :1], inside, v[:, 1:]], 1).ravel()
                      for v, inside in ((x, inner), (ys, f(inner)), (dys, df(inner))))
        near, steep = _cell_test(x, ys, dys, bounds)
        # the last cell of a row joins it to the next
        real = near % (CHORD_STRIDE + 1) < CHORD_STRIDE
        shut, ends = near[real & steep, None] + (0, 1), near[real & ~steep, None] + (0, 1)
        brackets.append(np.hstack([x[shut], ys[shut]])[_meets_zero(ys[shut])])
        x, ys, dys = x[ends], ys[ends], dys[ends]
    x, ys, dys = map(np.concatenate, zip(*leaves))
    order = np.argsort(x[:, 0])
    x, ys, dys = x[order], ys[order], dys[order]
    run = np.cumsum(np.append(True, x[1:, 0] != x[:-1, 1]))[:len(x)]
    turn = _meets_zero(dys)
    sure = np.all(np.abs(ys) > margin, axis=1)
    solvable = _meets_zero(ys) & (sure | (np.bincount(run, turn)[run] == 0))
    brackets.append(np.hstack([x, ys])[solvable])
    return np.concatenate(brackets).tolist(), [_brentq(df, a, b) for a, b in x[turn].tolist()]


def _merged(roots) -> List[Tuple[float, bool]]:
    """(root, tangent) pairs in order, less each within MERGE_TOL of the last."""
    out = []
    for r in sorted(roots):
        if not out or abs(r[0] - out[-1][0]) > MERGE_TOL:
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
    including tangential double roots.  The scan's grid is ROOT_SAMPLES
    points spaced evenly from 1e-6 of the chord inside one end to as far
    inside the other; the form (_chord_functions) is evaluated at the ends
    of its cells, every CHORD_STRIDE-th sample and the last, then at every
    sample of the cells the cell test (_cell_test) leaves near a root.
    find_roots gets the samples taken from the first above the form's floor
    to the last, and decides on them what it would on every sample."""
    pair = _check_pair(pair)
    if not 0.0 < a < 1.0:
        raise ValueError("a must be in (0, 1)")
    trig, values, slopes, bounds, floor = _chord_functions(
        EigenfunctionHandle(DomainKind.EQUILATERAL, pair, theta), a)

    def f(u):
        return values(trig(u))

    def df(u):
        return slopes(trig(u))

    # the chord endpoints sit on the boundary edges, where the restriction
    # vanishes trivially; only interior intersections are reported
    lo, hi = a / 3.0, 2.0 * a / 3.0
    margin = (hi - lo) * 1e-6
    xs = np.linspace(lo + margin, hi - margin, ROOT_SAMPLES)
    cs = trig(xs[_CELL_ENDS])
    near = np.zeros(len(_CELL_ENDS) - 1, dtype=bool)
    near[_cell_test(xs[_CELL_ENDS], values(cs), slopes(cs), bounds)[0]] = True
    taken = np.repeat(near, CHORD_STRIDE)
    taken[_CELL_ENDS] = True
    x = xs[taken]
    cs = trig(x)
    ys, dys = values(cs), slopes(cs)
    # the form rounds by up to 1e-13 M0 (find_roots): on a chord this small
    # no sample's sign is known to be the restriction's
    if np.max(np.abs(ys)) <= ROUNDING * bounds[0]:
        raise ValueError(f"the chord s + t = {a!r} is within rounding of zero")
    # nor is it below the form's own rounding, as near an end of a chord by a
    # vertex: the scan runs from the first sample above that floor to the last
    known = np.abs(ys) > floor
    scan = slice(known.argmax(), len(ys) - known[::-1].argmax())
    return find_roots(f, (x[scan], ys[scan], dys[scan]), df=df, bounds=bounds)


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
        return mix(*values(*_cos_sin(PI * u)))

    def dk(u):
        return mix(*slopes(*_cos_sin(PI * u)))

    return k, dk, mix


# the largest angle edge_critical_zeros takes, pi/6 and a rounding's slack
EDGE_THETA_MAX = PI / 6.0 + 1e-12


@functools.lru_cache(maxsize=None)
def _edge_tables(pair: Mode, sign: int, lo: float, hi: float):
    """The theta-independent samples of an edge scan, read-only: of xs =
    linspace(lo, hi, ROOT_SAMPLES), the ends of the cells that some angle in
    (0, EDGE_THETA_MAX] can leave near a root, and at each gc, gs, gc' and
    gs', with cos pi u and sin pi u taken once; one NaN sample sits between
    two runs of kept cells, so no cell spans a gap.  K's and dK's samples at
    theta are _k_theta's mix of gc and gs and of gc' and gs', as its k and
    dk are, so each sample has their bits.  One entry per pair and edge.

    At a sample e, K_e = cos theta gc_e + sign sin theta gs_e is a sinusoid
    in theta, with at most one zero on [0, EDGE_THETA_MAX] and |K_e| concave
    between its zeros: there |K_e| >= L_e, the smaller of |K_e| at the two
    ends where they share a strict sign, and 0 otherwise.  Also |dK_e| <=
    hypot(gc'_e, gs'_e), and the scan's M2 and margin (edge_critical_zeros)
    are at most hypot(B_C, B_S) and 2 ROUNDING hypot(A_C, A_S)
    (_edge_functions).  So a cell that the cell test (_cell_test) clears on
    (L, hypot(gc', gs')) at those bounds it clears at every angle, and only
    the cells it leaves near are kept.  Its margin there is widened by 1%
    and by 1e-13 (A_C + A_S), a slack for rounding.  With u = 2^-53, the
    scan's K_e rounds by at most 2u (A_C + A_S), and its (cos theta, sin
    theta) is rho (cos theta', sin theta') with |rho - 1| <= 2u and theta'
    at most 2u past EDGE_THETA_MAX, which moves K_e by at most 4u (A_C +
    A_S); L_e rounds as K_e does; w |dK_e| and w^2 M2 / 2 are below 1e-4
    (A_C + A_S) on every edge, so round by far less, and the scan's margin
    and M2 round by 4u of themselves.  In all, under 20u (A_C + A_S), well
    within the slack."""
    xs = np.linspace(lo, hi, ROOT_SAMPLES)
    c, s = np.cos(PI * xs), np.sin(PI * xs)
    values, slopes, (sizes, curvatures) = _edge_functions(pair)
    tables = (xs, *values(c, s), *slopes(c, s))
    _, gc, gs, dgc, dgs = tables
    # K at theta = 0 is gc, and at EDGE_THETA_MAX k_max
    k_max = _k_theta(pair, EDGE_THETA_MAX, sign)[2](gc, gs)
    low = np.where(np.sign(gc) * np.sign(k_max) > 0,
                   np.minimum(np.abs(gc), np.abs(k_max)), 0.0)
    bounds = (1.01 * math.hypot(*sizes) + 1e-13 * sum(sizes) / (2.0 * ROUNDING),
              math.hypot(*curvatures))
    near = _cell_test(xs, low, np.hypot(dgc, dgs), bounds)[0]
    keep = np.zeros(ROOT_SAMPLES - 1, dtype=bool)
    keep[near] = True
    # the ends of the kept cells; a run ends where the next cell is not kept
    at = np.flatnonzero(np.append(keep, False) | np.append(False, keep))
    gaps = np.flatnonzero(~keep[at[:-1]]) + 1
    tables = tuple(np.insert(table[at], gaps, np.nan) for table in tables)
    for table in tables:
        table.flags.writeable = False
    return tables


def edge_theta_in_range(theta: float) -> bool:
    """Whether theta is in (0, pi/6], the angles edge_critical_zeros takes."""
    return 0.0 < theta <= EDGE_THETA_MAX


def edge_critical_zeros(pair, theta: float) -> List[CriticalZero]:
    """Critical zeros of Psi^theta on the open edges, for theta in (0, pi/6].
    A zero of K found as a sign change is a simple root, where Psi^theta's
    zero has order 2; one found as a tangent root, a root of dK where |K| is
    within rounding (find_roots), is a double root, of order 3."""
    pair = _check_pair(pair)
    if not edge_theta_in_range(theta):
        raise ValueError("theta must be in (0, pi/6]")
    zeros = []
    # cos(theta) and sin(theta) are positive on (0, pi/6], so K's bounds are
    # the edge functions' bounds mixed with sign +1
    ct, st = math.cos(theta), math.sin(theta)
    bounds = tuple(ct * a + st * b for a, b in _edge_functions(pair)[2])
    for edge, sign, (lo, hi), point in _EDGES:
        k, dk, mix = _k_theta(pair, theta, sign)
        xs, gc_xs, gs_xs, dgc_xs, dgs_xs = _edge_tables(pair, sign, lo, hi)
        samples = xs, mix(gc_xs, gs_xs), mix(dgc_xs, dgs_xs)
        zeros += [CriticalZero(point(u), edge, u, 3 if tangent else 2)
                  for u, tangent in _scan_roots(k, samples, dk, bounds)]
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
        g_c, g_s = _edge_functions(pair)[0](*_cos_sin(PI * u_b))
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


def _components(on: np.ndarray) -> int:
    """The number of 4-connected components of on, one sign's mask of a sign
    grid, by one ndimage.label call over the bounding box of its set samples:
    the same number as over the whole grid, as a 4-path between two of them
    runs through set samples alone and so never leaves their box.  An absent
    sign is labelled over the empty (0, 0) box, which has no component."""
    rows, cols = (np.flatnonzero(on.any(axis)) for axis in (1, 0))
    box = ((slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
           if rows.size else (slice(0), slice(0)))
    return ndimage.label(on[box])[1]


def _top_runs(signs: np.ndarray) -> Tuple[int, int]:
    """Upper bounds (positive, negative) on the components of each sign of
    a sign grid (_components), read in one pass: the number of top runs of
    each sign.  A run is a maximal stretch of one value in a row: it starts
    where a row begins or the value changes.  A top run of a sign is a run
    of it with no sample of its sign directly above any of its samples.  The
    topmost row of a component holds one of the component's runs, and a
    sample of its sign above that run would join the component a row
    higher, so that run is a top run; a run lies in one component, so no two
    components share it, and neither bound is below its count."""
    width = signs.shape[1]
    flat = signs.ravel()
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::width] = True
    starts = np.flatnonzero(starts)
    # each sample with its own value directly above it: a run is covered if
    # one of its samples is
    above = np.zeros(flat.size, dtype=bool)
    np.equal(flat[width:], flat[:-width], out=above[width:])
    top = flat[starts[~np.logical_or.reduceat(above, starts)]]
    return int(np.count_nonzero(top == 1)), int(np.count_nonzero(top == -1))


def count_nodal_domains(h: EigenfunctionHandle, resolution: int) -> NodalReport:
    """Count the sign components (_components) of the handle's sign grid at
    h.theta, built at resolution and then at twice it; stable means the total
    is unchanged when the resolution is doubled."""
    # 2r above the cap: refuse before building the r grid, naming r's range
    if not MIN_GRID <= resolution <= MAX_GRID // 2:
        raise ValueError(f"resolution must be >= {MIN_GRID} and <= "
                         f"{MAX_GRID // 2}, got {resolution}")
    counts = []
    for r in (resolution, 2 * resolution):
        signs = sign_grid(_grid_values(h, r), h.theta, ZERO_BAND_REL)
        counts.append((_components(signs == 1), _components(signs == -1)))
    (pos, neg), (pos2, neg2) = counts
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
    The breakpoints are the angles of bifurcations, where an edge critical
    zero of the pair's Wronskian lies on the nodal set.  The count can also
    change at an interior singular point, where Psi^theta and its gradient
    vanish together: (3,4) has one at theta = 0.1289918, which no edge root
    gives.  For the verdict's pairs (1,3) and (2,3) a search found none off
    the median, so these angles are theirs."""
    if d is not DomainKind.EQUILATERAL:
        return [0.0]
    if pair[0] == pair[1]:
        return [PI / 2.0]
    breaks = [0.0, *sorted(theta for _, theta in bifurcations(pair)), PI / 6.0]
    thetas = [0.0]
    for lo, hi in zip(breaks, breaks[1:]):
        thetas += [(lo + hi) / 2.0, hi]
    return thetas


def _max_count_over_thetas(d: DomainKind, pair: Mode, resolution: int,
                           n: int) -> int:
    """The largest nodal count over the pair's theta partition among the
    angles where it can reach n, 0 if it can reach n at none.  The grid is
    built once and each angle costs one sign_grid call and one pass of
    _top_runs over its signs, which bounds both signs' components; only an
    angle whose bounds sum to n or more forms the two sign masks and is
    labelled (_components).  As an angle below that has fewer than n
    components, the result is n exactly when the largest count over the
    partition is n."""
    thetas = _theta_partition(d, pair)
    basis = _grid_values(EigenfunctionHandle(d, pair, thetas[0]), resolution)
    best = 0
    for theta in thetas:
        signs = sign_grid(basis, theta, ZERO_BAND_REL)
        if sum(_top_runs(signs)) < n:
            continue
        best = max(best, _components(signs == 1) + _components(signs == -1))
    return best


def _tiled_count(d: DomainKind, pair: Mode, rows) -> Optional[int]:
    """The nodal count of every eigenfunction of the pair's eigenspace, at
    every theta, where the triangle's reflection group fixes it, else None.
    rows are the domain's screening candidates, whose first two are lambda_1
    and lambda_2.  With g = gcd(m, n) >= 2 and the primitive pair q = (m/g,
    n/g) a pair of row k <= 2 up to swap, the count is g^2 k:
    - weyl_coefficients (and eval_isosceles) are linear in (m, n), so
      Psi^theta_{g q}(x) = Psi^theta_q(g x), and the pair's eigenfunction on
      the triangle T is q's on g T, shrunk by g;
    - Psi_q is odd under the reflection in each edge of T, so it vanishes
      on every mirror of the group they generate (the reflection principle).
      T's vertex at the origin is one where mirrors of every direction meet,
      so x -> g x takes mirrors to mirrors, and g T is tiled by g^2 images
      of T, on each of which Psi_q is, up to sign, an eigenfunction of q's
      eigenspace.  Every tile edge is in the zero set, so no nodal domain
      crosses one;
    - by Courant's theorem a lambda_1 eigenfunction has 1 nodal domain, and
      a lambda_2 one, orthogonal to the one-signed first, exactly 2.
    The torus has no mirrors: None."""
    g = math.gcd(*pair)
    if d is DomainKind.TORUS or g < 2:
        return None
    q = sorted((pair[0] // g, pair[1] // g))
    for k, modes in rows[:2]:
        if q in (sorted(p) for p in modes):
            return k * g * g
    return None


def courant_sharp_verdict(d: DomainKind):
    """(index, sharp) for each screening candidate of the domain: lambda_n is
    sharp if some eigenfunction of it has n nodal domains, so its count is
    the largest over the eigenspace of its cluster's smallest pair, which
    must be the cluster's only pair up to swap (AssertionError otherwise).
    By Courant's theorem every n <= 2 is sharp: a lambda_2 eigenfunction is
    orthogonal to the one-signed first one, so it has exactly two nodal
    domains.  A pair that tiles a lambda_1 or lambda_2 pair has its exact
    count (_tiled_count) and builds no grid: equilateral (2,2) and (3,3),
    right-isosceles and hemiequilateral (4,2).  Any other count is taken
    only where it can reach n: an angle whose top-run bound (_top_runs) is
    below n is settled without labelling, so a false verdict is proved on
    the grid by the bound alone, and only an angle whose bound reaches n is
    labelled (_max_count_over_thetas)."""
    rows = candidates(d)
    verdict = []
    for n, modes in rows:
        if n > 2 and len({tuple(sorted(p)) for p in modes}) > 1:
            raise AssertionError(f"lambda_{n} on {d.value} holds more than one pair "
                                 f"class: {list(modes)}")
        pair = min(modes)
        mu = n if n <= 2 else (_tiled_count(d, pair, rows)
                               or _max_count_over_thetas(d, pair, VERDICT_RESOLUTION, n))
        verdict.append((n, mu == n))
    return verdict
