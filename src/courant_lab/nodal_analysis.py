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

Each root scan hands find_roots its whole grid and its samples with their
indices on it: an edge scan mixes at its angle the theta-independent tables
of gc, gs, gc' and gs' (_edge_functions), built once per pair and range
(_edge_tables), and the polynomial and median scans evaluate their functions
on the whole grid.  A chord scan evaluates the restriction's three-frequency
form and its slope (_chord_functions) at every CHORD_STRIDE-th sample and
the last, then at every sample of each cell between two of those that
Taylor's theorem cannot prove undecided (_open_cells): a cleared cell holds
no sign change, no exact zero, no tangential solve and not the largest |f|,
so find_roots decides on the samples taken what it would on all of them.
Every sample has the bits of the f or df that find_roots solves on, so every
root has the function's bits.

find_roots solves a sign change of the derivative, a candidate tangent root,
only where Taylor's theorem cannot prove |f| too large for the root to be
kept (_tangent_floor).  Each caller bounds its function's terms and |f''|
in closed form: the chord by its Weyl frequencies, an edge by Bernstein's
inequality on gc and gs, a reduction polynomial by its coefficients.  A
skipped solve is one whose root would have been thrown away, so every
output is the one of solving them all."""

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
# Each caller takes its scan's samples once and hands them to find_roots with
# their indices on the scan's grid.
# ---------------------------------------------------------------------------

ROOT_SAMPLES = 4096
# the indices of a scan that takes every sample of its grid
EVERY_SAMPLE = np.arange(ROOT_SAMPLES)
EVERY_SAMPLE.flags.writeable = False
# Brent's absolute tolerance; its relative tolerance and iteration cap are
# scipy brentq's defaults
BRENT_XTOL = 1e-13
BRENT_RTOL, BRENT_MAXITER = 4 * sys.float_info.epsilon, 100
# roots closer than MERGE_TOL are reported once
MERGE_TOL = 1e-9
# a bound on the rounding of a value of f, relative to the size M0 of its
# terms that the caller states, ten times the callers' (find_roots)
ROUNDING = 1e-12
# a chord scan takes every CHORD_STRIDE-th sample of its grid and the last,
# the ends of its cells, and every sample of the cells _open_cells leaves open
CHORD_STRIDE = 32
_CELL_ENDS = np.append(np.arange(0, ROOT_SAMPLES - 1, CHORD_STRIDE), ROOT_SAMPLES - 1)
# the cell of each sample, the right one at an end but the last
_CELL_OF = np.minimum(EVERY_SAMPLE // CHORD_STRIDE, len(_CELL_ENDS) - 2)


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
    """All roots of f on [lo, hi] = [xs[at[0]], xs[at[-1]]], as floats, from
    its samples = (xs, at, f(xs[at]), df(xs[at]) or None): xs is the scan's
    grid, ROOT_SAMPLES points spaced evenly, and at the increasing indices of
    the samples taken.  The sampler takes both ends of [lo, hi] and a sample
    of the largest |f| on it, so the threshold below is the whole range's,
    and leaves out only samples it proves can decide nothing here
    (_open_cells); the edge, polynomial and median scans take every sample
    (EVERY_SAMPLE).  A bracket is two samples of opposite signs that are
    neighbours on the grid (_sign_changes): solve each by Brent's method
    (_brentq) and, given df, Newton-polish it and add the tangent
    (even-order) roots, the roots of df where |f| < 1e-9 max |f(xs[at])|.
    A root on a sample is caught as an exact zero: on [-1, 1], where the
    reduction polynomials are solved, that is how P_W's triple root at the
    sample x = 1 is found.  Roots within MERGE_TOL of the last one kept are
    dropped, the roots of df before |f| is tested.

    With df come bounds = (M0, M2): M2 >= max |f''| on [lo, hi], and M0 the
    sum of the absolute values of the terms f is summed from.  The callers'
    values of f, and d times those of f' (d < 1e-3, _tangent_floor), round
    by less than 1e-13 M0, a tenth of ROUNDING M0: a Weyl term's phase has a
    few roundings relative to a phase of at most 2 pi (m + n), numpy's cos
    and sin are within 1 ulp, a chord's form is within its floor, at most
    5e-14 M0 (_chord_functions), a polynomial of degree n <= 5 evaluated by
    Horner's rule at |x| <= 1 rounds by at most 2n u M0 (u the unit
    roundoff), and one in a rounded cosine is off by at most n^2 M0 times
    the cosine's error (Markov's inequality); tests check it against mpmath.
    A sign change of df's samples is solved only where _tangent_floor cannot
    rule out a kept root."""
    xs, at, ys, dys = samples
    lo, hi = float(xs[at[0]]), float(xs[at[-1]])
    ys = np.asarray(ys, dtype=float)
    threshold = 1e-9 * (float(np.max(np.abs(ys))) or 1.0)
    roots = []
    for i in _sign_changes(at, ys):
        r = _brentq(f, xs[at[i]], xs[at[i + 1]])
        if df is not None:
            d = df(r)
            if d != 0.0:
                step = f(r) / d
                if abs(step) < (xs[1] - xs[0]):
                    r -= step
        roots.append(float(min(max(r, lo), hi)))
    # samples that are exact zeros
    roots += [float(x) for x in xs[at[ys == 0]]]
    if df is not None:
        dys = np.asarray(dys, dtype=float)
        brackets, floor = _tangent_floor(xs, at, ys, dys, bounds)
        tangent = [float(min(max(_brentq(df, xs[at[i]], xs[at[i + 1]]), lo), hi))
                   for i in brackets[floor <= threshold]]
        tangent += [float(x) for x in xs[at[dys == 0]]]
        roots += [r for r in _merged(tangent) if abs(f(r)) < threshold]
    return _merged(roots)


def _sign_changes(at, values):
    """The brackets of a scan: each i where values[i] and values[i + 1] have
    opposite signs and their samples are neighbours on the grid, at[i + 1] =
    at[i] + 1.  Between samples that are not, the sampler has proved no
    bracket (_open_cells)."""
    sign = np.sign(values)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    return i[at[i + 1] - at[i] == 1]


def _tangent_floor(xs, at, ys, dys, bounds):
    """(i, floor): the brackets i of df's samples dys (_sign_changes) and,
    for each, a lower bound on the computed |f| at every point within
    MERGE_TOL of the bracket [xs[at[i]], xs[at[i + 1]]], all brackets in one
    pass.  find_roots skips the solve where floor exceeds its threshold, and
    the output is unchanged:
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
    i = _sign_changes(at, dys)
    d = (xs[at[i + 1]] - xs[at[i]]) / 2.0 + MERGE_TOL
    floor = (np.minimum(np.abs(ys[i]) - d * np.abs(dys[i]),
                        np.abs(ys[i + 1]) - d * np.abs(dys[i + 1]))
             - d * d * curvature / 2.0 - 2.0 * ROUNDING * size)
    return i, np.where(d > 2.0 * MERGE_TOL, floor, -np.inf)


def _open_cells(ends, ys, dys, bounds, floor):
    """Which cells of a chord scan to sample in full, from the form's f and
    f' (ys and dys) at the cells' ends = xs[_CELL_ENDS]; bounds = (M0, M2)
    and floor are _chord_functions'.  The samples of a cleared cell decide
    nothing in find_roots, with h the grid's step and each sample's
    rounding within 1e-13 M0, 1e-10 M0 for a slope:
    - each x in a cell is within w, half its width, of an end e, so by
      Taylor's theorem |f(x)| >= |f(e)| - w |f'(e)| - w^2 M2 / 2, the lesser
      of the two ends' bounds holds on the cell, and a cell is cleared only
      where that exceeds a guard: the floor, 1e-9 (1 + ROUNDING) M0 (above
      the threshold), _tangent_floor's d M2 h + d^2 M2 / 2 + 2 ROUNDING M0
      (d = h/2 + MERGE_TOL) and a rounding margin of 2 ROUNDING M0.  So
      each of its samples is above the floor and the threshold, with f's
      one sign there, and at a sign change of df's samples f' is within
      1e-10 M0 of 0 in the bracket, so |f'| <= M2 h + 2e-10 M0 at its ends
      and _tangent_floor's floor is above the threshold: no solve.  An
      exact zero of df's samples there is a root of df thrown away, with no
      other within MERGE_TOL of it as h > 2 MERGE_TOL.  Where h is at most
      4 MERGE_TOL every cell is open: _tangent_floor solves every bracket
      narrower than 2 MERGE_TOL;
    - a cell stays open where its upper bound |f(e)| + w |f'(e)| + w^2 M2 /
      2, with the margin, reaches the largest |f| at the ends, so the
      scan's largest |f| is a sample taken."""
    size, curvature = bounds
    h = (ends[-1] - ends[0]) / (ROOT_SAMPLES - 1)
    d = h / 2.0 + MERGE_TOL
    # twice the narrowest step _tangent_floor bounds, for the steps' rounding
    if h <= 4.0 * MERGE_TOL:
        return np.ones(len(ends) - 1, dtype=bool)
    w = np.diff(ends) / 2.0
    value, slope = np.abs(ys), np.abs(dys)
    low = np.minimum(value[:-1] - w * slope[:-1], value[1:] - w * slope[1:])
    high = np.maximum(value[:-1] + w * slope[:-1], value[1:] + w * slope[1:])
    curve = w * w * curvature / 2.0
    margin = 2.0 * ROUNDING * size
    guard = (floor + 1e-9 * (1.0 + ROUNDING) * size + d * curvature * h
             + d * d * curvature / 2.0 + 2.0 * ROUNDING * size + margin)
    return (low - curve <= guard) | (high + curve + margin >= value.max())


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
    return find_roots(f, (xs, EVERY_SAMPLE, f(xs), df(xs)), df=df, bounds=bounds)


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
    sample of the cells _open_cells leaves open.  find_roots gets the whole
    grid and the samples taken from the first above the form's floor to the
    last, and decides on them what it would on every sample."""
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
    ends = xs[_CELL_ENDS]
    cs = trig(ends)
    taken = _open_cells(ends, values(cs), slopes(cs), bounds, floor)[_CELL_OF]
    taken[_CELL_ENDS] = True
    at = np.flatnonzero(taken)
    cs = trig(xs[at])
    ys, dys = values(cs), slopes(cs)
    # the form rounds by up to 1e-13 M0 (find_roots): on a chord this small
    # no sample's sign is known to be the restriction's
    if np.max(np.abs(ys)) <= ROUNDING * bounds[0]:
        raise ValueError(f"the chord s + t = {a!r} is within rounding of zero")
    # nor is it below the form's own rounding, as near an end of a chord by a
    # vertex: the scan runs from the first sample above that floor to the last
    known = np.abs(ys) > floor
    scan = slice(known.argmax(), len(ys) - known[::-1].argmax())
    return find_roots(f, (xs, at[scan], ys[scan], dys[scan]), df=df, bounds=bounds)


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
    ct, st = math.cos(theta), math.sin(theta)
    bounds = tuple(ct * a + st * b for a, b in _edge_functions(pair)[2])
    for edge, sign, (lo, hi), point in _EDGES:
        k, dk, mix = _k_theta(pair, theta, sign)
        xs, gc_xs, gs_xs, dgc_xs, dgs_xs = _edge_tables(pair, lo, hi)
        samples = xs, EVERY_SAMPLE, mix(gc_xs, gs_xs), mix(dgc_xs, dgs_xs)
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
        for u in find_roots(g, (xs, EVERY_SAMPLE, g(xs), None)):
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
