"""Fixed points on medians, chord restrictions, critical zeros, the edge
algebra of the mixed equilateral pairs and its bifurcations, and nodal-domain
counting by sign-grid flood fill.

On an edge, in x = cos pi u, fc = sigma (T_3 - 1)(x - 1) sin(pi u) P_C(x) and
fs = sigma (T_3 - 1) P_S(x), where T_3 - 1 = 4 (x - 1)(x + 1/2)^2 vanishes only
at the vertices; gc and gs drop sigma (T_3 - 1).  W(fc, fs) = 16 pi P_W(cos 3 pi
u), and each root x0 != 1 of P_W is a breakpoint of the theta partition."""

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import ndimage, optimize

from .alcove_geometry import (DOMAINS, EDGE_TOL, AlcovePoint, DomainKind,
                              weyl_coefficients)
from .eigenfunction_eval import (EigenfunctionHandle, check_handle, eval_C,
                                 eigenbasis, eval_psi, eval_psi_grid, eval_S,
                                 mix)
from .lattice_spectrum import Mode
from .pleijel_screening import candidates

PI = math.pi

# Relative half-width of the zero band in the sign grid.  1e-5 (rather than a
# tighter band) is required so that the single grid pixel closest to a
# multi-valent vertex of the nodal set, whose value scales like h^3, is
# classified as zero instead of surviving as a spurious one-pixel component.
ZERO_BAND_REL = 1e-5

# Largest nodal grid side; nodal --resolution 2048 counts on a 4096 grid in 0.4 GB.
MAX_GRID = 4096

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


def fc(pair: Mode, u):
    return sum(c * np.sin(k * PI * u) for k, c, _ in _edge_terms(pair))


def fs(pair: Mode, u):
    return sum(s * np.cos(k * PI * u) for k, _, s in _edge_terms(pair))


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


def gc(pair: Mode, u):
    c = np.cos(PI * u)
    return np.sin(PI * u) * (c - 1.0) * _polyval(edge_polynomials(pair)[0], c)


def gs(pair: Mode, u):
    return _polyval(edge_polynomials(pair)[1], np.cos(PI * u))


def gc_prime(pair: Mode, u):
    c = np.cos(PI * u)
    s = np.sin(PI * u)
    p_c = edge_polynomials(pair)[0]
    g = (c - 1.0) * _polyval(p_c, c)
    dg = _polyval(p_c, c) + (c - 1.0) * _polyval(_polyder(p_c), c)
    return PI * (c * g - s * s * dg)


def gs_prime(pair: Mode, u):
    c = np.cos(PI * u)
    return -PI * np.sin(PI * u) * _polyval(_polyder(edge_polynomials(pair)[1]), c)


# ---------------------------------------------------------------------------
# The one root-finding protocol: sample, bracket, bisect, one Newton polish.
# ---------------------------------------------------------------------------

ROOT_SAMPLES = 4096


def find_roots(f, lo: float, hi: float, df=None) -> List[float]:
    """All roots of f on [lo, hi], as floats: sample uniformly, bisect each
    sign change and, given df, Newton-polish it and add the tangent
    (even-order) roots, found as roots of df where |f| is at noise level.  A
    root on a sample is caught as an exact grid zero: on [-1, 1], where the
    reduction polynomials are solved, that is how P_W's triple root at the
    sample x = 1 is found."""
    xs = np.linspace(lo, hi, ROOT_SAMPLES)
    ys = np.asarray(f(xs), dtype=float)
    scale = float(np.max(np.abs(ys))) or 1.0
    roots = []
    sign = np.sign(ys)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        r = optimize.brentq(f, xs[i], xs[i + 1], xtol=1e-13)
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
        for r in find_roots(df, lo, hi):
            if abs(f(r)) < 1e-9 * scale:
                roots.append(r)
    roots.sort()
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-9:
            out.append(r)
    return out


def polynomial_roots_unit_interval(pair, which: str) -> List[float]:
    """Real roots in [-1, 1] of the pair's reduction polynomial P_C or P_S,
    or of its Wronskian polynomial P_W, by find_roots."""
    polys = dict(zip(("P_C", "P_S", "P_W"), edge_polynomials(_check_pair(pair))))
    if which not in polys:
        raise ValueError(f"unknown polynomial {which!r}")
    coeffs, dcoeffs = polys[which], _polyder(polys[which])
    return find_roots(lambda x: _polyval(coeffs, x), -1.0, 1.0,
                      df=lambda x: _polyval(dcoeffs, x))


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


_FIXED_POINTS = {
    Mode(1, 3): (
        ("F_C", (1 / 3, 1 / 3)), ("F_O", (1 / 4, 1 / 4)),
        ("F_A", (5 / 12, 1 / 3)), ("F_B", (1 / 3, 5 / 12)),
    ),
    Mode(2, 3): (
        ("F_C", (1 / 3, 1 / 3)), ("F_{1,O}", (1 / 5, 1 / 5)),
        ("F_{2,O}", (2 / 5, 2 / 5)), ("F_{1,A}", (7 / 15, 1 / 3)),
        ("F_{2,A}", (4 / 15, 1 / 3)), ("F_{1,B}", (1 / 3, 7 / 15)),
        ("F_{2,B}", (1 / 3, 4 / 15)),
    ),
}


def median_fixed_points(pair) -> List[FixedPoint]:
    """Common zeros of the C/S pair located on the medians."""
    pair = _check_pair(pair)
    out = []
    for label, (s, t) in _FIXED_POINTS[pair]:
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
    check_handle(h)

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
    return find_roots(f, lo + margin, hi - margin, df=df)


_EDGE_PARAM = {
    "OA": lambda u: AlcovePoint(u, u / 2.0),
    "OB": lambda u: AlcovePoint(u / 2.0, u),
    "BA": lambda u: AlcovePoint(u / 2.0, 1.0 - u / 2.0),
}


def _k_theta(pair: Mode, theta: float, sign: int):
    ct, st = math.cos(theta), math.sin(theta)

    def k(u):
        return ct * gc(pair, u) + sign * st * gs(pair, u)

    def dk(u):
        return ct * gc_prime(pair, u) + sign * st * gs_prime(pair, u)

    return k, dk


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
    eps = 1e-9
    plan = (("OA", +1, eps, 2.0 / 3.0 - eps),
            ("OB", -1, eps, 2.0 / 3.0 - eps),
            ("BA", -1, 2.0 / 3.0 + eps, 4.0 / 3.0 - eps))
    zeros = []
    for edge, sign, lo, hi in plan:
        k, dk = _k_theta(pair, theta, sign)
        step = (hi - lo) / (ROOT_SAMPLES - 1)
        for u in find_roots(k, lo, hi, df=dk):
            order = 3 if k(u - step) * k(u + step) > 0 else 2
            zeros.append(CriticalZero(_EDGE_PARAM[edge](u), edge, u, order))
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
        for u in find_roots(g, 0.05, 1.0 - 1e-6):
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
    theta in (0, pi/6) at which cos(theta) fc + sin(theta) fs vanishes."""
    pair = _check_pair(pair)
    out = []
    for x0 in polynomial_roots_unit_interval(pair, "P_W"):
        if x0 == 1.0:
            continue
        u_b = 1.0 / 3.0 + math.acos(-x0) / (3.0 * PI)
        theta = math.atan2(-fc(pair, u_b), fs(pair, u_b))
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
    handle: EigenfunctionHandle
    resolution: int
    domain_count: int
    positive_components: int
    negative_components: int
    stable: bool


def _grid_values(h: EigenfunctionHandle, resolution: int):
    """The one nodal grid: the unmixed eigenbasis of the handle's domain and
    mode at the samples strictly inside the domain (in the order of
    p[mask]), the mask, and the coordinate grids over [0, e]^2, e the largest
    vertex coordinate of the triangle.  The mask is the domain predicate on
    the broadcast axes (column p, row q).  It does not read h.theta; each
    reader mixes the basis at its own angle."""
    spec = DOMAINS[h.domain]
    if spec.vertices is None:
        raise ValueError(f"nodal counting is not defined for {h.domain.value}")
    if not 64 <= resolution <= MAX_GRID:
        raise ValueError(f"resolution must be >= 64 and <= {MAX_GRID}, "
                         f"got {resolution}")
    x = np.linspace(0.0, max(map(max, spec.vertices)), resolution)
    mask = spec.inside(x[:, None], x[None, :], -EDGE_TOL)
    p, q = np.meshgrid(x, x, indexing="ij", copy=False)
    return eigenbasis(h.domain, h.mode, p[mask], q[mask]), mask, (p, q)


_FOUR = ndimage.generate_binary_structure(2, 1)


def sign_grid(inside: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """{+1, -1, 0} per sample: the sign of the values inside the mask (given
    in the order of p[mask]), 0 in the zero band and outside the mask."""
    band = ZERO_BAND_REL * float(np.max(np.abs(inside)))
    signs = np.zeros(mask.shape, dtype=np.int8)
    signs[mask] = (inside > band).astype(np.int8) - (inside < -band)
    return signs


def _label_counts(signs: np.ndarray) -> Tuple[int, int]:
    """Numbers of positive and negative 4-connected sign components."""
    pos = ndimage.label(signs == 1, _FOUR)[1]
    neg = ndimage.label(signs == -1, _FOUR)[1]
    return pos, neg


def _sweep_counts(h: EigenfunctionHandle, resolution: int,
                  thetas) -> List[Tuple[int, int]]:
    """(positive, negative) sign components of mix(basis, theta) on the
    handle's grid at each of thetas, in order.  The grid is built once, so an
    angle costs the mix and the labelling."""
    basis, mask, _ = _grid_values(h, resolution)
    return [_label_counts(sign_grid(mix(basis, theta), mask)) for theta in thetas]


def count_nodal_domains(h: EigenfunctionHandle, resolution: int) -> NodalReport:
    """Count sign components on the grid; stable means the total is unchanged
    when the resolution is doubled."""
    check_handle(h)
    # 2r above the cap: refuse before building the r grid, naming r itself
    if 2 * resolution > MAX_GRID:
        raise ValueError(f"resolution must be <= {MAX_GRID // 2}, got {resolution}")
    (pos, neg), = _sweep_counts(h, resolution, [h.theta])
    (pos2, neg2), = _sweep_counts(h, 2 * resolution, [h.theta])
    return NodalReport(h, resolution, pos + neg, pos, neg,
                       pos + neg == pos2 + neg2)


# ---------------------------------------------------------------------------
# Final verdict.
# ---------------------------------------------------------------------------

def _theta_partition(d: DomainKind, pair: Mode) -> List[float]:
    """Angles attaining the largest nodal count over the pair's eigenspace.
    Off the equilateral triangle it is one function, and so it is for m = n,
    where C_{m,m} vanishes: pi/2 picks S.  Else the breakpoints of [0, pi/6]
    and each piece's midpoint: theta + pi and pullback_theta keep the nodal
    count and, as 2m + n is not divisible by 3, take every theta into [0,
    pi/6].  There the count changes only at an edge critical zero on the
    nodal set, a zero of the pair's Wronskian: the angles of bifurcations."""
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
    sweep = _sweep_counts(EigenfunctionHandle(d, pair), resolution,
                          _theta_partition(d, pair))
    return max(pos + neg for pos, neg in sweep)


def courant_sharp_verdict(d: DomainKind, resolution: int = 512):
    """(index, sharp) for each screening candidate of the domain: lambda_n is
    sharp if some eigenfunction of it has n nodal domains, so its count is
    the largest over the eigenspace of its cluster's smallest pair, which
    must be the cluster's only pair up to swap (AssertionError otherwise).
    By Courant's theorem every n <= 2 is sharp: a lambda_2 eigenfunction is
    orthogonal to the one-signed first one, so it has exactly two nodal
    domains."""
    verdict = []
    for row in candidates(d):
        n = row.min_index
        if n > 2 and len({tuple(sorted(p)) for p in row.modes}) > 1:
            raise AssertionError(f"lambda_{n} on {d.value} holds more than one pair "
                                 f"class: {list(row.modes)}")
        mu = n if n <= 2 else _max_count_over_thetas(d, min(row.modes), resolution)
        verdict.append((n, mu == n))
    return verdict
