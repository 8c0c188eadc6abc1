"""Fixed points on medians, barrier-line restrictions, critical zeros by
root-finding, Wronskian simplicity checks, the mixing-angle bifurcation, and
nodal-domain counting by sign-grid flood fill."""

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
# Edge-derivative functions FC/FS and their reduced forms GC/GS.
# On each boundary edge both partials of C (resp. S) are proportional to
# FC (resp. FS) of the edge parameter; GC/GS drop the factors that vanish
# only at the vertices, so zeros of K = cos(theta) GC +/- sin(theta) GS on
# the open edges are exactly the edge critical zeros of Psi^theta.
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


def fc_prime(pair: Mode, u):
    return PI * sum(k * c * np.cos(k * PI * u) for k, c, _ in _edge_terms(pair))


def fs_prime(pair: Mode, u):
    return PI * sum(-k * s * np.sin(k * PI * u) for k, _, s in _edge_terms(pair))


# Reduction polynomials, ascending coefficients.
_P_C = {Mode(1, 3): (-1.0, 4.0, 4.0),                 # 4x^2 + 4x - 1
        Mode(2, 3): (1.0, -4.0, 2.0, 8.0)}            # 8x^3 + 2x^2 - 4x + 1
_P_S = {Mode(1, 3): (-1.0, 1.0, -1.0, 0.0, 4.0),      # 4x^4 - x^2 + x - 1
        Mode(2, 3): (-0.25, 4.0, -4.0, -10.0, 6.0, 8.0)}
# -6x^5 + 25x^3 - 15x^2 - 15x + 11; the (2,3) Wronskian is 16 pi P_W(cos 3 pi u)
_P_W = (11.0, -15.0, -15.0, 25.0, 0.0, -6.0)


def _polyval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polyder(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


def gc(pair: Mode, u):
    c = np.cos(PI * u)
    return np.sin(PI * u) * (c - 1.0) * _polyval(_P_C[pair], c)


def gs(pair: Mode, u):
    return _polyval(_P_S[pair], np.cos(PI * u))


def gc_prime(pair: Mode, u):
    c = np.cos(PI * u)
    s = np.sin(PI * u)
    g = (c - 1.0) * _polyval(_P_C[pair], c)
    dg = _polyval(_P_C[pair], c) + (c - 1.0) * _polyval(_polyder(_P_C[pair]), c)
    return PI * (c * g - s * s * dg)


def gs_prime(pair: Mode, u):
    c = np.cos(PI * u)
    return -PI * np.sin(PI * u) * _polyval(_polyder(_P_S[pair]), c)


# ---------------------------------------------------------------------------
# Root-finding protocol: sample, bracket, bisect, one Newton polish.
# ---------------------------------------------------------------------------

ROOT_SAMPLES = 4096


def find_roots(f, lo: float, hi: float, df=None) -> List[float]:
    """All roots of f on (lo, hi) via uniform sampling + bracketed bisection;
    given df, each is Newton-polished and the tangent (even-order) roots are
    added, found as roots of df where |f| is at noise level."""
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
        roots.append(min(max(r, lo), hi))
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
    or of the Wronskian polynomial P_W, each refined to 1e-12."""
    pair = _check_pair(pair)
    polys = {"P_C": _P_C[pair], "P_S": _P_S[pair], "P_W": _P_W}
    if which not in polys:
        raise ValueError(f"unknown polynomial {which!r}")
    if which == "P_W" and pair != (2, 3):
        raise ValueError("P_W is defined for the (2,3) pair")
    coeffs = polys[which]
    raw = np.roots(list(reversed(coeffs)))
    # multiple roots surface from np.roots as clusters with O(1e-5) spread and
    # imaginary parts of the same size, so the filters must be loose here
    real = sorted(float(r.real) for r in raw
                  if abs(r.imag) < 1e-4 and -1.0 - 1e-6 <= r.real <= 1.0 + 1e-6)
    clusters: List[List[float]] = []
    for r in real:
        if clusters and r - clusters[-1][-1] < 1e-3:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    out = []
    for cl in clusters:
        x = sum(cl) / len(cl)
        d = coeffs
        for _ in range(len(cl) - 1):
            d = _polyder(d)
        dd = _polyder(d)
        for _ in range(60):
            step = _polyval(d, x) / _polyval(dd, x)
            x -= step
            if abs(step) < 1e-15:
                break
        out.append(min(1.0, max(-1.0, x)))
    return out


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


def edge_critical_zeros(pair, theta: float) -> List[CriticalZero]:
    """Critical zeros of Psi^theta on the open edges, for theta in (0, pi/6]."""
    pair = _check_pair(pair)
    if not 0.0 < theta <= PI / 6.0 + 1e-12:
        raise ValueError("theta must be in (0, pi/6]")
    eps = 1e-9
    plan = (("OA", +1, eps, 2.0 / 3.0 - eps),
            ("OB", -1, eps, 2.0 / 3.0 - eps),
            ("BA", -1, 2.0 / 3.0 + eps, 4.0 / 3.0 - eps))
    zeros = []
    for edge, sign, lo, hi in plan:
        k, dk = _k_theta(pair, theta, sign)
        for u in find_roots(k, lo, hi, df=dk):
            order = 3 if abs(dk(u)) < 1e-6 else 2
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
# Wronskians and the bifurcation angle.
# ---------------------------------------------------------------------------

def wronskian(pair, u):
    """Direct Wronskian of the pair's edge functions: GC GS' - GS GC' for
    (1,3) and FC FS' - FS FC' for (2,3)."""
    pair = _check_pair(pair)
    if pair == (1, 3):
        return gc(pair, u) * gs_prime(pair, u) - gs(pair, u) * gc_prime(pair, u)
    return fc(pair, u) * fs_prime(pair, u) - fs(pair, u) * fc_prime(pair, u)


def wronskian_factored(pair, u):
    """Closed-form factorization of the Wronskian."""
    pair = _check_pair(pair)
    if pair == (1, 3):
        c = np.cos(PI * u)
        return PI * (1.0 - c) * (2.0 * c + 1.0) ** 2 * (12.0 * c ** 3 - 9.0 * c + 4.0)
    return 16.0 * PI * _polyval(_P_W, np.cos(3.0 * PI * u))


def bifurcation_angle() -> Tuple[float, float]:
    """(u_b, theta_c): u_b is the root of the (2,3) Wronskian polynomial in
    (1/3, 1/2); theta_c the unique mixing angle in (0, pi/6) for which the
    edge system acquires a double zero at u_b."""
    pair = Mode(2, 3)

    def f(u):
        return _polyval(_P_W, math.cos(3.0 * PI * u))

    def df(u):
        return -3.0 * PI * math.sin(3.0 * PI * u) * _polyval(_polyder(_P_W),
                                                             math.cos(3.0 * PI * u))

    u_b = optimize.brentq(f, 1.0 / 3.0 + 1e-9, 0.5, xtol=1e-15)
    u_b -= f(u_b) / df(u_b)
    theta_c = math.atan2(-fc(pair, u_b), fs(pair, u_b))
    if not 0.0 < theta_c < PI / 6.0:
        raise AssertionError("bifurcation angle outside (0, pi/6)")
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
    p[mask]), the mask, and the coordinate grids over [0, extent]^2.  It does
    not read h.theta; each reader mixes the basis at its own angle."""
    spec = DOMAINS[h.domain]
    if spec.extent is None:
        raise ValueError(f"nodal counting is not defined for {h.domain.value}")
    if not 64 <= resolution <= MAX_GRID:
        raise ValueError(f"resolution must be >= 64 and <= {MAX_GRID}, "
                         f"got {resolution}")
    x = np.linspace(0.0, spec.extent, resolution)
    p, q = np.meshgrid(x, x, indexing="ij", copy=False)
    mask = spec.inside(p, q, -EDGE_TOL)
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
    nodal set, a zero of the pair's Wronskian: theta_c for (2,3), none for
    (1,3), positive on the open edges."""
    if d is not DomainKind.EQUILATERAL:
        return [0.0]
    if pair[0] == pair[1]:
        return [PI / 2.0]
    breaks = [0.0, PI / 6.0]
    if _check_pair(pair) == (2, 3):
        breaks.insert(1, bifurcation_angle()[1])
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
    the largest over the eigenspace of its cluster's smallest pair.  By
    Courant's theorem every n <= 2 is sharp: a lambda_2 eigenfunction is
    orthogonal to the one-signed first one, so it has exactly two nodal
    domains."""
    verdict = []
    for row in candidates(d):
        n = row.min_index
        mu = n if n <= 2 else _max_count_over_thetas(d, min(row.modes), resolution)
        verdict.append((n, mu == n))
    return verdict
