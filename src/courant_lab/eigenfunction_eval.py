"""Closed-form eigenfunction evaluation: the six-term C/S sums and their
mixtures Psi^theta on the equilateral triangle (also used for the
hemiequilateral), and the antisymmetrized sine products on the
right-isosceles triangle.

Evaluators accept scalars or numpy arrays in (s, t), elementwise; gradients
are analytic (term-by-term differentiation), never internal finite
differences.  A triangle's nodal grid (_grid_values, GridBasis.separable) is
a table form: the separable product A W A^T of weyl_tables, within delta of
the sums: the table's bound (_table_error) and the sums' own rounding
(_sums_error).  One rule (_decisive) names the samples where delta could
decide the largest |value| or a side of the band, and one call, for counts
and plots alike, reads the sums there, by row and column (GridBasis.exact_at),
and bands them into signs (sign_grid).  A grid's geometry (the axis, the
rows' inside intervals and the mask) depends on the domain and the
resolution alone and is built once for all that share it (_grid_geometry).
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .alcove_geometry import DOMAINS, EDGE_TOL, DomainKind, weyl_coefficients
from .lattice_spectrum import Mode, _admissible

TWO_PI = 2.0 * math.pi
# float64's unit roundoff, and the absolute error allowed for numpy's float64
# cos and sin: 2 ulp of 1 (they are within 1 ulp; the tests check it)
UNIT = 2.0 ** -53
TRIG_ERR = 4.0 * UNIT
# the floats in one block of rows of a table product
BLOCK = 1 << 16
# Smallest and largest nodal grid side; nodal --resolution 2048 counts on a
# 4096 grid, and plot --resolution 4096 draws one, in under 0.2 GB (peak RSS
# 171 and 149 MB for equilateral (2,3) at theta 0.2; a plot's is 137 MB for
# hemiequilateral (4,2), 168-169 MB for right-isosceles (6,1); 2-vCPU Xeon).
MIN_GRID, MAX_GRID = 64, 4096


@dataclass(frozen=True)
class EigenfunctionHandle:
    """An eigenfunction, checked when built (ValueError otherwise): its pair
    is admissible up to the (m, n) swap, theta is finite and 0 except on the
    equilateral triangle (where C and S mix), and it is not identically zero,
    as cos(theta) C_{m,m} + sin(theta) S_{m,m} is at theta = k pi."""
    domain: DomainKind
    mode: Mode
    theta: float = 0.0

    def __post_init__(self):
        spec, (m, n) = DOMAINS[self.domain], self.mode
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not (_admissible(spec, m, n) or _admissible(spec, n, m)):
            raise ValueError(f"pair ({m}, {n}) is not admissible on {self.domain.value}")
        # on the hemiequilateral S is not Dirichlet on s = t
        if self.theta != 0.0 and self.domain is not DomainKind.EQUILATERAL:
            raise ValueError(f"theta must be 0 on {self.domain.value}")
        if (self.domain is DomainKind.EQUILATERAL and m == n
                and abs(math.sin(self.theta)) < 1e-12):
            raise ValueError(f"pair ({m}, {n}) at theta {self.theta} is identically zero")


def mix(basis: tuple, theta: float):
    """basis[0] alone, or cos(theta) basis[0] + sin(theta) basis[1].  At
    theta 0, mix((C, S), 0) has C's bits: 1.0 C + 0.0 S is C, as the sum C is
    never -0.0."""
    if len(basis) == 1:
        return basis[0]
    return math.cos(theta) * basis[0] + math.sin(theta) * basis[1]


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error of k roundings (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 3)."""
    return k * UNIT / (1.0 - k * UNIT)


def _sums_error(w: float, k: int, x: float) -> float:
    """A bound on the rounding of eval_psi's value, or of mix((eval_C,
    eval_S), theta), at a point where each Weyl phase 2 pi (a s + b t) has
    |a s| + |b t| <= k x, against the truth mixed with the same c = cos theta
    and s = sin theta, w = |c| + |s|: the phase has five roundings (fl(2 pi),
    a s, b t, their sum and the product), within gamma_6, so its cos and sin
    are within eta = gamma_6 2 pi k x + TRIG_ERR of the truth's, and C and S
    add gamma_5 and the mix gamma_2, so the value is within 6 w (eta +
    gamma_7 (1 + eta)).  Below it a sample's sign is not known."""
    eta = _gamma(6) * TWO_PI * k * x + TRIG_ERR
    return 6.0 * w * (eta + _gamma(7) * (1.0 + eta))


def _table_error(size: np.ndarray, phase: float) -> float:
    """A bound on the rounding of a separable product A_r W A_c^T (the grid's,
    and a chord's in nodal_analysis), in any order of summation: A_r and A_c
    hold cos and sin of phases fl(fl(2 pi) k) x of at most `phase`, W = c M_C
    + s M_S and size = |fl(W)|, which is |c| |M_C| + |s| |M_S| to one
    rounding, as M_C and M_S share no entry (u the unit roundoff, gamma_k = k
    u / (1 - k u)).  A phase has three roundings, so each entry of A_r and
    A_c is within alpha = gamma_3 phase + TRIG_ERR of the true one; fl(W) is
    within gamma_2 |W| of W, and the two products of inner length 6 or less
    add gamma_13 (1 + gamma_2) |A_r| |W| |A_c|^T, so the value is within sum
    |W| (2 alpha + alpha^2 + gamma_16 (1 + alpha)^2)."""
    alpha = _gamma(3) * phase + TRIG_ERR
    return float(np.sum(size)) * (
        2.0 * alpha + alpha * alpha + _gamma(16) * (1.0 + alpha) ** 2)


@functools.lru_cache(maxsize=None)
def weyl_tables(m: int, n: int, chord: bool = False):
    """(rows, cols, M_C, M_S, curvature), read-only and cached: C = A_r(x)
    M_C A_c(y)^T and S = A_r(x) M_S A_c(y)^T, A_r(x) the row (cos 2 pi k x
    for k in rows, then sin 2 pi k x) and A_c(y) the same in cols.  A Weyl
    term (sign, a, b) has frequencies (p, q) = (a, b) in (x, y) = (s, t) on
    the grid, and (b, a - b) in (a, u) on the chord s + t = a at s = u, as 2
    pi (a u + b (a - u)) = 2 pi (b a + (a - b) u).  By angle addition its cos
    and sin are sums of products of those of 2 pi p x and 2 pi q y, and cos
    2 pi p x, sin 2 pi p x are the |p| columns times 1 and sign(p), so M_C
    has entries only in the cos-cos and sin-sin blocks and M_S only in the
    other two.  The rows are (m, n, m + n) either way, the chord's columns
    (2, 5, 7) for (1,3) and (1, 7, 8) for (2,3).  With w = |c| + |s|, w
    curvature = w sum (2 pi q)^2 bounds |d^2/dy^2| of c C + s S."""
    terms = [(sign, b, a - b) if chord else (sign, a, b)
             for sign, a, b in weyl_coefficients(m, n)]
    rows = (m, n, m + n)
    cols = tuple(sorted({abs(q) for _, _, q in terms})) if chord else rows
    r, k = len(rows), len(cols)
    mc, ms = np.zeros((2 * r, 2 * k)), np.zeros((2 * r, 2 * k))
    for sign, p, q in terms:
        i, j = rows.index(abs(p)), cols.index(abs(q))
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        mc[i, j] += sign
        mc[r + i, k + j] -= sign * sp * sq
        ms[r + i, j] += sign * sp
        ms[i, k + j] += sign * sq
    mc.flags.writeable = ms.flags.writeable = False
    return rows, cols, mc, ms, sum((TWO_PI * q) ** 2 for _, _, q in terms)


# the one grid geometry kept, {(domain, resolution): (x, lo, hi, starts, mask)}
_GEOMETRY = {}


def _grid_geometry(d: DomainKind, resolution: int):
    """(x, lo, hi, starts, mask), read-only: the axis x, resolution samples
    over [0, e], e the largest vertex coordinate of the triangle, each row's
    interval lo[i] <= j < hi[i] of inside columns (DomainSpec.row_ends), the
    row's first position in row order, and the mask of the inside samples,
    built from those intervals.  They depend on the domain and the resolution
    alone, not on the mode or an angle, so the one entry kept serves every
    grid of its (domain, resolution), as a verdict's candidates are.  A new
    key drops that entry before it is built, so no two are held at once."""
    key = (d, resolution)
    if key not in _GEOMETRY:
        _GEOMETRY.clear()
        spec = DOMAINS[d]
        x = np.linspace(0.0, max(map(max, spec.vertices)), resolution)
        lo, hi = spec.row_ends(x, -EDGE_TOL)
        mask = np.zeros((resolution, resolution), dtype=bool)
        for row, a, b in zip(mask, lo.tolist(), hi.tolist()):
            row[a:b] = True
        geometry = x, lo, hi, np.cumsum(hi - lo) - (hi - lo), mask
        for array in geometry:
            array.flags.writeable = False
        _GEOMETRY[key] = geometry
    return _GEOMETRY[key]


class GridBasis:
    """The pair's eigenbasis on d on a grid over the increasing axis x, at
    the samples (x[i], x[j]) with lo[i] <= j < hi[i] in row order: mask[i, j]
    says which.  The geometry (x, lo, hi, starts, mask) is _grid_geometry's,
    shared with every basis of the same domain and resolution.  The basis is
    chosen once, with its tables: functions, the evaluators mix combines, are
    (eval_C, eval_S) on the equilateral triangle, (eval_C,) on the
    hemiequilateral (S is not Dirichlet on s = t), (eval_isosceles,) on the
    right-isosceles; the tables are (A, M_C, M_S, the largest phase in A), A's
    rows A(x) on the axis: weyl_tables, or (sin m x, sin n x) with M_C = [[0,
    1], [-1, 0]] and M_S = 0.  It is never evaluated whole: separable mixes
    it at an angle from the tables, within delta of the sums, and exact_at
    gives the sums at chosen samples (i, j)."""

    def __init__(self, d: DomainKind, pair, resolution: int):
        self.domain, self.pair = d, pair
        self.x, self.lo, self.hi, self.starts, self.mask = _grid_geometry(d, resolution)
        if d is DomainKind.RIGHT_ISOSCELES:
            self.functions = (eval_isosceles,)
            phase = np.multiply.outer(self.x, pair)
            turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
            self.tables = np.sin(phase), turn, np.zeros((2, 2)), float(phase.max())
        else:
            self.functions = ((eval_C, eval_S) if d is DomainKind.EQUILATERAL
                              else (eval_C,))
            ks, _, mc, ms, _ = weyl_tables(*pair)
            phase = np.multiply.outer(self.x, [TWO_PI * k for k in ks])
            self.tables = (np.hstack((np.cos(phase), np.sin(phase))), mc, ms,
                           float(phase.max()))

    def exact_at(self, theta: float, i, j):
        """The sums mixed at theta at the samples (x[i], x[j]), i and j row
        and column index arrays of any one shape, evaluated there alone:
        every operation is elementwise, so each value has the bits it has in
        the whole grid's pointwise evaluation."""
        (m, n), s, t = self.pair, self.x[i], self.x[j]
        return mix(tuple(f(m, n, s, t) for f in self.functions), theta)

    def separable(self, theta: float):
        """(values, delta): the basis mixed at theta at the inside samples,
        as A(x_i) W A(x_j)^T from the per-axis tables, with W = c M_C + s M_S
        and (c, s) = (cos theta, sin theta).  It is formed block by block of
        rows, over the block's inside columns (mask), so no r^2 float array
        is made.  delta >= |value - exact_at(theta, sample)| at every
        sample, as each is within a bound of the true c C + s S:
        - the tables: _table_error(|W|, the largest phase in A);
        - the sums: on the right-isosceles triangle they are the product of
          the same sines in one order, so the same bound holds; on the other
          two _sums_error(|c| + |s|, 2 (m + n), x[-1]), as |a|, |b| <= m + n.
        delta is twice the sum of the two bounds; the factor covers the
        rounding of the comparisons the certificate makes with it, below u
        (6 (|c| + |s|) + 2 delta) each, u the unit roundoff."""
        a, mc, ms, phase = self.tables
        c, s = math.cos(theta), math.sin(theta)
        mixed = c * mc + s * ms
        g = mixed @ a.T
        counts, r = self.hi - self.lo, len(self.x)
        values = np.empty(int(counts.sum()))
        step = max(1, BLOCK // r)
        for i in range(0, r, step):
            lo, hi, at = self.lo[i:i + step], self.hi[i:i + step], self.starts[i]
            c0, c1 = lo.min(), hi.max(initial=0, where=lo < hi)
            values[at:at + counts[i:i + step].sum()] = (
                a[i:i + step] @ g[:, c0:c1])[self.mask[i:i + step, c0:c1]]
        table = _table_error(np.abs(mixed), phase)
        if self.domain is DomainKind.RIGHT_ISOSCELES:
            sums = table
        else:
            sums = _sums_error(abs(c) + abs(s), 2 * sum(self.pair), float(self.x[-1]))
        return values, 2.0 * (sums + table)


def _grid_values(h: EigenfunctionHandle, resolution: int) -> GridBasis:
    """The one nodal grid: the basis of the handle's domain and mode at the
    samples (x[i], x[j]) strictly inside the domain (basis.mask, built from
    the rows' inside intervals, DomainSpec.row_ends), read through its tables
    and at chosen samples (GridBasis).  The geometry comes from the one-slot
    cache (_grid_geometry), so the grids of one (domain, resolution), a
    verdict's 4 to 7 candidates, build it once.  It does not read h.theta;
    each reader mixes the basis at its own angles."""
    if DOMAINS[h.domain].vertices is None:
        raise ValueError(f"nodal grids are not defined for {h.domain.value}")
    if not MIN_GRID <= resolution <= MAX_GRID:
        raise ValueError(f"resolution must be >= {MIN_GRID} and <= {MAX_GRID}, "
                         f"got {resolution}")
    return GridBasis(h.domain, h.mode, resolution)


def _decisive(values, delta: float, rel: float) -> np.ndarray:
    """The samples, as a mask, where a table within delta of the sums could
    decide the largest |value| or a sample's side of the band rel max |value|
    (0 for a plot's signs).  With v the table value and V the sum at a
    sample:
    - |v| >= max |v| - 2 delta: the sample where |V| is largest has |v| >=
      max |V| - delta >= max |v| - 2 delta, and every other sample has |v| <
      max |V| - delta, so max |V| is among the sums read here;
    - ||v| - b| <= (1 + rel) delta, b = rel max |v|: the sums' band B = rel max
      |V| is within rel delta of b, so elsewhere |v| > b + (1 + rel) delta,
      and |V| > B with the sign of v, or |v| < b - (1 + rel) delta, and |V| <
      B.
    |v| is taken block by block of BLOCK floats, as a whole copy of |values|
    would double a grid's largest array."""
    top = max(values.max(), -values.min())
    out = np.empty(values.shape, dtype=bool)
    for at in range(0, len(values), BLOCK):
        size = np.abs(values[at:at + BLOCK])
        high = size >= top - 2.0 * delta
        size -= rel * top
        read = np.abs(size, out=size) <= (1.0 + rel) * delta
        read[high] = True
        out[at:at + BLOCK] = read
    return out


def sign_grid(basis: GridBasis, theta: float, rel: float) -> np.ndarray:
    """{+1, -1, 0} per sample of basis.mask: the signs of the sums mixed at
    theta, 0 in the zero band [-band, band] and outside the mask, band = rel
    times the largest |sum| read (a count's at ZERO_BAND_REL, a plot's strict
    signs at 0).  The values are the table's (GridBasis.separable), within
    delta of the sums, with the sums themselves (exact_at) read in one call
    wherever delta could decide (_decisive); _decisive's positions in row
    order become the samples' rows and columns (i, j) here."""
    values, delta = basis.separable(theta)
    read = np.flatnonzero(_decisive(values, delta, rel))
    i = np.searchsorted(basis.starts, read, side="right") - 1
    values[read] = basis.exact_at(theta, i, basis.lo[i] + (read - basis.starts[i]))
    band = rel * float(np.max(np.abs(values[read])))
    signs = np.zeros(basis.mask.shape, dtype=np.int8)
    signs[basis.mask] = (values > band).astype(np.int8) - (values < -band)
    return signs


class EvalResult(NamedTuple):
    """Value and partials, each a scalar or a numpy array like (s, t)."""
    value: float | np.ndarray
    grad_s: float | np.ndarray
    grad_t: float | np.ndarray


def eval_C(m, n, s, t):
    """Six-term cosine sum; identically zero when m == n."""
    acc = 0.0
    for sign, a, b in weyl_coefficients(m, n):
        acc = acc + sign * np.cos(TWO_PI * (a * s + b * t))
    return acc


def eval_S(m, n, s, t):
    """Six-term sine sum; symmetric in (m, n)."""
    acc = 0.0
    for sign, a, b in weyl_coefficients(m, n):
        acc = acc + sign * np.sin(TWO_PI * (a * s + b * t))
    return acc


def eval_psi_grid(m, n, theta, s, t):
    """cos(theta)*C + sin(theta)*S, vectorized over numpy arrays."""
    return mix((eval_C(m, n, s, t), eval_S(m, n, s, t)), theta)


def eval_psi(h: EigenfunctionHandle, s, t) -> EvalResult:
    """Value and analytic partials of Psi^theta at (s, t), scalars or numpy
    arrays; an array gives the same numbers as per-point scalar calls.  The
    value is the mixed sums, mix((C, S), theta), with C and S summed in
    eval_C's and eval_S's order: eval_psi_grid's bits."""
    if h.domain not in (DomainKind.EQUILATERAL, DomainKind.HEMIEQUILATERAL):
        raise ValueError("eval_psi applies to the triangle C/S families")
    m, n = h.mode
    ct, st = math.cos(h.theta), math.sin(h.theta)
    cs = ss = gs = gt = 0.0
    for sign, a, b in weyl_coefficients(m, n):
        phase = TWO_PI * (a * s + b * t)
        c, sn = np.cos(phase), np.sin(phase)
        cs = cs + sign * c
        ss = ss + sign * sn
        # d/ds of ct*cos(phase) + st*sin(phase), d/ds phase = 2 pi a
        dterm = ct * (-sn) + st * c
        gs = gs + sign * TWO_PI * a * dterm
        gt = gt + sign * TWO_PI * b * dterm
    return EvalResult(mix((cs, ss), h.theta), gs, gt)


def eval_isosceles(m: int, n: int, x, y):
    """sin(mx)sin(ny) - sin(nx)sin(my) on the half-square 0 < y < x < pi;
    swapping m and n negates it exactly."""
    if m == n or min(m, n) < 1:
        raise ValueError("need m != n, both >= 1")
    return np.sin(m * x) * np.sin(n * y) - np.sin(n * x) * np.sin(m * y)
