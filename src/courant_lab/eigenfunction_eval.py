"""Closed-form eigenfunction evaluation: the six-term C/S sums and their
mixtures Psi^theta on the equilateral triangle (also used for the
hemiequilateral), and the antisymmetrized sine products on the
right-isosceles triangle.

Evaluators accept scalars or numpy arrays in (s, t), elementwise; gradients
are analytic (term-by-term differentiation), never internal finite
differences.  A grid is read from per-axis cos/sin tables (weyl_tables,
GridBasis.separable), within a bound delta of the sums, and the sums
themselves are read only at chosen samples (GridBasis.exact_at).

A triangle's nodal grid (_grid_values) is read beside the bound it relies
on: _certified_values reads the sums back wherever delta could decide a sign
or the zero band, and sign_grid bands the values, for counts and plots alike.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

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
# 4096 grid, and plot --resolution 4096 draws one, in about 0.2 GB (peak RSS
# 177 and 175 MB for the mixed equilateral pair (2,3); a plot's is 137 MB
# for hemiequilateral (4,2) and 208 MB for right-isosceles (6,1)).
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


def eigenbasis(d: DomainKind, pair, s, t) -> tuple:
    """The basis of the pair's eigenspace on d at the samples (s, t): C and S
    on the equilateral triangle, C alone on the hemiequilateral (S is not
    Dirichlet on s = t), the antisymmetrized sine product on the
    right-isosceles.  mix gives C's bits at theta 0: 1.0 C + 0.0 S is C, as
    the sum C is never -0.0."""
    m, n = pair
    if d is DomainKind.RIGHT_ISOSCELES:
        return (eval_isosceles(m, n, s, t),)
    if d not in (DomainKind.EQUILATERAL, DomainKind.HEMIEQUILATERAL):
        raise ValueError(f"no real eigenbasis on {d.value}")
    c = eval_C(m, n, s, t)
    if d is DomainKind.HEMIEQUILATERAL:
        return (c,)
    return c, eval_S(m, n, s, t)


def mix(basis: tuple, theta: float):
    """basis[0] alone, or cos(theta) basis[0] + sin(theta) basis[1]."""
    if len(basis) == 1:
        return basis[0]
    return math.cos(theta) * basis[0] + math.sin(theta) * basis[1]


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error of k roundings (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 3)."""
    return k * UNIT / (1.0 - k * UNIT)


def weyl_tables(m: int, n: int):
    """(ks, M_C, M_S) with C(s, t) = A(s) M_C A(t)^T and S(s, t) = A(s) M_S
    A(t)^T, where A(x) is the row (cos 2 pi k x for k in ks, then sin 2 pi k
    x).  By angle addition each Weyl term (sign, a, b) is cos 2 pi (a s + b t)
    = cos(2 pi a s) cos(2 pi b t) - sin(2 pi a s) sin(2 pi b t) and sin 2 pi (a
    s + b t) = sin(2 pi a s) cos(2 pi b t) + cos(2 pi a s) sin(2 pi b t), and
    cos 2 pi a x, sin 2 pi a x are the |a| columns times 1 and sign(a)."""
    ks = (m, n, m + n)
    mc, ms = np.zeros((6, 6)), np.zeros((6, 6))
    for sign, a, b in weyl_coefficients(m, n):
        i, j = ks.index(abs(a)), ks.index(abs(b))
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        mc[i, j] += sign
        mc[3 + i, 3 + j] -= sign * sa * sb
        ms[3 + i, j] += sign * sa
        ms[i, 3 + j] += sign * sb
    return ks, mc, ms


class GridBasis:
    """eigenbasis on a grid over the increasing axis x, at the samples (x[i],
    x[j]) with lo[i] <= j < hi[i] in row order: mask[i, j] says which.  It is
    never evaluated whole: separable gives it mixed at an angle from per-axis
    tables, within delta of the sums, and exact_at gives the sums at chosen
    samples."""

    def __init__(self, d: DomainKind, pair, x, lo, hi):
        self.domain, self.pair, self.x, self.lo, self.hi = d, pair, x, lo, hi
        self.starts = np.cumsum(hi - lo) - (hi - lo)
        self.mask = np.zeros((len(x), len(x)), dtype=bool)
        for row, a, b in zip(self.mask, lo.tolist(), hi.tolist()):
            row[a:b] = True

    def exact_at(self, theta: float, idx):
        """The sums mixed at theta at the inside samples idx (positions in
        row order, an array of any shape), evaluated there alone: every
        operation is elementwise, so each value has the bits it has in the
        whole grid's pointwise evaluation."""
        i = np.searchsorted(self.starts, idx, side="right") - 1
        j = self.lo[i] + (idx - self.starts[i])
        return mix(eigenbasis(self.domain, self.pair, self.x[i], self.x[j]), theta)

    def separable(self, theta: float):
        """(values, delta): the basis mixed at theta at the inside samples,
        as A(x_i) W A(x_j)^T from the per-axis tables, with W = c M_C + s M_S
        and (c, s) = (cos theta, sin theta).  It is formed block by block of
        rows, over the block's inside columns (mask), so no r^2 float array
        is made.  delta >= |value - exact_at(theta, sample)| at every
        sample, in any order of summation (u the unit roundoff, gamma_k = k u
        / (1 - k u), P the largest phase in the tables and |W| = |c| |M_C| +
        |s| |M_S|):
        - the tables: a phase has at most three roundings, so each entry of A
          is within alpha = gamma_3 P + TRIG_ERR of the true one; fl(W) is
          within gamma_2 |W| of c M_C + s M_S, and the two products of inner
          length 6 or less add gamma_13 (1 + gamma_2) |A| |W| |A|^T, so the
          value is within sum |W| (2 alpha + alpha^2 + gamma_16 (1 + alpha)^2)
          of the true c C + s S;
        - mix's sums: on the right-isosceles triangle they are the product of
          the same sines in one order, so the same bound holds.  On the other
          two, a Weyl term's phase fl(2 pi fl(fl(a s) + fl(b t))) has four
          roundings and 2 pi one, so it is within gamma_4 2 pi (|a s| + |b t|)
          <= gamma_4 2 P =: phi of the true one (|a|, |b| <= m + n), and its
          cos or sin within phi + TRIG_ERR; six terms of size <= 1 summed in
          order add gamma_5 6.  So C and S are each within eta = 6 (phi +
          TRIG_ERR + gamma_5) of the true sums, and fl(fl(c C) + fl(s S)) is
          within (|c| + |s|) (eta + gamma_2 (6 + eta)) of c C + s S.
        delta is twice the sum of the two bounds; the factor covers the
        rounding of the comparisons the certificate makes with it, below u
        (6 (|c| + |s|) + 2 delta) each."""
        a, mc, ms, phase = self.tables
        c, s = math.cos(theta), math.sin(theta)
        g = (c * mc + s * ms) @ a.T
        counts, r = self.hi - self.lo, len(self.x)
        values = np.empty(int(counts.sum()))
        step = max(1, BLOCK // r)
        for i in range(0, r, step):
            lo, hi, at = self.lo[i:i + step], self.hi[i:i + step], self.starts[i]
            full = lo < hi
            if not full.any():
                continue
            c0, c1 = lo[full].min(), hi[full].max()
            values[at:at + counts[i:i + step].sum()] = (
                a[i:i + step] @ g[:, c0:c1])[self.mask[i:i + step, c0:c1]]
        alpha = _gamma(3) * phase + TRIG_ERR
        table = float(np.sum(abs(c) * np.abs(mc) + abs(s) * np.abs(ms))) * (
            2.0 * alpha + alpha * alpha + _gamma(16) * (1.0 + alpha) ** 2)
        if self.domain is DomainKind.RIGHT_ISOSCELES:
            sums = table
        else:
            eta = 6.0 * (_gamma(4) * 2.0 * phase + TRIG_ERR + _gamma(5))
            sums = (abs(c) + abs(s)) * (eta + _gamma(2) * (6.0 + eta))
        return values, 2.0 * (sums + table)

    @functools.cached_property
    def tables(self):
        """(A, M_C, M_S, the largest phase in A), A's rows A(x) on the axis:
        weyl_tables on the equilateral and hemiequilateral triangles, and on
        the right-isosceles (sin m x, sin n x) with M_C = [[0, 1], [-1, 0]]
        and M_S = 0, the sine product of eval_isosceles."""
        if self.domain is DomainKind.RIGHT_ISOSCELES:
            phase = np.multiply.outer(self.x, self.pair)
            turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
            return np.sin(phase), turn, np.zeros((2, 2)), float(phase.max())
        ks, mc, ms = weyl_tables(*self.pair)
        phase = np.multiply.outer(self.x, [TWO_PI * k for k in ks])
        return np.hstack((np.cos(phase), np.sin(phase))), mc, ms, float(phase.max())


def _grid_values(h: EigenfunctionHandle, resolution: int) -> GridBasis:
    """The one nodal grid: the eigenbasis of the handle's domain and mode on
    the axis x, resolution samples over [0, e], e the largest vertex
    coordinate of the triangle, at the samples (x[i], x[j]) strictly inside
    the domain (basis.mask), read through its tables and at chosen samples
    (GridBasis).  The mask is the domain predicate on the broadcast axes,
    built from each row's interval of inside columns (DomainSpec.row_ends),
    and the basis reads those samples only.  It does not read h.theta; each
    reader mixes the basis at its own angles."""
    spec = DOMAINS[h.domain]
    if spec.vertices is None:
        raise ValueError(f"nodal grids are not defined for {h.domain.value}")
    if not MIN_GRID <= resolution <= MAX_GRID:
        raise ValueError(f"resolution must be >= {MIN_GRID} and <= {MAX_GRID}, "
                         f"got {resolution}")
    x = np.linspace(0.0, max(map(max, spec.vertices)), resolution)
    return GridBasis(h.domain, h.mode, x, *spec.row_ends(x, -EDGE_TOL))


def sign_grid(inside: np.ndarray, band: float, mask: np.ndarray) -> np.ndarray:
    """{+1, -1, 0} per sample: the sign of the values inside the mask (given
    in its row order), 0 in the zero band [-band, band] and outside the
    mask."""
    signs = np.zeros(mask.shape, dtype=np.int8)
    signs[mask] = (inside > band).astype(np.int8) - (inside < -band)
    return signs


def _certified_values(basis: GridBasis, theta: float,
                      rel: float) -> Tuple[np.ndarray, float]:
    """(values, band): values whose signs outside the band rel * max |value|
    (a count's at ZERO_BAND_REL, a plot's strict signs at 0) are those of
    the sums mixed at theta, and that band, read off the samples that fix
    it: the table values (GridBasis.separable), within delta of the mixed
    sums, with the sums themselves (exact_at) where delta could decide.
    With v the table value and V the sum at a sample:
    - at every sample with |v| >= max |v| - 2 delta: the sample where |V| is
      largest has |v| >= max |V| - delta >= max |v| - 2 delta, and every
      other sample has |v| < max |V| - delta, so the largest |value| is max
      |V| and the band is the band of the sums;
    - at every sample with ||v| - band| <= delta: elsewhere |v| > band +
      delta, so |V| > band with the sign of v, or |v| < band - delta, so |V|
      < band."""
    values, delta = basis.separable(theta)
    size = np.abs(values)
    top = np.flatnonzero(size >= size.max() - 2.0 * delta)
    values[top] = basis.exact_at(theta, top)
    band = rel * float(np.max(np.abs(values[top])))
    size -= band
    edge = np.flatnonzero(np.abs(size, out=size) <= delta)
    values[edge] = basis.exact_at(theta, edge)
    return values, band


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
