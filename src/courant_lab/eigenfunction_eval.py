"""Closed-form eigenfunction evaluation: the six-term C/S sums and their
mixtures Psi^theta on the equilateral triangle (also used for the
hemiequilateral), and the antisymmetrized sine products on the
right-isosceles triangle.

Evaluators accept scalars or numpy arrays in (s, t), elementwise; gradients
are analytic (term-by-term differentiation), never internal finite
differences.  A triangle's nodal grid (_grid_values, GridBasis.separable)
and a chord s + t = a (_chord_table) are read from cos/sin tables within a
derived bound delta of the sums, whose own rounding is _sums_error.  One
rule (_decisive) names the samples where delta could decide the largest
|value| or a side of the band, and one call reads the sums there
(GridBasis.exact_at, eval_psi), for counts, plots and root scans alike
(_certified_values, _certified_chord).
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


def _sums_error(w: float, k: int, x: float) -> float:
    """A bound on the rounding of eval_psi's value, or of mix((eval_C,
    eval_S), theta), at a point where each Weyl phase 2 pi (a s + b t) has
    |a s| + |b t| <= k x, against the truth mixed with the same c = cos theta
    and s = sin theta, w = |c| + |s|: the phase has six roundings (fl(2 pi),
    a s, b t, their sum, the product, and t = fl(a - u) on a chord), so its
    cos and sin are within eta = gamma_6 2 pi k x + TRIG_ERR of the truth's,
    and C and S add gamma_5 and the mix gamma_2, so the value is within 6 w
    (eta + gamma_7 (1 + eta)).  Below it a sample's sign is not known."""
    eta = _gamma(6) * TWO_PI * k * x + TRIG_ERR
    return 6.0 * w * (eta + _gamma(7) * (1.0 + eta))


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
        - the sums: on the right-isosceles triangle they are the product of
          the same sines in one order, so the same bound holds; on the other
          two _sums_error(|c| + |s|, 2 (m + n), x[-1]), as |a|, |b| <= m + n.
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
            sums = _sums_error(abs(c) + abs(s), 2 * sum(self.pair), float(self.x[-1]))
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


def _decisive(values, delta: float, rel: float) -> np.ndarray:
    """The samples, as a mask, where a table within delta of the sums could
    decide the largest |value| or a sample's side of the band rel max |value|
    (0 for a chord's signs and exact zeros).  With v the table value and V the
    sum at a sample:
    - |v| >= max |v| - 2 delta: the sample where |V| is largest has |v| >=
      max |V| - delta >= max |v| - 2 delta, and every other sample has |v| <
      max |V| - delta, so max |V| is among the sums read here;
    - ||v| - b| <= (1 + rel) delta, b = rel max |v|: the sums' band B = rel max
      |V| is within rel delta of b, so elsewhere |v| > b + (1 + rel) delta,
      and |V| > B with the sign of v, or |v| < b - (1 + rel) delta, and |V| <
      B."""
    size = np.abs(values)
    top = size.max()
    high = np.flatnonzero(size >= top - 2.0 * delta)
    size -= rel * top
    read = np.abs(size, out=size) <= (1.0 + rel) * delta
    read[high] = True
    return read


def _certified_values(basis: GridBasis, theta: float,
                      rel: float) -> Tuple[np.ndarray, float]:
    """(values, band): values whose signs outside the band rel * max |value|
    (a count's at ZERO_BAND_REL, a plot's strict signs at 0) are those of
    the sums mixed at theta, and that band: the table values
    (GridBasis.separable), within delta of the sums, with the sums themselves
    (exact_at) read in one call wherever delta could decide (_decisive), so
    the band is rel times the largest |sum| read."""
    values, delta = basis.separable(theta)
    read = np.flatnonzero(_decisive(values, delta, rel))
    values[read] = basis.exact_at(theta, read)
    return values, rel * float(np.max(np.abs(values[read])))


def _chord_table(h: EigenfunctionHandle, a: float, u):
    """(values, slopes, delta, delta_slope): Psi^theta on the chord s + t = a
    at the samples u in (0, a), and its derivative in u, from a table of
    three frequencies.  There a Weyl term (sign, a_j, b_j) has phase beta_j
    + omega_j u, beta_j = 2 pi b_j a and omega_j = 2 pi (a_j - b_j), so with
    (c, s) = (cos theta, sin theta), floats as in eval_psi, it is p_j cos
    omega_j u + q_j sin omega_j u, p_j = sign (c cos beta_j + s sin beta_j)
    and q_j = sign (s cos beta_j - c sin beta_j).  Merged by k = |a_j - b_j|
    (sin is odd), f = sum P_k cos 2 pi k u + Q_k sin 2 pi k u and f' = sum 2
    pi k (Q_k cos - P_k sin): one product of scalar rows with six cos and
    sin arrays.  delta >= |value - eval_psi's value| and delta_slope >=
    |slope - eval_psi's grad_s - grad_t| at every sample, in any order of
    summation, as each is within a bound of the truth, the restriction mixed
    with the same c and s (u the unit roundoff, gamma_k = k u / (1 - k u), N
    = 6 terms, w = |c| + |s|, M the largest |a_j| or |b_j|, U the largest
    sample and L = 2 pi w sum (|a_j| + |b_j|) >= 2 pi w sum |a_j - b_j|):
    - the table: beta_j = fl(fl(2 pi) b_j) a has three roundings, so its cos
      and sin (math's) are within e_b = gamma_3 2 pi M a + TRIG_ERR, p_j and
      q_j within w rho, rho = e_b + gamma_2 (1 + e_b), and P_k and Q_k, sums
      of n_k of them, within n_k w nu, nu = rho + gamma_5 (1 + rho).  cos and
      sin of fl(fl(2 pi) k) u are within e = gamma_3 2 pi k U + TRIG_ERR, k
      the largest, and a sum of six products adds gamma_6, so the value is
      within 2 N w (nu (1 + e) + e + gamma_6 (1 + nu) (1 + e)).  The slope's
      coefficients fl(fl(2 pi) k Q_k) add gamma_3, so it is within 2 L ((nu
      + gamma_3 (1 + nu)) (1 + e) + e + gamma_6 (1 + nu) (1 + gamma_3) (1 +
      e));
    - eval_psi at (u, fl(a - u)): |a_j| u + |b_j| t <= M a, so its value is
      within _sums_error(w, M, a).  Its slope mixes each term's cos and sin
      as the value does, times 2 pi a_j or 2 pi b_j (gamma_3), summed
      (gamma_5) and subtracted (one rounding), so it is within L (eta +
      gamma_11 (1 + eta)) <= L _sums_error(w, M, a) / (3 w), eta as there.
    Each delta is twice the sum of its two bounds; the factor covers the
    rounding of the comparisons made with it, as in GridBasis.separable.
    On a chord of (1,3) or (2,3) (a < 1, U < 2/3) the table's own bounds are
    below 5e-14 N w and 3e-12 N w: its samples round within the 1e-13 N w
    that find_roots grants them."""
    m, n = h.mode
    c, s = math.cos(h.theta), math.sin(h.theta)
    terms = weyl_coefficients(m, n)
    ks = sorted({abs(ta - tb) for _, ta, tb in terms})
    p, q = [0.0] * len(ks), [0.0] * len(ks)
    for sign, ta, tb in terms:
        beta = TWO_PI * tb * a
        cb, sb = math.cos(beta), math.sin(beta)
        i = ks.index(abs(ta - tb))
        p[i] += sign * (c * cb + s * sb)
        q[i] += sign * ((ta > tb) - (ta < tb)) * (s * cb - c * sb)
    omega = [TWO_PI * k for k in ks]
    rows = np.array([[*p, *q], [*(o * qk for o, qk in zip(omega, q)),
                                *(-o * pk for o, pk in zip(omega, p))]])
    phase = np.multiply.outer(omega, u)
    values, slopes = rows @ np.vstack((np.cos(phase), np.sin(phase)))
    w, largest = abs(c) + abs(s), max(max(abs(ta), abs(tb)) for _, ta, tb in terms)
    size = len(terms) * w
    slope_size = TWO_PI * w * sum(abs(ta) + abs(tb) for _, ta, tb in terms)
    e_b = _gamma(3) * TWO_PI * largest * a + TRIG_ERR
    rho = e_b + _gamma(2) * (1.0 + e_b)
    nu = rho + _gamma(5) * (1.0 + rho)
    e = _gamma(3) * TWO_PI * ks[-1] * float(np.max(u)) + TRIG_ERR
    table = 2.0 * size * (nu * (1.0 + e) + e + _gamma(6) * (1.0 + nu) * (1.0 + e))
    table_slope = 2.0 * slope_size * (
        (nu + _gamma(3) * (1.0 + nu)) * (1.0 + e) + e
        + _gamma(6) * (1.0 + nu) * (1.0 + _gamma(3)) * (1.0 + e))
    sums = _sums_error(w, largest, a)
    sums_slope = slope_size / (3.0 * w) * sums
    return values, slopes, 2.0 * (table + sums), 2.0 * (table_slope + sums_slope)


def _certified_chord(h: EigenfunctionHandle, a: float, u):
    """(values, slopes, (M0, M2)): Psi^theta on the chord s + t = a at the
    samples u and its derivative in u, from _chord_table, with eval_psi's
    value and grad_s - grad_t read back in one call where delta could decide
    (_decisive at band 0: the largest |value|, every sign and every exact
    zero) and where |v'| <= delta_slope (the slopes' signs and zeros); and
    find_roots' bounds: M0 = 6 w, the size of the six terms, and M2 = w sum
    (2 pi (a_j - b_j))^2 >= max |f''|, as each term is sign (cos(theta) cos +
    sin(theta) sin) of a phase whose derivative in u is 2 pi (a_j - b_j)."""
    values, slopes, delta, delta_slope = _chord_table(h, a, u)
    read = np.flatnonzero(_decisive(values, delta, 0.0)
                          | (np.abs(slopes) <= delta_slope))
    r = eval_psi(h, u[read], a - u[read])
    values[read], slopes[read] = r.value, r.grad_s - r.grad_t
    w = abs(math.cos(h.theta)) + abs(math.sin(h.theta))
    terms = weyl_coefficients(*h.mode)
    return values, slopes, (w * len(terms),
                            w * sum((TWO_PI * (ta - tb)) ** 2 for _, ta, tb in terms))


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
