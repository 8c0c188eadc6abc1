"""Closed-form eigenfunction evaluation: the six-term C/S sums and their
mixtures Psi^theta on the equilateral triangle (also used for the
hemiequilateral), and the antisymmetrized sine products on the
right-isosceles triangle.

Evaluators accept scalars or numpy arrays in (s, t); gradients are analytic
(term-by-term differentiation), never internal finite differences.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .alcove_geometry import DOMAINS, DomainKind, weyl_coefficients
from .lattice_spectrum import Mode, _admissible

TWO_PI = 2.0 * math.pi


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


def eigenbasis(d: DomainKind, pair, s, t, spread, thetas) -> tuple:
    """The basis of the pair's eigenspace on d at the samples of a grid: C
    and S on the equilateral triangle, C alone on the hemiequilateral (S is
    not Dirichlet on s = t), the antisymmetrized sine product on the
    right-isosceles.  s and t are the grid's axes and spread(u, v) takes
    values u on s and v on t to the samples read.  thetas are the angles the
    basis is mixed at; S is left out when every one is 0 (nodal's and plot's
    default angle): there mix gives C, the same bits as 1.0 C + 0.0 S, as
    the sum C is never -0.0."""
    m, n = pair
    if d is DomainKind.RIGHT_ISOSCELES:
        return (eval_isosceles(m, n, s, t, spread),)
    if d not in (DomainKind.EQUILATERAL, DomainKind.HEMIEQUILATERAL):
        raise ValueError(f"no real eigenbasis on {d.value}")
    s, t = spread(s, t)
    c = eval_C(m, n, s, t)
    if d is DomainKind.HEMIEQUILATERAL or not any(thetas):
        return (c,)
    return c, eval_S(m, n, s, t)


def mix(basis: tuple, theta: float):
    """basis[0] alone, or cos(theta) basis[0] + sin(theta) basis[1]."""
    if len(basis) == 1:
        return basis[0]
    return math.cos(theta) * basis[0] + math.sin(theta) * basis[1]


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
    arrays; an array gives the same numbers as per-point scalar calls."""
    if h.domain not in (DomainKind.EQUILATERAL, DomainKind.HEMIEQUILATERAL):
        raise ValueError("eval_psi applies to the triangle C/S families")
    m, n = h.mode
    ct, st = math.cos(h.theta), math.sin(h.theta)
    val = gs = gt = 0.0
    for sign, a, b in weyl_coefficients(m, n):
        phase = TWO_PI * (a * s + b * t)
        c, sn = np.cos(phase), np.sin(phase)
        # term = ct*cos(phase) + st*sin(phase), d/ds phase = 2 pi a
        val = val + sign * (ct * c + st * sn)
        dterm = ct * (-sn) + st * c
        gs = gs + sign * TWO_PI * a * dterm
        gt = gt + sign * TWO_PI * b * dterm
    return EvalResult(val, gs, gt)


def eval_isosceles(m: int, n: int, x, y, spread=None):
    """sin(mx)sin(ny) - sin(nx)sin(my) on the half-square 0 < y < x < pi;
    swapping m and n negates it exactly.  Given spread, x and y are a grid's
    axes: each sine is taken once per axis value and spread(u, v) takes the
    factors u on x and v on y to the samples, where they are multiplied.
    fl(sin(k x_i)) does not depend on where x_i sits, so every value keeps
    the bits it has at the sample's own coordinates."""
    if m == n or min(m, n) < 1:
        raise ValueError("need m != n, both >= 1")

    def product(j, k):
        u, v = np.sin(j * x), np.sin(k * y)
        return np.multiply(*spread(u, v)) if spread is not None else u * v

    return product(m, n) - product(n, m)
