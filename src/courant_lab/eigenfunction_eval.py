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


def eigenbasis(d: DomainKind, pair, s, t) -> tuple:
    """The basis of the pair's eigenspace on d at (s, t): C and S on the
    equilateral triangle, C alone on the hemiequilateral (S is not Dirichlet
    on s = t), the antisymmetrized sine product on the right-isosceles."""
    m, n = pair
    if d is DomainKind.EQUILATERAL:
        return eval_C(m, n, s, t), eval_S(m, n, s, t)
    if d is DomainKind.HEMIEQUILATERAL:
        return (eval_C(m, n, s, t),)
    if d is DomainKind.RIGHT_ISOSCELES:
        return (eval_isosceles(m, n, s, t),)
    raise ValueError(f"no real eigenbasis on {d.value}")


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


def eval_isosceles(m: int, n: int, x, y):
    """sin(mx)sin(ny) - sin(nx)sin(my) on the half-square 0 < y < x < pi;
    swapping m and n negates it exactly."""
    if m == n or min(m, n) < 1:
        raise ValueError("need m != n, both >= 1")
    return np.sin(m * x) * np.sin(n * y) - np.sin(n * x) * np.sin(m * y)
