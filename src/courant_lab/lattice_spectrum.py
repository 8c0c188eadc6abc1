"""Eigenvalue enumeration, multiplicities, counting functions and their
closed-form lower bounds for the four domains.

Normalized eigenvalues are exact integers: m^2 + mn + n^2 for the torus,
equilateral and hemiequilateral (physical scale 16 pi^2 / 9), and m^2 + n^2
for the right-isosceles triangle with side pi (scale 1).
"""

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple

from .alcove_geometry import DomainKind

SCALE_A2 = 16.0 * math.pi ** 2 / 9.0


class Mode(NamedTuple):
    m: int
    n: int


@dataclass(frozen=True)
class SpectrumEntry:
    normalized: int
    multiplicity: int
    min_index: int
    max_index: int
    representative_modes: List[Mode] = field(default_factory=list)


def scale(d: DomainKind) -> float:
    """Physical eigenvalue = scale(d) * normalized integer."""
    return 1.0 if d is DomainKind.RIGHT_ISOSCELES else SCALE_A2


def normalized_value(d: DomainKind, m: int, n: int) -> int:
    if d is DomainKind.RIGHT_ISOSCELES:
        return m * m + n * n
    return m * m + m * n + n * n


def _admissible(d: DomainKind, m: int, n: int) -> bool:
    if d is DomainKind.TORUS:
        return True
    if d is DomainKind.EQUILATERAL:
        return m >= 1 and n >= 1
    # hemiequilateral and right-isosceles both take m > n >= 1
    return m > n >= 1


def modes_up_to(d: DomainKind, limit: int, box_margin: int = 0) -> List[Mode]:
    """All admissible modes with normalized value <= limit.

    The box |m|, |n| <= ceil(2 sqrt(limit/3)) covers every solution of
    m^2 + mn + n^2 <= limit since the form is >= (3/4) max(m^2, n^2); for
    m^2 + n^2 the box ceil(sqrt(limit)) suffices and is contained in it.
    box_margin widens the box (used by the enumeration-cutoff oracle).
    """
    if limit < 0:
        return []
    bound = math.isqrt((4 * limit) // 3 + 1) + 1 + box_margin
    lo = -bound if d is DomainKind.TORUS else 1
    out = []
    for m in range(lo, bound + 1):
        for n in range(lo, bound + 1):
            if _admissible(d, m, n) and normalized_value(d, m, n) <= limit:
                out.append(Mode(m, n))
    out.sort(key=lambda p: (normalized_value(d, *p), p.m, p.n))
    return out


def _entries_from_modes(d: DomainKind, modes: List[Mode]) -> List[SpectrumEntry]:
    groups = {}
    for p in modes:
        groups.setdefault(normalized_value(d, *p), []).append(p)
    entries = []
    index = 1
    for value in sorted(groups):
        mult = len(groups[value])
        entries.append(SpectrumEntry(value, mult, index, index + mult - 1,
                                     groups[value]))
        index += mult
    return entries


def enumerate_spectrum(d: DomainKind, count: int) -> List[SpectrumEntry]:
    """Distinct-eigenvalue entries covering the first `count` eigenvalues
    (counted with multiplicity)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > 10 ** 6:
        raise ValueError("count too large")
    # Weyl-law guess for the normalized cutoff, grown until enough modes.
    limit = _weyl_guess(d, count)
    while True:
        modes = modes_up_to(d, limit)
        if len(modes) >= count:
            break
        limit = int(limit * 1.5) + 8
    entries = _entries_from_modes(d, modes)
    out = []
    for e in entries:
        out.append(e)
        if e.max_index >= count:
            break
    return out


SQRT3_HALF = math.sqrt(3.0) / 2.0


def _weyl_guess(d: DomainKind, count: int) -> int:
    # N(lambda) ~ A lambda / 4 pi in physical units; convert to normalized.
    if d is DomainKind.TORUS:
        guess = count * 4.0 * math.pi / (3.0 * SQRT3_HALF * SCALE_A2)
        return max(4, int(guess) + 4)
    if d is DomainKind.EQUILATERAL:
        guess = count * 4.0 * math.pi / (SQRT3_HALF / 2.0 * SCALE_A2)
        return max(4, int(guess) + 4)
    if d is DomainKind.HEMIEQUILATERAL:
        guess = count * 4.0 * math.pi / (SQRT3_HALF / 4.0 * SCALE_A2)
        return max(4, int(guess) + 4)
    guess = count * 8.0 + 8  # area pi^2/2: N ~ pi lambda / 8
    return int(guess)


def multiplicity(d: DomainKind, normalized: int) -> int:
    """Number of admissible modes attaining the normalized value (0 if none)."""
    if normalized < 0:
        raise ValueError("normalized must be >= 0")
    return sum(1 for p in modes_up_to(d, normalized)
               if normalized_value(d, *p) == normalized)


def counting_function(d: DomainKind, lam: float) -> int:
    """Strict count of eigenvalues (with multiplicity) below lam (physical)."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    unit = scale(d)
    cutoff = lam / unit
    if cutoff <= 0:
        return 0
    # compare in physical units: lam / unit can round above an integer k
    # with k * unit == lam, which would count the eigenvalue lam itself
    limit = int(math.ceil(cutoff))
    return sum(1 for p in modes_up_to(d, limit)
               if normalized_value(d, *p) * unit < lam)


# Counting lower bound coefficients (a, b, c): N(lambda) >= a*lambda - b*sqrt(lambda) + c.
_BOUND_COEFFS = {
    DomainKind.TORUS: (3.0 * math.sqrt(3.0) / (8.0 * math.pi),
                       9.0 / (2.0 * math.pi), 1.0),
    DomainKind.EQUILATERAL: (math.sqrt(3.0) / (16.0 * math.pi),
                             3.0 / (2.0 * math.pi), 1.0),
    DomainKind.RIGHT_ISOSCELES: (math.pi / 8.0,
                                 (4.0 + math.sqrt(2.0)) / 4.0, 0.5),
    DomainKind.HEMIEQUILATERAL: (math.sqrt(3.0) / (32.0 * math.pi),
                                 (6.0 + math.sqrt(3.0)) / (8.0 * math.pi), 0.5),
}


def bound_coefficients(d: DomainKind):
    return _BOUND_COEFFS[d]


def counting_lower_bound(d: DomainKind, lam: float) -> float:
    """Closed-form lower bound for the counting function (physical units)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    a, b, c = _BOUND_COEFFS[d]
    return a * lam - b * math.sqrt(lam) + c
