"""Eigenvalue enumeration, multiplicities, counting functions and their
closed-form lower bounds for the four domains.

Normalized eigenvalues are exact integers: m^2 + mn + n^2 for the torus,
equilateral and hemiequilateral (physical scale 16 pi^2 / 9), and m^2 + n^2
for the right-isosceles triangle with side pi (scale 1).  The admissible
modes up to a value are read off one description, `_rows`: an exact integer
m-interval for each row n.  The spectrum lists those rows' modes and sorts
them; the counting function and the multiplicity are point queries that sum
the rows' lengths in O(sqrt(lambda)), without enumerating.
"""

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple

from .alcove_geometry import DOMAINS, SCALE_A2, DomainKind  # noqa: F401


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
    return DOMAINS[d].scale


def normalized_value(d: DomainKind, m: int, n: int) -> int:
    return DOMAINS[d].value(m, n)


def _admissible(spec, m: int, n: int) -> bool:
    lowest = spec.lowest
    return lowest is None or n >= lowest and (m > n if spec.ordered else m >= lowest)


def _rows(spec, limit: int):
    """(n, lo, hi) for each row n holding admissible modes with normalized
    value <= limit, which are the m with lo <= m <= hi: since 4 (m^2 + c mn
    + n^2) = (2m + cn)^2 + (4 - c^2) n^2, the row n holds the m with |2m + cn|
    <= r, r = isqrt(4 limit - (4 - c^2) n^2)."""
    if limit < 0:
        return
    c, lowest = spec.cross, spec.lowest
    n_max = math.isqrt(4 * limit // (4 - c * c))
    for n in range(-n_max if lowest is None else lowest, n_max + 1):
        r = math.isqrt(4 * limit - (4 - c * c) * n * n)
        lo, hi = -((r + c * n) // 2), (r - c * n) // 2
        if lowest is not None:
            lo = max(lo, n + 1 if spec.ordered else lowest)
        if lo <= hi:
            yield n, lo, hi


def modes_up_to(d: DomainKind, limit: int) -> List[Mode]:
    """All admissible modes with normalized value <= limit, ordered by value,
    then m, then n.  The rows hold only admissible cells; each still passes
    `_admissible`, where perfbench's tracer counts the cells scanned."""
    spec = DOMAINS[d]
    form = spec.value
    found = sorted((form(m, n), m, n) for n, lo, hi in _rows(spec, limit)
                   for m in range(lo, hi + 1) if _admissible(spec, m, n))
    return [Mode(m, n) for _, m, n in found]


def _entries_from_modes(d: DomainKind, modes: List[Mode]) -> List[SpectrumEntry]:
    form = DOMAINS[d].value
    groups = {}
    for p in modes:
        groups.setdefault(form(*p), []).append(p)
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
    # the counting bound puts at least `count` eigenvalues below this limit
    limit = math.ceil(bound_inverse(d, count) / scale(d))
    modes = modes_up_to(d, limit)
    if len(modes) < count:
        raise AssertionError(f"{len(modes)} modes up to {limit}, fewer than "
                             f"the counting bound's {count}")
    entries = _entries_from_modes(d, modes)
    last = next(i for i, e in enumerate(entries) if e.max_index >= count)
    return entries[:last + 1]


def _count_at_most(spec, limit: int) -> int:
    """Number of admissible modes with normalized value <= limit."""
    return sum(hi - lo + 1 for _, lo, hi in _rows(spec, limit))


def multiplicity(d: DomainKind, normalized: int) -> int:
    """Number of admissible modes attaining the normalized value (0 if none),
    the difference of two exact row counts: O(sqrt(normalized)), no
    enumeration."""
    if normalized < 0:
        raise ValueError("normalized must be >= 0")
    spec = DOMAINS[d]
    return _count_at_most(spec, normalized) - _count_at_most(spec, normalized - 1)


def counting_function(d: DomainKind, lam: float) -> int:
    """Strict count of eigenvalues (with multiplicity) below lam (physical),
    by exact row counts up to the largest integer k with k * unit < lam."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam <= 0:
        return 0
    spec = DOMAINS[d]
    unit = spec.scale
    # compare in physical units: lam / unit can round above an integer k
    # with k * unit == lam, which would count the eigenvalue lam itself
    limit = math.ceil(lam / unit)
    while limit * unit >= lam:
        limit -= 1
    return _count_at_most(spec, limit)


def bound_coefficients(d: DomainKind):
    """(a, b, c) with N(lambda) >= a*lambda - b*sqrt(lambda) + c, where
    a = area / 4 pi is the Weyl coefficient."""
    spec = DOMAINS[d]
    return spec.area / (4.0 * math.pi), spec.bound_b, spec.bound_c


def counting_lower_bound(d: DomainKind, lam: float) -> float:
    """Closed-form lower bound for the counting function (physical units)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    a, b, c = bound_coefficients(d)
    return a * lam - b * math.sqrt(lam) + c


def bound_inverse(d: DomainKind, count: float) -> float:
    """The lambda (physical units) at which counting_lower_bound equals
    count: the larger root of a x^2 - b x + c - count in x = sqrt(lambda)."""
    a, b, c = bound_coefficients(d)
    root = (b + math.sqrt(b * b + 4.0 * a * (count - c))) / (2.0 * a)
    return root * root
