"""Eigenvalue enumeration, multiplicities, counting functions and their
closed-form lower bounds for the four domains.

Normalized eigenvalues are exact integers: m^2 + mn + n^2 for the torus,
equilateral and hemiequilateral (physical scale 16 pi^2 / 9), and m^2 + n^2
for the right-isosceles triangle with side pi (scale 1).  The admissible
modes up to a value are read off one description, `_rows`: an exact integer
m-interval for each row n.  The spectrum builds those rows' cells as integer
arrays, sorts them with one lexsort and groups equal values with np.unique
into int64 columns, which are the spectrum's only representation; the
counting function and the multiplicity are point queries that sum the
rows' lengths in O(sqrt(lambda)), without enumerating.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .alcove_geometry import DOMAINS, DomainKind

# enumerate_spectrum's largest count: the CLI's --count ceiling
MAX_COUNT = 10 ** 6


class Mode(NamedTuple):
    m: int
    n: int


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


def modes_up_to(d: DomainKind, limit: int) -> np.ndarray:
    """All admissible modes with normalized value <= limit: a (k, 2) int64
    array of (m, n), ordered by value, then m, then n.  Row n of `_rows` holds
    hi - lo + 1 cells, so n is the row's index repeated that often and m
    counts up from the row's lo.  Each cell still passes the scalar rule
    `_admissible`, as a check that the rows hold only admissible modes (it
    raises AssertionError otherwise) and as where perfbench counts box cells."""
    spec = DOMAINS[d]
    rows = np.array(list(_rows(spec, limit)), dtype=np.int64).reshape(-1, 3)
    row_n, lo, hi = rows.T
    length = hi - lo + 1
    n = np.repeat(row_n, length)
    start = np.cumsum(length) - length  # each row's first cell
    m = np.arange(n.size, dtype=np.int64) - np.repeat(start - lo, length)
    modes = np.column_stack((m, n))[np.lexsort((n, m, spec.value(m, n)))]
    if not all(map(_admissible, repeat(spec), *modes.T.tolist())):
        raise AssertionError(f"_rows holds a mode that is not admissible on {d.value}")
    return modes


def _entries_from_modes(d: DomainKind, modes: np.ndarray):
    """Group modes ordered by value: np.unique over their values gives each
    distinct value, its first position in `modes` and its multiplicity."""
    return np.unique(DOMAINS[d].value(*modes.T), return_index=True, return_counts=True)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """int64 columns, one row per distinct value, and the sorted modes: row
    i's are modes[min_index[i] - 1:max_index[i]]."""
    normalized: np.ndarray
    min_index: np.ndarray
    max_index: np.ndarray
    multiplicity: np.ndarray
    modes: np.ndarray


def enumerate_spectrum(d: DomainKind, count: int) -> Spectrum:
    """The distinct-eigenvalue rows covering the first `count` eigenvalues, with
    multiplicity, up to the first whose max_index reaches count <= MAX_COUNT."""
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be >= 1 and <= {MAX_COUNT}, got {count}")
    # the counting bound puts at least `count` eigenvalues below this limit
    limit = math.ceil(bound_inverse(d, count) / DOMAINS[d].scale)
    modes = modes_up_to(d, limit)
    if len(modes) < count:
        raise AssertionError(f"{len(modes)} modes up to {limit}, fewer than "
                             f"the counting bound's {count}")
    values, first, mult = _entries_from_modes(d, modes)
    max_index = first + mult
    rows = slice(int(np.searchsorted(max_index, count)) + 1)
    return Spectrum(values[rows], first[rows] + 1, max_index[rows], mult[rows], modes)


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
