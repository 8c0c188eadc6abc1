"""Pleijel-style screening: combine the counting lower bound with the
Faber-Krahn inequality to reduce Courant-sharpness to a finite candidate list
per domain, and emit the corresponding screening tables."""

import math
from dataclasses import dataclass
from typing import List, Tuple

from .alcove_geometry import DOMAINS, DomainKind
from .lattice_spectrum import Mode, bound_inverse, enumerate_spectrum, scale

# First positive zero of the Bessel function J0, to full double precision so
# the printed threshold digits come out right.
J01 = 2.40482555769577


def faber_krahn_threshold(d: DomainKind) -> float:
    """Ratio threshold (in the domain's table units, i.e. per normalized
    eigenvalue unit) that a Courant-sharp eigenvalue must meet: the
    Faber-Krahn line lambda_n >= pi j01^2 n / |Omega| over the scale."""
    spec = DOMAINS[d]
    return math.pi * J01 * J01 / (spec.area * spec.scale)


def courant_upper_bound(d: DomainKind, n: int) -> float:
    """Necessary upper bound on lambda_n (physical units) if it is
    Courant-sharp, from inverting the counting lower bound at N = n - 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return bound_inverse(d, n - 1)


def fk_line(d: DomainKind, n: int) -> float:
    """Faber-Krahn growth line in physical units: lambda_n >= fk_line(d, n)."""
    return faber_krahn_threshold(d) * scale(d) * n


CUTOFF_SCAN_MAX = 1000


def cutoff_scan(d: DomainKind) -> int:
    """Largest n <= CUTOFF_SCAN_MAX with fk_line <= courant_upper_bound."""
    last = 1
    for n in range(2, CUTOFF_SCAN_MAX + 1):
        if fk_line(d, n) <= courant_upper_bound(d, n):
            last = n
    return last


def index_cutoff(d: DomainKind) -> int:
    """Largest index for which the two necessary conditions are declared
    mutually consistent: the published safe bound.  cutoff_scan() gives the
    strict crossing, which is never larger (asserted in tests)."""
    return DOMAINS[d].index_cutoff


@dataclass(frozen=True)
class ScreeningRow:
    normalized: int
    min_index: int
    max_index: int
    multiplicity: int
    ratio: float
    ratio_applies: bool
    passes: bool
    modes: Tuple[Mode, ...]


@dataclass(frozen=True)
class ScreeningSummary:
    domain: DomainKind
    index_cutoff: int
    threshold: float
    candidates: List[int]


def screening_table(d: DomainKind) -> List[ScreeningRow]:
    cutoff = index_cutoff(d)
    threshold = faber_krahn_threshold(d)
    first_ratio_index = DOMAINS[d].first_ratio_index
    rows = []
    # every entry enumerate_spectrum returns starts at an index <= cutoff
    for e in enumerate_spectrum(d, cutoff):
        applies = e.min_index >= first_ratio_index
        ratio = e.normalized / e.min_index
        rows.append(ScreeningRow(e.normalized, e.min_index, e.max_index,
                                 e.multiplicity, ratio, applies,
                                 applies and ratio >= threshold,
                                 tuple(e.representative_modes)))
    return rows


def candidates(d: DomainKind) -> List[ScreeningRow]:
    """Rows surviving the necessary conditions, index <= cutoff and the ratio
    test where it applies, each standing for its min_index n, the one index
    with lambda_{n-1} < lambda_n.  Indices 1 and 2 always start a row."""
    return [row for row in screening_table(d) if row.min_index <= 2 or row.passes]


def candidate_indices(d: DomainKind) -> List[int]:
    return [row.min_index for row in candidates(d)]


def screening_summary(d: DomainKind) -> ScreeningSummary:
    return ScreeningSummary(d, index_cutoff(d), faber_krahn_threshold(d),
                            candidate_indices(d))
