"""Pleijel-style screening: combine the counting lower bound with the
Faber-Krahn inequality to reduce Courant-sharpness to a finite candidate list
per domain, and emit the corresponding screening tables."""

import math
from typing import List, Tuple

import numpy as np

from .alcove_geometry import DOMAINS, DomainKind
from .lattice_spectrum import Mode, Spectrum, bound_inverse, enumerate_spectrum

# First positive zero of the Bessel function J0 to 15 significant digits
# (j01 = 2.4048255576957728): the printed thresholds and the `screen` JSON
# carry the digits this value gives, so it is kept as it is.
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
    return faber_krahn_threshold(d) * DOMAINS[d].scale * n


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


def ratio_rule(d: DomainKind, s: Spectrum) -> Tuple[int, np.ndarray]:
    """The ratio test's inputs for the spectrum's rows: the number of leading
    rows it does not apply to, those whose min_index is below the domain's
    first_ratio_index (a prefix: min_index increases), and the column of
    ratios normalized / min_index."""
    skip = int((s.min_index < DOMAINS[d].first_ratio_index).sum())
    return skip, s.normalized / s.min_index


def screening_table(d: DomainKind) -> Tuple[Spectrum, np.ndarray]:
    """The spectrum up to the index cutoff and its bool column `passes`: False
    on the prefix ratio_rule skips, elsewhere ratio >= faber_krahn_threshold."""
    # every row enumerate_spectrum returns starts at an index <= the cutoff
    s = enumerate_spectrum(d, index_cutoff(d))
    skip, ratios = ratio_rule(d, s)
    passes = ratios >= faber_krahn_threshold(d)
    passes[:skip] = False
    return s, passes


def candidates(d: DomainKind) -> List[Tuple[int, Tuple[Mode, ...]]]:
    """(n, modes) for each row surviving the necessary conditions, index <=
    cutoff and the ratio test where it applies: n is the row's min_index, the
    one index with lambda_{n-1} < lambda_n, and modes its cluster's pairs.
    Indices 1 and 2 always start a row."""
    s, passes = screening_table(d)
    keep = (s.min_index <= 2) | passes
    return [(lo, tuple(map(Mode._make, s.modes[lo - 1:hi].tolist())))
            for lo, hi in zip(s.min_index[keep].tolist(), s.max_index[keep].tolist())]


def candidate_indices(d: DomainKind) -> List[int]:
    return [n for n, _ in candidates(d)]


def screening_summary(d: DomainKind) -> dict:
    """The `screen --format json` document."""
    return {"domain": d.value, "index_cutoff": index_cutoff(d),
            "threshold": faber_krahn_threshold(d), "candidates": candidate_indices(d)}
