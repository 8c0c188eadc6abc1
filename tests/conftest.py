import math

import pytest

from courant_lab.alcove_geometry import DOMAINS
from courant_lab.lattice_spectrum import Mode, _admissible


def _box_scan(d, limit):
    """All admissible modes with normalized value <= limit, by brute force
    over the square |m|, |n| <= isqrt(4 limit / 3 + 1) + 3, which holds them
    all with a margin of 2 (the form is >= (3/4) max(m^2, n^2)), ordered by
    value, then m, then n."""
    spec = DOMAINS[d]
    bound = math.isqrt(4 * max(limit, 0) // 3 + 1) + 3
    lo = -bound if spec.lowest is None else spec.lowest
    cells = [(spec.value(m, n), m, n) for m in range(lo, bound + 1)
             for n in range(lo, bound + 1) if _admissible(spec, m, n)]
    return [Mode(m, n) for value, m, n in sorted(cells) if value <= limit]


@pytest.fixture
def box_scan():
    """A brute-force oracle for modes_up_to that shares none of its code."""
    return _box_scan
