"""Every root the root finders report, to the last bit: one sha256 over the
reprs of the edge critical zeros, chord roots, reduction and Wronskian
polynomial roots and median critical zeros, recorded when one Taylor cell
test decided every root scan.  A float's repr round-trips, so an equal
digest means equal bits."""

import hashlib
import math
import random

from courant_lab.nodal_analysis import (EDGE_PAIRS, bifurcation_angle,
                                        edge_critical_zeros,
                                        edge_restriction_roots,
                                        median_critical_zeros,
                                        polynomial_roots_unit_interval)

ROOT_DIGEST = "d96b86f3652d8dea63b586718907716491c2f0bfb45abba057912a792a61f841"


def root_reprs():
    """The reprs, one a line: edge critical zeros at fixed and drawn angles,
    seeded chords, the polynomial roots and the median critical zeros."""
    rng = random.Random(7)
    theta_c = bifurcation_angle()[1]
    thetas = [1e-300, 1e-30, 1e-24, 1e-18, 1e-12, 1e-3, math.pi / 12,
              math.pi / 6, theta_c, theta_c + 1e-6]
    # 1 - random() is in (0, 1], so each drawn angle is in (0, pi/6]
    thetas += [math.pi / 6 * (1.0 - rng.random()) for _ in range(300)]
    lines = [repr((tuple(pair), theta, edge_critical_zeros(pair, theta)))
             for theta in thetas for pair in EDGE_PAIRS]
    for i in range(200):
        pair, a, theta = EDGE_PAIRS[i % 2], rng.uniform(0.05, 0.95), rng.uniform(0.0, math.pi)
        lines.append(repr((tuple(pair), a, theta, edge_restriction_roots(pair, a, theta))))
    for pair in EDGE_PAIRS:
        for which in ("P_C", "P_S", "P_W"):
            lines.append(repr((tuple(pair), which,
                               polynomial_roots_unit_interval(pair, which))))
        for which in ("C", "S"):
            lines.append(repr((tuple(pair), which, median_critical_zeros(pair, which))))
    return lines


def test_every_root_keeps_its_bits():
    lines = root_reprs()
    assert len(lines) == 2 * 310 + 200 + 2 * 5
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ROOT_DIGEST
