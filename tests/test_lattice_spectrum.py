import math

import pytest

from courant_lab.alcove_geometry import DOMAINS, SCALE_A2, DomainKind
from courant_lab import lattice_spectrum
from courant_lab.lattice_spectrum import (Mode, bound_inverse,
                                          counting_function,
                                          counting_lower_bound,
                                          enumerate_spectrum, modes_up_to,
                                          multiplicity)

T = DomainKind.TORUS
E = DomainKind.EQUILATERAL
B = DomainKind.RIGHT_ISOSCELES
H = DomainKind.HEMIEQUILATERAL

TORUS_TABLE = [
    (0, 1, 1, 1), (1, 2, 7, 6), (3, 8, 13, 6), (4, 14, 19, 6),
    (7, 20, 31, 12), (9, 32, 37, 6), (12, 38, 43, 6), (13, 44, 55, 12),
    (16, 56, 61, 6), (19, 62, 73, 12), (21, 74, 85, 12),
]

EQUILATERAL_TABLE = [
    (3, 1, 1, 1), (7, 2, 3, 2), (12, 4, 4, 1), (13, 5, 6, 2), (19, 7, 8, 2),
    (21, 9, 10, 2), (27, 11, 11, 1), (28, 12, 13, 2), (31, 14, 15, 2),
    (37, 16, 17, 2), (39, 18, 19, 2), (43, 20, 21, 2), (48, 22, 22, 1),
    (49, 23, 24, 2), (52, 25, 26, 2), (57, 27, 28, 2), (61, 29, 30, 2),
    (63, 31, 32, 2), (67, 33, 34, 2), (73, 35, 36, 2), (75, 37, 37, 1),
    (76, 38, 39, 2), (79, 40, 41, 2),
]


def _rows(s):
    """(normalized, min_index, max_index, multiplicity) of each spectrum row."""
    return list(zip(s.normalized.tolist(), s.min_index.tolist(),
                    s.max_index.tolist(), s.multiplicity.tolist()))


def _row_modes(s):
    """Each spectrum row's modes, the slice modes[min_index - 1:max_index]."""
    return [list(map(Mode._make, s.modes[lo - 1:hi].tolist()))
            for lo, hi in zip(s.min_index.tolist(), s.max_index.tolist())]


def test_torus_table():
    assert _rows(enumerate_spectrum(T, 85)) == TORUS_TABLE


def test_equilateral_table():
    assert _rows(enumerate_spectrum(E, 41)) == EQUILATERAL_TABLE


def test_single_eigenvalue():
    (row,) = _rows(enumerate_spectrum(T, 1))
    assert row == (0, 1, 1, 1)


def test_isosceles_first_two():
    s = enumerate_spectrum(B, 2)
    assert s.normalized.tolist() == [5, 10]
    assert _row_modes(s) == [[(2, 1)], [(3, 1)]]


def test_hemiequilateral_first_values():
    assert enumerate_spectrum(H, 3).normalized.tolist() == [7, 13, 19]


def test_enumerate_rejects_bad_count():
    with pytest.raises(ValueError):
        enumerate_spectrum(T, 0)
    with pytest.raises(ValueError):
        enumerate_spectrum(T, 10 ** 6 + 1)


@pytest.mark.parametrize("d", list(DomainKind))
def test_entries_group_the_box_oracle(box_scan, d):
    # group the brute-force modes with a plain dict, which shares nothing
    # with the numpy grouping, up to the last value the spectrum lists
    s = enumerate_spectrum(d, 5000)
    form = lattice_spectrum.DOMAINS[d].value
    groups = {}
    for p in box_scan(d, s.normalized.tolist()[-1]):
        groups.setdefault(form(*p), []).append(p)
    expected, index = [], 1
    for value in sorted(groups):
        mult = len(groups[value])
        expected.append((value, mult, index, index + mult - 1, groups[value]))
        index += mult
    assert [(value, mult, lo, hi, modes) for (value, lo, hi, mult), modes
            in zip(_rows(s), _row_modes(s))] == expected


def test_multiplicity_examples():
    assert multiplicity(T, 1) == 6
    assert multiplicity(T, 2) == 0
    assert multiplicity(E, 49) == 2


def test_torus_multiplicity_symmetry():
    # the form m^2+mn+n^2 is invariant under the 12-element symmetry group
    for lam in range(201):
        mult = multiplicity(T, lam)
        solutions = [(m, n) for (m, n) in modes_up_to(T, lam)
                     if DOMAINS[T].value(m, n) == lam]
        assert len(solutions) == mult
        for m, n in solutions:
            for img in ((n, m), (-m, -n), (m + n, -n)):
                assert DOMAINS[T].value(*img) == lam


def test_equilateral_multiplicity_pairs():
    for value, _, _, mult in EQUILATERAL_TABLE:
        pairs = [(m, n) for (m, n) in modes_up_to(E, value)
                 if DOMAINS[E].value(m, n) == value]
        assert len(pairs) == mult
        unordered = {tuple(sorted(p)) for p in pairs}
        assert sum(1 if m == n else 2 for m, n in unordered) == mult


def test_index_bookkeeping():
    for d in DomainKind:
        total = 0
        for _, lo, hi, mult in _rows(enumerate_spectrum(d, 120)):
            assert hi - lo + 1 == mult
            assert lo == total + 1
            total = hi


def test_counting_function_examples():
    assert counting_function(T, SCALE_A2 * 1) == 1
    assert counting_function(E, SCALE_A2 * 13) == 4
    assert counting_function(T, SCALE_A2 * 21.5) == 85


def test_counting_function_strict_at_eigenvalue():
    # (SCALE_A2 * k) / SCALE_A2 rounds above k for these k; the eigenvalue
    # itself must still not be counted
    assert counting_function(T, SCALE_A2 * 117) == 421
    assert counting_function(E, SCALE_A2 * 243) == 130


@pytest.mark.parametrize("d", list(DomainKind))
def test_counting_function_at_eigenvalues(d):
    for value, lo, _, _ in _rows(enumerate_spectrum(d, 300)):
        assert counting_function(d, DOMAINS[d].scale * value) == lo - 1


def test_counting_lower_bound_examples():
    lam = 4 * math.pi ** 2
    expected = 1.5 * math.sqrt(3.0) * math.pi - 9.0 + 1.0
    assert counting_lower_bound(T, lam) == pytest.approx(expected, abs=1e-12)
    expected = 8 * math.pi - 2 * (4 + math.sqrt(2.0)) + 0.5
    assert counting_lower_bound(B, 64.0) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        counting_lower_bound(T, 0.0)


@pytest.mark.parametrize("d", list(DomainKind))
def test_lower_bound_below_counting_function(d):
    values = sorted(set(enumerate_spectrum(d, 500).normalized.tolist()))
    for v in values:
        if v == 0:
            continue
        lam = DOMAINS[d].scale * v
        assert counting_lower_bound(d, lam) <= counting_function(d, lam) + 1e-9


@pytest.mark.parametrize("d", list(DomainKind))
@pytest.mark.parametrize("limit", [50, 100, 200])
def test_enumeration_box_oracle(box_scan, d, limit):
    # a brute-force scan of a box with a margin finds the same modes at every
    # limit up to twice the case's, so the 200 case covers all of -1..400
    for k in range(-1, 2 * limit + 1):
        assert list(map(Mode._make, modes_up_to(d, k).tolist())) == box_scan(d, k)


def test_weyl_asymptotics_torus():
    lam = SCALE_A2 * enumerate_spectrum(T, 5000).normalized.tolist()[-1]
    n = counting_function(T, lam)
    area = 1.5 * math.sqrt(3.0)
    assert n * 4 * math.pi / (area * lam) == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("d", list(DomainKind))
@pytest.mark.parametrize("count", [1, 10, 85, 1000, 60000])
def test_bound_limit_yields_count_modes(d, count):
    # N(lambda) >= a lambda - b sqrt(lambda) + c, so the normalized limit at
    # which the bound reaches `count` holds at least `count` modes
    limit = math.ceil(bound_inverse(d, count) / DOMAINS[d].scale)
    assert len(modes_up_to(d, limit)) >= count


@pytest.mark.parametrize("d", list(DomainKind))
@pytest.mark.parametrize("count", [85, 1000, 20000])
def test_enumeration_is_one_pass(monkeypatch, d, count):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return modes_up_to(*args, **kwargs)

    monkeypatch.setattr(lattice_spectrum, "modes_up_to", counted)
    assert enumerate_spectrum(d, count).max_index.tolist()[-1] >= count
    assert len(calls) == 1


def test_bound_inverse_is_the_counting_bound_root():
    for d in DomainKind:
        for count in (2, 85, 1000):
            lam = bound_inverse(d, count)
            assert counting_lower_bound(d, lam) == pytest.approx(count, rel=1e-12)


def _reference_multiplicities(modes, d, limit):
    """Mode counts per normalized value 0..limit of the given modes."""
    form = lattice_spectrum.DOMAINS[d].value
    counts = [0] * (limit + 1)
    for p in modes:
        counts[form(*p)] += 1
    return counts


@pytest.mark.parametrize("d", list(DomainKind))
def test_row_counts_match_enumeration(box_scan, d):
    unit, limit = DOMAINS[d].scale, 2000
    counts = _reference_multiplicities(box_scan(d, limit), d, limit)
    below = 0
    for k in range(limit + 1):
        assert multiplicity(d, k) == counts[k]
        lam = k * unit
        assert counting_function(d, lam) == below
        # k * unit is an eigenvalue (if attained) just below its upper
        # neighbour, which counts it, and just above its lower neighbour
        assert counting_function(d, math.nextafter(lam, math.inf)) == below + counts[k]
        if k > 0:
            assert counting_function(d, math.nextafter(lam, 0.0)) == below
        below += counts[k]


@pytest.mark.parametrize("d", list(DomainKind))
def test_queries_at_every_eigenvalue(d):
    for value, lo, _, mult in _rows(enumerate_spectrum(d, 5000)):
        assert counting_function(d, DOMAINS[d].scale * value) == lo - 1
        assert multiplicity(d, value) == mult


@pytest.mark.parametrize("d", list(DomainKind))
def test_queries_do_not_enumerate(monkeypatch, d):
    def refused(*args, **kwargs):
        raise AssertionError("a point query enumerated the lattice box")

    monkeypatch.setattr(lattice_spectrum, "modes_up_to", refused)
    assert counting_function(d, DOMAINS[d].scale * 5000) > 0
    assert multiplicity(d, 4999) >= 0


def test_counting_function_far_up_the_torus_spectrum():
    value, lo, _, _ = _rows(enumerate_spectrum(T, 100000))[-1]
    assert counting_function(T, SCALE_A2 * value) == lo - 1
