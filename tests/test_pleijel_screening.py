import math

import pytest

from courant_lab.alcove_geometry import DOMAINS, DomainKind
from courant_lab.lattice_spectrum import bound_coefficients
from courant_lab.pleijel_screening import (ScreeningRow, candidate_indices,
                                           courant_upper_bound, cutoff_scan,
                                           faber_krahn_threshold, fk_line,
                                           index_cutoff, screening_summary,
                                           screening_table, J01)

T = DomainKind.TORUS
E = DomainKind.EQUILATERAL
B = DomainKind.RIGHT_ISOSCELES
H = DomainKind.HEMIEQUILATERAL


def test_thresholds():
    assert faber_krahn_threshold(T) == pytest.approx(0.3985546913, abs=1e-8)
    assert faber_krahn_threshold(E) == pytest.approx(2.391328148, abs=1e-8)
    assert faber_krahn_threshold(B) == pytest.approx(3.681690532, abs=1e-8)
    assert faber_krahn_threshold(H) == pytest.approx(4.782656293, abs=1e-8)


def test_j01_is_the_bessel_zero_to_15_digits():
    from scipy.special import jn_zeros

    assert abs(J01 - jn_zeros(0, 1)[0]) < 1e-14


# Closed forms of the Faber-Krahn ratio threshold pi j01^2 / (|Omega| scale)
# and of the Weyl coefficient |Omega| / 4 pi, as the paper states them.
J2 = J01 * J01
_CLOSED_FORMS = {
    T: (math.sqrt(3.0) * J2 / (8.0 * math.pi),
        3.0 * math.sqrt(3.0) / (8.0 * math.pi)),
    E: (3.0 * math.sqrt(3.0) * J2 / (4.0 * math.pi),
        math.sqrt(3.0) / (16.0 * math.pi)),
    B: (2.0 * J2 / math.pi, math.pi / 8.0),
    H: (3.0 * math.sqrt(3.0) * J2 / (2.0 * math.pi),
        math.sqrt(3.0) / (32.0 * math.pi)),
}


@pytest.mark.parametrize("d", list(DomainKind))
def test_area_derived_constants_equal_closed_forms_exactly(d):
    # the threshold is printed by `screen --format json`, so the derived
    # value must carry the same bits as the closed form
    threshold, weyl = _CLOSED_FORMS[d]
    assert faber_krahn_threshold(d) == threshold
    assert bound_coefficients(d)[0] == weyl


def test_courant_upper_bound_collapse():
    assert courant_upper_bound(T, 2) == pytest.approx(48.0, abs=1e-9)
    assert courant_upper_bound(E, 2) == pytest.approx(192.0, abs=1e-9)
    with pytest.raises(ValueError):
        courant_upper_bound(T, 1)


def test_index_cutoffs():
    assert index_cutoff(T) == 63
    assert index_cutoff(E) == 40
    assert index_cutoff(B) == 26
    assert index_cutoff(H) == 32


@pytest.mark.parametrize("d", list(DomainKind))
def test_cutoff_scan_consistent_with_published(d):
    scan = cutoff_scan(d)
    assert scan <= index_cutoff(d) <= scan + 2
    # past the published cutoff the conditions really are inconsistent
    n = index_cutoff(d) + 1
    assert fk_line(d, n) > courant_upper_bound(d, n)


def test_screening_rows():
    torus = {r.normalized: r for r in screening_table(T)}
    assert f"{torus[3].ratio:.10f}" == "0.3750000000"
    assert not torus[3].passes
    assert not torus[0].ratio_applies and not torus[1].ratio_applies
    equi = {r.normalized: r for r in screening_table(E)}
    assert equi[13].ratio == pytest.approx(2.6, abs=1e-12)
    assert equi[13].passes
    assert equi[21].ratio == pytest.approx(21 / 9, abs=1e-12)
    assert not equi[21].passes


@pytest.mark.parametrize("d", list(DomainKind))
def test_screening_table_is_the_box_oracle_table(box_scan, d):
    # every row rebuilt with plain ints from brute-force modes grouped in a
    # dict, up to the row holding the index cutoff
    cutoff, threshold = index_cutoff(d), faber_krahn_threshold(d)
    form, limit = DOMAINS[d].value, 1
    while len(modes := box_scan(d, limit)) < cutoff:
        limit *= 2
    groups = {}
    for p in modes:
        groups.setdefault(form(*p), []).append(p)
    expected, index = [], 1
    for value in sorted(groups):
        mult, ratio = len(groups[value]), value / index
        applies = index >= DOMAINS[d].first_ratio_index
        expected.append(ScreeningRow(value, index, index + mult - 1, mult, ratio,
                                     applies, applies and ratio >= threshold,
                                     tuple(groups[value])))
        index += mult
        if index > cutoff:
            break
    rows = screening_table(d)
    assert rows == expected
    assert ([[type(v) for v in vars(r).values()] for r in rows]
            == [[type(v) for v in vars(r).values()] for r in expected])
    assert ([[type(p) for p in r.modes] for r in rows]
            == [[type(p) for p in r.modes] for r in expected])


def test_candidate_sets():
    assert candidate_indices(T) == [1, 2]
    assert candidate_indices(E) == [1, 2, 4, 5, 7, 11]
    assert candidate_indices(B) == [1, 2, 3, 4, 5, 6, 7, 9, 10]
    assert candidate_indices(H) == [1, 2, 3, 4, 5, 6, 7, 8, 10]


@pytest.mark.parametrize("d", list(DomainKind))
def test_candidates_start_clusters(d):
    rows = {r.min_index for r in screening_table(d)}
    for n in candidate_indices(d):
        assert n in rows  # lambda_{n-1} < lambda_n


@pytest.mark.parametrize("d", list(DomainKind))
def test_screening_monotone_in_threshold(d):
    # raising the threshold can only remove candidates
    threshold = faber_krahn_threshold(d)
    base = set(candidate_indices(d))
    stricter = {r.min_index for r in screening_table(d)
                if r.min_index <= 2
                or (r.ratio_applies and r.ratio >= threshold * 1.1)}
    stricter |= {1, 2}
    assert stricter <= base


def test_summary_shape():
    s = screening_summary(E)
    assert s.index_cutoff == 40
    assert s.candidates == [1, 2, 4, 5, 7, 11]
    assert max(s.candidates) <= s.index_cutoff
