import json
from fractions import Fraction

import pytest

from primewheel import theorems
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.theorems import (
    VerificationReport,
    bertrand_condition,
    check_identity26,
    compare_pi,
    pi_approx,
    search_identity25,
    theorem1_interval,
    verify_corollary2,
    verify_theorem1,
)
from primewheel.wheel import PrimeBasis


def test_theorem1_interval_frozen():
    assert theorem1_interval(PrimeBasis.first(3), 1) == IntervalSpec(7, 49)
    assert theorem1_interval(PrimeBasis.first(3), 2) == IntervalSpec(49, 343)
    assert theorem1_interval(PrimeBasis.first(1), 1) == IntervalSpec(3, 9)
    with pytest.raises(ValueError):
        theorem1_interval(PrimeBasis.first(3), 0)


def test_theorem1_n1_passes_for_small_r():
    expected_checked = {1: 3, 2: 7, 3: 12, 4: 26, 5: 34, 6: 55}
    for r, checked in expected_checked.items():
        report = verify_theorem1(PrimeBasis.first(r), 1)
        assert report.verdict == "pass", f"r={r}"
        assert report.checked == checked, f"r={r}"
        assert report.witnesses_pass == checked
        assert report.counterexamples == ()
        assert report.details["set_equality"]["pass"]
        assert report.details["omega_bound"]["pass"]
        assert report.details["prime_equality"]["pass"]


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_theorem1_higher_windows(r, n):
    report = verify_theorem1(PrimeBasis.first(r), n)
    assert report.verdict == "pass"
    assert report.details["set_equality"]["pass"]
    assert report.details["omega_bound"]["pass"]
    assert "prime_equality" not in report.details
    assert report.checked > 0
    assert report.witnesses_pass == report.checked


def test_bertrand_condition_frozen():
    assert bertrand_condition(3, 1, 1) is True
    assert bertrand_condition(3, 2, 1) is True
    assert bertrand_condition(3, 3, 2) is False
    with pytest.raises(ValueError):
        bertrand_condition(0, 1, 1)
    with pytest.raises(ValueError):
        bertrand_condition(3, 1, 0)


def test_bertrand_condition_monotone_in_r():
    # The threshold is fixed by (s, n); a larger next prime can only help.
    for s, n in [(2, 1), (2, 2), (3, 1)]:
        seen_true = False
        for r in range(1, 12):
            if bertrand_condition(r, s, n):
                seen_true = True
            elif seen_true:
                pytest.fail(f"condition flipped back off at r={r}, s={s}, n={n}")
        assert seen_true


def test_corollary2_shifted_window():
    report = verify_corollary2(PrimeBasis.first(3), s=2, n=1)
    assert report.verdict == "pass"
    assert report.interval == IntervalSpec(11, 121)
    assert report.details["condition_met"] is True
    assert report.details["set_equality"]["pass"]
    # The shifted window picks up composites with all factors above p_r;
    # those show up informationally without failing the claim.
    assert report.details["prime_equality"]["pass"] is False
    assert report.details["prime_equality"]["extra"] == ["49", "77", "91", "119"]
    assert report.details["omega_bound"]["pass"] is False


def test_corollary2_with_s1_matches_theorem1():
    basis = PrimeBasis.first(3)
    shifted = verify_corollary2(basis, s=1, n=1)
    plain = verify_theorem1(basis, 1)
    assert shifted.interval == plain.interval
    assert shifted.verdict == plain.verdict == "pass"
    assert shifted.checked == plain.checked == 12


def test_corollary2_flags_unmet_condition():
    report = verify_corollary2(PrimeBasis.first(1), s=3, n=2)
    assert report.details["condition_met"] is False
    assert report.details["informational"] is True


def test_pi_approx_frozen():
    assert pi_approx(PrimeBasis.first(1)) == Fraction(1)
    assert pi_approx(PrimeBasis.first(3)) == Fraction(433, 30)
    assert pi_approx(PrimeBasis.first(4)) == Fraction(6527, 210)


def test_compare_pi_frozen():
    cases = {
        2: (Fraction(37, 6), 9, Fraction(17, 54)),
        3: (Fraction(433, 30), 15, Fraction(17, 450)),
        4: (Fraction(6527, 210), 30, Fraction(227, 6300)),
    }
    for r, expected in cases.items():
        assert compare_pi(PrimeBasis.first(r)) == expected, f"r={r}"


def test_compare_pi_r8_frozen():
    approx, exact, rel = compare_pi(PrimeBasis.first(8))
    assert exact == 99
    assert rel == Fraction(5124799, 960269310)


def test_identity26_all_small_cases():
    for r in range(3, 9):
        basis = PrimeBasis.first(r)
        for e in range(2, r):
            for k in range(3):
                report = check_identity26(basis, e, representative=k)
                assert report.verdict == "pass", f"r={r} e={e} k={k}"
                assert report.details["lhs_residue"] == report.details["rhs_residue"]


def test_identity26_rejects_bad_index():
    basis = PrimeBasis.first(4)
    with pytest.raises(ValueError):
        check_identity26(basis, 1)
    with pytest.raises(ValueError):
        check_identity26(basis, 4)


def test_identity25_r3_exhausts_without_witness():
    report = search_identity25(PrimeBasis.first(3), bound=50)
    assert report.verdict == "not-found-within-bound"
    assert report.checked == 51**2
    assert report.witnesses_pass == 0
    assert report.details["witness"] is None
    assert report.details["rows_scanned"] == 51
    assert report.details["modulus"] == "3"


def test_identity25_zero_bound():
    report = search_identity25(PrimeBasis.first(3), bound=0)
    assert report.verdict == "not-found-within-bound"
    assert report.checked == 1
    assert report.details["rows_scanned"] == 1


def test_identity25_r4_grid_accounting():
    report = search_identity25(PrimeBasis.first(4), bound=50)
    assert report.verdict == "not-found-within-bound"
    assert report.checked == 51**3
    assert report.details["rows_scanned"] == 51**2
    assert report.details["grid"]["combinations"] == str(51**3)
    assert report.details["modulus"] == "15"


def test_identity25_input_validation():
    with pytest.raises(ValueError):
        search_identity25(PrimeBasis.first(2), bound=10)
    with pytest.raises(ValueError):
        search_identity25(PrimeBasis.first(3), bound=-1)


def test_report_json_round_trip():
    for report in (
        verify_theorem1(PrimeBasis.first(3), 1),
        verify_corollary2(PrimeBasis.first(3), s=2, n=1),
        search_identity25(PrimeBasis.first(3), bound=3),
        check_identity26(PrimeBasis.first(5), 3, representative=1),
    ):
        blob = json.dumps(report.to_json())
        assert VerificationReport.from_json(json.loads(blob)) == report


def test_scan_budget_refuses_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the scan budget was checked")

    monkeypatch.setattr(theorems, "enumerate_interval", no_enumeration)
    with pytest.raises(BudgetExceeded) as info:
        verify_theorem1(PrimeBasis.first(3), 8)
    assert info.value.required == 7**9 - 7**8
