"""Budget refusals: scans, sieves, the identity25 grid and the trial-division probes."""

import json
import sys

import pytest

from primewheel import errors, oracle, theorems, wheel
from primewheel.cli import SCAN_BUDGET_ENV, main
from primewheel.errors import BudgetExceeded
from primewheel.theorems import search_identity25
from primewheel.wheel import PrimeBasis


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _assert_one_knob_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--budget" in err and SCAN_BUDGET_ENV in err


def test_identity25_refuses_its_grid_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("solved unit equations before the grid was checked")

    monkeypatch.setattr(theorems, "solve_unit", no_work)
    code, out, err = run(capsys, "verify", "identity25", "--r", "10", "--bound", "50")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert str(51**8) in err


def test_identity25_budget_flag_sets_the_row_limit(capsys):
    argv = ("verify", "identity25", "--r", "4", "--bound", "40")
    code, out, err = run(capsys, *argv, "--budget", "1680")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    code, out, _ = run(capsys, *argv, "--budget", "1681", "--format", "json-lines")
    assert code == 1
    assert json.loads(out)["details"]["rows_scanned"] == 41**2


def test_identity25_library_budget():
    with pytest.raises(BudgetExceeded) as info:
        search_identity25(PrimeBasis.first(5), 40, budget=41**3 - 1)
    assert info.value.required == 41**3
    assert search_identity25(PrimeBasis.first(5), 40, budget=41**3).details["rows_scanned"] == 41**3


@pytest.mark.parametrize("probe", ["omega", "spf", "factor"])
def test_trial_division_probes_check_the_root_first(capsys, monkeypatch, probe):
    def no_work(*args):
        raise AssertionError("trial-divided before the budget was checked")

    monkeypatch.setattr(oracle, "factor_profile", no_work)
    code, out, err = run(capsys, "oracle", probe, "--n", "1000000016000000063")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert "1000000007" in err


def test_trial_division_budget_is_the_square_root(capsys):
    code, _, _ = run(capsys, "oracle", "omega", "--n", "1000000", "--budget", "999")
    assert code == 3
    code, out, _ = run(capsys, "oracle", "omega", "--n", "1000000", "--budget", "1000")
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "oracle", "omega", "--n", "720720")
    assert (code, out) == (0, "10\n")


@pytest.mark.parametrize("probe,n", [("omega", "0"), ("factor", "-4"), ("spf", "1")])
def test_trial_division_probes_keep_their_usage_errors(capsys, probe, n):
    code, out, err = run(capsys, "oracle", probe, "--n", n)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "budget" not in err


def _skip_the_window_check(monkeypatch):
    # The omega sieve is only reached after the report's own check of the
    # same width, so that check is let through to reach the sieve's.
    def check(required, budget, what, remedy=None):
        if what != "coprime scan":
            errors.check_budget(required, budget, what, remedy)

    monkeypatch.setattr(theorems, "check_budget", check)


@pytest.mark.parametrize(
    "argv,what,setup",
    [
        (("verify", "theorem1", "--r", "3", "--n", "8"), "coprime scan", None),
        (("oracle", "scan", "--lo", "1", "--hi", "100", "--budget", "5"), "coprime scan", None),
        (("bench", "--r", "3", "--width", "300000000"), "rough sieve", None),
        (("count", "--r", "3", "--pi-approx", "--budget", "5"), "prime sieve", None),
        (("oracle", "primes", "--lo", "1", "--hi", "100", "--budget", "5"), "prime sieve", None),
        (("verify", "theorem1", "--r", "3", "--n", "2", "--budget", "100"), "omega sieve",
         _skip_the_window_check),
    ],
)
def test_scan_refusals_name_their_knob(capsys, monkeypatch, argv, what, setup):
    if setup:
        setup(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert err.startswith(f"error: {what} needs ")


def test_refusal_past_the_int_string_limit_names_its_knob(capsys):
    # The window [7^100000, 7^100001) is 84,511 digits wide, past the
    # 4,300-digit limit on int-to-str conversion.
    code, out, err = run(capsys, "verify", "theorem1", "--r", "3", "--n", "100000")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert err.startswith("error: coprime scan needs a number of 84511 digits but the budget is ")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "300", "--max-r", "300"),
        ("coeffs", "300", "--max-r", "300", "--format", "json-lines"),
        ("coeffs", "300", "--max-r", "300", "--format", "csv"),
        ("coeffs", "40", "--raw"),
    ],
)
def test_coeffs_prints_past_the_int_string_limit(capsys, argv):
    # At the lowest limit the interpreter allows, the r = 300 primorial
    # (833 digits) and the r = 40 raw coefficients (up to 1,174) are past it.
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = run(capsys, *argv)
        sys.set_int_max_str_digits(640)
        got = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)
    assert want[0] == 0 and len(want[1]) > 640
    assert got == want


def test_refusal_messages_of_ordinary_sizes_are_unchanged():
    message = str(BudgetExceeded(required=10**4300 - 1, budget=10))
    assert message == (
        f"scan needs {10**4300 - 1} but the budget is 10; raise --budget or "
        f"{SCAN_BUDGET_ENV} to at least {10**4300 - 1} to run this"
    )
    assert str(BudgetExceeded(10**4300, 10**5000)).startswith(
        "scan needs a number of 4301 digits but the budget is a number of 5001 digits; "
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--r", "4", "--lo", "-5", "--hi", "3"),
        ("count", "--r", "4", "--lo", "9", "--hi", "3"),
        ("count", "--r", "4", "--lo", "9"),
        ("verify", "theorem1", "--r", "4", "--n", "0"),
        ("verify", "corollary2", "--r", "4", "--s", "0"),
        ("verify", "corollary2", "--r", "4", "--n", "-1"),
        ("bench", "--r", "4", "--lo", "-5", "--width", "10"),
        ("verify", "identity26", "--r", "4", "--e", "1"),
        ("verify", "identity26", "--r", "4", "--e", "4"),
        ("verify", "identity25", "--r", "2"),
        ("verify", "identity25", "--r", "4", "--bound", "-1"),
    ],
)
def test_cheap_arguments_are_checked_before_the_basis(capsys, monkeypatch, argv):
    def no_basis(r):
        raise AssertionError("proved the basis primes before checking the arguments")

    monkeypatch.setattr(wheel, "_first_primes", no_basis)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
