import itertools
import json
import math
import random
import tracemalloc
import types
from fractions import Fraction

import pytest

from primewheel import cli, diophantine, oracle, theorems
from primewheel.diophantine import nth_solution, solve_unit
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.theorems import (
    bertrand_condition,
    check_identity26,
    compare_pi,
    pi_approx,
    search_identity25,
    theorem1_interval,
    verify_corollary2,
    verify_theorem1,
)
from primewheel.forms import build_raw
from primewheel.wheel import PrimeBasis, build_canonical


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


def test_bertrand_condition_equals_the_power_test():
    for r in range(1, 30):
        (p,) = theorems._primes_after(PrimeBasis.first(r), 1)
        for s, n in itertools.product(range(1, 7), range(1, 5)):
            assert bertrand_condition(r, s, n) == (p > 2 ** ((n + 1) * (s - 1))), (r, s, n)


def test_bertrand_condition_builds_no_power():
    bertrand_condition(3, 2, 1)  # the basis and the prime sieve, outside the trace
    tracemalloc.start()
    try:
        # 2^((n + 1)(s - 1)) would be a 1.25 MB int here.
        assert bertrand_condition(3, 1001, 10**4) is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


def test_claim_window_bits_are_checked_before_the_window():
    # p^(n+1) - 1 has at least (n + 1) * (bits(p) - 1) + 1 bits: 7^(10^12 + 1)
    # and 11^(10^12 + 1) are refused by that bound, never built.
    with pytest.raises(BudgetExceeded, match="^omega sieve bits needs 2000000000003 .* fixed"):
        theorem1_interval(PrimeBasis.first(3), 10**12)
    with pytest.raises(BudgetExceeded, match="^omega sieve bits needs 3000000000004 .* fixed"):
        verify_corollary2(PrimeBasis.first(3), 2, 10**12)
    # The cap's edge: 7^45 - 1 has 127 bits. At n = 45 the bound is 93, so the
    # window is built and the sieve refuses its exact 130 bits.
    assert (7**45 - 1).bit_length() == oracle.OMEGA_MAX_BITS
    assert theorem1_interval(PrimeBasis.first(3), 44) == IntervalSpec(7**44, 7**45)
    assert theorem1_interval(PrimeBasis.first(3), 45) == IntervalSpec(7**45, 7**46)
    with pytest.raises(BudgetExceeded) as info:
        verify_theorem1(PrimeBasis.first(3), 45, budget=10**40)
    assert (info.value.what, info.value.required) == ("omega sieve bits", 130)
    # The budget is spent only on the prime sieve that finds p = 7, on [6, 12).
    assert theorem1_interval(PrimeBasis.first(3), 4, budget=14) == IntervalSpec(7**4, 7**5)


def test_claim_window_bits_are_checked_before_its_prime_is_sieved(monkeypatch):
    # p_k >= 2k - 1, so at r = 3, s = 600000 the window has at least
    # 100001 * (bits(1200005) - 1) + 1 bits: refused before p_600003, about
    # 9.3 million, is sieved.
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved for p before the window's bits were checked")

    monkeypatch.setattr(theorems, "_primes_after", no_sieve)
    with pytest.raises(BudgetExceeded, match="^omega sieve bits needs 2000021 .* fixed"):
        verify_corollary2(PrimeBasis.first(3), 600000, 100000)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 10, 30, 100])
def test_claim_window_bit_bound_never_exceeds_the_window(monkeypatch, r):
    # Every bound the cap is given is at most the bits of the window's hi - 1.
    bounds = []
    monkeypatch.setattr(oracle, "check_bits", bounds.append)
    basis = PrimeBasis.first(r)
    for s, n in itertools.product([1, 2, 3, 7], [1, 2, 5, 44]):
        bounds.clear()
        _, window = theorems._claim_window(basis, n, None, s)
        assert len(bounds) == 1 and bounds[0] <= (window.hi - 1).bit_length(), (s, n)


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


def test_corollary2_window_uses_the_prime_s_places_after_p_r(monkeypatch):
    monkeypatch.setattr(theorems, "_interval_report", lambda **kw: kw["interval"])
    primes = oracle.primes_in(IntervalSpec(1, 5000))
    for r in range(1, 13):
        basis = PrimeBasis.first(r)
        for s in range(1, 80):
            q = primes[r + s - 1]
            assert verify_corollary2(basis, s, 2) == IntervalSpec(q**2, q**3), (r, s)


@pytest.mark.parametrize(
    "argv,windows",
    [
        # p_5..p_7 = 11, 13, 17 from one sieve below _prime_bound(7) = 20,
        # which also gives p_5 for the side condition.
        (["verify", "corollary2", "--r", "4", "--s", "3", "--n", "1"], [IntervalSpec(8, 20)]),
        # p_5 = 11 below _prime_bound(5) = 12, then the count below 11^2.
        (["count", "--r", "4", "--pi-approx"], [IntervalSpec(8, 12), IntervalSpec(1, 121)]),
    ],
)
def test_each_prime_window_is_sieved_once(monkeypatch, capsys, argv, windows):
    sieved = []

    def logged(sieve):
        def run(interval, budget=None):
            sieved.append(interval)
            return sieve(interval, budget)

        return run

    # primes_in lists prime_stream; compare_pi counts its primes with prime_count.
    monkeypatch.setattr(oracle, "prime_stream", logged(oracle.prime_stream))
    monkeypatch.setattr(oracle, "prime_count", logged(oracle.prime_count))
    assert cli.main(argv) == 0
    assert sieved == windows


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


@pytest.mark.parametrize("r", range(3, 41))
def test_identity26_budget_bounds_the_bits_of_both_forms(r):
    basis = PrimeBasis.first(r)
    canonical = sum(a.bit_length() for a in build_canonical(basis).coeffs)
    for k in (-5, -1, 0, 1, 7, 10**30):
        with pytest.raises(BudgetExceeded, match="^coefficient bits needs ") as info:
            check_identity26(basis, 2, k, budget=1)
        raw = sum(a.bit_length() for a in build_raw(basis, k).coeffs)
        assert canonical + raw <= info.value.required, k


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
    assert report.counterexamples == ()
    assert report.details["certificate"] == {"prime": "3", "xr_residue": "2"}
    assert report.details["modulus"] == "3"


def test_identity25_zero_bound():
    report = search_identity25(PrimeBasis.first(3), bound=0)
    assert report.verdict == "not-found-within-bound"
    assert report.checked == 1
    assert report.details["certificate"] == {"prime": "3", "xr_residue": "2"}


def test_identity25_r4_grid_accounting():
    report = search_identity25(PrimeBasis.first(4), bound=50)
    assert report.verdict == "not-found-within-bound"
    assert report.checked == 51**3
    assert report.details["certificate"] == {"prime": "3", "xr_residue": "1"}
    assert report.details["grid"]["combinations"] == str(51**3)
    assert report.details["modulus"] == "15"


def _row_by_row_identity25(basis, bound):
    """(witness, rows scanned) from the plain grid walk: one product of all
    r - 2 leading factors per row, and one divisibility test per row."""
    r, primes = basis.r, basis.primes
    modulus = math.prod(primes[1 : r - 1])
    reps = {
        i: [nth_solution(solve_unit(i, basis), k)[0] for k in range(bound + 1)]
        for i in range(2, r + 1)
    }
    rows_scanned = 0
    for ks in itertools.product(range(bound + 1), repeat=r - 2):
        rows_scanned += 1
        total = math.prod(primes[i - 1] * reps[i][k] for i, k in enumerate(ks, start=2)) - 1
        if (reps[r][0] * total) % modulus:
            continue
        for kr, xr in enumerate(reps[r]):
            quotient = (xr * total) // modulus
            if quotient % 2 and abs((quotient + 1) // 2) <= bound:
                chosen = {str(i): k for i, k in enumerate((*ks, kr), start=2)}
                witness = {"s": str((quotient + 1) // 2), "representatives": chosen}
                return witness, rows_scanned
    return None, rows_scanned


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("bound", [0, 1, 4, 9])
def test_identity25_certificate_matches_the_row_by_row_search(r, bound):
    basis = PrimeBasis.first(r)
    witness, rows_scanned = _row_by_row_identity25(basis, bound)
    report = search_identity25(basis, bound)
    assert witness is None and rows_scanned == (bound + 1) ** (r - 2)
    assert report.verdict == "not-found-within-bound"
    assert report.checked == rows_scanned * (bound + 1)
    grid = {"indices": r - 1, "per_index": bound + 1, "combinations": str(report.checked)}
    assert report.details["grid"] == grid
    assert report.details["certificate"]["xr_residue"] in ("1", "2")


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_identity25_fails_when_the_solver_gives_x_r_divisible_by_3(monkeypatch, capsys, fmt):
    def faulty(i, basis):
        family = solve_unit(i, basis)
        return types.SimpleNamespace(base_x=3 * family.base_x, b=family.b)

    monkeypatch.setattr(diophantine, "solve_unit", faulty)
    code = cli.main(["verify", "identity25", "--r", "4", "--bound", "2", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    if fmt == "json-lines":
        report = json.loads(out)
        assert report["verdict"] == "fail" and report["witnesses_pass"] == 0
        assert report["counterexamples"] == [
            {"value": "39", "reason": "x'_4 = 0 (mod 3), but p_4*x'_4 = 1 (mod 3)"}
        ]
        assert report["details"]["certificate"] == {"prime": "3", "xr_residue": "0"}
    else:
        assert "verdict: fail" in out and out.count("  - value=") == 1


@pytest.mark.parametrize("r", range(3, 9))
def test_identity25_modulus_never_divides_xr_times_s(r):
    # S = -1 mod each p_i of the modulus and x'_r is a unit mod each, so
    # no grid row can hold a witness, whatever the representatives.
    basis = PrimeBasis.first(r)
    modulus = math.prod(basis.primes[1 : r - 1])
    families = {i: solve_unit(i, basis) for i in range(2, r + 1)}
    rng = random.Random(r)
    for _ in range(200):
        x = {i: nth_solution(f, rng.randrange(-1000, 1000))[0] for i, f in families.items()}
        s = math.prod(basis.primes[i - 1] * x[i] for i in range(2, r)) - 1
        assert (x[r] * s) % modulus != 0


@pytest.mark.parametrize("r", range(3, 41))
def test_identity25_reads_its_modulus_from_the_solver_family(monkeypatch, r):
    basis = PrimeBasis.first(r)
    products = []
    prod = math.prod

    def counted(*args, **kwargs):
        products.append(args)
        return prod(*args, **kwargs)

    monkeypatch.setattr(math, "prod", counted)
    report = search_identity25(basis, bound=0)
    assert len(products) == 1  # solve_unit's p_1 * ... * p_{r-1}
    assert report.details["modulus"] == str(prod(basis.primes[1 : r - 1]))


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
        assert json.loads(json.dumps(report.to_json())) == report.to_json()


@pytest.mark.parametrize(
    "verify,claim_args,width",
    [(verify_theorem1, (8,), 7**9 - 7**8), (verify_corollary2, (2, 6), 11**7 - 11**6)],
    ids=["verify_theorem1", "verify_corollary2"],
)
def test_scan_budget_refuses_before_enumerating(monkeypatch, verify, claim_args, width):
    # corollary2's window [p_5^6, p_5^7) is shifted past p_4 = 7 and gates only set equality.
    def no_enumeration(*args):
        raise AssertionError("enumerated before the scan budget was checked")

    monkeypatch.setattr(theorems, "enumerate_interval", no_enumeration)
    with pytest.raises(BudgetExceeded, match="^omega sieve needs ") as info:
        verify(PrimeBasis.first(3), *claim_args)
    assert info.value.required == width


def _count_walks(monkeypatch, stream=None):
    """Patch theorems.enumerate_interval to count its calls; `stream`
    replaces the enumeration when given."""
    calls = []
    real = theorems.enumerate_interval

    def counted(form, interval):
        calls.append(interval)
        return iter(list(stream)) if stream is not None else real(form, interval)

    monkeypatch.setattr(theorems, "enumerate_interval", counted)
    return calls


@pytest.mark.parametrize("r,n", [(3, 1), (3, 2), (5, 1)])
def test_passing_report_walks_the_enumeration_once(monkeypatch, r, n):
    calls = _count_walks(monkeypatch)
    assert verify_theorem1(PrimeBasis.first(r), n).verdict == "pass"
    assert len(calls) == 1


def test_failing_report_walks_the_enumeration_at_most_twice(monkeypatch):
    # 50 is extra, then enumerated again after its segment closed: it is
    # listed as out of order too, and both copies leave witnesses_pass.
    monkeypatch.setattr(theorems.oracle, "OMEGA_SEGMENT", 16)
    basis = PrimeBasis.first(3)
    interval = theorems.theorem1_interval(basis, 2)
    values = list(theorems.enumerate_interval(build_canonical(basis), interval))
    calls = _count_walks(monkeypatch, values[:1] + [50] + values[1:] + [50, interval.hi])
    report = verify_theorem1(basis, 2)
    assert report.verdict == "fail"
    assert 1 <= len(calls) <= 2
    assert report.details["set_equality"]["extra"] == ["50", str(interval.hi)]
    assert report.details["set_equality"]["out_of_order"] == ["50"]
    assert report.witnesses_pass == report.checked - 3
