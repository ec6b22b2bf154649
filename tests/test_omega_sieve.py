"""The segmented Omega sieve against trial division, and the one striking scan
behind coprime_scan and rough_sieve against a per-value test."""

import math
import random
from itertools import chain

import pytest

from primewheel import oracle, theorems
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.oracle import coprime_scan, factor_profile, omega_sieve, rough_sieve
from primewheel.wheel import PrimeBasis


def _sieved(lo, hi, budget=None):
    return list(chain.from_iterable(omega_sieve(IntervalSpec(lo, hi), budget)))


def _assert_matches_trial_division(lo, hi):
    assert _sieved(lo, hi) == [factor_profile(m).omega for m in range(lo, hi)], (lo, hi)


@pytest.mark.parametrize("lo,hi", [(1, 2), (1, 3), (2, 3), (1, 5000), (2, 5000), (1, 10), (2, 10)])
def test_omega_sieve_from_one_and_two(lo, hi):
    _assert_matches_trial_division(lo, hi)


def test_omega_sieve_at_prime_powers_and_prime_squares():
    for p in (2, 3, 5, 7, 31, 97, 1009):
        for k in range(1, 8):
            q = p**k
            if q > 10**10:
                break
            _assert_matches_trial_division(max(1, q - 3), q + 4)
            # q is the last value, so sqrt(hi - 1) is exactly p when k = 2.
            _assert_matches_trial_division(max(1, q - 40), q + 1)


def test_omega_sieve_with_a_cofactor_prime_above_the_root():
    # 998 = 2 * 499, 997 and 999 = 27 * 37 below hi = 1000, whose root is 31.
    _assert_matches_trial_division(990, 1000)
    big = 1_000_003  # prime
    for k in (2, 3, 6, 30):
        _assert_matches_trial_division(k * big - 5, k * big + 1)


@pytest.mark.parametrize("segment", [1, 2, 7, 64])
def test_omega_sieve_across_segment_seams(monkeypatch, segment):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
    lists = list(omega_sieve(IntervalSpec(95, 420)))
    assert all(len(part) == segment for part in lists[:-1])
    assert 1 <= len(lists[-1]) <= segment
    _assert_matches_trial_division(95, 420)
    _assert_matches_trial_division(1, 3 * segment + 1)


def _theorem1_cases():
    # The theorem1 jobs of the benchmark's verify-claims workload.
    return [(r, n) for r, top in ((3, 5), (4, 4), (5, 4)) for n in range(1, top + 1)]


@pytest.mark.parametrize("r,n", _theorem1_cases())
def test_omega_sieve_on_theorem1_windows(r, n):
    window = theorems.theorem1_interval(PrimeBasis.first(r), n)
    values = _sieved(window.lo, window.hi)
    assert len(values) == window.width
    # Trial division of a whole 342,732-wide window takes seconds, so the
    # wide windows are checked on their first, middle and last 3 segments.
    span = 3 * oracle.OMEGA_SEGMENT
    middle = window.width // 2
    for start in sorted({0, max(0, middle - span // 2), max(0, window.width - span)}):
        part = range(window.lo + start, min(window.hi, window.lo + start + span))
        assert values[start : start + len(part)] == [factor_profile(m).omega for m in part]


def test_omega_sieve_checks_width_and_root_before_sieving():
    with pytest.raises(BudgetExceeded) as info:
        omega_sieve(IntervalSpec(1, 1002), budget=1000)
    assert info.value.required == 1001
    # A narrow window far out needs base primes up to its square root.
    with pytest.raises(BudgetExceeded) as info:
        omega_sieve(IntervalSpec(10**12, 10**12 + 10), budget=10**5)
    assert info.value.required == math.isqrt(10**12 + 9)
    with pytest.raises(ValueError):
        omega_sieve(IntervalSpec(0, 10))


def _per_value_scan(interval, moduli):
    return [m for m in range(interval.lo, interval.hi) if all(m % q for q in moduli)]


@pytest.mark.parametrize("scan", [coprime_scan, rough_sieve])
def test_striking_scan_matches_per_value_test(scan):
    rng = random.Random(7919)
    cases = [
        (IntervalSpec(0, 10), [4, 9]),
        (IntervalSpec(0, 1000), [4, 9]),
        (IntervalSpec(0, 1), [2]),
        (IntervalSpec(0, 500), [4, 9, 25, 7]),
        (IntervalSpec(10**20, 10**20 + 3000), [2, 3, 5, 7, 11]),
    ]
    for _ in range(30):
        moduli = rng.sample(range(2, 60), rng.randrange(1, 6))
        lo = rng.randrange(0, 10**6)
        cases.append((IntervalSpec(lo, lo + rng.randrange(1, 5000)), moduli))
    for interval, moduli in cases:
        assert scan(interval, moduli) == _per_value_scan(interval, moduli), (interval, moduli)
    basis = PrimeBasis.first(4)
    interval = IntervalSpec(0, 2000)
    assert scan(interval, basis) == _per_value_scan(interval, basis.primes)


def test_striking_scan_across_its_segment_seam(monkeypatch):
    monkeypatch.setattr(oracle, "_SEGMENT", 37)
    interval = IntervalSpec(5, 1000)
    for scan in (coprime_scan, rough_sieve):
        assert scan(interval, [4, 9, 5]) == _per_value_scan(interval, [4, 9, 5])
