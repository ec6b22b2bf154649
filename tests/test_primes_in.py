"""primes_in, the base primes put back in front of one striking scan,
against per-value trial division; prime_segments against primes_in."""

import random

import pytest

from primewheel import oracle
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, m) if d * d <= m)


def test_primes_in_every_small_window():
    # Every window with hi <= 200 crosses or abuts the base primes up to
    # sqrt(hi - 1), where the two parts of the result meet.
    primes = [m for m in range(200) if _is_prime(m)]
    for hi in range(1, 201):
        for lo in range(hi):
            want = [p for p in primes if lo <= p < hi]
            assert oracle.primes_in(IntervalSpec(lo, hi)) == want, (lo, hi)


@pytest.mark.parametrize("lo,hi", [(0, 400), (5, 300), (150, 2000)])
def test_primes_in_across_segment_seams(monkeypatch, lo, hi):
    monkeypatch.setattr(oracle, "_SEGMENT", 37)
    assert oracle.primes_in(IntervalSpec(lo, hi)) == [m for m in range(lo, hi) if _is_prime(m)]


@pytest.mark.parametrize("segment", [7, 64, 4096])
def test_prime_segments_equal_primes_in_over_random_windows(monkeypatch, segment):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
    rng = random.Random(segment)
    windows = [(0, 2), (0, 200), (2, 3), (97, 98)]
    for _ in range(40):
        lo = rng.choice([0, rng.randrange(300), rng.randrange(10**6), rng.randrange(10**9)])
        windows.append((lo, lo + rng.randrange(1, 5 * segment)))
    for lo, hi in windows:
        interval = IntervalSpec(lo, hi)
        segments = list(oracle.prime_segments(interval, budget=hi))
        assert len(segments) == len(range(lo, hi, segment)), (lo, hi)
        assert sum(segments, []) == oracle.primes_in(interval, budget=hi), (lo, hi)
        for seg_lo, primes in zip(range(lo, hi, segment), segments):
            assert all(seg_lo <= p < min(seg_lo + segment, hi) for p in primes), (lo, hi)


def test_prime_segments_check_hi_before_sieving():
    with pytest.raises(BudgetExceeded, match="prime sieve"):
        oracle.prime_segments(IntervalSpec(10, 1001), budget=1000)
    segments = oracle.prime_segments(IntervalSpec(10, 1000), budget=1000)
    assert sum(segments, []) == oracle.primes_in(IntervalSpec(10, 1000))
