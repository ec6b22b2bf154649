"""primes_in, the base primes put back in front of one striking scan,
against per-value trial division."""

import pytest

from primewheel import oracle
from primewheel.enumeration import IntervalSpec


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
