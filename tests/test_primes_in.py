"""primes_in, the base primes put back in front of one striking scan,
against per-value trial division; the Omega = 1 entries of omega_sieve,
segment by segment, against primes_in."""

import random

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


@pytest.mark.parametrize(
    "lo,hi", [(0, 400), (5, 300), (150, 2000), (44400, 44600), (10100, 10202)]
)
def test_primes_in_across_segment_seams(monkeypatch, lo, hi):
    monkeypatch.setattr(oracle, "_SEGMENT", 37)
    assert oracle.primes_in(IntervalSpec(lo, hi)) == [m for m in range(lo, hi) if _is_prime(m)]


@pytest.mark.parametrize("segment", [7, 64, 4096])
def test_omega_sieve_ones_equal_primes_in_over_random_windows(monkeypatch, segment):
    # Omega is defined from m = 1, so windows start there. Those with
    # lo <= isqrt(hi - 1) hold their own base primes, which count
    # themselves; every larger prime counts its cofactor.
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
    rng = random.Random(segment)
    windows = [(1, 2), (1, 200), (2, 3), (97, 98), (2, 10**4), (40, 5000)]
    for _ in range(40):
        lo = rng.choice([1, *(rng.randrange(1, top) for top in (300, 10**6, 10**9))])
        windows.append((lo, lo + rng.randrange(1, 5 * segment)))
    for lo, hi in windows:
        starts = range(lo, hi, segment)
        segments = list(oracle.omega_sieve(IntervalSpec(lo, hi), budget=hi))
        assert len(segments) == len(starts), (lo, hi)
        for seg_lo, omegas in zip(starts, segments):
            seg = IntervalSpec(seg_lo, min(seg_lo + segment, hi))
            ones = [m for m, om in zip(range(seg.lo, seg.hi), omegas) if om == 1]
            assert ones == oracle.primes_in(seg, budget=hi), (lo, hi, seg_lo)
