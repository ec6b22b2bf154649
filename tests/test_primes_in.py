"""primes_in, one striking scan whose segments flag their own base primes
again, against per-value trial division, and prime_count against its length;
the Omega = 1 entries of sieve_segments, segment by segment, against primes_in."""

import io
import random

import pytest

from primewheel import cli, oracle
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


@pytest.mark.parametrize(
    "lo,hi", [(0, 1), (0, 3), (1, 400), (5, 300), (150, 2000), (44400, 44600), (10100, 10202)]
)
def test_prime_count_is_the_length_of_primes_in(monkeypatch, lo, hi):
    monkeypatch.setattr(oracle, "_SEGMENT", 37)
    window = IntervalSpec(lo, hi)
    assert oracle.prime_count(window) == len(oracle.primes_in(window)), (lo, hi)


@pytest.mark.parametrize("lo", [0, 1, 2, 3, 60, 61, 62, 122])
def test_base_primes_are_flagged_in_their_own_segment(monkeypatch, capsys, lo):
    # Segments of 61 integers: the base primes, up to 67 at hi = 5000, cross
    # the first seam from lo <= 3, sit in the first segment from 60, 61 and 62,
    # and lie below the window from 122.
    monkeypatch.setattr(oracle, "_SEGMENT", 61)
    for hi in sorted({lo + 1, lo + 2, 62, 63, 124, 184, 3722, 5000} - set(range(lo + 1))):
        window = IntervalSpec(lo, hi)
        start = max(lo, 2)
        for seg, flags in oracle.prime_segments(window):
            assert seg == range(start, min(start + 61, hi)), (lo, hi)
            want = [oracle.factor_profile(m).omega == 1 for m in seg]
            assert list(flags) == want, (lo, hi, seg)
            start = seg.stop
        assert start == max(hi, 2), (lo, hi)
        primes = oracle.primes_in(window)
        assert oracle.prime_count(window) == len(primes), (lo, hi)
        assert cli.main(["oracle", "primes", "--lo", str(lo), "--hi", str(hi)]) == 0
        want = io.StringIO()
        for p in primes:
            print(p, file=want)
        assert capsys.readouterr().out == want.getvalue(), (lo, hi)


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
        seg_lo = lo
        for _, _, omegas in oracle.sieve_segments(IntervalSpec(lo, hi), (), budget=hi):
            assert omegas, (lo, hi, seg_lo)
            seg = IntervalSpec(seg_lo, seg_lo + len(omegas))
            ones = [m for m, om in zip(range(seg.lo, seg.hi), omegas) if om == 1]
            assert ones == oracle.primes_in(seg, budget=hi), (lo, hi, seg_lo)
            seg_lo = seg.hi
        assert seg_lo == hi, (lo, hi)
