"""Brute-force ground truth: trial division, striking scans, segmented sieves.

Everything here is deliberately elementary so it can be audited at a
glance, and it shares no machinery with the wheel construction it is used
to check: nothing is imported from `wheel` or `enumeration` beyond
IntervalSpec. Two sieves strike multiples out of a window one segment
at a time (Bays & Hudson 1977), each into a bytearray of flags or counts:

- _strike yields, per segment, the flags of the integers divisible by no
  given modulus. coprime_segments and prime_segments hand out these
  (range, flags) segments, the one shape every value stream here takes:
  coprime_scan, rough_sieve and primes_in compress them into values,
  prime_count counts them, and a writer reads them. The primes' moduli are
  the primes up to sqrt(hi - 1), found by the same scan on [2,
  sqrt(hi - 1)], and each is flagged again in its own segment;
- sieve_segments gives, per segment, the same flags for given moduli and
  Omega(m), the prime factors of m counted with multiplicity, for every
  m, in one walk: each modulus strikes its multiples' flags, and each
  prime power p^k strikes its multiples, which gain one factor and a
  byte-wide log weight of p; m's weight sum tells whether a prime above
  sqrt(hi - 1), one more factor, divides it. Its base primes come from
  primes_in's scan too, and omega_sieve yields its Omega bytes alone.

factor_profile is the per-value trial division, kept as the single-value
probe. Every scan is guarded by a budget (default ten million, checked by
errors.check_budget before any work) so a typo in an interval cannot
wedge a test run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from itertools import chain, compress, starmap

from ._record import Record
from .enumeration import IntervalSpec
from .errors import check_budget

_SEGMENT = 1 << 20
# Integers per sieve_segments segment for every 64 base primes, at least
# once. The segment sets the sieve's memory (four bytearrays and the bytes
# it yields); each base prime costs a fixed time per segment, so segments
# grow only where there are many. Every window with under 128 base primes
# takes 2^14: `verify theorem1 --r 5 --n 4` peaks at 15.5 MB RSS, and at
# 2^16 at 16.5 MB.
OMEGA_SEGMENT = 1 << 14
# The largest segment, taken from 1,024 base primes up. `verify theorem1
# --r 1000 --n 1 --budget 100000000` (245,760 per segment) peaks at 22.5 MB
# RSS, and `--r 2000` (at this cap) at 23.1 MB.
OMEGA_SEGMENT_MAX = 1 << 18
# check_bits refuses a window whose hi - 1 has more bits, before any budget
# check: its log weights would have scale 1, too coarse to tell a cofactor
# above sqrt(hi - 1), and its base primes would reach 2^63, which no run sieves.
OMEGA_MAX_BITS = 127
# bytes.translate table that adds one to every count. Omega(m) < log2(hi)
# <= OMEGA_MAX_BITS, so a count never reaches 255.
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"
# Its slice [w : w + 256] is the table that adds w to every byte below 256 - w.
_TURN = bytes(range(256)) * 2


class FactorProfile(Record):
    """Trial-division factorization of n: factor count with multiplicity,
    smallest prime factor (0 for n = 1), and the full factor multiset."""

    n: int
    omega: int
    spf: int
    factors: tuple[int, ...]


def factor_profile(n: int) -> FactorProfile:
    if n < 1:
        raise ValueError("n must be a positive integer")
    factors = []
    m = n
    while m % 2 == 0:
        factors.append(2)
        m //= 2
    f = 3
    while f * f <= m:
        while m % f == 0:
            factors.append(f)
            m //= f
        f += 2
    if m > 1:
        factors.append(m)
    return FactorProfile(
        n=n, omega=len(factors), spf=factors[0] if factors else 0, factors=tuple(factors)
    )


def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity; omega(1) = 0."""
    return factor_profile(n).omega


def spf(n: int) -> int:
    """Smallest prime factor of n >= 2."""
    if n < 2:
        raise ValueError("spf is defined for n >= 2")
    return factor_profile(n).spf


def is_k_almost(n: int, k: int) -> bool:
    """True when n has exactly k prime factors counted with multiplicity."""
    return omega(n) == k


def coprime_scan(interval: IntervalSpec, basis, budget: int | None = None) -> list[int]:
    """Integers in [lo, hi) divisible by no basis modulus.

    `basis` may be a PrimeBasis or any sequence of moduli.
    """
    return list(_values(coprime_segments(interval, basis, budget)))


def coprime_segments(
    interval: IntervalSpec, moduli, budget: int | None = None
) -> Iterator[tuple[range, bytearray]]:
    """coprime_scan as _strike's (range, flags) segments; the budget is checked on the call."""
    check_budget(interval.width, budget, "coprime scan")
    return _strike(interval.lo, interval.hi, tuple(moduli), _SEGMENT)


def rough_sieve(interval: IntervalSpec, basis, budget: int | None = None) -> list[int]:
    """The same list as coprime_scan, by the same striking scan.

    This is the conventional competitor the wheel enumeration is
    benchmarked against.
    """
    check_budget(interval.width, budget, "rough sieve")
    return list(_values(_strike(interval.lo, interval.hi, tuple(basis), _SEGMENT)))


def _strike(
    lo: int, hi: int, moduli: tuple[int, ...], size: int
) -> Iterator[tuple[range, bytearray]]:
    """Each modulus strikes its multiples out of [lo, hi): per size integers,
    their range and flags, 1 for the integers no modulus divides."""
    for seg_lo in range(lo, hi, size):
        seg = range(seg_lo, min(seg_lo + size, hi))
        flags = bytearray(b"\x01") * len(seg)
        for q in moduli:
            start = -seg_lo % q
            flags[start::q] = bytes(len(range(start, len(seg), q)))
        yield seg, flags
        del flags  # so the next flags are not built beside these


def _values(segments: Iterator[tuple[range, bytearray]]) -> Iterator[int]:
    """The flagged integers of _strike's segments, in order."""
    return chain.from_iterable(starmap(compress, segments))


def primes_in(interval: IntervalSpec, budget: int | None = None) -> list[int]:
    """Exact primes in [lo, hi) by a segmented sieve of Eratosthenes.

    The base primes up to sqrt(hi - 1) come from the same sieve run on
    [2, sqrt(hi - 1) + 1); they strike every multiple, themselves
    included, and each segment flags its own again.
    """
    return list(_values(prime_segments(interval, budget)))


def prime_segments(
    interval: IntervalSpec, budget: int | None = None
) -> Iterator[tuple[range, bytearray]]:
    """primes_in as _prime_flags' (range, flags) segments; the budget is checked on the call."""
    check_budget(interval.hi, budget, "prime sieve")
    return _prime_flags(interval.lo, interval.hi)


def prime_count(interval: IntervalSpec, budget: int | None = None) -> int:
    """len(primes_in(interval)), read from the striking flags without a Python int per integer."""
    return sum(flags.count(1) for _, flags in prime_segments(interval, budget))


def _base_primes(hi: int) -> list[int]:
    """The primes up to sqrt(hi - 1), by _prime_flags on [2, sqrt(hi - 1) + 1);
    the recursion stops once that root is below 2."""
    root = math.isqrt(hi - 1)
    return list(_values(_prime_flags(2, root + 1))) if root >= 2 else []


def _prime_flags(lo: int, hi: int) -> Iterator[tuple[range, bytearray]]:
    """_strike's segments of [max(lo, 2), hi) by the base primes, each of which
    (at most sqrt(hi - 1) < hi) is flagged again in the segment that holds it."""
    base = _base_primes(hi)
    for seg, flags in _strike(max(lo, 2), hi, base, _SEGMENT):
        i = bisect_left(base, seg.start)
        while i < len(base) and base[i] < seg.stop:
            flags[base[i] - seg.start] = 1
            i += 1
        yield seg, flags
        del flags  # so _strike's next flags are not built beside these


def omega_sieve(interval: IntervalSpec, budget: int | None = None) -> Iterator[bytes]:
    """Omega(m), prime factors counted with multiplicity, for every m in [lo, hi).

    The iterator yields one bytes per segment of sieve_segments, from lo
    up; the last may be shorter. The primes up to root =
    isqrt(hi - 1) are sieved once, by primes_in's striking scan. Each m is
    s * c, with no prime above root in s and c = 1 or one prime above
    root. In a segment each multiple of a prime power p^k < hi gains one
    factor and the weight w_p = bits(p^S) - 1 = floor(S * log2(p)), where
    b = bits(hi - 1) and S = 255 // b. So the count is Omega(s), and c > 1
    adds one: the entries equal to 1 are the primes.

    The weight sum W tells c without a division (logarithmic sieving,
    Crandall & Pomerance, Prime Numbers, 2nd ed., section 6.1). w_2 = S is
    exact and each of the K odd factors of s loses less than 1 to the
    floor, so S * log2(s) - K < W <= S * log2(s) < S * b <= 255: no byte
    wraps. On a piece [x, y) of a segment inside one [2^j, 2^(j+1)), c > 1
    gives s <= smax = (y - 1) // (root + 1), so W <= U = bits(smax^S) - 1
    (U = -1 when smax = 0), and c = 1 gives s = m >= x and K <=
    floor(log3(y - 1)), so W >= L = bits(x^S) - 1 - floor(log3(y - 1)).
    So W <= U is c > 1 whenever U < L, which holds for b <= OMEGA_MAX_BITS:
    (root + 1)^2 > 2^(b - 1) and y <= 2^(j + 1) give U < S * (j + 1 -
    (b - 1) / 2), while L > S * j - 0.631 * b, and S >= 2 closes that gap
    from b = 9; the tests check every piece for hi < 2^18. At b = 128,
    S = 1 and the margin fails: sieve_segments, whose checks this shares, refuses it.
    """
    return (omegas for _, _, omegas in sieve_segments(interval, (), budget))


def sieve_segments(
    interval: IntervalSpec, moduli, budget: int | None = None
) -> Iterator[tuple[range, bytearray, bytes]]:
    """omega_sieve with the striking scan of `moduli`, in one walk of each segment.

    Yields, per segment from lo up, its range, its _strike flags by the
    moduli and its Omega bytes. A segment holds OMEGA_SEGMENT integers per 64 base
    primes, at least once and at most OMEGA_SEGMENT_MAX. Before the iterator
    is returned, check_bits takes bits(hi - 1), then the integers walked, the
    window or 2..root when that is longer, are checked against the budget.
    """
    if interval.lo < 1:
        raise ValueError("omega is defined for m >= 1")
    check_bits((interval.hi - 1).bit_length())
    root = math.isqrt(interval.hi - 1)
    check_budget(max(interval.width, root), budget, "omega sieve")
    return _sieve(interval, root, _base_primes(interval.hi), tuple(moduli))


def check_bits(bits: int) -> None:
    """Refuse a window whose hi - 1 has `bits` bits, or at least that many, past OMEGA_MAX_BITS."""
    remedy = "no flag or environment variable raises this fixed limit, so use a smaller window"
    check_budget(bits, OMEGA_MAX_BITS, "omega sieve bits", remedy)


def _cut(y: int, root: int, scale: int) -> int:
    """U + 1 for a piece of omega_sieve's window that ends below y: the
    number of weight sums that flag a cofactor above root."""
    return (((y - 1) // (root + 1)) ** scale).bit_length()


def _sieve(
    interval: IntervalSpec, root: int, base: list[int], moduli: tuple[int, ...]
) -> Iterator[tuple[range, bytearray, bytes]]:
    scale = 255 // (interval.hi - 1).bit_length()
    turns = [_TURN[w : w + 256] for w in range(256)]  # shared by primes of one weight
    adds = [turns[(p**scale).bit_length() - 1] for p in base]
    size = min(OMEGA_SEGMENT * max(1, len(base) // 64), OMEGA_SEGMENT_MAX)
    for seg, flags in _strike(interval.lo, interval.hi, moduli, size):
        seg_lo, seg_hi = seg.start, seg.stop
        count = bytearray(len(seg))
        weight = bytearray(len(seg))
        for p, add_w in zip(base, adds):
            # A power of p at or above seg_hi divides nothing in the segment.
            q = p
            while q < seg_hi:
                start = -seg_lo % q
                count[start::q] = count[start::q].translate(_PLUS_ONE)
                weight[start::q] = weight[start::q].translate(add_w)
                q *= p
        x = seg_lo
        while x < seg_hi:  # weight sums become cofactor flags, piece by piece
            y = min(seg_hi, 1 << x.bit_length())
            cut = _cut(y, root, scale)
            piece = slice(x - seg_lo, y - seg_lo)
            weight[piece] = weight[piece].translate(b"\x01" * cut + bytes(256 - cut))
            x = y
        # A count is below 128 and a flag 0 or 1, so no byte of their sum
        # carries: the segments add as integers.
        total = int.from_bytes(count, "little") + int.from_bytes(weight, "little")
        yield seg, flags, total.to_bytes(len(seg), "little")
