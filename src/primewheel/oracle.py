"""Brute-force ground truth: trial division, striking scans, segmented sieves.

Everything here is deliberately elementary so it can be audited at a
glance, and it shares no machinery with the wheel construction it is used
to check: nothing is imported from `wheel` or `enumeration` beyond
IntervalSpec. Two sieves strike multiples out of a window one segment
at a time (Bays & Hudson 1977):

- _strike yields the integers divisible by no given modulus, a list per
  segment, to coprime_stream, rough_sieve and prime_stream, whose moduli
  are the primes up to sqrt(hi - 1), found by the same scan on [2,
  sqrt(hi - 1)] and put back in front; coprime_scan and primes_in list them;
- omega_sieve gives Omega(m), the prime factors of m counted with
  multiplicity, for every m: each prime power p^k strikes its multiples,
  which gain one factor and a byte-wide log weight of p, and m's weight
  sum tells whether a prime above sqrt(hi - 1), one more factor, divides
  it. Its base primes come from primes_in's scan too.

factor_profile is the per-value trial division, kept as the single-value
probe. Every scan is guarded by a budget (default ten million, checked by
errors.check_budget before any work) so a typo in an interval cannot
wedge a test run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from itertools import chain, compress

from ._record import Record
from .enumeration import IntervalSpec
from .errors import check_budget

_SEGMENT = 1 << 20
# Integers per omega_sieve segment. The segment sets the sieve's memory
# (two bytearrays and the list it yields): at 2^14 `verify theorem1 --r 5
# --n 4` peaks at 17.3 MB RSS and `--r 400 --n 1` at 17.8 MB, against 17.4
# and 17.6 MB with a Python int per integer at 2^12.
OMEGA_SEGMENT = 1 << 14
# omega_sieve refuses a window whose hi - 1 has more bits: its log weights
# would have scale 1, too coarse to tell a cofactor above sqrt(hi - 1), and
# its base primes would reach 2^63, which no run sieves.
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
    return list(coprime_stream(interval, basis, budget))


def coprime_stream(interval: IntervalSpec, moduli, budget: int | None = None) -> Iterator[int]:
    """coprime_scan's values, one striking segment at a time; the budget is checked on the call."""
    check_budget(interval.width, budget, "coprime scan")
    return chain.from_iterable(_strike(interval.lo, interval.hi, tuple(moduli)))


def rough_sieve(interval: IntervalSpec, basis, budget: int | None = None) -> list[int]:
    """The same list as coprime_scan, by the same striking scan.

    This is the conventional competitor the wheel enumeration is
    benchmarked against.
    """
    check_budget(interval.width, budget, "rough sieve")
    return list(chain.from_iterable(_strike(interval.lo, interval.hi, tuple(basis))))


def _strike(lo: int, hi: int, moduli: tuple[int, ...]) -> Iterator[list[int]]:
    """Each modulus strikes its multiples out of [lo, hi); one list per _SEGMENT integers."""
    for seg_lo in range(lo, hi, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT, hi)
        flags = bytearray(b"\x01") * (seg_hi - seg_lo)
        for q in moduli:
            start = ((seg_lo + q - 1) // q) * q
            if start < seg_hi:
                flags[start - seg_lo :: q] = bytes(len(range(start, seg_hi, q)))
        yield list(compress(range(seg_lo, seg_hi), flags))


def primes_in(interval: IntervalSpec, budget: int | None = None) -> list[int]:
    """Exact primes in [lo, hi) by a segmented sieve of Eratosthenes.

    The base primes up to sqrt(hi - 1) come from the same sieve run on
    [2, sqrt(hi - 1) + 1); they strike every multiple, themselves
    included, so those in [lo, hi) are put back in front.
    """
    return list(prime_stream(interval, budget))


def prime_stream(interval: IntervalSpec, budget: int | None = None) -> Iterator[int]:
    """primes_in's values, one striking segment at a time; the budget is checked on the call."""
    check_budget(interval.hi, budget, "prime sieve")
    return _primes(interval.lo, interval.hi)


def _primes(lo: int, hi: int) -> Iterator[int]:
    """prime_stream without the budget check. Every base prime is at most
    sqrt(hi - 1) < hi; the recursion stops once that root is below 2."""
    root = math.isqrt(hi - 1)
    base = tuple(_primes(2, root + 1)) if root >= 2 else ()
    return chain.from_iterable(chain([base[bisect_left(base, lo) :]], _strike(max(lo, 2), hi, base)))


def omega_sieve(interval: IntervalSpec, budget: int | None = None) -> Iterator[list[int]]:
    """Omega(m), prime factors counted with multiplicity, for every m in [lo, hi).

    The iterator yields one list per segment of OMEGA_SEGMENT integers,
    from lo up; the last may be shorter. The primes up to root =
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
    S = 1 and the margin fails.

    The width and root are checked against the budget, then b against
    OMEGA_MAX_BITS, before the iterator is returned.
    """
    if interval.lo < 1:
        raise ValueError("omega is defined for m >= 1")
    check_budget(interval.width, budget, "omega sieve")
    root = math.isqrt(interval.hi - 1)
    check_budget(root, budget, "omega sieve base primes")
    remedy = "no flag or environment variable raises this fixed limit, so use a smaller window"
    check_budget((interval.hi - 1).bit_length(), OMEGA_MAX_BITS, "omega sieve bits", remedy)
    return _omega_segments(interval, root, list(_primes(2, root + 1)))


def _cut(y: int, root: int, scale: int) -> int:
    """U + 1 for a piece of omega_sieve's window that ends below y: the
    number of weight sums that flag a cofactor above root."""
    return (((y - 1) // (root + 1)) ** scale).bit_length()


def _omega_segments(interval: IntervalSpec, root: int, base: list[int]) -> Iterator[list[int]]:
    scale = 255 // (interval.hi - 1).bit_length()
    turns = [_TURN[w : w + 256] for w in range(256)]  # shared by primes of one weight
    adds = [turns[(p**scale).bit_length() - 1] for p in base]
    for seg_lo in range(interval.lo, interval.hi, OMEGA_SEGMENT):
        seg_hi = min(seg_lo + OMEGA_SEGMENT, interval.hi)
        count = bytearray(seg_hi - seg_lo)
        weight = bytearray(seg_hi - seg_lo)
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
        yield list(total.to_bytes(seg_hi - seg_lo, "little"))
