"""Brute-force ground truth: trial division, striking scans, segmented sieves.

Everything here is deliberately elementary so it can be audited at a
glance, and it shares no machinery with the wheel construction it is used
to check: nothing is imported from `wheel` or `enumeration` beyond
IntervalSpec. Two sieves strike multiples out of a window one segment
at a time (Bays & Hudson 1977):

- _strike keeps the integers divisible by no given modulus. It serves
  coprime_scan and rough_sieve, one implementation under two names, and
  primes_in, whose moduli are the primes up to the square root of hi,
  found by the same scan on [2, sqrt(hi - 1)] and put back in front;
- omega_sieve gives Omega(m), the prime factors of m counted with
  multiplicity, for every m: each prime power p^k strikes its multiples,
  which gain one factor and are divided by p, and a cofactor above 1
  left at the end is one more prime. Its base primes come from
  primes_in's scan too.

factor_profile is the per-value trial division, kept as the single-value
probe. Every scan is guarded by a budget (default ten million, checked by
errors.check_budget before any work) so a typo in an interval cannot
wedge a test run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress, repeat
from operator import add, floordiv, lt
from typing import Iterator

from ._record import Record
from .enumeration import IntervalSpec
from .errors import check_budget

_SEGMENT = 1 << 20
# Integers per omega_sieve segment. The segment sets the sieve's memory:
# at 2^12 `verify theorem1 --r 8 --n 2` peaks at 16.9 MB RSS, as before
# the sieve; at 2^14 it peaked at 17.2 MB and `--r 5 --n 4` at 18.2 MB.
OMEGA_SEGMENT = 1 << 12
# bytes.translate table that adds one to every count. Omega(m) < log2(hi),
# and a window whose base primes can be sieved has hi < 2^128, so a count
# never reaches 255.
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"


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
    check_budget(interval.width, budget, "coprime scan")
    return _strike(interval.lo, interval.hi, tuple(basis))


def rough_sieve(interval: IntervalSpec, basis, budget: int | None = None) -> list[int]:
    """The same list as coprime_scan, by the same striking scan.

    This is the conventional competitor the wheel enumeration is
    benchmarked against.
    """
    check_budget(interval.width, budget, "rough sieve")
    return _strike(interval.lo, interval.hi, tuple(basis))


def _strike(lo: int, hi: int, moduli: tuple[int, ...]) -> list[int]:
    """Each modulus strikes its multiples out of [lo, hi), _SEGMENT integers at a time."""
    out = []
    for seg_lo in range(lo, hi, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT, hi)
        flags = bytearray(b"\x01") * (seg_hi - seg_lo)
        for q in moduli:
            start = ((seg_lo + q - 1) // q) * q
            if start < seg_hi:
                flags[start - seg_lo :: q] = bytes(len(range(start, seg_hi, q)))
        out.extend(compress(range(seg_lo, seg_hi), flags))
    return out


def primes_in(interval: IntervalSpec, budget: int | None = None) -> list[int]:
    """Exact primes in [lo, hi) by a segmented sieve of Eratosthenes.

    The base primes up to sqrt(hi - 1) come from the same sieve run on
    [2, sqrt(hi - 1) + 1); they strike every multiple, themselves
    included, so those in [lo, hi) are put back in front.
    """
    check_budget(interval.hi, budget, "prime sieve")
    return _primes(interval.lo, interval.hi)


def _primes(lo: int, hi: int) -> list[int]:
    """primes_in without the budget check. Every base prime is at most
    sqrt(hi - 1) < hi; the recursion stops once that root is below 2."""
    root = math.isqrt(hi - 1)
    base = tuple(_primes(2, root + 1)) if root >= 2 else ()
    return [*base[bisect_left(base, lo) :], *_strike(max(lo, 2), hi, base)]


def omega_sieve(interval: IntervalSpec, budget: int | None = None) -> Iterator[list[int]]:
    """Omega(m), prime factors counted with multiplicity, for every m in [lo, hi).

    The iterator yields one list per segment of OMEGA_SEGMENT integers,
    from lo up; the last may be shorter. The primes up to sqrt(hi - 1)
    are sieved once, by primes_in's striking scan. In a segment every
    multiple of a prime power p^k < hi gains one factor and is divided
    by p; what is left of m is then 1 or a single prime above
    sqrt(hi - 1), which adds one. So the entries equal to 1 are the
    primes: a base prime counts itself, a larger one its cofactor. The
    width and sqrt(hi - 1) are checked against the budget before the
    iterator is returned.
    """
    if interval.lo < 1:
        raise ValueError("omega is defined for m >= 1")
    check_budget(interval.width, budget, "omega sieve")
    root = math.isqrt(interval.hi - 1)
    check_budget(root, budget, "omega sieve base primes")
    return _omega_segments(interval, _primes(2, root + 1))


def _omega_segments(interval: IntervalSpec, base: list[int]) -> Iterator[list[int]]:
    for seg_lo in range(interval.lo, interval.hi, OMEGA_SEGMENT):
        seg_hi = min(seg_lo + OMEGA_SEGMENT, interval.hi)
        count = bytearray(seg_hi - seg_lo)
        rest = list(range(seg_lo, seg_hi))
        for p in base:
            # A power of p at or above seg_hi divides nothing in the segment.
            q = p
            while q < seg_hi:
                start = -seg_lo % q
                count[start::q] = count[start::q].translate(_PLUS_ONE)
                rest[start::q] = map(floordiv, rest[start::q], repeat(p))
                q *= p
        yield list(map(add, count, map(lt, repeat(1), rest)))
