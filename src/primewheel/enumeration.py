"""Sorted streaming and counting of wheel-form values over intervals.

A form's values are its residue classes (form.residue_classes()): the
x = h1 (mod q1) that are 0 mod none of its struck moduli. The stream, the
count and the table read only those. enumerate_interval streams them with a
segmented sieve (Bays & Hudson 1977; Pritchard 1983): one byte per
candidate x, SEGMENT candidates at a time, class 0 struck out per struck
modulus, so its memory is one mask whatever the form. Each segment's
values come from one lazy C iterator over its mask, and the segments are
chained, so no bytecode runs per value; past sys.maxsize the iterator
walks small offsets and only survivors become big ints, since CPython's
range steps by generic int arithmetic there. sorted_block_residues is
the sieve of one period, returned as a tuple; a form with more than
MAX_BLOCK_RESIDUES residues per period is refused before it is sieved.
Counting is Legendre's inclusion-exclusion over the same moduli, skipping
each term whose product of moduli reaches hi; the at most min(2^k, hi)
terms it counts are under the caller's work budget.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from itertools import chain, compress, repeat
from operator import add

from ._record import Record
from .errors import check_budget

# Residues per period table: a fixed cap on all the memory sorted_block_residues holds.
MAX_BLOCK_RESIDUES = 4_000_000
# Candidates per sieve segment: one mask byte each, so a mask is at most 1 MB.
SEGMENT = 1 << 20


class IntervalSpec(Record):
    """Half-open interval [lo, hi) of naturals; must be non-empty."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ValueError("lo must be a natural number")
        if self.lo >= self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}): lo must be < hi")

    @property
    def width(self) -> int:
        return self.hi - self.lo


class BlockCount(Record):
    """Residue counts for one period: phi per block, phi - 1 strictly inside the first."""

    phi: int
    interior: int


def sorted_block_residues(form) -> tuple[int, ...]:
    """Every residue of the form's value set in [0, period), ascending.

    The sieve of one period, built anew on each call; its size is the
    product of (m - 1) over the struck moduli m and is refused past
    MAX_BLOCK_RESIDUES before any value is sieved.
    """
    size = math.prod(m - 1 for m in form.residue_classes()[2])
    remedy = (
        f"this cap on the table's memory is fixed at {MAX_BLOCK_RESIDUES} (no flag or"
        " environment variable changes it); enumerate_interval and count_interval need no table"
    )
    check_budget(size, MAX_BLOCK_RESIDUES, "residue table", remedy)
    return tuple(enumerate_interval(form, IntervalSpec(0, form.period)))


def enumerate_interval(form, interval: IntervalSpec) -> Iterator[int]:
    """An iterator over exactly the form's values in [lo, hi), in ascending order.

    It builds no table and holds one mask of at most SEGMENT bytes, so
    any form streams; the caller bounds the window.
    """
    return chain.from_iterable(_sieve(*form.residue_classes(), interval))


def _sieve(
    h1: int, pin: int, struck: tuple[int, ...], interval: IntervalSpec
) -> Iterator[Iterator[int]]:
    """The x = h1 (mod pin) in [lo, hi) with x != 0 (mod m) for every struck
    m, as one lazy iterator per segment.

    Candidates are taken SEGMENT at a time. Candidate i of a segment
    starting at seg is seg + pin*i, which is 0 mod m exactly when
    i = -seg * pin^-1 (mod m); every m-th candidate from there is struck
    out. Past sys.maxsize CPython's range steps with generic int
    arithmetic, once per candidate, so there a segment walks the offsets
    pin*i, which stay small, and adds seg to the survivors only.
    """
    inverses = [(m, pow(pin, -1, m)) for m in struck]
    first = interval.lo + (h1 - interval.lo) % pin
    span = pin * SEGMENT
    for seg in range(first, interval.hi, span):
        candidates = range(seg, min(seg + span, interval.hi), pin)
        mask = bytearray(b"\x01") * len(candidates)
        for m, inverse in inverses:
            start = -seg * inverse % m
            mask[start::m] = bytes(len(range(start, len(mask), m)))
        if candidates.stop <= sys.maxsize:
            yield compress(candidates, mask)
        else:
            yield map(add, repeat(seg), compress(range(0, len(mask) * pin, pin), mask))


def count_interval(form, interval: IntervalSpec, budget: int | None = None) -> int:
    """len(list(enumerate_interval(form, interval))), without materializing values.

    Legendre's inclusion-exclusion (Lehmer 1959) over the products s of
    struck moduli; a term counts x = h1 (mod q1), 0 (mod s) from its first
    hit s * (h1 * s^-1 mod q1), so no constant or period is derived. No
    value is 0, so from lo >= 1 a term counts nothing once s reaches hi.
    With the moduli ascending, a term is a leaf once s times the next
    modulus reaches hi; a stack of (s, sign, next index) holds at most
    k + 1 entries. Leaves have distinct s below hi, so min(2^k, hi) terms
    are checked against `budget` (None: the default) before any is counted.
    """
    h1, pin, struck = form.residue_classes()
    moduli = sorted(struck)
    lo, hi = max(interval.lo, 1), interval.hi
    check_budget(min(1 << len(moduli), hi), budget, f"inclusion-exclusion over {len(moduli)} axes")
    total, stack = 0, [(1, 1, 0)]
    while stack:
        s, sign, i = stack.pop()
        if i < len(moduli) and s * moduli[i] < hi:
            stack += (s, sign, i + 1), (s * moduli[i], -sign, i + 1)
        else:
            d, first = pin * s, s * (h1 * pow(s, -1, pin) % pin)
            total += sign * ((first - lo) // d - (first - hi) // d)
    return total


def count_block(basis) -> BlockCount:
    """Value counts for one period of the prime wheel.

    phi = prod(p - 1) values land in any window of one period length;
    the open interval (1, P) misses the value 1 and holds phi - 1.
    """
    phi = math.prod(p - 1 for p in basis)
    return BlockCount(phi=phi, interior=phi - 1)
