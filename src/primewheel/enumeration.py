"""Sorted streaming and counting of wheel-form values over intervals.

A form's values are its residue classes (form.residue_classes()): the
x = h1 (mod q1) that are 0 mod none of its struck moduli. The stream and
the table read only those. enumerate_interval streams them with a
segmented sieve (Bays & Hudson 1977; Pritchard 1983): one byte per
candidate x, SEGMENT candidates at a time, class 0 struck out per struck
modulus, so its memory is one mask whatever the form. Each segment's
values come from one lazy C iterator over its mask, and the segments are
chained, so no bytecode runs per value; past sys.maxsize the iterator
walks small offsets and only survivors become big ints, since CPython's
range steps by generic int arithmetic there. sorted_block_residues is
the sieve of one period, kept as a table; a form with more than
MAX_BLOCK_RESIDUES residues per period is refused before it is sieved.
Counting is Legendre's inclusion-exclusion over the same moduli, its 2^k
terms under the caller's work budget.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add
from typing import Iterator, NamedTuple

from ._record import Record
from .errors import check_budget

# Residues per period table: a fixed cap on the memory sorted_block_residues keeps.
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


class BlockCount(NamedTuple):
    """Residue counts for one period: phi per block, phi - 1 strictly inside the first."""

    phi: int
    interior: int


@lru_cache(maxsize=8)
def sorted_block_residues(form) -> tuple[int, ...]:
    """Every residue of the form's value set in [0, period), ascending.

    The sieve of one period; its size is the product of (m - 1) over the
    struck moduli m and is refused past MAX_BLOCK_RESIDUES before any
    value is sieved.
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

    Legendre's inclusion-exclusion (Lehmer 1959): summing mu(d) * #{x in
    [lo, hi) : x = constant (mod q1*d)} over the squarefree products d of
    the k struck moduli, since the constant is h1 mod q1 and 0 mod each
    struck modulus. The 2^k terms are work, checked against `budget`
    (the default scan budget for None) before the constant is read; the
    recursion holds only k frames.
    """
    _, pin, struck = form.residue_classes()
    check_budget(2 ** len(struck), budget, f"inclusion-exclusion over {len(struck)} axes")
    return _legendre(interval, form.constant, pin, struck)


def _legendre(interval: IntervalSpec, constant: int, d: int, moduli: tuple[int, ...]) -> int:
    """#{x in [lo, hi) : x = constant (mod d), x != constant (mod m) for m in moduli}."""
    if moduli:
        m, rest = moduli[0], moduli[1:]
        return _legendre(interval, constant, d, rest) - _legendre(interval, constant, d * m, rest)
    first = constant % d
    return (interval.hi - first + d - 1) // d - (interval.lo - first + d - 1) // d


def count_block(basis) -> BlockCount:
    """Value counts for one period of the prime wheel.

    phi = prod(p - 1) values land in any window of one period length;
    the open interval (1, P) misses the value 1 and holds phi - 1.
    """
    phi = math.prod(p - 1 for p in basis)
    return BlockCount(phi=phi, interior=phi - 1)
