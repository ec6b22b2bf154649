"""Sorted streaming and counting of wheel-form values over intervals.

The form's values are the x = constant (mod Q), Q the period over the
residue-axis moduli, that avoid the classes each axis never takes.
enumerate_interval streams them by one of two paths, picked by size:

- a window holding fewer candidates x than one period holds residues
  (width // Q < prod(m - 1)) is sieved directly, segmented-sieve style
  (Bays & Hudson 1977): one byte per candidate, with every class outside
  the form's admissible set struck out per axis, and no residue table;
- a wider window walks blocks over the sorted table of one period's
  residues, built once per form (and cached) by incremental wheel
  extension (Pritchard 1982).

Both paths refuse a form whose table would pass MAX_BLOCK_RESIDUES
before any value is produced. Counting needs no table: it is Legendre's
inclusion-exclusion over the residue-axis moduli.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from typing import Iterator, NamedTuple

from .errors import BudgetExceeded

MAX_BLOCK_RESIDUES = 4_000_000
_FIXED_CAP = f"this cap is fixed at {MAX_BLOCK_RESIDUES} (no flag or environment variable changes it)"


@dataclass(frozen=True)
class IntervalSpec:
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

    Built by incremental wheel extension (Pritchard 1982) from the form's
    own admissible classes: start from constant mod the pinned modulus Q,
    then per residue axis (j, m, a) lift each residue y mod Q to
    y + i*Q for i in 0..m-1, keeping those whose class mod m is some
    (constant + a*h) mod m with h in 1..m-1, and let Q grow to Q*m.
    Lifting a sorted list in order of i keeps it sorted, so no sort is
    needed. The table size is the product of (modulus - 1) over the free
    variables and is budget-guarded.
    """
    axes = form.residue_axes()
    _table_size(axes)
    modulus = form.period // math.prod(m for _, m, _ in axes)
    residues = (form.constant % modulus,)
    for _, m, a in axes:
        classes = list(map(m.__rmod__, residues))
        residues = tuple(_lift(residues, classes, modulus, m, _excluded(form, m, a)))
        modulus *= m
    return residues


def _lift(residues, classes, modulus, m, excluded) -> Iterator[int]:
    """residues (mod modulus) lifted to the admissible ones mod modulus*m, ascending.

    The lift y + i*modulus has class (c + i*modulus) mod m for c = y mod m,
    so lift i drops the residues whose class is (e - i*modulus) mod m for
    an excluded class e. Only those few classes are shifted per lift, which
    keeps an axis linear in m.
    """

    def lifts() -> Iterator[Iterator[int]]:
        # One `keep` set is edited between lifts; chain() exhausts each
        # lift before it asks for the next, so no lift sees another's edit.
        keep = set(range(m))
        for i in range(m):
            offset = i * modulus
            drop = {(e - offset) % m for e in excluded}
            keep -= drop
            yield map(offset.__add__, compress(residues, map(keep.__contains__, classes)))
            keep |= drop

    return chain.from_iterable(lifts())


def _table_size(axes) -> int:
    """Residues per period, prod(m - 1) over the axes; refused past the cap."""
    size = math.prod(m - 1 for _, m, _ in axes)
    if size > MAX_BLOCK_RESIDUES:
        raise BudgetExceeded(
            required=size,
            budget=MAX_BLOCK_RESIDUES,
            what="residue table",
            remedy=_FIXED_CAP + "; count --lo/--hi needs no table",
        )
    return size


def _excluded(form, m: int, a: int) -> set[int]:
    """The classes mod m that the axis with modulus m and coefficient a never lets
    values take: all but (constant + a*h) mod m for h in 1..m-1."""
    return set(range(m)) - {(form.constant + a * h) % m for h in range(1, m)}


def enumerate_interval(form, interval: IntervalSpec) -> Iterator[int]:
    """An iterator over exactly the form's values in [lo, hi), in ascending order.

    The table cap is checked before the iterator is returned, so a refused
    form yields nothing. A window with fewer candidates than the table has
    entries is sieved; a wider one walks the cached table.
    """
    axes = form.residue_axes()
    size = _table_size(axes)
    pin = form.period // math.prod(m for _, m, _ in axes)
    if interval.width // pin < size:
        return _sieve(form, axes, pin, interval)
    return _walk(form, interval)


def _sieve(form, axes, pin: int, interval: IntervalSpec) -> Iterator[int]:
    """The form's values in [lo, hi) among the candidates x = constant (mod pin).

    Candidate i is first + pin*i, whose class mod an axis modulus m is c
    exactly when i = (c - first) * pin^-1 (mod m); every m-th candidate
    from there is struck out for each class c the axis never takes.
    """
    first = interval.lo + (form.constant - interval.lo) % pin
    candidates = range(first, interval.hi, pin)
    mask = bytearray(b"\x01") * len(candidates)
    for _, m, a in axes:
        inverse = pow(pin, -1, m)
        for c in _excluded(form, m, a):
            start = (c - first) * inverse % m
            mask[start::m] = bytes(len(range(start, len(mask), m)))
    yield from compress(candidates, mask)


def _walk(form, interval: IntervalSpec) -> Iterator[int]:
    """The form's values in [lo, hi), block by block over the sorted residue table."""
    period = form.period
    table = sorted_block_residues(form)
    for t in range(interval.lo // period, (interval.hi - 1) // period + 1):
        base = t * period
        start = bisect_left(table, interval.lo - base) if base < interval.lo else 0
        for idx in range(start, len(table)):
            value = base + table[idx]
            if value >= interval.hi:
                return
            yield value


def count_interval(form, interval: IntervalSpec) -> int:
    """len(list(enumerate_interval(form, interval))), without materializing values.

    Legendre's inclusion-exclusion (Lehmer 1959): each axis coefficient is
    1 mod its own modulus m, so the axis misses exactly the class of the
    constant mod m, and the form's values are the x = constant (mod Q)
    that avoid those classes. Summing mu(d) * #{x in [lo, hi) :
    x = constant (mod Q*d)} over the squarefree products d of the axis
    moduli counts them with no residue table. The 2^k terms for k axes
    are budget-guarded.
    """
    moduli = tuple(m for _, m, _ in form.residue_axes())
    terms = 2 ** len(moduli)
    if terms > MAX_BLOCK_RESIDUES:
        raise BudgetExceeded(
            required=terms,
            budget=MAX_BLOCK_RESIDUES,
            what=f"inclusion-exclusion over {len(moduli)} axes",
            remedy=_FIXED_CAP,
        )
    return _legendre(interval, form.constant, form.period // math.prod(moduli), moduli)


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
    phi = math.prod(p - 1 for p in tuple(getattr(basis, "primes", basis)))
    return BlockCount(phi=phi, interior=phi - 1)
