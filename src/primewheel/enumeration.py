"""Sorted streaming and counting of wheel-form values over intervals.

One primorial block contains every residue the form can take. Streaming
walks blocks over the sorted table of those residues, built once per
form (and cached) by incremental wheel extension. Counting needs no
table: it is Legendre's inclusion-exclusion over the residue-axis moduli.
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
    size = math.prod(m - 1 for _, m, _ in axes)
    if size > MAX_BLOCK_RESIDUES:
        raise BudgetExceeded(
            required=size,
            budget=MAX_BLOCK_RESIDUES,
            what="residue table",
            remedy=_FIXED_CAP + "; count --lo/--hi needs no table",
        )
    modulus = form.period // math.prod(m for _, m, _ in axes)
    residues = (form.constant % modulus,)
    for _, m, a in axes:
        admissible = {(form.constant + a * h) % m for h in range(1, m)}
        classes = list(map(m.__rmod__, residues))
        residues = tuple(_lift(residues, classes, modulus, m, admissible))
        modulus *= m
    return residues


def _lift(residues, classes, modulus, m, admissible) -> Iterator[int]:
    """residues (mod modulus) lifted to the admissible ones mod modulus*m, ascending."""

    def lifted(i: int) -> Iterator[int]:
        offset = i * modulus
        keep = {(c - offset) % m for c in admissible}
        return map(offset.__add__, compress(residues, map(keep.__contains__, classes)))

    return chain.from_iterable(map(lifted, range(m)))


def enumerate_interval(form, interval: IntervalSpec) -> Iterator[int]:
    """Yield exactly the form's values in [lo, hi), in ascending order."""
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
