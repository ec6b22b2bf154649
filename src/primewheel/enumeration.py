"""Sorted streaming and counting of wheel-form values over intervals.

Every axis coefficient is 1 mod its own modulus m and 0 mod every other
modulus of the period, so the form's values are the x = constant
(mod Q), Q the period over the residue-axis moduli, that avoid the class
of the constant mod each m. enumerate_interval streams them with a
segmented sieve (Bays & Hudson 1977; Pritchard 1983): one byte per
candidate x, SEGMENT candidates at a time, one class struck out per
axis. sorted_block_residues is the sieve of one period. A form with more
than MAX_BLOCK_RESIDUES residues per period is refused before any value
is produced. Counting is Legendre's inclusion-exclusion over the same
moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterator, NamedTuple

from .errors import check_budget

MAX_BLOCK_RESIDUES = 4_000_000
# Candidates per sieve segment: one mask byte each, so a mask is at most 1 MB.
SEGMENT = 1 << 20
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

    The sieve of one period; its size is the product of (modulus - 1)
    over the free variables and is refused past MAX_BLOCK_RESIDUES.
    """
    return tuple(enumerate_interval(form, IntervalSpec(0, form.period)))


def _table_size(axes) -> int:
    """Residues per period, prod(m - 1) over the axes; refused past the cap."""
    size = math.prod(m - 1 for _, m, _ in axes)
    check_budget(
        size, MAX_BLOCK_RESIDUES, "residue table", _FIXED_CAP + "; count --lo/--hi needs no table"
    )
    return size


def enumerate_interval(form, interval: IntervalSpec) -> Iterator[int]:
    """An iterator over exactly the form's values in [lo, hi), in ascending order.

    The cap on one period's residues is checked before the iterator is
    returned, so a refused form yields nothing.
    """
    axes = form.residue_axes()
    _table_size(axes)
    moduli = tuple(m for _, m, _ in axes)
    return _sieve(form.constant, form.period // math.prod(moduli), moduli, interval)


def _sieve(
    constant: int, pin: int, moduli: tuple[int, ...], interval: IntervalSpec
) -> Iterator[int]:
    """The x = constant (mod pin) in [lo, hi) with x != constant (mod m) for every m.

    Candidates are taken SEGMENT at a time. Candidate i of a segment
    starting at seg is seg + pin*i, which is constant mod m exactly when
    i = (constant - seg) * pin^-1 (mod m); every m-th candidate from there
    is struck out.
    """
    inverses = [(m, pow(pin, -1, m)) for m in moduli]
    first = interval.lo + (constant - interval.lo) % pin
    span = pin * SEGMENT
    for seg in range(first, interval.hi, span):
        candidates = range(seg, min(seg + span, interval.hi), pin)
        mask = bytearray(b"\x01") * len(candidates)
        for m, inverse in inverses:
            start = (constant - seg) * inverse % m
            mask[start::m] = bytes(len(range(start, len(mask), m)))
        yield from compress(candidates, mask)


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
    what = f"inclusion-exclusion over {len(moduli)} axes"
    check_budget(terms, MAX_BLOCK_RESIDUES, what, _FIXED_CAP)
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
    phi = math.prod(p - 1 for p in basis)
    return BlockCount(phi=phi, interior=phi - 1)
