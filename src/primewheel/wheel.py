"""The prime basis and the idempotent wheel forms over it.

A form with period P carries one coefficient per residue variable plus a
constant, and its value at (t, h) is t*P + sum(A_j * h_j) + C; its value
set is exactly the integers divisible by no basis modulus. This module
holds the basis (the first r primes, from one sieve) and the coprime
wheel, built from CRT idempotents, whose values satisfy value = +h_j
(mod q_j). The canonical form is the coprime wheel on the first r primes
with h1 = 1; its constant is then half the period.

CoprimeWheelForm stores only its moduli and pinned h1, states its value
set as residue classes and derives its period, idempotents and constant
on first read (CanonicalWheelForm adds its prime basis, which has proved
the moduli coprime and holds the period). The stream, the count and the
claim windows read only these, so a process that runs them compiles no
more. The raw form (value = -h_j (mod p_j), from unit-equation
solutions), canonicalize, evaluate, decompose and the JSON shape live in
forms.py. All form types are frozen records (_record.Record) and every
operation is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import combinations, compress, islice

from ._record import Record
from .errors import check_budget

# Candidates of the basis sieve: a fixed cap on its memory, one byte per candidate.
BASIS_SIEVE_LIMIT = 10_000_000


def _prime_bound(k: int) -> int:
    """An integer above p_k, the k-th prime: p_k < k(ln k + ln ln k) for k >= 6
    (Rosser & Schoenfeld, Illinois J. Math. 6, 1962), and p_5 = 11."""
    if k < 6:
        return 12
    # k times the float ln k + ln ln k in exact integer arithmetic: the same as
    # int(k * (...)) wherever k fits a float, and no OverflowError past that.
    num, den = (math.log(k) + math.log(math.log(k))).as_integer_ratio()
    return k * num // den + 2


@lru_cache(maxsize=16)
def _first_primes(r: int) -> tuple[int, ...]:
    """The first r primes, by one sieve of Eratosthenes below _prime_bound(r), sized first."""
    limit = _prime_bound(r)
    remedy = "no flag or environment variable raises this fixed limit, so use a smaller r"
    check_budget(limit, BASIS_SIEVE_LIMIT, "basis prime sieve", remedy)
    flags = bytearray(2) + bytearray(b"\x01") * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(islice(compress(range(limit), flags), r))


class PrimeBasis(Record):
    """The first r primes, in order. Construction checks them against the
    first r primes, found by one sieve per r and cached, so first(r) does
    not sieve them twice."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        if not self.primes:
            raise ValueError("a basis needs at least one prime")
        for p, expect in zip(self.primes, _first_primes(len(self.primes))):
            if p != expect:
                raise ValueError(
                    f"basis must be the first primes in order; expected {expect}, got {p}"
                )

    @classmethod
    def first(cls, r: int) -> "PrimeBasis":
        """Basis of the first r primes."""
        if r < 1:
            raise ValueError("r must be at least 1")
        return cls(_first_primes(r))

    @property
    def r(self) -> int:
        return len(self.primes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    @cached_property
    def primorial(self) -> int:
        return math.prod(self.primes)


class _Form(Record):
    """What every form answers from its free indices and coefficients. It
    has no fields; forms.RawWheelForm and CoprimeWheelForm supply both."""

    def coeff(self, j: int) -> int:
        """The coefficient of h_j for a free index j."""
        return self.coeffs[_slot(j, self.free_indices)]

    @property
    def coeff_map(self) -> dict[int, int]:
        return dict(zip(self.free_indices, self.coeffs))


class CoprimeWheelForm(_Form):
    """Idempotent wheel form over arbitrary pairwise coprime moduli.

    The fields are the moduli and pinned_h1, checked when built; the
    period, the CRT idempotents (the coefficients) and the constant are
    derived on first read. With pinned_h1 set, the first modulus's
    idempotent is folded into the constant and the value set is the slice
    = h1 (mod moduli[0]); with pinned_h1 None the first residue stays free
    and the value set is every integer divisible by none of the moduli.
    """

    moduli: tuple[int, ...]
    pinned_h1: int | None

    def __post_init__(self) -> None:
        mods = tuple(int(q) for q in self.moduli)
        object.__setattr__(self, "moduli", mods)
        if not mods:
            raise ValueError("need at least one modulus")
        if any(q < 2 for q in mods):
            raise ValueError("every modulus must be at least 2")
        if math.lcm(*mods) != self.period:
            for i, j in combinations(range(len(mods)), 2):
                g = math.gcd(mods[i], mods[j])
                if g > 1:
                    raise ValueError(f"moduli {mods[i]} and {mods[j]} are not coprime (gcd {g})")
        h1 = self.pinned_h1
        if h1 is not None and not 1 <= h1 < mods[0]:
            raise ValueError(f"h1 must lie in 1..{mods[0] - 1}, got {h1}")

    @cached_property
    def period(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def free_indices(self) -> tuple[int, ...]:
        return tuple(range(1 if self.pinned_h1 is None else 2, len(self.moduli) + 1))

    @cached_property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._idempotent(self.moduli[j - 1]) for j in self.free_indices)

    @cached_property
    def constant(self) -> int:
        h1 = self.pinned_h1
        return 0 if h1 is None else self._idempotent(self.moduli[0]) * h1 % self.period

    def _idempotent(self, q: int) -> int:
        """The CRT idempotent of modulus q: 1 mod q, 0 mod the other moduli."""
        rest = self.period // q
        return rest * pow(rest, -1, q)

    def residue_classes(self) -> tuple[int, int, tuple[int, ...]]:
        """The value set as (h1, q1, struck): the x = h1 (mod q1) with x != 0
        (mod m) for every struck modulus m; h1, q1 are 0, 1 if nothing is pinned."""
        if self.pinned_h1 is None:
            return 0, 1, self.moduli
        return self.pinned_h1, self.moduli[0], self.moduli[1:]


class CanonicalWheelForm(CoprimeWheelForm):
    """The canonical form: the coprime wheel on the first r primes with h1 = 1.

    Each A_j is the unique value in (0, P) with A_j = 1 (mod p_j) and
    A_j = 0 (mod p_i) for i != j, and the pinned constant is forced to
    P/2; values of the form satisfy value = +h_j (mod p_j). The basis is
    the only parameter, and CoprimeWheelForm derives the rest. A canonical
    form never equals the coprime wheel with the same coefficients, so
    their JSON shapes and their equality stay apart.
    """

    def __init__(self, basis: PrimeBasis) -> None:
        object.__setattr__(self, "basis", basis)
        super().__init__(moduli=basis.primes, pinned_h1=1)

    def __post_init__(self) -> None:
        """Nothing to check: PrimeBasis has proved the moduli are the first r primes."""

    @property
    def period(self) -> int:
        return self.basis.primorial


def _slot(j: int, indices) -> int:
    """Position of variable index j among `indices`, a run of consecutive indices."""
    if j not in indices:
        span = f"{indices[0]}..{indices[-1]}" if indices else "none"
        raise ValueError(f"h{j} is not a variable of this form; its indices are {span}")
    return indices.index(j)


def build_canonical(basis: PrimeBasis) -> CanonicalWheelForm:
    """The canonical form for any r >= 1: A_j = (P/p_j) * ((P/p_j)^-1 mod p_j), C = P/2.

    For r = 1 there are no residue variables and the form is 2t + 1.
    """
    return CanonicalWheelForm(basis)


def build_coprime_wheel(moduli: Iterable[int], h1: int | None = None) -> CoprimeWheelForm:
    """Idempotent form whose values are the integers divisible by none of `moduli`.

    The moduli must be pairwise coprime and at least 2, but need not be
    prime. With h1 None the first residue stays free; passing h1 pins it,
    folding its idempotent into the constant so the value set becomes the
    slice = h1 (mod moduli[0]). On the first r primes with h1 = 1 this
    reproduces the canonical prime form coefficient for coefficient.
    """
    return CoprimeWheelForm(tuple(moduli), h1)
