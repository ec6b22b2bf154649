"""Linear wheel forms over prime (and pairwise coprime) moduli.

A form with period P carries one coefficient per residue variable plus a
constant, and its value at (t, h) is t*P + sum(A_j * h_j) + C. Two
constructions produce the same value set, which is exactly the integers
divisible by no basis modulus:

* the raw form, assembled from unit-equation solutions, whose values
  satisfy value = -h_j (mod p_j), and
* the coprime wheel, built from CRT idempotents, whose values satisfy
  value = +h_j (mod q_j). The canonical form is the coprime wheel on the
  first r primes with h1 = 1; its constant is then half the period.

Every form stores only its parameters and derives the rest once when
built: CoprimeWheelForm its idempotents and constant from its moduli and
pinned h1 (CanonicalWheelForm is a thin subclass that only adds its prime
basis), RawWheelForm its coefficients from its solutions. Coefficients
from outside are compared with the derived ones where they arrive, in
form_from_json and in canonicalize(). canonicalize() maps a raw form onto
the canonical one through the substitution h_j -> p_j - h_j, and the
result does not depend on which unit-equation solution the raw form was
built from. All form types are frozen records (_record.Record) and every
operation is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations, compress, islice
from typing import Iterable, Iterator, Mapping

from ._record import Record
from .diophantine import nth_solution, solve_unit
from .errors import check_budget

__all__ = [
    "PrimeBasis",
    "RawWheelForm",
    "CanonicalWheelForm",
    "CoprimeWheelForm",
    "build_raw",
    "build_canonical",
    "canonicalize",
    "evaluate",
    "evaluate_raw",
    "decompose",
    "build_coprime_wheel",
    "form_to_json",
    "form_from_json",
]


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
    check_budget(limit, None, "basis prime sieve", remedy)
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


class RawWheelForm(Record):
    """A wheel form as first assembled: coefficients B_j, constant -1.

    B_r = p_r*x'_r - 1 and, going down, B_j = (p_j*x'_j - 1) * prod(p_q*x'_q
    for q > j), where each x'_j is a stored solution of the unit equation
    p_j*x - (p_1*...*p_{j-1})*y = 1. Values satisfy value = -h_j (mod p_j).
    The fields are the basis and the solutions; construction checks each
    solution and derives `coeffs` (B_2..B_r) from them once, and the
    constant is -1 for every raw form.
    """

    basis: PrimeBasis
    solutions: tuple[tuple[int, int], ...]  # (x'_j, t'_j) for j = 2..r
    constant = -1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "solutions", tuple((int(x), int(y)) for x, y in self.solutions)
        )
        r = self.basis.r
        if r < 2:
            raise ValueError("raw forms need at least two basis primes")
        if len(self.solutions) != r - 1:
            raise ValueError("need one solution per index 2..r")
        primes = self.basis.primes
        lead = 1
        for j in range(2, r + 1):
            x, y = self.solutions[j - 2]
            lead *= primes[j - 2]
            if primes[j - 1] * x - lead * y != 1:
                raise ValueError(f"stored solution for index {j} fails its unit equation")
        object.__setattr__(self, "coeffs", _raw_coeffs(primes, (x for x, _ in self.solutions)))

    @property
    def period(self) -> int:
        return self.basis.primorial

    def coeff(self, j: int) -> int:
        """B_j for 2 <= j <= r."""
        return self.coeffs[_slot(j, range(2, self.basis.r + 1))]

    def representative(self, j: int) -> tuple[int, int]:
        """The stored (x'_j, t'_j) pair."""
        return self.solutions[_slot(j, range(2, self.basis.r + 1))]

    def residue_axes(self) -> tuple[tuple[int, int, int], ...]:
        """Refused: only an idempotent form has residue axes."""
        raise TypeError("a raw form is not idempotent; canonicalize it first or use evaluate_raw")


class CoprimeWheelForm(Record):
    """Idempotent wheel form over arbitrary pairwise coprime moduli.

    The fields are the moduli and pinned_h1; construction checks them and
    derives the free indices, the coefficients (the CRT idempotents) and
    the constant once. With pinned_h1 set, the idempotent of the first
    modulus is folded into the constant and the value set is the slice
    = h1 (mod moduli[0]); with pinned_h1 None the first residue stays a
    free variable and the value set is every integer divisible by none of
    the moduli.
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
        period = self.period
        if math.lcm(*mods) != period:
            for i, j in combinations(range(len(mods)), 2):
                g = math.gcd(mods[i], mods[j])
                if g > 1:
                    raise ValueError(f"moduli {mods[i]} and {mods[j]} are not coprime (gcd {g})")
        h1 = self.pinned_h1
        if h1 is not None and not 1 <= h1 < mods[0]:
            raise ValueError(f"h1 must lie in 1..{mods[0] - 1}, got {h1}")
        idems = _idempotents(mods)
        first = 1 if h1 is None else 2
        object.__setattr__(self, "free_indices", tuple(range(first, len(mods) + 1)))
        object.__setattr__(self, "coeffs", idems[first - 1 :])
        object.__setattr__(self, "constant", 0 if h1 is None else idems[0] * h1 % period)

    @cached_property
    def period(self) -> int:
        return math.prod(self.moduli)

    @property
    def divisors(self) -> tuple[int, ...]:
        return self.moduli

    def coeff(self, j: int) -> int:
        """The coefficient of h_j for a free index j."""
        return self.coeffs[_slot(j, self.free_indices)]

    @property
    def coeff_map(self) -> dict[int, int]:
        return dict(zip(self.free_indices, self.coeffs))

    def residue_axes(self) -> tuple[tuple[int, int, int], ...]:
        """(index, modulus, coefficient) per residue variable, ascending index."""
        return tuple(
            (j, self.moduli[j - 1], a) for j, a in zip(self.free_indices, self.coeffs)
        )


class CanonicalWheelForm(CoprimeWheelForm):
    """The canonical form: the coprime wheel on the first r primes with h1 = 1.

    Each A_j is the unique value in (0, P) with A_j = 1 (mod p_j) and
    A_j = 0 (mod p_i) for i != j, and the pinned constant is forced to
    P/2; values of the form satisfy value = +h_j (mod p_j). The basis is
    the only parameter, and CoprimeWheelForm derives the rest. A canonical
    form never equals the coprime wheel with the same coefficients, so
    their JSON shapes and cache keys stay apart.
    """

    def __init__(self, basis: PrimeBasis) -> None:
        object.__setattr__(self, "basis", basis)
        super().__init__(moduli=basis.primes, pinned_h1=1)

    @property
    def r(self) -> int:
        return self.basis.r


def _slot(j: int, indices) -> int:
    """Position of variable index j among `indices`, a run of consecutive indices."""
    if j not in indices:
        span = f"{indices[0]}..{indices[-1]}" if indices else "none"
        raise ValueError(f"h{j} is not a variable of this form; its indices are {span}")
    return indices.index(j)


def build_raw(basis: PrimeBasis, representatives: int | Mapping[int, int] = 0) -> RawWheelForm:
    """Assemble the raw form for a basis of r >= 3 primes.

    `representatives` picks which member of each unit-equation solution
    family to use: a single index applied everywhere, or a mapping
    index -> family member. The default 0 is the least-positive solution.
    Smaller bases have fixed closed forms; use build_canonical for those.
    """
    if basis.r < 3:
        raise ValueError("closed forms cover r < 3; use build_canonical")
    indices = range(2, basis.r + 1)
    if not isinstance(representatives, Mapping):
        representatives = dict.fromkeys(indices, representatives)
    solutions = tuple(nth_solution(solve_unit(j, basis), representatives.get(j, 0)) for j in indices)
    return RawWheelForm(basis=basis, solutions=solutions)


def _raw_coeffs(primes: tuple[int, ...], xs: Iterable[int]) -> tuple[int, ...]:
    """(B_2, ..., B_r) from x'_2..x'_r: B_j = (p_j*x'_j - 1) * prod(p_q*x'_q for q > j)."""
    coeffs = []
    tail = 1
    for p, x in reversed(tuple(zip(primes[1:], xs))):
        coeffs.append((p * x - 1) * tail)
        tail *= p * x
    return tuple(reversed(coeffs))


def build_canonical(basis: PrimeBasis) -> CanonicalWheelForm:
    """The canonical form for any r >= 1: A_j = (P/p_j) * ((P/p_j)^-1 mod p_j), C = P/2.

    For r = 1 there are no residue variables and the form is 2t + 1.
    """
    return CanonicalWheelForm(basis)


def _idempotents(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """The CRT idempotent of each modulus: 1 mod it, 0 mod the others."""
    period = math.prod(moduli)
    return tuple((period // q) * pow(period // q, -1, q) for q in moduli)


def canonicalize(raw: RawWheelForm) -> CanonicalWheelForm:
    """Reduce a raw form to the canonical one.

    The substitution h_j -> p_j - h_j turns value = -h_j into value = +h_j
    (mod p_j) and gives A_j = (-B_j) mod P and
    C = (sum(B_j * (p_j - 1)) - 1) mod P. Every choice of unit-equation
    representative lands on the same canonical form.
    """
    period = raw.period
    primes = raw.basis.primes
    coeffs = tuple((-b) % period for b in raw.coeffs)
    constant = (
        sum(b * (p - 1) for b, p in zip(raw.coeffs, primes[1:])) + raw.constant
    ) % period
    return _matching(CanonicalWheelForm(raw.basis), coeffs, constant)


def _matching(form: CoprimeWheelForm, coeffs: tuple[int, ...], constant: int) -> CoprimeWheelForm:
    """`form` if `coeffs` and `constant` are its own; otherwise refuse, naming
    the first bad coefficient (or the constant) and a modulus it fails."""
    period, mods, h1 = form.period, form.moduli, form.pinned_h1
    for j, a, want in zip(form.free_indices, coeffs, form.coeffs):
        if a != want:
            if not 0 < a < period:
                raise ValueError(f"coefficient for h{j} outside (0, {period})")
            # The idempotent is the one value in (0, P) that is 1 mod q_j and
            # 0 mod each other modulus, so some modulus tells them apart.
            bad = next(q for i, q in enumerate(mods, start=1) if a % q != (i == j))
            raise ValueError(f"coefficient for h{j} is not idempotent mod {bad}")
    if constant != form.constant:
        if h1 is None:
            raise ValueError("a fully free form has constant 0")
        if not 0 <= constant < period:
            raise ValueError("constant outside [0, period)")
        bad = next(q for i, q in enumerate(mods) if constant % q != (h1 % q if i == 0 else 0))
        raise ValueError(f"constant inconsistent with pinned residue mod {bad}")
    return form


def _check_assignment(axes, h: Mapping[int, int]) -> None:
    expected = tuple(j for j, _, _ in axes)
    if tuple(sorted(h)) != expected:
        raise ValueError(f"assignment must cover exactly indices {expected}")
    for j, modulus, _ in axes:
        if not 1 <= h[j] < modulus:
            raise ValueError(f"h{j} = {h[j]} outside 1..{modulus - 1}")


def evaluate(form, t: int, h: Mapping[int, int]) -> int:
    """Value of a canonical or coprime form at (t, h).

    `h` maps each free index j to a residue in 1..modulus_j - 1.
    """
    axes = form.residue_axes()
    _check_assignment(axes, h)
    return t * form.period + sum(a * h[j] for j, _, a in axes) + form.constant


def evaluate_raw(raw: RawWheelForm, t: int, h: Mapping[int, int]) -> int:
    """Value of a raw form at (t, h): t*P + sum(B_j * (h_j - 1)) - 1."""
    primes = raw.basis.primes
    axes = tuple(
        (j, primes[j - 1], b) for j, b in zip(range(2, raw.basis.r + 1), raw.coeffs)
    )
    _check_assignment(axes, h)
    return t * raw.period + sum(b * (h[j] - 1) for j, _, b in axes) + raw.constant


def decompose(form, z: int) -> tuple[int, dict[int, int]]:
    """Recover the unique (t, h) with evaluate(form, t, h) == z.

    Rejects z divisible by any basis modulus (naming the offender) and,
    for a pinned form, z outside the pinned residue slice; the canonical
    form pins h1 = 1, the odd integers.
    """
    axes = form.residue_axes()
    for q in form.divisors:
        if z % q == 0:
            raise ValueError(f"{z} is divisible by {q}, so it is not a value of this form")
    pinned = form.pinned_h1
    if pinned is not None and z % form.moduli[0] != pinned:
        raise ValueError(
            f"{z} = {z % form.moduli[0]} (mod {form.moduli[0]}) but the form pins h1 = {pinned}"
        )
    h = {j: z % modulus for j, modulus, _ in axes}
    body = z - form.constant - sum(a * h[j] for j, _, a in axes)
    t, rem = divmod(body, form.period)
    if rem:
        raise ValueError(
            f"{z} leaves remainder {rem} mod {form.period}, so the form is inconsistent"
        )
    return t, h


def build_coprime_wheel(moduli: Iterable[int], h1: int | None = None) -> CoprimeWheelForm:
    """Idempotent form whose values are the integers divisible by none of `moduli`.

    The moduli must be pairwise coprime and at least 2, but need not be
    prime. With h1 None the first residue stays free; passing h1 pins it,
    folding its idempotent into the constant so the value set becomes the
    slice = h1 (mod moduli[0]). On the first r primes with h1 = 1 this
    reproduces the canonical prime form coefficient for coefficient.
    """
    return CoprimeWheelForm(tuple(moduli), h1)


def form_to_json(form) -> dict:
    """Stable JSON shape for any form type; integers as decimal strings."""
    # A canonical form is also a CoprimeWheelForm, so it is matched first.
    if isinstance(form, CanonicalWheelForm):
        return {
            "r": form.r,
            "primorial": str(form.period),
            "coeffs": {str(j): str(a) for j, a in form.coeff_map.items()},
            "constant": str(form.constant),
            "convention": "plus-h",
        }
    if isinstance(form, RawWheelForm):
        return {
            "r": form.basis.r,
            "primorial": str(form.period),
            "coeffs": {
                str(j): str(b)
                for j, b in zip(range(2, form.basis.r + 1), form.coeffs)
            },
            "constant": str(form.constant),
            "convention": "minus-h",
            "representatives": {
                str(j): [str(x), str(y)]
                for j, (x, y) in zip(range(2, form.basis.r + 1), form.solutions)
            },
        }
    if isinstance(form, CoprimeWheelForm):
        return {
            "moduli": [str(q) for q in form.moduli],
            "period": str(form.period),
            "coeffs": {str(j): str(a) for j, a in form.coeff_map.items()},
            "constant": str(form.constant),
            "pinned_h1": form.pinned_h1,
            "convention": "plus-h",
        }
    raise TypeError(f"not a wheel form: {type(form).__name__}")


def form_from_json(data: Mapping) -> RawWheelForm | CanonicalWheelForm | CoprimeWheelForm:
    """Inverse of form_to_json; reconstruction re-runs all construction checks.

    Each form is rebuilt from its parameters (moduli and pinned h1, r, or
    the raw solutions), and the blob's coefficients and constant must equal
    the derived ones. A blob with a key missing raises ValueError naming
    it, as a tampered value does.
    """
    try:
        if "moduli" in data:
            pinned = data.get("pinned_h1")
            form = CoprimeWheelForm(tuple(data["moduli"]), None if pinned is None else int(pinned))
            coeffs = tuple(int(data["coeffs"][str(j)]) for j in form.free_indices)
            return _matching(form, coeffs, int(data["constant"]))
        basis = PrimeBasis.first(int(data["r"]))
        indices = range(2, basis.r + 1)
        coeffs = tuple(int(data["coeffs"][str(j)]) for j in indices)
        if data.get("convention") == "minus-h":
            raw = RawWheelForm(basis, tuple(data["representatives"][str(j)] for j in indices))
            if int(data["constant"]) != raw.constant:
                raise ValueError("raw forms carry the constant -1")
            bad = [j for j, b, want in zip(indices, coeffs, raw.coeffs) if b != want]
            if bad:
                raise ValueError(f"coefficient for index {bad[-1]} inconsistent with solutions")
            return raw
        return _matching(CanonicalWheelForm(basis), coeffs, int(data["constant"]))
    except KeyError as err:
        raise ValueError(f"form JSON is missing the key {err.args[0]!r}") from None
