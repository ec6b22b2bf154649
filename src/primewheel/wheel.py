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

Every form stores only its parameters and answers the same questions:
free_indices, coeffs, coeff(j), coeff_map, period and constant.
CoprimeWheelForm states its value set as residue classes and derives its
period, idempotents and constant on first read (CanonicalWheelForm adds
its prime basis, which has proved the moduli coprime and holds the
period); RawWheelForm derives its coefficients when built.
Coefficients from outside are compared with the derived ones where they
arrive, in form_from_json and in canonicalize(). canonicalize() maps a
raw form onto the canonical one through the substitution
h_j -> p_j - h_j, and the result does not depend on which unit-equation
solution the raw form was built from. All form types are frozen records
(_record.Record) and every operation is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress, islice, repeat
from operator import floordiv, mod, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import Record
from .diophantine import nth_solution, solve_unit
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
    has no fields; RawWheelForm and CoprimeWheelForm supply both."""

    def coeff(self, j: int) -> int:
        """The coefficient of h_j for a free index j."""
        return self.coeffs[_slot(j, self.free_indices)]

    @property
    def coeff_map(self) -> dict[int, int]:
        return dict(zip(self.free_indices, self.coeffs))


class RawWheelForm(_Form):
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
        for j, (x, y) in zip(self.free_indices, self.solutions):
            lead *= primes[j - 2]
            if primes[j - 1] * x - lead * y != 1:
                raise ValueError(f"stored solution for index {j} fails its unit equation")
        object.__setattr__(self, "coeffs", _raw_coeffs(primes, (x for x, _ in self.solutions)))

    @property
    def period(self) -> int:
        return self.basis.primorial

    @cached_property
    def free_indices(self) -> tuple[int, ...]:
        return tuple(range(2, self.basis.r + 1))

    def representative(self, j: int) -> tuple[int, int]:
        """The stored (x'_j, t'_j) pair."""
        return self.solutions[_slot(j, self.free_indices)]

    def residue_axes(self) -> tuple[tuple[int, int, int], ...]:
        """Refused: only an idempotent form has residue axes."""
        raise TypeError("a raw form is not idempotent; canonicalize it first or use evaluate_raw")

    residue_classes = residue_axes


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

    def residue_axes(self) -> tuple[tuple[int, int, int], ...]:
        """(index, modulus, coefficient) per residue variable, ascending index."""
        return tuple(zip(self.free_indices, self.residue_classes()[2], self.coeffs))

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
    def r(self) -> int:
        return self.basis.r

    @property
    def period(self) -> int:
        return self.basis.primorial


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
    _check_raw_basis(basis)
    indices = range(2, basis.r + 1)
    if not isinstance(representatives, Mapping):
        representatives = dict.fromkeys(indices, representatives)
    solutions = tuple(nth_solution(solve_unit(j, basis), representatives.get(j, 0)) for j in indices)
    return RawWheelForm(basis=basis, solutions=solutions)


def _check_raw_basis(basis: PrimeBasis) -> None:
    if basis.r < 3:
        raise ValueError("closed forms cover r < 3; use build_canonical")


def coeff_bits_bound(basis: PrimeBasis, raw: bool) -> int:
    """An upper bound on sum(a.bit_length() for a in form.coeffs), in O(r)
    and before the period or any coefficient is built.

    S_q = bits(p_1) + ... + bits(p_q) is at least bits(p_1*...*p_q). A
    canonical A_j is below P, so the r - 1 of them hold at most (r - 1)*S_r
    bits. A raw B_j is below the product of p_q*x'_q over q >= j, where the
    least x'_q is below p_1*...*p_{q-1}, so bits(B_j) <= S_j + ... + S_r and
    the raw total is at most the sum of (q - 1)*S_q over q = 2..r. A raw
    basis of r < 3 is refused first, as build_raw refuses it.
    """
    sums = list(accumulate(p.bit_length() for p in basis))
    if not raw:
        return (basis.r - 1) * sums[-1]
    _check_raw_basis(basis)
    return sum(q * s for q, s in enumerate(sums[1:], 1))


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
    axes = tuple(zip(raw.free_indices, raw.basis.primes[1:], raw.coeffs))
    _check_assignment(axes, h)
    return t * raw.period + sum(b * (h[j] - 1) for j, _, b in axes) + raw.constant


def decompose(form, z: int) -> tuple[int, dict[int, int]]:
    """Recover the unique (t, h) with evaluate(form, t, h) == z.

    The one-value case of decompose_rows, which makes every check and
    names the offender.
    """
    (t,), columns = decompose_rows(form, (z,))
    return t, {j: h for (j, _, _), (h,) in zip(form.residue_axes(), columns)}


def decompose_rows(form, zs: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """decompose for every z of zs, column by column: (ts, h_columns).

    h_columns holds one column per residue variable, by ascending index;
    row i of the columns is the (t, h) of zs[i]. Each column is one map
    over the chunk, so the cost per value is a few C-level operations per
    axis, not a Python call. Rejects z divisible by any basis modulus
    (naming the offender) and, for a pinned form, z outside the pinned
    residue slice; the canonical form pins h1 = 1, the odd integers. A
    z that fails a check raises decompose's message for the first such z
    in the order of zs. Each h_j is z mod q_j, so once z is in the pinned
    slice its body z - C - sum(A_j * h_j) is 0 mod every modulus of any
    constructed form, and t is the body's exact quotient by the period.
    """
    axes = form.residue_axes()
    columns = [list(map(mod, zs, repeat(q))) for _, q, _ in axes]
    body = list(map(sub, zs, repeat(form.constant)))
    for (_, _, a), h in zip(axes, columns):
        body = list(map(sub, body, map(mul, repeat(a), h)))
    ts = list(map(floordiv, body, repeat(form.period)))
    h1, q1, _ = form.residue_classes()
    pins = list(map(mod, zs, repeat(q1)))
    if pins.count(h1) < len(pins) or any(0 in h for h in columns):
        for z in zs:
            _refuse(form, z)
    return ts, columns


def _refuse(form, z: int) -> None:
    """Raise decompose's message for z if it fails a check: the first
    dividing modulus, then the pinned residue."""
    for q in form.moduli:
        if z % q == 0:
            raise ValueError(f"{z} is divisible by {q}, so it is not a value of this form")
    h1, q1, _ = form.residue_classes()
    if z % q1 != h1:
        raise ValueError(f"{z} = {z % q1} (mod {q1}) but the form pins h1 = {h1}")


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
    if not isinstance(form, _Form):
        raise TypeError(f"not a wheel form: {type(form).__name__}")
    coeffs = {str(j): str(a) for j, a in form.coeff_map.items()}
    if not isinstance(form, (RawWheelForm, CanonicalWheelForm)):
        return {
            "moduli": [str(q) for q in form.moduli],
            "period": str(form.period),
            "coeffs": coeffs,
            "constant": str(form.constant),
            "pinned_h1": form.pinned_h1,
            "convention": "plus-h",
        }
    raw = isinstance(form, RawWheelForm)
    data = {
        "r": form.basis.r,
        "primorial": str(form.period),
        "coeffs": coeffs,
        "constant": str(form.constant),
        "convention": "minus-h" if raw else "plus-h",
    }
    if raw:
        data["representatives"] = {
            str(j): [str(x), str(y)] for j, (x, y) in zip(form.free_indices, form.solutions)
        }
    return data


def form_from_json(data: Mapping) -> RawWheelForm | CanonicalWheelForm | CoprimeWheelForm:
    """Inverse of form_to_json; reconstruction re-runs all construction checks.

    Each form is rebuilt from its parameters (moduli and pinned h1, r, or
    the raw solutions), and the blob's coefficients and constant must equal
    the derived ones, as must its period (or primorial) and convention
    where it gives them. A blob with a key missing raises ValueError
    naming it, as a tampered value does.
    """
    try:
        if "moduli" in data:
            pinned = data.get("pinned_h1")
            form = CoprimeWheelForm(tuple(data["moduli"]), None if pinned is None else int(pinned))
        else:
            form = CanonicalWheelForm(PrimeBasis.first(int(data["r"])))
            if data.get("convention") == "minus-h":
                # A raw form has the canonical form's variables, h2..hr.
                solutions = tuple(data["representatives"][str(j)] for j in form.free_indices)
                form = RawWheelForm(form.basis, solutions)
        coeffs = tuple(int(data["coeffs"][str(j)]) for j in form.free_indices)
        constant = int(data["constant"])
    except KeyError as err:
        raise ValueError(f"form JSON is missing the key {err.args[0]!r}") from None
    raw = isinstance(form, RawWheelForm)
    if raw:
        if constant != form.constant:
            raise ValueError("raw forms carry the constant -1")
        for j, b, want in zip(form.free_indices, coeffs, form.coeffs):
            if b != want:
                raise ValueError(f"coefficient for index {j} inconsistent with solutions")
    else:
        _matching(form, coeffs, constant)
    key = "period" if "moduli" in data else "primorial"
    if key in data and int(data[key]) != form.period:
        raise ValueError(f"{key} differs from the period of the form its parameters give")
    convention = "minus-h" if raw else "plus-h"
    if data.get("convention", convention) != convention:
        raise ValueError(f"convention {data['convention']!r} is not this form's {convention!r}")
    return form
