"""The raw wheel form, and the readers that take any form apart.

The raw form is assembled from unit-equation solutions, and its values
satisfy value = -h_j (mod p_j); it derives its coefficients when built.
canonicalize() maps it onto the canonical form of wheel.py through the
substitution h_j -> p_j - h_j, and the result does not depend on which
unit-equation solution the raw form was built from. evaluate,
evaluate_raw, decompose and decompose_rows go between (t, h) and a
value, and form_to_json and form_from_json give every form type one
stable JSON shape. Coefficients from outside are compared with the
derived ones where they arrive, in form_from_json and in canonicalize().

These live apart from wheel.py so that a process which only streams,
counts or checks a claim window neither compiles them nor loads the
unit-equation solver. Every operation is pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import accumulate, repeat
from operator import floordiv, mod, mul, sub

from .diophantine import nth_solution, solve_unit
from .wheel import CanonicalWheelForm, CoprimeWheelForm, PrimeBasis, _Form


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

    def residue_classes(self) -> tuple[int, int, tuple[int, ...]]:
        """Refused: only an idempotent form states its value set as residue classes."""
        raise TypeError("a raw form is not idempotent; canonicalize it first or use evaluate_raw")


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


def _check_assignment(indices: tuple[int, ...], moduli: Sequence[int], h: Mapping[int, int]) -> None:
    if tuple(sorted(h)) != indices:
        raise ValueError(f"assignment must cover exactly indices {indices}")
    for j, modulus in zip(indices, moduli):
        if not 1 <= h[j] < modulus:
            raise ValueError(f"h{j} = {h[j]} outside 1..{modulus - 1}")


def evaluate(form, t: int, h: Mapping[int, int]) -> int:
    """Value of a canonical or coprime form at (t, h).

    `h` maps each free index j to a residue in 1..modulus_j - 1.
    """
    _check_assignment(form.free_indices, form.residue_classes()[2], h)
    return t * form.period + sum(a * h[j] for j, a in form.coeff_map.items()) + form.constant


def evaluate_raw(raw: RawWheelForm, t: int, h: Mapping[int, int]) -> int:
    """Value of a raw form at (t, h): t*P + sum(B_j * (h_j - 1)) - 1."""
    _check_assignment(raw.free_indices, raw.basis.primes[1:], h)
    return t * raw.period + sum(b * (h[j] - 1) for j, b in raw.coeff_map.items()) + raw.constant


def decompose(form, z: int) -> tuple[int, dict[int, int]]:
    """Recover the unique (t, h) with evaluate(form, t, h) == z.

    The one-value case of decompose_rows, which makes every check and
    names the offender.
    """
    (t,), columns = decompose_rows(form, (z,))
    return t, {j: h for j, (h,) in zip(form.free_indices, columns)}


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
    h1, q1, struck = form.residue_classes()
    columns = [list(map(mod, zs, repeat(q))) for q in struck]
    body = list(map(sub, zs, repeat(form.constant)))
    for a, h in zip(form.coeffs, columns):
        body = list(map(sub, body, map(mul, repeat(a), h)))
    ts = list(map(floordiv, body, repeat(form.period)))
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
