"""Verification of the interval, counting and coefficient claims.

Each checker scans honestly against the oracle module and returns a
VerificationReport; nothing here is allowed to assume the claim it is
checking. Claims are addressed by short stable ids (theorem1, corollary2,
identity25, identity26) which also name the CLI verify subcommands.
Modules that only one claim needs are imported when it runs: forms (the
raw form) by check_identity26, diophantine (the unit-equation solver) by
search_identity25 and fractions by pi_approx, so the window claims
compile none of them.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

from . import oracle
from ._record import Record
from .enumeration import IntervalSpec, value_segments
from .errors import DEFAULT_SCAN_BUDGET, SCAN_BUDGET_ENV, BudgetExceeded, check_budget
from .wheel import PrimeBasis, _prime_bound, build_canonical

COUNTEREXAMPLE_CAP = 10
# The largest identity25 grid, by the lower bound on its bits, that a refusal builds to
# give its exact size: (bound + 1)^(r - 2) at a million bits takes about 0.04 s.
GRID_BUILD_BITS = 1 << 20
# bytes.translate table that maps an Omega byte to 1 for a prime, Omega = 1, else to 0.
_ONE = b"\x00\x01" + bytes(254)
# bytes.translate table that maps a copy count to 1 when it is not 0.
_SOME = b"\x00" + b"\x01" * 255


class Counterexample(Record):
    value: int
    reason: str


class VerificationReport(Record):
    """Outcome of one claim check.

    verdict is "pass", "fail", or, for bounded searches that found no
    witness, "not-found-within-bound". counterexamples holds at most
    COUNTEREXAMPLE_CAP entries per failing subcheck; details carries
    per-subcheck results and search statistics as JSON-ready data.
    """

    claim: str
    verdict: str
    checked: int
    witnesses_pass: int
    interval: IntervalSpec | None = None
    counterexamples: tuple[Counterexample, ...] = ()
    details: dict | None = None

    def __post_init__(self) -> None:
        if self.details is None:
            object.__setattr__(self, "details", {})

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "checked": self.checked,
            "witnesses_pass": self.witnesses_pass,
            "interval": None
            if self.interval is None
            else {"lo": str(self.interval.lo), "hi": str(self.interval.hi)},
            "counterexamples": [
                {"value": str(c.value), "reason": c.reason} for c in self.counterexamples
            ],
            "details": self.details,
        }


def _primes_after(basis: PrimeBasis, s: int, budget: int | None = None) -> list[int]:
    """p_{r+1}..p_{r+s}, from one oracle sieve up to _prime_bound(r + s), whose
    hi is checked against the scan budget first."""
    hi = _prime_bound(basis.r + s)
    return oracle.primes_in(IntervalSpec(basis.primes[-1] + 1, hi), budget)[:s]


def check_claim_args(
    claim: str, r: int, s: int = 1, n: int = 1, e: int = 2, bound: int = 0
) -> None:
    """Refuse the arguments a claim reads that need no basis, with the
    message its checker gives, before any work: r for both identities,
    bound for identity25, e for identity26, the shift s (corollary2 only)
    and the exponent n for the window claims."""
    if claim in ("identity25", "identity26"):
        if r < 3:
            raise ValueError("the identity needs r >= 3")
        if claim == "identity25" and bound < 0:
            raise ValueError("bound must be non-negative")
        if claim == "identity26" and not 2 <= e <= r - 1:
            raise ValueError(f"e must satisfy 2 <= e <= r - 1 = {r - 1}, got {e}")
    else:
        if claim == "corollary2" and s < 1:
            raise ValueError("s must be at least 1")
        if n < 1:
            raise ValueError(
                "n must be at least 1" if claim == "theorem1" else "r, s and n must be at least 1"
            )


def theorem1_interval(basis: PrimeBasis, n: int, budget: int | None = None) -> IntervalSpec:
    """The window [p^n, p^(n+1)), p = p_{r+1} from the oracle sieve, whose hi
    alone is checked against the budget; the bits are checked by _claim_window."""
    check_claim_args("theorem1", basis.r, n=n)
    return _claim_window(basis, n, budget, 1)[1]


def _claim_window(basis: PrimeBasis, n: int, budget: int | None, s: int) -> tuple[int, IntervalSpec]:
    """p_{r+1} and [p^n, p^(n+1)), p = p_{r+s} (s > 1 for corollary2), from one sieve; the caller
    has checked n. As p is odd and p_k >= 2k - 1, p^(n+1) - 1 has at least (n + 1) * (bits(2(r + s)
    - 1) - 1) + 1 bits: the bit cap checks that before p is sieved, and the sieve the exact bits."""
    oracle.check_bits((n + 1) * ((2 * (basis.r + s) - 1).bit_length() - 1) + 1)
    primes = _primes_after(basis, s, budget)
    low = primes[-1] ** n
    return primes[0], IntervalSpec(low, low * primes[-1])


def _differ(missing: list, extra: list, seg: range, want, got) -> None:
    """Add seg's integers flagged in the 0/1 byte mask want but not in got to `missing`, and got's
    but not want's to `extra`, up to the cap: its segment's smallest faults, above earlier ones."""
    want, got = int.from_bytes(want, "little"), int.from_bytes(got, "little")
    for faults, mask in ((missing, want & ~got), (extra, got & ~want)):
        if mask:
            flagged = itertools.compress(seg, mask.to_bytes(len(seg), "little"))
            faults += itertools.islice(flagged, COUNTEREXAMPLE_CAP - len(faults))


def _check_segment(faults: tuple, n: int, outside: bytes, seg: range, flags, omegas, got) -> None:
    """Add a segment's faults to the fault lists but disorder and repeated, each up to the cap.
    flags and omegas are its sieve_segments bytes, got the 0/1 mask of its enumerated integers
    (flags itself skips the set equality), and outside maps an Omega byte off 1..n to 1."""
    missing, extra, _, omega_bad, pe_missing, pe_extra, _ = faults
    if got is not flags:
        _differ(missing, extra, seg, flags, got)
    bad = int.from_bytes(omegas.translate(outside), "little") & int.from_bytes(got, "little")
    if bad and len(omega_bad) < COUNTEREXAMPLE_CAP:
        values = itertools.compress(seg, bad.to_bytes(len(seg), "little"))
        hits = ((v, omegas[v - seg.start]) for v in values)
        omega_bad += itertools.islice(hits, COUNTEREXAMPLE_CAP - len(omega_bad))
    if n == 1:
        _differ(pe_missing, pe_extra, seg, omegas.translate(_ONE), got)


def _interval_report(
    claim: str,
    basis: PrimeBasis,
    interval: IntervalSpec,
    n: int,
    gate_all: bool,
    budget: int | None,
    extra_details: dict,
) -> VerificationReport:
    """Run the three interval subchecks and assemble a report.

    (a) wheel enumeration equals the oracle's divisibility scan, each value once;
    (b) every enumerated value has between 1 and n prime factors;
    (c) for n = 1, the enumeration is exactly the primes in the window.
    With gate_all False only (a) decides the verdict and (b)/(c) are
    reported informationally.

    A correct enumeration is the scan, in order. So the report lays the masks of the wheel's
    value_segments pieces, cut at segment ends, on a zeroed map of each oracle.sieve_segments
    segment: the map must equal the segment's coprime flags, and no piece may be left after the
    last segment, as one below lo or the previous piece's end (a repeat or a step back) or past
    hi is. _check_segment, given the flags as what was enumerated, then finds the segment's
    faults. So a stream equal to the scan is walked once, in segment-sized memory and with no
    int per value; one that left it is counted by _recount, which gives _check_segment the
    enumerated mask. Each fault list holds its smallest values, each once, but out_of_order, in
    enumeration order. The sieve's bits and budget are checked before the form, as its iterator
    is built.
    """
    segments = oracle.sieve_segments(interval, basis.primes, budget)
    form = build_canonical(basis)
    outside = bytes(0 if 1 <= om <= n else 1 for om in range(256))  # Omega off 1..n
    # Each fault list that is not empty fails its subcheck; omega_bad holds (value, Omega) pairs,
    # disorder window values enumerated after a larger one, pe_* the n = 1 prime equality's, and
    # repeated window values enumerated more than once.
    faults = tuple([] for _ in range(7))
    missing, extra, disorder, omega_bad, pe_missing, pe_extra, repeated = faults
    checked, clean, top = 0, False, interval.lo
    pieces = value_segments(form, interval)
    piece = next(pieces, None)  # None, not an empty range, ends the pieces
    for seg, flags, omegas in segments:
        got = bytearray(len(seg))
        while piece is not None and top <= piece[0].start < seg.stop:
            candidates, mask = piece
            part = range(candidates.start, min(candidates.stop, seg.stop), candidates.step)
            got[part.start - seg.start : part.stop - seg.start : part.step] = mask[: len(part)]
            if part != candidates:  # the rest lies in the next segments
                piece = candidates[len(part) :], memoryview(mask)[len(part) :]
            else:
                top, piece = candidates.stop, next(pieces, None)
        if got != flags:
            break
        checked += flags.count(1)
        _check_segment(faults, n, outside, seg, flags, omegas, flags)
    else:
        clean = piece is None

    copies_of = lambda v: v not in pe_missing  # the scan: each value once, a prime it lacks never
    if not clean:
        checked, copies_of, faults = _recount(form, basis, interval, n, budget, outside)
        missing, extra, disorder, omega_bad, pe_missing, pe_extra, repeated = faults

    details = dict(extra_details)
    found = [(m, "in the oracle scan but never enumerated") for m in missing]
    found += [(m, "enumerated but rejected by the oracle scan") for m in extra]
    found += [(m, "enumerated after a larger value") for m in disorder]
    found += [(m, "enumerated more than once") for m in repeated]
    details["set_equality"] = {
        "pass": not found,
        "missing": [str(m) for m in missing],
        "extra": [str(m) for m in extra],
    }
    if disorder:
        details["set_equality"]["out_of_order"] = [str(m) for m in disorder]
    if repeated:
        details["set_equality"]["repeated"] = [str(m) for m in repeated]

    details["omega_bound"] = {
        "pass": not omega_bad,
        "n": n,
        "violations": [{"value": str(m), "omega": om} for m, om in omega_bad],
    }
    if gate_all:
        found += [(m, f"has {om} prime factors, outside 1..{n}") for m, om in omega_bad]

    if n == 1:
        details["prime_equality"] = {
            "pass": not pe_missing and not pe_extra,
            "missing": [str(m) for m in pe_missing],
            "extra": [str(m) for m in pe_extra],
        }
        if gate_all:
            found += [(m, "prime in the window but never enumerated") for m in pe_missing]
            found += [(m, "enumerated in the n = 1 window but not prime") for m in pe_extra]

    named = (m for m, _ in itertools.groupby(sorted(m for m, _ in found)))  # each value once
    witnesses_pass = checked - sum(map(copies_of, named))
    return VerificationReport(
        claim=claim,
        verdict="pass" if not found and checked > 0 else "fail",
        checked=checked,
        witnesses_pass=witnesses_pass,
        interval=interval,
        counterexamples=tuple(itertools.starmap(Counterexample, found)),
        details=details,
    )


def _recount(form, basis: PrimeBasis, interval: IntervalSpec, n: int, budget, outside) -> tuple:
    """Walk the pieces of a stream that left the scan again, keeping one byte per window integer
    (its copies, past 255 in a Counter), disorder and a count per value off the window, then check
    each segment of one oracle.sieve_segments walk against the copies. oracle.omega factors values
    off the window in ascending order, below lo first, up to the cap; a window value with two or
    more copies is repeated. Returns checked, copies_of and the seven fault lists."""
    lo, hi, cap = interval.lo, interval.hi, COUNTEREXAMPLE_CAP
    faults = tuple([] for _ in range(7))
    missing, extra, disorder, omega_bad, pe_missing, pe_extra, repeated = faults
    copies, more, off, top = bytearray(hi - lo), Counter(), Counter(), lo
    pieces = value_segments(form, interval)
    for v in itertools.chain.from_iterable(itertools.starmap(itertools.compress, pieces)):
        if lo <= v < hi:
            try:
                copies[v - lo] += 1
            except ValueError:  # the byte holds 255 copies
                more[v] += 1
            if v >= top:
                top = v
            elif len(disorder) < cap and v not in disorder:
                disorder.append(v)
        else:
            off[v] += 1
    hits = lambda vs: ((v, om) for v in sorted(vs) for om in [oracle.omega(v)] if not 1 <= om <= n)
    omega_bad += itertools.islice(hits(v for v in off if v < lo), cap)
    twice = re.finditer(rb"[^\x00\x01]", copies)  # window values with two copies or more
    repeated += (lo + m.start() for m in itertools.islice(twice, cap))
    for seg, flags, omegas in oracle.sieve_segments(interval, basis.primes, budget):
        got = copies[seg.start - lo : seg.stop - lo].translate(_SOME)
        _check_segment(faults, n, outside, seg, flags, omegas, got)
    omega_bad += itertools.islice(hits(v for v in off if v >= hi), cap - len(omega_bad))
    # Every value off the window is extra for both the scan and the primes.
    extra, pe_extra = sorted([*extra, *off])[:cap], sorted([*pe_extra, *off])[:cap]
    checked = sum(copies) + more.total() + off.total()
    copies_of = lambda v: copies[v - lo] + more[v] if lo <= v < hi else off[v]
    return checked, copies_of, (missing, extra, disorder, omega_bad, pe_missing, pe_extra, repeated)


def verify_theorem1(basis: PrimeBasis, n: int, budget: int | None = None) -> VerificationReport:
    """Check the window claim: in [p_{r+1}^n, p_{r+1}^(n+1)) the wheel
    enumerates exactly the integers whose smallest prime factor exceeds
    p_r, each with 1..n prime factors; for n = 1 those are the primes."""
    interval = theorem1_interval(basis, n, budget)
    return _interval_report(
        claim=f"theorem1[r={basis.r},n={n}]",
        basis=basis,
        interval=interval,
        n=n,
        gate_all=True,
        budget=budget,
        extra_details={},
    )


def bertrand_condition(r: int, s: int, n: int, budget: int | None = None) -> bool:
    """Exact test of p_{r+1} > 2^((n+1)(s-1)): p > 2^e when p - 1 has over e bits."""
    if r < 1 or s < 1 or n < 1:
        raise ValueError("r, s and n must be at least 1")
    (p,) = _primes_after(PrimeBasis.first(r), 1, budget)
    return _bertrand(p, s, n)


def _bertrand(p: int, s: int, n: int) -> bool:
    """bertrand_condition for p = p_{r+1}."""
    return (p - 1).bit_length() > (n + 1) * (s - 1)


def verify_corollary2(
    basis: PrimeBasis, s: int, n: int, budget: int | None = None
) -> VerificationReport:
    """Run the window subchecks over the shifted window [p_{r+s}^n, p_{r+s}^(n+1)).

    Only the oracle set equality gates the verdict; the factor-count bound
    and the n = 1 prime equality are reported informationally, since for
    s >= 2 the window legitimately contains values with more than n
    factors (all of them composites of primes above p_r). When the
    side condition on p_{r+1} fails the scan still runs, labeled
    informational.
    """
    check_claim_args("corollary2", basis.r, s=s, n=n)
    p, interval = _claim_window(basis, n, budget, s)
    condition = _bertrand(p, s, n)
    extra = {"condition_met": condition}
    if not condition:
        extra["informational"] = True
    return _interval_report(
        claim=f"corollary2[r={basis.r},s={s},n={n}]",
        basis=basis,
        interval=interval,
        n=n,
        gate_all=False,
        budget=budget,
        extra_details=extra,
    )


def pi_approx(basis: PrimeBasis, budget: int | None = None) -> Fraction:
    """Density-based estimate of the prime count below p_{r+1}^2, as an exact rational:
    r + p_{r+1}^2 * (prod(p_l - 1) - 1) / prod(p_l)."""
    (p,) = _primes_after(basis, 1, budget)
    return _density_estimate(basis, p)


def _density_estimate(basis: PrimeBasis, p: int) -> Fraction:
    """pi_approx for p = p_{r+1}."""
    from fractions import Fraction  # loaded here, so no other claim pays for it

    phi = math.prod(q - 1 for q in basis.primes)
    return basis.r + Fraction(p * p * (phi - 1), basis.primorial)


def compare_pi(basis: PrimeBasis, budget: int | None = None) -> tuple[Fraction, int, Fraction]:
    """(approx, exact, rel_error) with exact = sieve count of primes in [1, p_{r+1}^2)
    and rel_error = |approx - exact| / exact. The sieve's budget is checked
    before the density formula takes its products over the basis."""
    (p,) = _primes_after(basis, 1, budget)
    exact = oracle.prime_count(IntervalSpec(1, p * p), budget)
    approx = _density_estimate(basis, p)
    return approx, exact, abs(approx - exact) / exact


def check_identity26(
    basis: PrimeBasis, e: int, representative: int = 0, budget: int | None = None
) -> VerificationReport:
    """Check, modulo the period, that the canonical coefficient A_e (the CRT
    idempotent for p_e) equals -B_e, the raw coefficient
    -(p_e*x'_e - 1) * prod(p_q*x'_q for q > e) built from the chosen
    unit-equation representative. Both sides come from their own builders;
    neither goes through canonicalize, which assumes this congruence. The
    two sides differ as integers; only the congruence is claimed.

    Both whole forms are built, so their bits are checked first: each form's
    coeff_bits_bound, plus bits(|k| + 1) for each of the r*(r - 1)/2 factors
    p_q*x'_q (q >= j) of the B_j, as x'_q = base + k*M with 0 < base < M =
    p_1*...*p_{q-1}, and a bit per B_j for its -1 (x'_j != 0, so
    |p_j*x'_j - 1| <= 2*|p_j*x'_j|).
    """
    from .forms import build_raw, coeff_bits_bound  # here, so no other claim compiles them

    r = basis.r
    check_claim_args("identity26", r, e=e)
    bits = coeff_bits_bound(basis, False) + coeff_bits_bound(basis, True) + r - 1
    bits += r * (r - 1) // 2 * (abs(representative) + 1).bit_length()
    check_budget(bits, budget, "coefficient bits")
    period = basis.primorial
    lhs = build_canonical(basis).coeff(e)
    rhs = -build_raw(basis, representative).coeff(e)
    lhs_residue, rhs_residue = lhs % period, rhs % period
    ok = lhs_residue == rhs_residue
    details = {
        "lhs": str(lhs),
        "rhs": str(rhs),
        "modulus": str(period),
        "lhs_residue": str(lhs_residue),
        "rhs_residue": str(rhs_residue),
    }
    reason = "lhs residue {lhs_residue} != rhs residue {rhs_residue} (mod {modulus})"
    return VerificationReport(
        claim=f"identity26[r={r},e={e},k={representative}]",
        verdict="pass" if ok else "fail",
        checked=1,
        witnesses_pass=1 if ok else 0,
        counterexamples=() if ok else (Counterexample(lhs_residue, reason.format_map(details)),),
        details=details,
    )


def search_identity25(
    basis: PrimeBasis, bound: int, budget: int | None = None
) -> VerificationReport:
    """Decide the product identity (2s - 1) * prod(p_i, i = 2..r-1) = x'_r * S
    over the grid of representative indices 0..bound for x'_2..x'_r and
    |s| <= bound, where S is the raw coefficient sum built from
    x'_2..x'_{r-1}, which telescopes to prod(p_i*x'_i, i = 2..r-1) - 1.

    No grid holds a witness, whatever the bound, and one prime certifies it
    without a walk. The modulus p_2*...*p_{r-1} has the factor 3. S + 1 has
    the factor 3*x'_2 for every representative, so S = -1 (mod 3). And
    p_r*x'_r = 1 (mod p_1*...*p_{r-1}) keeps 3 from dividing x'_r; its
    representatives differ by multiples of 6, so one residue covers every
    k_r. So 3 divides no x'_r * S, and neither does the modulus.

    The residue of x'_r is read from solve_unit, so a faulty solver fails
    the claim. checked counts the (bound + 1)^(r - 1) combinations the
    certificate covers; the (bound + 1)^(r - 2) grid rows are checked
    against the scan budget first. They have at least low = (r - 2) *
    (bits(bound + 1) - 1) + 1 bits, so low past the budget's bits refuses
    them, unbuilt when low is past GRID_BUILD_BITS too.
    """
    r = basis.r
    check_claim_args("identity25", r, bound=bound)
    low = (r - 2) * ((bound + 1).bit_length() - 1) + 1
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    if low > max(limit.bit_length(), GRID_BUILD_BITS):
        need = f"a number of at least {low} bits"
        remedy = f"raise --budget or {SCAN_BUDGET_ENV} to a number of that size to run this"
        raise BudgetExceeded(low, limit, "identity25 grid", remedy, need)
    rows = (bound + 1) ** (r - 2)
    check_budget(rows, budget, "identity25 grid")
    from .diophantine import solve_unit  # here, so no other claim compiles it

    family = solve_unit(r, basis)
    xr = family.base_x
    residue = xr % 3
    checked = rows * (bound + 1)
    details = {
        "certificate": {"prime": "3", "xr_residue": str(residue)},
        "grid": {"indices": r - 1, "per_index": bound + 1, "combinations": str(checked)},
        "modulus": str(family.b // 2),  # b = p_1 * ... * p_{r-1}
    }
    bad = Counterexample(value=xr, reason=f"x'_{r} = 0 (mod 3), but p_{r}*x'_{r} = 1 (mod 3)")
    return VerificationReport(
        claim=f"identity25[r={r},bound={bound}]",
        verdict="not-found-within-bound" if residue else "fail",
        checked=checked,
        witnesses_pass=0,
        counterexamples=() if residue else (bad,),
        details=details,
    )
