"""Verification of the interval, counting and coefficient claims.

Each checker scans honestly against the oracle module and returns a
VerificationReport; nothing here is allowed to assume the claim it is
checking. Claims are addressed by short stable ids (theorem1, corollary2,
identity25, identity26) which also name the CLI verify subcommands.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from . import oracle
from ._record import Record, fresh
from .diophantine import nth_solution, solve_unit
from .enumeration import IntervalSpec, enumerate_interval
from .errors import check_budget
from .wheel import PrimeBasis, _prime_bound, build_canonical, build_raw

COUNTEREXAMPLE_CAP = 10


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
    details: dict = fresh(dict)

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

    @classmethod
    def from_json(cls, data: dict) -> "VerificationReport":
        interval = data.get("interval")
        return cls(
            claim=data["claim"],
            verdict=data["verdict"],
            checked=int(data["checked"]),
            witnesses_pass=int(data["witnesses_pass"]),
            interval=None
            if interval is None
            else IntervalSpec(int(interval["lo"]), int(interval["hi"])),
            counterexamples=tuple(
                Counterexample(value=int(c["value"]), reason=c["reason"])
                for c in data["counterexamples"]
            ),
            details=data.get("details", {}),
        )


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


def theorem1_interval(basis: PrimeBasis, n: int) -> IntervalSpec:
    """The window [p_{r+1}^n, p_{r+1}^(n+1)), with p_{r+1} from the oracle sieve."""
    check_claim_args("theorem1", basis.r, n=n)
    (p,) = _primes_after(basis, 1)
    return IntervalSpec(p**n, p ** (n + 1))


class _Segment(NamedTuple):
    """The oracle's view of one segment [lo, lo + len(omegas)) of a window."""

    lo: int
    want: list[int]  # divisible by no basis prime, by the striking scan
    omegas: list[int]  # Omega of every integer in the segment
    primes: list[int] | None  # the primes in the segment, for n = 1 only


def _oracle_segments(basis, interval, n, budget, omegas) -> Iterator[_Segment]:
    """The window's segments from lo up, one for each list `omegas` yields."""
    starts = range(interval.lo, interval.hi, oracle.OMEGA_SEGMENT)
    for seg_lo, seg_omegas in zip(starts, omegas):
        span = IntervalSpec(seg_lo, seg_lo + len(seg_omegas))
        primes = oracle.primes_in(span, budget) if n == 1 else None
        yield _Segment(seg_lo, oracle.coprime_scan(span, basis, budget), seg_omegas, primes)


def _fill(capped: list, values) -> None:
    capped.extend(itertools.islice(values, COUNTEREXAMPLE_CAP - len(capped)))


def _keep_smallest(capped: list, values) -> None:
    """Set `capped` to the smallest distinct values of it and `values`, ascending, up to the cap."""
    capped[:] = sorted({*capped, *values})[:COUNTEREXAMPLE_CAP]


def _compare(values: list[int], want: list[int], missing: list, extra: list) -> None:
    """Add to missing the values of want not enumerated and to extra the others."""
    got, want = set(values), set(want)
    _keep_smallest(missing, want - got)
    _keep_smallest(extra, got - want)


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

    (a) wheel enumeration equals the oracle's divisibility scan;
    (b) every enumerated value has between 1 and n prime factors;
    (c) for n = 1, the enumeration is exactly the primes in the window.
    With gate_all False only (a) decides the verdict and (b)/(c) are
    reported informationally.

    The window is walked one segment of oracle.OMEGA_SEGMENT integers at
    a time. The enumerated values that fall in a segment are compared with
    the oracle's striking scan, Omega sieve and, for n = 1, primes of the
    same segment; only counts and the capped counterexamples are kept, the
    missing and extra lists as their ten smallest distinct values. A value
    with no open segment is checked on its own by trial division for (b),
    and is extra for (a) and (c) when off the window. In the window it came
    after a larger value, so it fails (a) and goes on out_of_order
    (distinct, up to the cap, even if on another list); it is extra for (a)
    when a basis prime divides it and for (c) when it is not prime, and
    leaves the missing lists its segment put it on. A missing value the cap
    cut off before does not come back, so missing can then list fewer than
    ten. A report with counterexamples walks the enumeration a second time
    to count the values that are none of them (witnesses_pass); a passing
    report walks it once. Budgets are checked before the first value is
    enumerated: the scan width, then for n = 1 the prime sieve's hi, then
    the Omega sieve's.
    """
    check_budget(interval.width, budget, "coprime scan")
    form = build_canonical(basis)
    got = enumerate_interval(form, interval)
    if n == 1:
        check_budget(interval.hi, budget, "prime sieve")
    segments = _oracle_segments(basis, interval, n, budget, oracle.omega_sieve(interval, budget))
    # Capped fault lists; each one that is not empty fails its subcheck.
    missing: list[int] = []  # in the scan but never enumerated, ascending
    extra: list[int] = []  # enumerated in the window but not in the scan, ascending
    pe_missing: list[int] = []  # n = 1: primes never enumerated
    pe_extra: list[int] = []  # n = 1: enumerated in the window but not prime
    omega_bad: list[tuple[int, int]] = []  # (value, Omega), in enumeration order
    disorder: list[int] = []  # enumerated after a larger value of the window

    def stepped_back(values) -> None:
        for value in values:
            if len(disorder) < COUNTEREXAMPLE_CAP and value not in disorder:
                disorder.append(value)

    def factor_counts(values, omegas) -> None:
        _fill(omega_bad, ((v, om) for v, om in zip(values, omegas) if not 1 <= om <= n))

    def close(seg: _Segment, values: list[int]) -> None:
        if values != seg.want:
            stepped_back(v for v, top in zip(values, itertools.accumulate(values, max)) if v < top)
            _compare(values, seg.want, missing, extra)
        if seg.primes is not None and values != seg.primes:
            _compare(values, seg.primes, pe_missing, pe_extra)

    lo, hi, size = interval.lo, interval.hi, oracle.OMEGA_SEGMENT
    # Runs of enumerated values by segment index, -1 outside the window;
    # seg is the open segment, number index, and inside its values so far.
    checked, index, seg, inside = 0, 0, next(segments), []
    for key, run in itertools.groupby(got, lambda v: (v - lo) // size if lo <= v < hi else -1):
        run = list(run)
        checked += len(run)
        if key < index:
            profiles = list(map(oracle.factor_profile, run))
            factor_counts(run, (f.omega for f in profiles))
            top, off = basis.primes[-1], key < 0
            _keep_smallest(extra, (f.n for f in profiles if off or 0 < f.spf <= top))
            _keep_smallest(pe_extra, (f.n for f in profiles if off or f.omega != 1))
            if not off:
                stepped_back(run)
                # Enumerated after all, so no longer missing.
                missing[:] = [m for m in missing if m not in run]
                pe_missing[:] = [m for m in pe_missing if m not in run]
        else:
            while index < key:
                close(seg, inside)
                seg, inside, index = next(segments), [], index + 1
            if len(omega_bad) < COUNTEREXAMPLE_CAP:
                oms = list(map(seg.omegas.__getitem__, map((-seg.lo).__add__, run)))
                if min(oms) < 1 or max(oms) > n:
                    factor_counts(run, oms)
            inside += run
    close(seg, inside)
    for seg in segments:
        close(seg, [])

    details = dict(extra_details)
    found = [(m, "in the oracle scan but never enumerated") for m in missing]
    found += [(m, "enumerated but rejected by the oracle scan") for m in extra]
    found += [(m, "enumerated after a larger value") for m in disorder]
    details["set_equality"] = {
        "pass": not found,
        "missing": [str(m) for m in missing],
        "extra": [str(m) for m in extra],
    }
    if disorder:
        details["set_equality"]["out_of_order"] = [str(m) for m in disorder]

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

    witnesses_pass = checked
    if found:
        bad = {m for m, _ in found}
        witnesses_pass -= sum(v in bad for v in enumerate_interval(form, interval))
    return VerificationReport(
        claim=claim,
        verdict="pass" if not found and checked > 0 else "fail",
        checked=checked,
        witnesses_pass=witnesses_pass,
        interval=interval,
        counterexamples=tuple(itertools.starmap(Counterexample, found)),
        details=details,
    )


def verify_theorem1(basis: PrimeBasis, n: int, budget: int | None = None) -> VerificationReport:
    """Check the window claim: in [p_{r+1}^n, p_{r+1}^(n+1)) the wheel
    enumerates exactly the integers whose smallest prime factor exceeds
    p_r, each with 1..n prime factors; for n = 1 those are the primes."""
    interval = theorem1_interval(basis, n)
    return _interval_report(
        claim=f"theorem1[r={basis.r},n={n}]",
        basis=basis,
        interval=interval,
        n=n,
        gate_all=True,
        budget=budget,
        extra_details={},
    )


def bertrand_condition(r: int, s: int, n: int) -> bool:
    """Exact test of p_{r+1} > 2^((n+1)(s-1))."""
    if r < 1 or s < 1 or n < 1:
        raise ValueError("r, s and n must be at least 1")
    (p,) = _primes_after(PrimeBasis.first(r), 1)
    return p > 2 ** ((n + 1) * (s - 1))


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
    p = _primes_after(basis, s, budget)[-1]
    interval = IntervalSpec(p**n, p ** (n + 1))
    condition = bertrand_condition(basis.r, s, n)
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


def pi_approx(basis: PrimeBasis) -> Fraction:
    """Density-based estimate of the prime count below p_{r+1}^2, as an exact rational:
    r + p_{r+1}^2 * (prod(p_l - 1) - 1) / prod(p_l)."""
    from fractions import Fraction  # loaded here, so no other claim pays for it

    (p,) = _primes_after(basis, 1)
    phi = math.prod(q - 1 for q in basis.primes)
    return basis.r + Fraction(p * p * (phi - 1), basis.primorial)


def compare_pi(basis: PrimeBasis, budget: int | None = None) -> tuple[Fraction, int, Fraction]:
    """(approx, exact, rel_error) with exact = sieve count of primes in [1, p_{r+1}^2)
    and rel_error = |approx - exact| / exact."""
    (p,) = _primes_after(basis, 1)
    approx = pi_approx(basis)
    exact = len(oracle.primes_in(IntervalSpec(1, p * p), budget=budget))
    return approx, exact, abs(approx - exact) / exact


def check_identity26(basis: PrimeBasis, e: int, representative: int = 0) -> VerificationReport:
    """Check, modulo the period, that the canonical coefficient A_e (the CRT
    idempotent for p_e) equals -B_e, the raw coefficient
    -(p_e*x'_e - 1) * prod(p_q*x'_q for q > e) built from the chosen
    unit-equation representative. Both sides come from their own builders;
    neither goes through canonicalize, which assumes this congruence. The
    two sides differ as integers; only the congruence is claimed."""
    r = basis.r
    check_claim_args("identity26", r, e=e)
    period = basis.primorial
    lhs = build_canonical(basis).coeff(e)
    rhs = -build_raw(basis, representative).coeff(e)
    ok = (lhs - rhs) % period == 0
    details = {
        "lhs": str(lhs),
        "rhs": str(rhs),
        "modulus": str(period),
        "lhs_residue": str(lhs % period),
        "rhs_residue": str(rhs % period),
    }
    counterexamples = (
        ()
        if ok
        else (
            Counterexample(
                value=lhs % period,
                reason=f"lhs residue {lhs % period} != rhs residue {rhs % period} (mod {period})",
            ),
        )
    )
    return VerificationReport(
        claim=f"identity26[r={r},e={e},k={representative}]",
        verdict="pass" if ok else "fail",
        checked=1,
        witnesses_pass=1 if ok else 0,
        counterexamples=counterexamples,
        details=details,
    )


def search_identity25(
    basis: PrimeBasis, bound: int, budget: int | None = None
) -> VerificationReport:
    """Bounded witness search for the product identity
    (2s - 1) * prod(p_i, i = 2..r-1) = x'_r * S, where S is the raw
    coefficient sum built from x'_2..x'_{r-1}, which telescopes to
    prod(p_i*x'_i, i = 2..r-1) - 1.

    Representative indices range over 0..bound for every x'_i and a
    witness must also have |s| <= bound. A not-found outcome never claims
    the statement false, only that no witness exists inside the grid.
    The (bound + 1)^(r - 2) grid rows are checked against the scan budget
    before the search starts.
    """
    r = basis.r
    check_claim_args("identity25", r, bound=bound)
    rows = (bound + 1) ** (r - 2)
    check_budget(rows, budget, "identity25 grid")
    primes = basis.primes
    modulus = math.prod(primes[1 : r - 1])  # p_2 * ... * p_{r-1}
    families = {i: solve_unit(i, basis) for i in range(2, r + 1)}
    # reps[i][k] is x'_i of representative k, worked out once per (i, k).
    reps = {i: [nth_solution(f, k)[0] for k in range(bound + 1)] for i, f in families.items()}
    xr_base = reps[r][0]
    witness = None
    rows_scanned = 0
    for ks in itertools.product(range(bound + 1), repeat=r - 2):
        rows_scanned += 1
        # The raw coefficients telescope: B_j + prod(p_q*x'_q, q > j) is
        # prod(p_q*x'_q, q >= j), so sum(B_j, j = 2..m) = prod(p_j*x'_j, j = 2..m) - 1.
        total = math.prod(primes[i - 1] * reps[i][k] for i, k in enumerate(ks, start=2)) - 1
        # Representatives of x'_r differ by multiples of p_1*...*p_{r-1},
        # so divisibility of x'_r * S by the modulus is the same for every
        # k_r; one test covers the whole row of the grid.
        if (xr_base * total) % modulus:
            continue
        for kr, xr in enumerate(reps[r]):
            quotient = (xr * total) // modulus
            if quotient % 2:
                s = (quotient + 1) // 2
                if abs(s) <= bound:
                    witness = {
                        "s": str(s),
                        "representatives": {str(i): ks[i - 2] for i in range(2, r)}
                        | {str(r): kr},
                    }
                    break
        if witness:
            break
    checked = (bound + 1) ** (r - 1)
    details = {
        "witness": witness,
        "grid": {"indices": r - 1, "per_index": bound + 1, "combinations": str(checked)},
        "rows_scanned": rows_scanned,
        "modulus": str(modulus),
    }
    return VerificationReport(
        claim=f"identity25[r={r},bound={bound}]",
        verdict="pass" if witness else "not-found-within-bound",
        checked=checked,
        witnesses_pass=1 if witness else 0,
        counterexamples=(),
        details=details,
    )
