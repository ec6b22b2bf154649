"""Verification of the interval, counting and coefficient claims.

Each checker scans honestly against the oracle module and returns a
VerificationReport; nothing here is allowed to assume the claim it is
checking. Claims are addressed by short stable ids (theorem1, corollary2,
identity25, identity26) which also name the CLI verify subcommands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .diophantine import nth_solution, solve_unit
from .enumeration import IntervalSpec, enumerate_interval
from .wheel import PrimeBasis, build_canonical

COUNTEREXAMPLE_CAP = 10


@dataclass(frozen=True)
class Counterexample:
    value: int
    reason: str


@dataclass(frozen=True)
class VerificationReport:
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
    details: dict = field(default_factory=dict)

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


def _prime_after(p: int) -> int:
    # Bertrand guarantees a prime strictly between p and 2p for p > 1.
    return oracle.primes_in(IntervalSpec(p + 1, 2 * p + 2))[0]


def theorem1_interval(basis: PrimeBasis, n: int) -> IntervalSpec:
    """The window [p_{r+1}^n, p_{r+1}^(n+1)), with p_{r+1} from the oracle sieve."""
    if n < 1:
        raise ValueError("n must be at least 1")
    p = _prime_after(basis.primes[-1])
    return IntervalSpec(p**n, p ** (n + 1))


def _capped(values, fmt) -> list:
    return [fmt(v) for v in values[:COUNTEREXAMPLE_CAP]]


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
    """
    # The scan checks its budget first, so a refused window is never enumerated.
    want = oracle.coprime_scan(interval, basis, budget=budget)
    got = list(enumerate_interval(build_canonical(basis), interval))
    counterexamples: list[Counterexample] = []
    details: dict = dict(extra_details)

    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    set_ok = not missing and not extra
    details["set_equality"] = {
        "pass": set_ok,
        "missing": _capped(missing, str),
        "extra": _capped(extra, str),
    }
    for m in missing[:COUNTEREXAMPLE_CAP]:
        counterexamples.append(Counterexample(m, "in the oracle scan but never enumerated"))
    for m in extra[:COUNTEREXAMPLE_CAP]:
        counterexamples.append(Counterexample(m, "enumerated but rejected by the oracle scan"))

    omega_bad = [(m, oracle.omega(m)) for m in got]
    omega_bad = [(m, om) for m, om in omega_bad if not 1 <= om <= n]
    details["omega_bound"] = {
        "pass": not omega_bad,
        "n": n,
        "violations": _capped(omega_bad, lambda v: {"value": str(v[0]), "omega": v[1]}),
    }
    if gate_all:
        for m, om in omega_bad[:COUNTEREXAMPLE_CAP]:
            counterexamples.append(
                Counterexample(m, f"has {om} prime factors, outside 1..{n}")
            )

    if n == 1:
        primes = oracle.primes_in(interval, budget=budget)
        pe_missing = sorted(set(primes) - set(got))
        pe_extra = sorted(set(got) - set(primes))
        pe_ok = not pe_missing and not pe_extra
        details["prime_equality"] = {
            "pass": pe_ok,
            "missing": _capped(pe_missing, str),
            "extra": _capped(pe_extra, str),
        }
        if gate_all:
            for m in pe_missing[:COUNTEREXAMPLE_CAP]:
                counterexamples.append(Counterexample(m, "prime in the window but never enumerated"))
            for m in pe_extra[:COUNTEREXAMPLE_CAP]:
                counterexamples.append(Counterexample(m, "enumerated in the n = 1 window but not prime"))

    bad_values = {c.value for c in counterexamples}
    checked = len(got)
    verdict = "pass" if not counterexamples and checked > 0 else "fail"
    return VerificationReport(
        claim=claim,
        verdict=verdict,
        checked=checked,
        witnesses_pass=sum(1 for m in got if m not in bad_values),
        interval=interval,
        counterexamples=tuple(counterexamples),
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
    p = _prime_after(PrimeBasis.first(r).primes[-1])
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
    if s < 1:
        raise ValueError("s must be at least 1")
    p = basis.primes[-1]
    for _ in range(s):
        p = _prime_after(p)
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
    p = _prime_after(basis.primes[-1])
    phi = math.prod(q - 1 for q in basis.primes)
    return basis.r + Fraction(p * p * (phi - 1), basis.primorial)


def compare_pi(basis: PrimeBasis, budget: int | None = None) -> tuple[Fraction, int, Fraction]:
    """(approx, exact, rel_error) with exact = sieve count of primes in [1, p_{r+1}^2)
    and rel_error = |approx - exact| / exact."""
    p = _prime_after(basis.primes[-1])
    approx = pi_approx(basis)
    exact = len(oracle.primes_in(IntervalSpec(1, p * p), budget=budget))
    return approx, exact, abs(approx - exact) / exact


def check_identity26(basis: PrimeBasis, e: int, representative: int = 0) -> VerificationReport:
    """Check, modulo the period, that the CRT idempotent for p_e equals
    -(p_e*x'_e - 1) * prod(p_q*x'_q for q > e), for the chosen unit-equation
    representative. The two sides differ as integers; only the congruence
    is claimed."""
    r = basis.r
    if not 2 <= e <= r - 1:
        raise ValueError(f"e must satisfy 2 <= e <= r - 1 = {r - 1}, got {e}")
    period = basis.primorial
    primes = basis.primes
    m = period // primes[e - 1]
    lhs = m * pow(m, -1, primes[e - 1])
    xs = {
        j: nth_solution(solve_unit(j, basis), representative)[0] for j in range(e, r + 1)
    }
    tail = math.prod(primes[q - 1] * xs[q] for q in range(e + 1, r + 1))
    rhs = -(primes[e - 1] * xs[e] - 1) * tail
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


def search_identity25(basis: PrimeBasis, bound: int) -> VerificationReport:
    """Bounded witness search for the product identity
    (2s - 1) * prod(p_i, i = 2..r-1) = x'_r * S, where S is the raw
    coefficient sum built from x'_2..x'_{r-1}.

    Representative indices range over 0..bound for every x'_i and a
    witness must also have |s| <= bound. A not-found outcome never claims
    the statement false, only that no witness exists inside the grid.
    """
    r = basis.r
    if r < 3:
        raise ValueError("the identity needs r >= 3")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    primes = basis.primes
    modulus = math.prod(primes[1 : r - 1])  # p_2 * ... * p_{r-1}
    families = {i: solve_unit(i, basis) for i in range(2, r + 1)}

    def x_of(i: int, k: int) -> int:
        return nth_solution(families[i], k)[0]

    xr_base = x_of(r, 0)
    witness = None
    rows_scanned = 0
    for ks in itertools.product(range(bound + 1), repeat=r - 2):
        rows_scanned += 1
        xs = {i: x_of(i, ks[i - 2]) for i in range(2, r)}
        total = 0
        tail = 1
        for i in range(r - 1, 1, -1):
            total += (primes[i - 1] * xs[i] - 1) * tail
            tail *= primes[i - 1] * xs[i]
        # Representatives of x'_r differ by multiples of p_1*...*p_{r-1},
        # so divisibility of x'_r * S by the modulus is the same for every
        # k_r; one test covers the whole row of the grid.
        if (xr_base * total) % modulus:
            continue
        for kr in range(bound + 1):
            quotient = (x_of(r, kr) * total) // modulus
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
