"""Acceptance gate: one test per shipped guarantee.

Every test prints a single line

    criterion NN name: PASS|FAIL (X.XXs) - detail

and then asserts. Run with `pytest -s tests/test_acceptance.py` to see all
eleven lines; a plain run shows them only for failures. Each criterion
carries a wall-clock budget, asserted after the check itself.
"""

import random
import time
from fractions import Fraction

from primewheel import oracle
from primewheel.enumeration import IntervalSpec, count_block, count_interval, enumerate_interval
from primewheel.theorems import (
    check_identity26,
    compare_pi,
    search_identity25,
    verify_theorem1,
)
from primewheel.forms import build_raw, canonicalize, decompose, evaluate
from primewheel.wheel import PrimeBasis, build_canonical, build_coprime_wheel

# Frozen canonical rows: {r: (period, coeffs for h2..hr, constant)}.
CANONICAL_ROWS = {
    1: (2, (), 1),
    2: (6, (4,), 3),
    3: (30, (10, 6), 15),
    4: (210, (70, 126, 120), 105),
    5: (2310, (1540, 1386, 330, 210), 1155),
    6: (30030, (20020, 6006, 25740, 16380, 6930), 15015),
    7: (510510, (170170, 306306, 145860, 46410, 157080, 450450), 255255),
    8: (
        9699690,
        (3233230, 3879876, 8314020, 6172530, 3730650, 9129120, 9189180),
        4849845,
    ),
}
# The r=8 h2 coefficient is 3233230. The truncated variant 323230 that
# sometimes circulates cannot be right: the h2 coefficient must vanish
# modulo every basis prime except 3, and 323230 % 7 == 5.
R8_H2_REJECTED = 323230


def _finish(num: int, name: str, budget: float, t0: float, ok: bool, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({elapsed:.2f}s) - {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed < budget, f"criterion {num:02d} {name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_canonical_goldens():
    t0 = time.perf_counter()
    mismatches = []
    coefficients = 0
    constants = 0
    for r, (period, coeffs, constant) in CANONICAL_ROWS.items():
        form = build_canonical(PrimeBasis.first(r))
        got = (form.period, tuple(form.coeff(j) for j in range(2, r + 1)), form.constant)
        coefficients += 1 + len(coeffs)
        constants += 1
        if got != (period, coeffs, constant):
            mismatches.append(f"r={r}: got {got}")
    if CANONICAL_ROWS[8][1][0] != 3233230:
        mismatches.append("frozen table lost the r=8 h2 entry")
    if R8_H2_REJECTED % 7 == 0:
        mismatches.append("the rejected r=8 h2 variant unexpectedly divides by 7")
    detail = (
        f"{coefficients} coefficients and {constants} constants match; "
        f"r=8 h2=3233230 ({R8_H2_REJECTED} rejected: % 7 == {R8_H2_REJECTED % 7}, not 0)"
        if not mismatches
        else "; ".join(mismatches)
    )
    _finish(1, "canonical-goldens", 1.0, t0, not mismatches, detail)


def test_criterion_02_representative_independence():
    t0 = time.perf_counter()
    bad = []
    cases = 0
    for r in range(3, 9):
        basis = PrimeBasis.first(r)
        target = build_canonical(basis)
        for k in range(4):
            cases += 1
            if canonicalize(build_raw(basis, representatives=k)) != target:
                bad.append(f"r={r} k={k}")
    detail = f"{cases} raw builds all reduce to the same canonical form" if not bad else ", ".join(bad)
    _finish(2, "representative-independence", 5.0, t0, not bad, detail)


def test_criterion_03_prime_window():
    t0 = time.perf_counter()
    expected_checked = {1: 3, 2: 7, 3: 12, 4: 26, 5: 34, 6: 55}
    bad = []
    for r, want in expected_checked.items():
        report = verify_theorem1(PrimeBasis.first(r), 1)
        if report.verdict != "pass" or report.checked != want:
            bad.append(f"r={r}: verdict={report.verdict} checked={report.checked} (want {want})")
    detail = (
        "windows up to r=6 contain exactly the sieve primes "
        f"(counts {', '.join(str(v) for v in expected_checked.values())})"
        if not bad
        else "; ".join(bad)
    )
    _finish(3, "prime-window", 5.0, t0, not bad, detail)


def test_criterion_04_rough_window():
    t0 = time.perf_counter()
    bad = []
    sizes = {}
    for r, n in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        report = verify_theorem1(PrimeBasis.first(r), n)
        sizes[(r, n)] = report.checked
        if report.verdict != "pass":
            bad.append(f"(r={r},n={n}): {report.verdict} {report.counterexamples[:3]}")
        if not report.details["set_equality"]["pass"] or not report.details["omega_bound"]["pass"]:
            bad.append(f"(r={r},n={n}): subcheck failed")
    detail = (
        "scan equality and factor-count bound hold; window sizes "
        + ", ".join(f"{k}:{v}" for k, v in sizes.items())
        if not bad
        else "; ".join(bad)
    )
    _finish(4, "rough-window", 30.0, t0, not bad, detail)


def test_criterion_05_block_count():
    t0 = time.perf_counter()
    bad = []
    import math

    for r in range(1, 9):
        basis = PrimeBasis.first(r)
        bc = count_block(basis)
        phi = math.prod(p - 1 for p in basis.primes)
        if bc.phi != phi or bc.interior != phi - 1:
            bad.append(f"r={r}: formula gave {bc}, want phi={phi}")
        if r <= 6:
            form = build_canonical(basis)
            block = IntervalSpec(0, basis.primorial)
            if count_interval(form, block) != phi:
                bad.append(f"r={r}: table count disagrees with phi")
            if len(oracle.coprime_scan(block, basis)) != phi:
                bad.append(f"r={r}: oracle scan disagrees with phi")
    detail = (
        "per-block count equals the coprime-residue product for r <= 8, "
        "confirmed by full scans for r <= 6"
        if not bad
        else "; ".join(bad)
    )
    _finish(5, "block-count", 30.0, t0, not bad, detail)


def test_criterion_06_pi_approx_bound():
    t0 = time.perf_counter()
    rows = []
    bad = []
    for r in range(2, 9):
        approx, exact, rel = compare_pi(PrimeBasis.first(r))
        rows.append(f"r={r}: approx={float(approx):.3f} exact={exact} rel={float(rel):.4%} ({rel})")
        if rel > Fraction(1, 10):
            bad.append(f"r={r} relative error {rel} = {float(rel):.4%} exceeds 10%")
    detail = (
        "relative error within 10% for r in 2..8" if not bad else "; ".join(bad)
    ) + " | " + " | ".join(rows)
    _finish(6, "pi-approx-bound", 5.0, t0, not bad, detail)


def test_criterion_07_idempotent_congruence():
    t0 = time.perf_counter()
    bad = []
    checks = 0
    for r in range(3, 9):
        basis = PrimeBasis.first(r)
        for e in range(2, r):
            for k in range(3):
                checks += 1
                report = check_identity26(basis, e, representative=k)
                if report.verdict != "pass":
                    bad.append(f"r={r} e={e} k={k}")
    detail = f"{checks} congruence checks pass" if not bad else ", ".join(bad)
    _finish(7, "idempotent-congruence", 5.0, t0, not bad, detail)


def test_criterion_08_product_identity_search():
    t0 = time.perf_counter()
    bad = []
    outcomes = []
    for r in (3, 4, 5):
        report = search_identity25(PrimeBasis.first(r), bound=50)
        outcomes.append(f"r={r}: {report.verdict} after {report.checked}")
        if report.verdict not in ("pass", "not-found-within-bound"):
            bad.append(f"r={r}: unexpected verdict {report.verdict}")
        if r == 3 and report.verdict != "not-found-within-bound":
            bad.append(f"r=3 must exhaust its grid without a witness, got {report.verdict}")
    detail = "; ".join(outcomes) if not bad else "; ".join(bad)
    _finish(8, "product-identity-search", 60.0, t0, not bad, detail)


def test_criterion_09_coprime_wheel():
    t0 = time.perf_counter()
    wheel = build_coprime_wheel([4, 9, 5, 7])
    block = IntervalSpec(0, wheel.period)
    got = list(enumerate_interval(wheel, block))
    want = oracle.coprime_scan(block, [4, 9, 5, 7])
    ok = wheel.period == 1260 and got == want and len(got) == 576
    detail = (
        f"block [0, 1260) yields {len(got)} values, identical to the oracle scan"
        if ok
        else f"period={wheel.period} count={len(got)} oracle={len(want)} equal={got == want}"
    )
    _finish(9, "coprime-wheel", 5.0, t0, ok, detail)


def test_criterion_10_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(9973)
    forms = {r: build_canonical(PrimeBasis.first(r)) for r in range(3, 11)}
    cases = 0
    bad = None
    for _ in range(10_000):
        r = rng.randrange(3, 11)
        form = forms[r]
        primes = form.basis.primes
        t = rng.randrange(0, 10**9)
        h = {j: rng.randrange(1, primes[j - 1]) for j in range(2, r + 1)}
        z = evaluate(form, t, h)
        if decompose(form, z) != (t, h):
            bad = f"decompose(evaluate) broke at r={r} t={t} h={h}"
            break
        while True:
            w = rng.randrange(1, 10**12)
            if all(w % p for p in primes):
                break
        t2, h2 = decompose(form, w)
        if evaluate(form, t2, h2) != w:
            bad = f"evaluate(decompose) broke at r={r} w={w}"
            break
        cases += 1
    detail = f"{cases} random cases round-trip in both directions" if bad is None else bad
    _finish(10, "round-trip", 10.0, t0, bad is None, detail)


def test_criterion_11_bench_equality():
    t0 = time.perf_counter()
    basis = PrimeBasis.first(8)
    window = IntervalSpec(10**6, 2 * 10**6)
    wheel_values = list(enumerate_interval(build_canonical(basis), window))
    sieve_values = oracle.coprime_scan(window, basis)
    ok = wheel_values == sieve_values
    detail = (
        f"both generators emit the same {len(wheel_values)} values over width {window.width}"
        if ok
        else f"wheel={len(wheel_values)} sieve={len(sieve_values)} first diff "
        f"{next((a, b) for a, b in zip(wheel_values, sieve_values) if a != b)}"
    )
    _finish(11, "bench-equality", 30.0, t0, ok, detail)
