"""The raw-form builder and the identity checkers against the formulas they replaced.

build_raw and check_identity26 read the raw coefficients B_j from one
recurrence, and search_identity25 decides its grid by a one-prime
certificate. Here each is compared with a stand-alone computation:
unit-equation solutions from the modular inverse, the B_j tail loop, the
idempotent m * (m^-1 mod p_e) and the per-row tail sum of identity (25).
"""

import hashlib
import itertools
import json
import math

import pytest

from primewheel.theorems import check_identity26, search_identity25
from primewheel.forms import build_raw, canonicalize, form_from_json, form_to_json
from primewheel.wheel import PrimeBasis, build_canonical

MAPPING = {2: 3, 4: -1, 7: 2, 9: 11}
# SHA-256 of json.dumps([form_to_json(build_raw(first(r), reps)) for r in 3..10
# for reps in (-2, ..., 5, MAPPING)], sort_keys=True), taken from the builder
# that assembled the coefficients with its own tail loop.
RAW_JSON_DIGEST = "3189e00cfda42da47fd05d2c6b623306740c7f277d6dc4b18258afa6d1cf37f7"


def _x(primes, j, k):
    """x'_j of representative k: the least positive solution of
    p_j*x = 1 (mod p_1*...*p_{j-1}), moved k periods."""
    trailing = math.prod(primes[: j - 1])
    return pow(primes[j - 1], -1, trailing) % trailing + k * trailing


def _reference_raw_json(basis, reps):
    primes, r = basis.primes, basis.r
    ks = {j: reps.get(j, 0) if isinstance(reps, dict) else reps for j in range(2, r + 1)}
    xs = {j: _x(primes, j, ks[j]) for j in range(2, r + 1)}
    ys = {j: (primes[j - 1] * xs[j] - 1) // math.prod(primes[: j - 1]) for j in xs}
    coeffs = {}
    tail = 1
    for j in range(r, 1, -1):
        coeffs[j] = (primes[j - 1] * xs[j] - 1) * tail
        tail *= primes[j - 1] * xs[j]
    return {
        "r": r,
        "primorial": str(basis.primorial),
        "coeffs": {str(j): str(coeffs[j]) for j in range(2, r + 1)},
        "constant": "-1",
        "convention": "minus-h",
        "representatives": {str(j): [str(xs[j]), str(ys[j])] for j in range(2, r + 1)},
    }


def _all_reps():
    return (*range(-2, 6), MAPPING)


@pytest.mark.parametrize("r", range(3, 11))
def test_build_raw_matches_the_tail_loop(r):
    basis = PrimeBasis.first(r)
    for reps in _all_reps():
        raw = build_raw(basis, reps)
        assert form_to_json(raw) == _reference_raw_json(basis, reps)
        assert canonicalize(raw) == build_canonical(basis)


def test_build_raw_json_is_pinned():
    blobs = [
        form_to_json(build_raw(PrimeBasis.first(r), reps))
        for r in range(3, 11)
        for reps in _all_reps()
    ]
    digest = hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest()
    assert digest == RAW_JSON_DIGEST
    assert form_to_json(build_raw(PrimeBasis.first(4), MAPPING)) == {
        "r": 4,
        "primorial": "210",
        "coeffs": {"2": "-59500", "3": "-2856", "4": "-120"},
        "constant": "-1",
        "convention": "minus-h",
        "representatives": {"2": ["7", "10"], "3": ["5", "4"], "4": ["-17", "-4"]},
    }


@pytest.mark.parametrize("r", range(3, 11))
def test_raw_coefficients_telescope(r):
    basis = PrimeBasis.first(r)
    for k in range(5):
        raw = build_raw(basis, k)
        product = math.prod(p * x for p, (x, _) in zip(basis.primes[1:], raw.solutions))
        assert sum(raw.coeffs) == product - 1


def test_raw_form_names_the_first_tampered_coefficient():
    raw = build_raw(PrimeBasis.first(5))
    blob = form_to_json(raw)
    for tampered, named in (((2,), 2), ((2, 3), 2), ((2, 4), 2), ((3, 4, 5), 3), ((5,), 5)):
        coeffs = {str(j): str(b + (j in tampered)) for j, b in zip(range(2, 6), raw.coeffs)}
        with pytest.raises(ValueError, match=f"^coefficient for index {named} inconsistent"):
            form_from_json({**blob, "coeffs": coeffs})


def _reference_identity26(basis, e, k):
    primes, period, r = basis.primes, basis.primorial, basis.r
    m = period // primes[e - 1]
    lhs = m * pow(m, -1, primes[e - 1])
    xs = {j: _x(primes, j, k) for j in range(e, r + 1)}
    tail = math.prod(primes[q - 1] * xs[q] for q in range(e + 1, r + 1))
    rhs = -(primes[e - 1] * xs[e] - 1) * tail
    ok = (lhs - rhs) % period == 0
    reason = f"lhs residue {lhs % period} != rhs residue {rhs % period} (mod {period})"
    return {
        "claim": f"identity26[r={r},e={e},k={k}]",
        "verdict": "pass" if ok else "fail",
        "checked": 1,
        "witnesses_pass": 1 if ok else 0,
        "interval": None,
        "counterexamples": [] if ok else [{"value": str(lhs % period), "reason": reason}],
        "details": {
            "lhs": str(lhs),
            "rhs": str(rhs),
            "modulus": str(period),
            "lhs_residue": str(lhs % period),
            "rhs_residue": str(rhs % period),
        },
    }


@pytest.mark.parametrize("r", range(3, 13))
def test_identity26_matches_the_tail_product(r):
    basis = PrimeBasis.first(r)
    for e in range(2, r):
        for k in (-2, 0, 1, 5):
            assert check_identity26(basis, e, k).to_json() == _reference_identity26(basis, e, k)


def _reference_identity25(basis, bound):
    primes, r = basis.primes, basis.r
    modulus = math.prod(primes[1 : r - 1])
    reps = {i: [_x(primes, i, k) for k in range(bound + 1)] for i in range(2, r + 1)}
    witness = None
    for ks in itertools.product(range(bound + 1), repeat=r - 2):
        xs = {i: reps[i][ks[i - 2]] for i in range(2, r)}
        total = 0
        tail = 1
        for i in range(r - 1, 1, -1):
            total += (primes[i - 1] * xs[i] - 1) * tail
            tail *= primes[i - 1] * xs[i]
        for kr, xr in enumerate(reps[r]):
            quotient, rem = divmod(xr * total, modulus)
            if not rem and quotient % 2 and abs((quotient + 1) // 2) <= bound:
                witness = {
                    "s": str((quotient + 1) // 2),
                    "representatives": {str(i): ks[i - 2] for i in range(2, r)} | {str(r): kr},
                }
                break
        if witness:
            break
    checked = (bound + 1) ** (r - 1)
    return {
        "claim": f"identity25[r={r},bound={bound}]",
        "verdict": "pass" if witness else "not-found-within-bound",
        "checked": checked,
        "witnesses_pass": 1 if witness else 0,
        "interval": None,
        "counterexamples": [],
        "details": {
            "certificate": {"prime": "3", "xr_residue": str(reps[r][0] % 3)},
            "grid": {"indices": r - 1, "per_index": bound + 1, "combinations": str(checked)},
            "modulus": str(modulus),
        },
    }


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("bound", [0, 5, 12])
def test_identity25_matches_the_tail_sum(r, bound):
    basis = PrimeBasis.first(r)
    assert search_identity25(basis, bound).to_json() == _reference_identity25(basis, bound)
