import json
import math
import random

import pytest

from primewheel.diophantine import solve_unit
from primewheel.enumeration import (
    IntervalSpec,
    count_interval,
    enumerate_interval,
    sorted_block_residues,
)
from primewheel.wheel import (
    PrimeBasis,
    RawWheelForm,
    build_canonical,
    build_coprime_wheel,
    build_raw,
    canonicalize,
    coeff_bits_bound,
    decompose,
    evaluate,
    evaluate_raw,
    form_from_json,
    form_to_json,
)

# Frozen coefficient rows (h-index 2..r ascending) and constants, r = 1..8.
CANONICAL_ROWS = {
    1: ((), 1),
    2: ((4,), 3),
    3: ((10, 6), 15),
    4: ((70, 126, 120), 105),
    5: ((1540, 1386, 330, 210), 1155),
    6: ((20020, 6006, 25740, 16380, 6930), 15015),
    7: ((170170, 306306, 145860, 46410, 157080, 450450), 255255),
    8: (
        (3233230, 3879876, 8314020, 6172530, 3730650, 9129120, 9189180),
        4849845,
    ),
}


def test_prime_basis_first():
    assert PrimeBasis.first(1).primes == (2,)
    assert PrimeBasis.first(4).primes == (2, 3, 5, 7)
    assert PrimeBasis.first(8).primes == (2, 3, 5, 7, 11, 13, 17, 19)
    assert PrimeBasis.first(4).primorial == 210


def test_prime_basis_rejects_gaps_and_composites():
    with pytest.raises(ValueError):
        PrimeBasis((2, 5))
    with pytest.raises(ValueError):
        PrimeBasis((2, 3, 4))
    with pytest.raises(ValueError):
        PrimeBasis((3, 5))
    with pytest.raises(ValueError):
        PrimeBasis(())


def test_build_raw_r3_frozen():
    basis = PrimeBasis.first(3)
    raw = build_raw(basis)
    assert raw.coeff(2) == 50
    assert raw.coeff(3) == 24
    assert raw.period == 30
    assert raw.constant == -1


def test_build_raw_r4_last_coefficient():
    raw = build_raw(PrimeBasis.first(4))
    assert raw.coeff(4) == 90


def test_build_raw_rejects_small_r():
    with pytest.raises(ValueError):
        build_raw(PrimeBasis.first(2))


def test_evaluate_raw_frozen():
    raw = build_raw(PrimeBasis.first(3))
    # 30*1 + 50*(1-1) + 24*(1-1) - 1 = 29
    assert evaluate_raw(raw, 1, {2: 1, 3: 1}) == 29


def test_canonical_rows_match_frozen_table():
    for r, (coeffs, constant) in CANONICAL_ROWS.items():
        form = build_canonical(PrimeBasis.first(r))
        got = tuple(form.coeff(j) for j in range(2, r + 1))
        assert got == coeffs, f"r={r}"
        assert form.constant == constant, f"r={r}"


def test_canonicalize_r3_matches_direct_build():
    basis = PrimeBasis.first(3)
    assert canonicalize(build_raw(basis)) == build_canonical(basis)


def test_canonicalize_r2_manual_raw():
    # build_raw starts at r=3; the r=2 raw form is small enough to state.
    basis = PrimeBasis.first(2)
    fam = solve_unit(2, basis)
    raw = RawWheelForm(basis=basis, solutions=((fam.base_x, fam.base_y),))
    assert (raw.coeffs, raw.constant) == ((2,), -1)
    form = canonicalize(raw)
    assert form.coeff(2) == 4
    assert form.constant == 3


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8])
def test_canonicalize_is_representative_independent(r):
    basis = PrimeBasis.first(r)
    expected = build_canonical(basis)
    for k in range(4):
        raw = build_raw(basis, representatives=k)
        assert canonicalize(raw) == expected, f"r={r} k={k}"


def test_representative_choice_changes_raw_but_not_canonical():
    basis = PrimeBasis.first(4)
    raw0 = build_raw(basis, representatives=0)
    raw1 = build_raw(basis, representatives={2: 1, 3: 0, 4: 2})
    assert raw0.coeffs != raw1.coeffs
    assert canonicalize(raw0) == canonicalize(raw1)


def test_evaluate_frozen():
    form3 = build_canonical(PrimeBasis.first(3))
    assert evaluate(form3, 0, {2: 1, 3: 1}) == 31
    form4 = build_canonical(PrimeBasis.first(4))
    assert evaluate(form4, 0, {2: 2, 3: 4, 4: 6}) == 1469
    assert evaluate(form4, 6, {2: 2, 3: 4, 4: 6}) == 1469 + 6 * 210


def test_evaluate_rejects_bad_assignments():
    form = build_canonical(PrimeBasis.first(3))
    with pytest.raises(ValueError):
        evaluate(form, 0, {2: 3, 3: 1})
    with pytest.raises(ValueError):
        evaluate(form, 0, {2: 1})
    with pytest.raises(ValueError):
        evaluate(form, 0, {2: 1, 3: 1, 4: 1})


def test_decompose_frozen():
    form = build_canonical(PrimeBasis.first(3))
    assert decompose(form, 31) == (0, {2: 1, 3: 1})
    assert decompose(form, 49) == (0, {2: 1, 3: 4})
    t, h = decompose(form, 1469)
    assert evaluate(form, t, h) == 1469


def test_decompose_names_the_offending_divisor():
    form = build_canonical(PrimeBasis.first(3))
    with pytest.raises(ValueError, match="5"):
        decompose(form, 35)


def test_round_trip_random():
    rng = random.Random(271828)
    for _ in range(500):
        r = rng.randrange(2, 9)
        basis = PrimeBasis.first(r)
        form = build_canonical(basis)
        t = rng.randrange(0, 10**6)
        h = {j: rng.randrange(1, basis.primes[j - 1]) for j in range(2, r + 1)}
        z = evaluate(form, t, h)
        assert decompose(form, z) == (t, h)


def test_values_are_exactly_the_coprime_residues():
    """One full period of the form hits every residue coprime to the base."""
    for r in range(2, 6):
        basis = PrimeBasis.first(r)
        form = build_canonical(basis)
        period = form.period
        produced = set()
        for h in _all_assignments(basis):
            produced.add(evaluate(form, 0, h) % period)
        expected = {
            n for n in range(period) if all(math.gcd(n, p) == 1 for p in basis.primes)
        }
        assert produced == expected, f"r={r}"


def _all_assignments(basis):
    def rec(j):
        if j > basis.r:
            yield {}
            return
        for rest in rec(j + 1):
            for v in range(1, basis.primes[j - 1]):
                yield {j: v, **rest}

    yield from rec(2)


@pytest.mark.parametrize("r", range(1, 13))
def test_canonical_coefficients_are_idempotents(r):
    basis = PrimeBasis.first(r)
    form = build_canonical(basis)
    P = basis.primorial
    for j, p, a in form.residue_axes():
        assert a % p == 1
        for q in basis.primes:
            if q != p:
                assert a % q == 0
        assert (a * a) % P == a % P


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8])
def test_raw_and_canonical_coefficients_are_negatives(r):
    basis = PrimeBasis.first(r)
    raw = build_raw(basis)
    form = build_canonical(basis)
    P = basis.primorial
    for j in range(2, r + 1):
        assert (-raw.coeff(j)) % P == form.coeff(j)


def test_coeff_bits_bound_is_within_twice_the_true_bits():
    cases = [(build_canonical, r, False) for r in range(1, 301)]
    cases += [(build_raw, r, True) for r in range(3, 201)]
    for build, r, raw in cases:
        basis = PrimeBasis.first(r)
        bits = sum(a.bit_length() for a in build(basis).coeffs)
        assert bits <= coeff_bits_bound(basis, raw) <= 2 * bits, (r, raw)


def test_coprime_wheel_on_first_primes_matches_canonical():
    wheel = build_coprime_wheel([2, 3, 5], h1=1)
    form = build_canonical(PrimeBasis.first(3))
    assert wheel.free_indices == (2, 3)
    assert wheel.coeffs == (form.coeff(2), form.coeff(3))
    assert wheel.constant == form.constant
    assert wheel.period == 30


def test_coprime_wheel_free_form():
    wheel = build_coprime_wheel([4, 9])
    assert wheel.period == 36
    assert wheel.constant == 0
    assert wheel.pinned_h1 is None
    values = set()
    for h1 in range(1, 4):
        for h2 in range(1, 9):
            values.add(evaluate(wheel, 0, {1: h1, 2: h2}) % 36)
    assert len(values) == 24
    assert values == {n for n in range(36) if n % 4 != 0 and n % 9 != 0}


def test_coprime_wheel_pinned_slice():
    wheel = build_coprime_wheel([2, 3], h1=1)
    assert wheel.free_indices == (2,)
    assert wheel.coeffs == (4,)
    assert wheel.constant == 3
    for h2 in (1, 2):
        z = evaluate(wheel, 0, {2: h2})
        assert z % 2 == 1
        assert z % 3 == h2


def test_coprime_wheel_rejects_shared_factor():
    with pytest.raises(ValueError) as info:
        build_coprime_wheel([4, 6])
    message = str(info.value)
    assert "4" in message and "6" in message and "2" in message


def test_decompose_rejects_values_off_the_pinned_slice():
    wheel = build_coprime_wheel([2, 3], h1=1)
    with pytest.raises(ValueError):
        decompose(wheel, 4)


def test_json_round_trip_canonical():
    form = build_canonical(PrimeBasis.first(5))
    blob = json.dumps(form_to_json(form))
    assert form_from_json(json.loads(blob)) == form
    data = form_to_json(build_canonical(PrimeBasis.first(3)))
    with pytest.raises(ValueError, match="^primorial differs "):
        form_from_json({**data, "primorial": "31"})
    with pytest.raises(ValueError, match="^convention 'bogus' is not this form's 'plus-h'$"):
        form_from_json({**data, "convention": "bogus"})


def test_json_round_trip_raw():
    raw = build_raw(PrimeBasis.first(4), representatives=1)
    blob = json.dumps(form_to_json(raw))
    assert form_from_json(json.loads(blob)) == raw
    data = json.loads(blob)
    with pytest.raises(ValueError, match="^primorial differs "):
        form_from_json({**data, "primorial": "211"})
    with pytest.raises(ValueError):  # read as the canonical form, whose coefficients differ
        form_from_json({**data, "convention": "plus-h"})


def test_json_round_trip_coprime():
    for h1 in (None, 2):
        wheel = build_coprime_wheel([4, 9, 5], h1=h1)
        blob = json.dumps(form_to_json(wheel))
        assert form_from_json(json.loads(blob)) == wheel
        data = json.loads(blob)
        with pytest.raises(ValueError, match="^period differs "):
            form_from_json({**data, "period": "7"})
        with pytest.raises(ValueError, match="^convention 'minus-h' is not this form's 'plus-h'$"):
            form_from_json({**data, "convention": "minus-h"})


def test_json_values_are_decimal_strings():
    data = form_to_json(build_canonical(PrimeBasis.first(8)))
    assert data["primorial"] == "9699690"
    assert data["coeffs"]["2"] == "3233230"
    assert all(isinstance(v, str) for v in data["coeffs"].values())


def test_form_constructors_reject_tampered_coefficients():
    canonical = {"r": 3, "primorial": "30", "convention": "plus-h"}
    with pytest.raises(ValueError):
        form_from_json({**canonical, "coeffs": {"2": "10", "3": "7"}, "constant": "15"})
    with pytest.raises(ValueError):
        form_from_json({**canonical, "coeffs": {"2": "10", "3": "6"}, "constant": "14"})
    with pytest.raises(ValueError):
        form_from_json(
            {"moduli": ["4", "9"], "coeffs": {"1": "9", "2": "29"}, "constant": "0",
             "pinned_h1": None}
        )


@pytest.mark.parametrize(
    "moduli, coeffs, message",
    [
        ((4, 9, 5), (45, 64, 36), "h2 is not idempotent mod 5"),
        ((4, 9, 5), (45, 10, 36), "h2 is not idempotent mod 4"),
        ((4, 9, 5), (45, 100, 16), "h3 is not idempotent mod 9"),
        # 4 is 1 mod 3 and 0 mod 2 and mod 4, but the moduli share the factor 2.
        ((3, 2, 4), (4, 1, 1), r"^moduli 2 and 4 are not coprime \(gcd 2\)$"),
    ],
)
def test_idempotency_failure_names_the_failing_modulus(moduli, coeffs, message):
    blob = {
        "moduli": [str(q) for q in moduli],
        "coeffs": {str(j): str(a) for j, a in enumerate(coeffs, start=1)},
        "constant": "0",
        "pinned_h1": None,
    }
    with pytest.raises(ValueError, match=message):
        form_from_json(blob)


def test_prime_basis_first_proves_each_candidate_once(monkeypatch):
    from primewheel import wheel

    sieved = []

    def counting_bound(k):
        sieved.append(k)
        return prime_bound(k)

    prime_bound = wheel._prime_bound
    monkeypatch.setattr(wheel, "_prime_bound", counting_bound)
    wheel._first_primes.cache_clear()
    try:
        for _ in range(2):
            assert PrimeBasis.first(8).primes == (2, 3, 5, 7, 11, 13, 17, 19)
        assert PrimeBasis.first(3) == PrimeBasis((2, 3, 5))
    finally:
        wheel._first_primes.cache_clear()
    # One sieve per r: every candidate below the bound is decided once.
    assert sieved == [8, 3]


@pytest.mark.parametrize(
    "entry",
    [
        lambda form: evaluate(form, 0, {2: 1, 3: 1}),
        lambda form: decompose(form, 7),
        lambda form: enumerate_interval(form, IntervalSpec(1, 100)),
        lambda form: count_interval(form, IntervalSpec(1, 100)),
        lambda form: sorted_block_residues(form),
    ],
    ids=["evaluate", "decompose", "enumerate_interval", "count_interval", "sorted_block_residues"],
)
def test_raw_forms_are_refused_by_idempotent_only_code(entry):
    with pytest.raises(TypeError, match="canonicalize"):
        entry(build_raw(PrimeBasis.first(3)))
