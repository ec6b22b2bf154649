"""Forms store only their parameters: derived idempotents and constants, and
the one comparison of outside coefficients in form_from_json and canonicalize."""

import math
import random

import pytest

from primewheel.forms import build_raw, canonicalize, form_from_json, form_to_json
from primewheel.wheel import CoprimeWheelForm, PrimeBasis, build_coprime_wheel


def _coprime_moduli(rng):
    """2 to 5 pairwise coprime moduli of at least 2 with a product of at most 10^5."""
    count = rng.randint(2, 5)
    while True:
        mods = []
        for q in rng.sample(range(2, 40), 38):
            if all(math.gcd(q, m) == 1 for m in mods) and math.prod(mods) * q <= 10**5:
                mods.append(q)
                if len(mods) == count:
                    return tuple(mods)


MODULI = [_coprime_moduli(random.Random(seed)) for seed in range(12)]


def _forms(mods):
    yield build_coprime_wheel(mods)
    for h1 in range(1, mods[0]):
        yield build_coprime_wheel(mods, h1=h1)


@pytest.mark.parametrize("mods", MODULI, ids=str)
def test_coefficients_and_constant_are_the_brute_force_residues(mods):
    period = math.prod(mods)
    by_residues = {tuple(x % q for q in mods): x for x in range(period)}
    assert len(by_residues) == period
    idems = [by_residues[tuple(int(i == j) for i in range(len(mods)))] for j in range(len(mods))]
    free = build_coprime_wheel(mods)
    assert free.free_indices == tuple(range(1, len(mods) + 1))
    assert free.coeffs == tuple(idems) and free.constant == 0
    for h1 in range(1, mods[0]):
        pinned = build_coprime_wheel(mods, h1=h1)
        assert pinned.free_indices == tuple(range(2, len(mods) + 1))
        assert pinned.coeffs == tuple(idems[1:])
        assert pinned.constant == by_residues[(h1,) + (0,) * (len(mods) - 1)]


@pytest.mark.parametrize("mods", MODULI, ids=str)
def test_round_trip_and_every_tampered_blob_is_refused(mods):
    for form in _forms(mods):
        blob = form_to_json(form)
        assert form_from_json(blob) == form
        for key, value in blob["coeffs"].items():
            for bad in (int(value) - 1, int(value) + 1, int(value) + form.period):
                with pytest.raises(ValueError, match=f"coefficient for h{key} "):
                    form_from_json({**blob, "coeffs": {**blob["coeffs"], key: str(bad)}})
        for bad in (form.constant - 1, form.constant + 1):
            with pytest.raises(ValueError, match="constant"):
                form_from_json({**blob, "constant": str(bad)})
        for bad in (form.period - 1, form.period + 1, mods[0], 2 * form.period):
            with pytest.raises(ValueError, match="^period differs "):
                form_from_json({**blob, "period": str(bad)})
        assert form_from_json({**blob, "period": form.period}) == form  # compared as integers
        for bad in ("minus-h", "bogus", None):
            with pytest.raises(ValueError, match=f"^convention {bad!r} is not this form's 'plus-h'$"):
                form_from_json({**blob, "convention": bad})


def _old_refusal(mods):
    """The pairwise search build_coprime_wheel ran before the lcm check."""
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            g = math.gcd(mods[i], mods[j])
            if g > 1:
                return f"moduli {mods[i]} and {mods[j]} are not coprime (gcd {g})"
    return None


def test_shared_factors_are_refused_with_the_pairwise_message():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        mods = tuple(rng.randint(2, 60) for _ in range(rng.randint(2, 5)))
        want = _old_refusal(mods)
        if want is None:
            continue
        for build in (build_coprime_wheel, lambda m: CoprimeWheelForm(m, None)):
            with pytest.raises(ValueError) as info:
                build(mods)
            assert str(info.value) == want
        checked += 1


@pytest.mark.parametrize(
    "mods, h1, message",
    [
        ((), None, "need at least one modulus"),
        ((5, 1), None, "every modulus must be at least 2"),
        ((4, 9), 0, "h1 must lie in 1..3, got 0"),
        ((4, 9), 4, "h1 must lie in 1..3, got 4"),
    ],
)
def test_parameter_refusals(mods, h1, message):
    with pytest.raises(ValueError, match=message):
        CoprimeWheelForm(mods, h1)


def test_pinned_h1_out_of_range_in_json_is_refused_by_the_constructor():
    blob = form_to_json(build_coprime_wheel([4, 9], h1=1))
    with pytest.raises(ValueError, match="h1 must lie in 1..3, got 5"):
        form_from_json({**blob, "pinned_h1": 5})


@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_canonicalize_refuses_a_tampered_raw_coefficient(j):
    raw = build_raw(PrimeBasis.first(5))
    coeffs = list(raw.coeffs)
    coeffs[j - 2] += 1
    object.__setattr__(raw, "coeffs", tuple(coeffs))
    with pytest.raises(ValueError, match=f"coefficient for h{j} is not idempotent mod "):
        canonicalize(raw)
