"""The primes the forms are read off: the first r from one sieve, the next s from one window.

Raw forms are stored by their unit-equation solutions and derive their
coefficients once; JSON that disagrees with its solutions is refused.
"""

import subprocess
import sys

import pytest

from primewheel import forms, oracle, theorems, wheel
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.forms import build_raw, form_from_json, form_to_json
from primewheel.wheel import PrimeBasis


def _trial_division_primes(count: int) -> list[int]:
    """The first `count` primes, each odd candidate tried against the primes up to its root."""
    primes = [2]
    n = 3
    while len(primes) < count:
        for p in primes:
            if p * p > n:
                primes.append(n)
                break
            if n % p == 0:
                break
        n += 2
    return primes[:count]


@pytest.fixture(scope="module")
def reference():
    return _trial_division_primes(20_000)


def test_first_primes_equal_trial_division(reference):
    wheel._first_primes.cache_clear()
    try:
        for r in range(1, 3001):
            assert wheel._first_primes(r) == tuple(reference[:r]), r
        assert wheel._first_primes(20_000) == tuple(reference)
    finally:
        wheel._first_primes.cache_clear()


def test_prime_bound_exceeds_every_prime_up_to_the_100000th():
    # p_100000 = 1,299,709; the oracle's sieve shares no code with the bound.
    primes = oracle.primes_in(IntervalSpec(1, 1_299_710))
    assert len(primes) == 100_000
    assert all(wheel._prime_bound(k) > p for k, p in enumerate(primes, start=1))


def _prime_after(p: int) -> int:
    # Bertrand guarantees a prime strictly between p and 2p for p > 1.
    return oracle.primes_in(IntervalSpec(p + 1, 2 * p + 2))[0]


@pytest.mark.parametrize("r", range(1, 41))
def test_primes_after_equal_iterated_bertrand_windows(r):
    basis = PrimeBasis.first(r)
    expected = [basis.primes[-1]]
    for _ in range(60):
        expected.append(_prime_after(expected[-1]))
    for s in range(1, 61):
        assert theorems._primes_after(basis, s) == expected[1 : s + 1]


@pytest.mark.parametrize("r", [10**9, 10**400])
def test_a_basis_past_the_fixed_limit_is_refused_before_sieving(monkeypatch, r):
    def no_sieve(*args):
        raise AssertionError("sieved before checking the size")

    monkeypatch.setattr(wheel, "bytearray", no_sieve, raising=False)
    with pytest.raises(BudgetExceeded, match="no flag or environment variable raises") as info:
        PrimeBasis.first(r)
    assert info.value.required == wheel._prime_bound(r)
    assert info.value.budget == wheel.BASIS_SIEVE_LIMIT


def test_gen_past_the_basis_limit_exits_3_with_one_error_line():
    done = subprocess.run(
        [sys.executable, "-m", "primewheel", "gen", "--r", "700000", "--lo", "1", "--hi", "2"],
        capture_output=True, text=True, timeout=20,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: basis prime sieve needs ")
    assert done.stderr.count("\n") == 1


def test_build_raw_derives_the_coefficients_once(monkeypatch):
    calls = []

    def counting(primes, xs):
        calls.append(primes)
        return raw_coeffs(primes, xs)

    raw_coeffs = forms._raw_coeffs
    monkeypatch.setattr(forms, "_raw_coeffs", counting)
    raw = build_raw(PrimeBasis.first(6))
    assert len(calls) == 1
    assert raw.coeffs == raw_coeffs(raw.basis.primes, (x for x, _ in raw.solutions))


def test_raw_blob_with_a_tampered_constant_is_refused():
    raw = build_raw(PrimeBasis.first(4))
    blob = form_to_json(raw)
    assert form_from_json(blob) == raw
    for constant in ("0", "-2", "209"):
        with pytest.raises(ValueError, match="^raw forms carry the constant -1$"):
            form_from_json({**blob, "constant": constant})
