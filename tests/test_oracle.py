import ast
import math
import random
from pathlib import Path

import pytest

from primewheel import oracle
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.oracle import (
    coprime_scan,
    factor_profile,
    is_k_almost,
    omega,
    primes_in,
    rough_sieve,
    spf,
)
from primewheel.wheel import PrimeBasis


def test_omega_frozen():
    assert omega(12) == 3
    assert omega(7) == 1
    assert omega(1) == 0
    assert omega(2**10) == 10


def test_spf_frozen():
    assert spf(49) == 7
    assert spf(202) == 2
    assert spf(143) == 11
    assert spf(2) == 2


def test_spf_rejects_unit():
    with pytest.raises(ValueError):
        spf(1)
    with pytest.raises(ValueError):
        spf(0)


def test_is_k_almost():
    assert is_k_almost(49, 2)
    assert is_k_almost(30, 3)
    assert not is_k_almost(30, 2)
    assert is_k_almost(1, 0)
    assert not is_k_almost(1, 1)


def test_factor_profile_small_exhaustive():
    """Profile invariants hold for every n up to 1e5, checked against a sieve."""
    limit = 10**5
    prime_set = set(primes_in(IntervalSpec(1, limit)))
    for n in range(1, limit):
        prof = factor_profile(n)
        assert prof.n == n
        assert math.prod(prof.factors) == n
        assert prof.omega == len(prof.factors)
        if n == 1:
            assert prof.spf == 0
            assert prof.factors == ()
        else:
            assert prof.spf == min(prof.factors)
            assert prof.factors == tuple(sorted(prof.factors))
        assert (prof.omega == 1) == (n in prime_set)


def test_omega_is_additive():
    rng = random.Random(141)
    for _ in range(1000):
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        assert omega(a * b) == omega(a) + omega(b)


def test_primes_in_frozen():
    first = primes_in(IntervalSpec(1, 50))
    assert len(first) == 15
    assert first[0] == 2
    assert first[-1] == 47
    assert primes_in(IntervalSpec(114, 127)) == []
    assert primes_in(IntervalSpec(127, 128)) == [127]


def test_primes_in_budget():
    with pytest.raises(BudgetExceeded):
        primes_in(IntervalSpec(1, 100), budget=10)


def test_coprime_scan_frozen():
    basis = PrimeBasis.first(3)
    assert coprime_scan(IntervalSpec(7, 49), basis) == [
        7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
    assert coprime_scan(IntervalSpec(0, 10), [4, 9]) == [1, 2, 3, 5, 6, 7]


def test_coprime_scan_budget_reports_requirement():
    with pytest.raises(BudgetExceeded) as info:
        coprime_scan(IntervalSpec(0, 1000), PrimeBasis.first(2), budget=100)
    assert info.value.required == 1000
    assert info.value.budget == 100


def test_rough_sieve_matches_scan():
    rng = random.Random(104729)
    for _ in range(50):
        r = rng.randrange(1, 7)
        basis = PrimeBasis.first(r)
        lo = rng.randrange(0, 10**6)
        spec = IntervalSpec(lo, lo + rng.randrange(1, 20000))
        assert rough_sieve(spec, basis) == coprime_scan(spec, basis)


def test_rough_sieve_wide_window():
    basis = PrimeBasis.first(5)
    spec = IntervalSpec(0, 2310 * 4)
    values = rough_sieve(spec, basis)
    assert len(values) == 480 * 4
    assert values[0] == 1
    assert all(all(v % p for p in basis.primes) for v in values)


def test_oracle_imports_only_its_three_names_from_the_package():
    # The oracle checks the wheel, so it shares none of the wheel's machinery.
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "primewheel"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "primewheel":
                module = module.removeprefix("primewheel").lstrip(".")
                imported |= {(module, a.name) for a in node.names}
    assert imported == {
        ("enumeration", "IntervalSpec"), ("_record", "Record"), ("errors", "check_budget")
    }
