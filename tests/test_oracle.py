import ast
import math
import random
from itertools import compress
from pathlib import Path

import pytest

from primewheel import oracle
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.cli import main
from primewheel.oracle import coprime_scan, factor_profile, omega, primes_in
from primewheel.wheel import PrimeBasis


def test_omega_frozen():
    assert omega(12) == 3
    assert omega(7) == 1
    assert omega(1) == 0
    assert omega(2**10) == 10


def test_spf_frozen():
    assert factor_profile(49).spf == 7
    assert factor_profile(202).spf == 2
    assert factor_profile(143).spf == 11
    assert factor_profile(2).spf == 2


def test_spf_rejects_unit(capsys):
    # The smallest prime factor is defined from 2; the `oracle spf` probe refuses 1 and 0.
    for n in ("1", "0"):
        assert main(["oracle", "spf", "--n", n]) == 2
        assert capsys.readouterr().err == "error: spf is defined for n >= 2\n"


def test_is_k_almost():
    # n is k-almost prime when omega(n) == k.
    assert omega(49) == 2
    assert omega(30) == 3
    assert omega(30) != 2
    assert omega(1) == 0
    assert omega(1) != 1


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


@pytest.mark.parametrize("segments", [oracle.coprime_segments, oracle.sieve_segments])
@pytest.mark.parametrize("moduli", [[-3], [0], [1]])
def test_segments_refuse_moduli_below_two_before_the_budget(segments, moduli):
    with pytest.raises(ValueError, match="^every modulus must be at least 2$"):
        segments(IntervalSpec(1, 20), moduli, budget=1)
    [(seg, flags, *_)] = segments(IntervalSpec(1, 20), PrimeBasis.first(3))
    assert list(compress(seg, flags)) == [1, 7, 11, 13, 17, 19]


def test_rough_sieve_matches_scan():
    # The old name, kept for one benchmark test, is the scan itself.
    assert oracle.rough_sieve is oracle.coprime_scan


def test_coprime_scan_wide_window():
    basis = PrimeBasis.first(5)
    spec = IntervalSpec(0, 2310 * 4)
    values = coprime_scan(spec, basis)
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
