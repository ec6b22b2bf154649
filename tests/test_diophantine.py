import math
import random

import pytest

from primewheel.diophantine import (
    SolutionFamily,
    nth_solution,
    solve_linear,
    solve_unit,
)
from primewheel.wheel import PrimeBasis


def test_solve_linear_frozen_cases():
    fam = solve_linear(3, 2, 1)
    assert (fam.base_x, fam.base_y) == (1, 1)
    assert (fam.step_x, fam.step_y) == (2, 3)

    fam = solve_linear(5, 6, 0)
    assert (fam.base_x, fam.base_y) == (0, 0)
    assert (fam.step_x, fam.step_y) == (6, 5)

    fam = solve_linear(7, 30, 2)
    assert (fam.base_x, fam.base_y) == (26, 6)
    assert (fam.step_x, fam.step_y) == (30, 7)


def test_solve_linear_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_linear(4, 6, 1)
    with pytest.raises(ValueError):
        solve_linear(0, 5, 1)
    with pytest.raises(ValueError):
        solve_linear(5, -2, 1)


def test_family_rejects_inconsistent_base():
    with pytest.raises(ValueError):
        SolutionFamily(a=3, b=2, c=1, base_x=2, base_y=1)


def test_solution_family_random_property():
    """Every k-th member of a random family solves the equation exactly."""
    rng = random.Random(20260813)
    for _ in range(1000):
        a = rng.randrange(1, 2**64)
        b = rng.randrange(1, 2**64)
        while math.gcd(a, b) != 1:
            a = rng.randrange(1, 2**64)
            b = rng.randrange(1, 2**64)
        c = rng.randrange(-(2**32), 2**32 + 1)
        fam = solve_linear(a, b, c)
        assert 0 <= fam.base_x < b
        for k in range(-3, 4):
            x, y = nth_solution(fam, k)
            assert a * x - b * y == c, f"a={a} b={b} c={c} k={k}"


def test_solve_unit_frozen_cases():
    basis = PrimeBasis.first(4)
    fam = solve_unit(2, basis)
    assert (fam.base_x, fam.base_y) == (1, 1)
    fam = solve_unit(3, basis)
    assert (fam.base_x, fam.base_y) == (5, 4)
    fam = solve_unit(4, basis)
    assert (fam.base_x, fam.base_y) == (13, 3)


def test_solve_unit_accepts_plain_sequences():
    fam = solve_unit(2, [2, 3])
    assert (fam.base_x, fam.base_y) == (1, 1)
    fam = solve_unit(3, [2, 3, 5])
    assert (fam.base_x, fam.base_y) == (5, 4)


def test_solve_unit_index_bounds():
    basis = PrimeBasis.first(3)
    with pytest.raises(ValueError):
        solve_unit(1, basis)
    with pytest.raises(ValueError):
        solve_unit(4, basis)


def test_solve_unit_base_is_least_positive():
    basis = PrimeBasis.first(10)
    for i in range(2, 11):
        fam = solve_unit(i, basis)
        trailing = math.prod(basis.primes[: i - 1])
        assert 0 < fam.base_x < trailing
        p = basis.primes[i - 1]
        assert p * fam.base_x - trailing * fam.base_y == 1


def test_nth_solution_walks_the_family():
    fam = solve_linear(7, 30, 2)
    assert nth_solution(fam, 0) == (26, 6)
    assert nth_solution(fam, 1) == (56, 13)
    assert nth_solution(fam, -1) == (-4, -1)
