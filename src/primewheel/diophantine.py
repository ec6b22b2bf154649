"""Exact solvers for linear Diophantine equations of the shape a*x - b*y = c.

Everything runs on Python's arbitrary-precision integers, so there are no
overflow semantics to worry about. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, u, v) with g = gcd(a, b) >= 0 and a*u + b*v = g.

    gcd(0, 0) is undefined and rejected.
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


@dataclass(frozen=True)
class SolutionFamily:
    """The complete integer solution set of a*x - b*y = c for coprime a, b.

    Solutions are exactly {(base_x + k*step_x, base_y + k*step_y) : k in Z}
    with step_x = b and step_y = a; the steps are exposed as properties so
    the invariant cannot drift from the coefficients.
    """

    a: int
    b: int
    c: int
    base_x: int
    base_y: int

    def __post_init__(self) -> None:
        if self.a * self.base_x - self.b * self.base_y != self.c:
            raise ValueError("base solution does not satisfy a*x - b*y = c")

    @property
    def step_x(self) -> int:
        return self.b

    @property
    def step_y(self) -> int:
        return self.a


def solve_linear(a: int, b: int, c: int) -> SolutionFamily:
    """Solve a*x - b*y = c for coprime a, b > 0.

    The base solution is normalized to the least non-negative x
    (0 <= base_x < b), which makes results reproducible; every other
    solution is reachable through nth_solution.
    """
    if a <= 0 or b <= 0:
        raise ValueError("coefficients a and b must be positive")
    g, u, _ = ext_gcd(a, b)
    if g != 1:
        raise ValueError(f"gcd({a}, {b}) = {g}; coefficients must be coprime")
    base_x = (c * u) % b
    base_y = (a * base_x - c) // b
    return SolutionFamily(a=a, b=b, c=c, base_x=base_x, base_y=base_y)


def solve_unit(i: int, basis) -> SolutionFamily:
    """Solve p_i*x - (p_1*...*p_{i-1})*y = 1 for the i-th basis element (1-based).

    `basis` is any iterable of pairwise coprime moduli, including a
    PrimeBasis. The base solution is the least positive x, which lies
    strictly between 0 and p_1*...*p_{i-1}.
    """
    moduli = tuple(basis)
    if not 2 <= i <= len(moduli):
        raise ValueError(f"index must satisfy 2 <= i <= {len(moduli)}, got {i}")
    lead = moduli[i - 1]
    trailing = math.prod(moduli[: i - 1])
    return solve_linear(lead, trailing, 1)


def nth_solution(family: SolutionFamily, k: int) -> tuple[int, int]:
    """The k-th member (base_x + k*step_x, base_y + k*step_y) of the family."""
    return family.base_x + k * family.step_x, family.base_y + k * family.step_y
