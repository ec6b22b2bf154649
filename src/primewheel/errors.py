"""Shared error types and the one budget check every capped operation uses.

One rule decides every cap. A cap on work (integers scanned or sieved,
trial divisors, identity25 grid rows, inclusion-exclusion terms,
coefficient bits) is a check_budget against the scan budget, which
--budget and SCAN_BUDGET_ENV override. A cap on memory (the basis
sieve, the residue table) or precision (the Omega sieve's window bits) is
a fixed constant beside what it guards, and its remedy says so. Either
cap is checked before the work starts.
"""

from __future__ import annotations

# The scan budget when none is given: --budget and SCAN_BUDGET_ENV override it.
DEFAULT_SCAN_BUDGET = 10_000_000
# The environment variable the CLI reads a scan budget from, besides --budget.
SCAN_BUDGET_ENV = "PRIMEWHEEL_SCAN_BUDGET"
# Sizes from here up are shown by their bit length, which builds no integer.
_DECIMAL_LIMIT = 10**4300


class BudgetExceeded(RuntimeError):
    """An operation would exceed its work budget or a fixed memory cap.

    Carries the budget that was in force and the size the operation would
    actually need, so callers can retry with an explicit override. The
    message names the knobs that lift a work budget; a fixed memory cap
    passes a `remedy` saying what does. A size too large to build is worded
    by `need`, and `required` is then a lower bound on its bit length.
    """

    def __init__(
        self, required: int, budget: int, what: str = "scan", remedy: str | None = None,
        need: str | None = None,
    ):
        self.required = required
        self.budget = budget
        self.what = what
        need, limit = need or _size(required), _size(budget)
        if remedy is None:
            remedy = f"raise --budget or {SCAN_BUDGET_ENV} to at least {need} to run this"
        super().__init__(f"{what} needs {need} but the budget is {limit}; {remedy}")


def _size(n: int) -> str:
    """n in decimal or, past 4,300 digits (Python's default int-to-str limit), its bit length."""
    if n < _DECIMAL_LIMIT:
        return str(n)
    return f"a number of {n.bit_length()} bits"


def check_budget(required: int, budget: int | None, what: str, remedy: str | None = None) -> None:
    """Refuse work of size `required` above `budget` (DEFAULT_SCAN_BUDGET for None)."""
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    if required > limit:
        raise BudgetExceeded(required=required, budget=limit, what=what, remedy=remedy)
