"""Shared error types and the one budget check every capped operation uses."""

from __future__ import annotations

# The scan budget when none is given: --budget and PRIMEWHEEL_SCAN_BUDGET override it.
DEFAULT_SCAN_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """A scan, sieve or table build would exceed its configured budget.

    Carries the budget that was in force and the size the operation would
    actually need, so callers can retry with an explicit override. A budget
    that no override controls passes a `remedy` saying what does.
    """

    def __init__(self, required: int, budget: int, what: str = "scan", remedy: str | None = None):
        self.required = required
        self.budget = budget
        self.what = what
        if remedy is None:
            remedy = f"raise the budget to at least {required} to run this"
        super().__init__(f"{what} needs {required} but the budget is {budget}; {remedy}")


def check_budget(required: int, budget: int | None, what: str, remedy: str | None = None) -> None:
    """Refuse work of size `required` above `budget` (DEFAULT_SCAN_BUDGET for None)."""
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    if required > limit:
        raise BudgetExceeded(required=required, budget=limit, what=what, remedy=remedy)
