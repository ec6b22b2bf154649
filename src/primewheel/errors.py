"""Shared error types."""

from __future__ import annotations


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
