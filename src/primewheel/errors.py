"""Shared error types and the one budget check every capped operation uses."""

from __future__ import annotations

# The scan budget when none is given: --budget and SCAN_BUDGET_ENV override it.
DEFAULT_SCAN_BUDGET = 10_000_000
# The environment variable the CLI reads a scan budget from, besides --budget.
SCAN_BUDGET_ENV = "PRIMEWHEEL_SCAN_BUDGET"
# Sizes from here up are shown by their digit count, whatever the interpreter's digit limit.
_DECIMAL_LIMIT = 10**4300


class BudgetExceeded(RuntimeError):
    """A scan, sieve or table build would exceed its configured budget.

    Carries the budget that was in force and the size the operation would
    actually need, so callers can retry with an explicit override. The
    message names the knobs that lift a scan budget; a cap that no knob
    controls passes a `remedy` saying what does.
    """

    def __init__(self, required: int, budget: int, what: str = "scan", remedy: str | None = None):
        self.required = required
        self.budget = budget
        self.what = what
        need, limit = _size(required), _size(budget)
        if remedy is None:
            remedy = f"raise --budget or {SCAN_BUDGET_ENV} to at least {need} to run this"
        super().__init__(f"{what} needs {need} but the budget is {limit}; {remedy}")


def _size(n: int) -> str:
    """n in decimal or, past 4,300 digits (Python's default int-to-str limit), its digit count."""
    if n < _DECIMAL_LIMIT:
        return str(n)
    # (bits - 1) * log10(2) is at most log10(n), so counting up from it ends at len(str(n)).
    digits = int((n.bit_length() - 1) * 0.30102999566398120)
    while 10**digits <= n:
        digits += 1
    return f"a number of {digits} digits"


def check_budget(required: int, budget: int | None, what: str, remedy: str | None = None) -> None:
    """Refuse work of size `required` above `budget` (DEFAULT_SCAN_BUDGET for None)."""
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    if required > limit:
        raise BudgetExceeded(required=required, budget=limit, what=what, remedy=remedy)
