"""Shared error types and the one budget check every capped operation uses.

One rule decides every cap. A cap on work (integers scanned or sieved,
trial divisors, identity25 grid rows, inclusion-exclusion terms,
coefficient bits) is a check_budget against the scan budget, which
--budget and SCAN_BUDGET_ENV override. A cap on memory is a named fixed
constant beside what it guards, and its remedy says what memory that is
and that no knob raises it. Either cap is checked before the work starts.
"""

from __future__ import annotations

# The scan budget when none is given: --budget and SCAN_BUDGET_ENV override it.
DEFAULT_SCAN_BUDGET = 10_000_000
# The environment variable the CLI reads a scan budget from, besides --budget.
SCAN_BUDGET_ENV = "PRIMEWHEEL_SCAN_BUDGET"
# Sizes from here up are shown by their digit count, whatever the interpreter's digit limit.
_DECIMAL_LIMIT = 10**4300


class BudgetExceeded(RuntimeError):
    """An operation would exceed its work budget or a fixed memory cap.

    Carries the budget that was in force and the size the operation would
    actually need, so callers can retry with an explicit override. The
    message names the knobs that lift a work budget; a fixed memory cap
    passes a `remedy` saying what does.
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
    power = 10**digits  # built once: each rebuild of a millions-digit power costs seconds
    while power <= n:
        digits, power = digits + 1, power * 10
    return f"a number of {digits} digits"


def check_budget(required: int, budget: int | None, what: str, remedy: str | None = None) -> None:
    """Refuse work of size `required` above `budget` (DEFAULT_SCAN_BUDGET for None)."""
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    if required > limit:
        raise BudgetExceeded(required=required, budget=limit, what=what, remedy=remedy)
