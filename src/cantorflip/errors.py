"""Shared exception types."""


class BudgetError(RuntimeError):
    """A requested computation exceeds its documented size budget.

    Raised instead of attempting work that would exhaust memory or overflow
    64-bit counters; callers should lower the depth or switch to a sampling
    mode. The command line tool maps this to exit code 3.
    """


def _budget_error(request: str, cap: int, name: str) -> BudgetError:
    """The package's one budget message: the requested size, the cap and its constant."""
    return BudgetError(f"{request}, over the cap of {cap} set by {name}")
