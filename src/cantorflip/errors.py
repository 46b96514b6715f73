"""Shared exception types, the budget message and the arity check."""

import math


class BudgetError(RuntimeError):
    """A requested computation exceeds its documented size budget.

    Raised instead of attempting work that would exhaust memory or overflow
    64-bit counters; callers should lower the depth or switch to a sampling
    mode. The command line tool maps this to exit code 3.
    """


def _check_arity(M: int) -> None:
    """The package's one arity check: a tree needs at least two children a node."""
    if M < 2:
        raise ValueError(f"arity must be at least 2, got {M}")


def _budget_error(request: str, cap: int, name: str) -> BudgetError:
    """The package's one budget message: the requested size, the cap and its constant."""
    return BudgetError(f"{request}, over the cap of {cap} set by {name}")


def _checked_power(request: str, base: int, exp: int, cap: int, name: str) -> int:
    """``base**exp``, or the budget error for ``request.format(size)`` if it exceeds ``cap``.

    A power past cap^2 is rejected in log space, so it is never formed, and
    its size reads ``base^exp``; any other power is formed, compared exactly
    and printed in full.
    """
    if exp > 2 * math.log2(cap) / math.log2(base):  # base**exp > cap**2
        raise _budget_error(request.format(f"{base}^{exp}"), cap, name)
    size = base**exp
    if size > cap:
        raise _budget_error(request.format(size), cap, name)
    return size
