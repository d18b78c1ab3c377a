"""Shared exception types."""

from __future__ import annotations

__all__ = ["BudgetError"]


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured resource budget.

    ``required`` is the projected work (collected terms, plan terms and
    multiply-adds, partition terms, or the fewer of a pinned step's
    sweep rows and enumerated evaluations), ``budget`` the configured
    limit, and ``k`` the moment order that triggered the blow-up when
    one is attributable.  ``BudgetError.check`` raises the refusals that
    compare a count of work with a budget.
    """

    def __init__(self, message: str, *, required: int | None = None,
                 budget: int | None = None, k: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget
        self.k = k

    @classmethod
    def check(cls, required: int, budget: int, what: str, *args: object,
              k: int | None = None) -> None:
        """Refuse ``required`` work above ``budget``: the message is
        ``what`` formatted with ``args`` and then ", budget is B", built
        only when it refuses."""
        if required > budget:
            raise cls(what.format(*args) + f", budget is {budget}",
                      required=required, budget=budget, k=k)
