"""Shared exception types."""

from __future__ import annotations

__all__ = ["BudgetError"]


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured resource budget.

    ``required`` is the projected work (collected terms, plan terms and
    multiply-adds, partition terms, or the fewer of a pinned step's
    sweep rows and enumerated evaluations), ``budget`` the configured
    limit, and ``k`` the moment order that triggered the blow-up when
    one is attributable.
    """

    def __init__(self, message: str, *, required: int | None = None,
                 budget: int | None = None, k: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget
        self.k = k
