"""Golden contraction widths and budget refusals of the partition engine.

``golden_budget.json`` holds ``sorted(limit(top).widths)`` of every
shipped plan at every block limit from 1 to l, and what
``_contract.check_budget`` does on a grid of (n, d, k, budget): the
``required`` count and message of its ``BudgetError``, or null where it
admits the call.  The grid covers block limits below l (n < 2kd) and at
l (n >= 2kd), and budgets both below and at the plan-term count, so that
the multiply-adds of the contractions are charged too.  How a side
schedules its contractions may change; what the budget charges may not.
To regenerate the file after a deliberate change of the charge, run

    PYTHONPATH=src python tests/test_golden_budget.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from orbitmax import _contract
from orbitmax.errors import BudgetError

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_budget.json")

# (n, d, k): shipped shapes below and at their full block limit, and two
# built ones whose plans stay small at these n ((2, 3) at 12 blocks
# would take gigabytes to build)
SHAPES = tuple((n, d, k) for d, k in ((2, 1), (2, 2), (3, 1))
               for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 30)) + \
    tuple((n, 2, 3) for n in (2, 3, 4)) + tuple((n, 4, 1) for n in (2, 3, 4, 30))
FIXED_BUDGETS = (0, 10 ** 3, 10 ** 5, 10 ** 7)


def widths() -> dict:
    out = {}
    for d, m in sorted(_contract._SHIPPED):
        plan = _contract._plan(d, m)
        out[f"d{d}-m{m}"] = [sorted(map(list, plan.limit(top).widths))
                             for top in range(1, m * d + 1)]
    return out


def refusal(n: int, d: int, k: int, budget: int):
    try:
        _contract.check_budget(n, d, 2 * k, budget)
    except BudgetError as exc:
        return [exc.required, str(exc)]
    return None


def budgets(n: int, d: int, k: int) -> list[int]:
    """The fixed budgets, then the plan-term count itself: the smallest
    budget at which the contractions' multiply-adds are charged too."""
    terms = _contract.plan_terms(d, 2 * k, min(n, 2 * k * d))
    return [*FIXED_BUDGETS, terms]


def refusals() -> dict:
    return {f"n{n}-d{d}-k{k}": [[budget, refusal(n, d, k, budget)]
                                for budget in budgets(n, d, k)]
            for n, d, k in SHAPES}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_widths_match_golden(golden):
    assert widths() == golden["widths"]


def test_refusals_match_golden(golden):
    assert refusals() == golden["refusals"]


def test_grid_covers_both_sides_of_the_full_limit(golden):
    # some refusals charge the contractions below l blocks, some at l
    charged = [(n < 2 * k * d) for n, d, k in SHAPES
               for budget, out in golden["refusals"][f"n{n}-d{d}-k{k}"]
               if out is not None and out[0] > budget
               and budget >= _contract.plan_terms(d, 2 * k, min(n, 2 * k * d))]
    assert True in charged and False in charged


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"widths": widths(), "refusals": refusals()}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
