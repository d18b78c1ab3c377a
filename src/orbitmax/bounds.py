"""Certified two-sided interval for a maximum absolute value."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .exact import _Frozen, _power_cmp, format_rational, parse_positive, root_2k

__all__ = ["Interval"]


class Interval(_Frozen):
    """A sandwich lower <= max <= upper certified from an exact even moment.

    ``lower_exact`` is the exact 2k-th power of the lower end (the even
    moment itself) and ``upper_exact`` that of the upper end (moment
    times the exact bound factor); the floats are their 2k-th roots
    rounded outward, so that ``lower**(2k) <= lower_exact`` and
    ``upper**(2k) >= upper_exact`` hold exactly for the floats too.
    ``degenerate`` marks the [0, 0] interval produced for
    an identically-zero objective, which certifies nothing.  Intervals
    are immutable, and equal when all six fields are.
    """

    __slots__ = ("lower", "upper", "lower_exact", "upper_exact", "k_used", "degenerate")

    def __init__(self, lower: float, upper: float, lower_exact: Fraction,
                 upper_exact: Fraction, k_used: int, degenerate: bool = False) -> None:
        if lower > upper:
            raise ValueError("interval ends out of order")
        self._set(lower, upper, lower_exact, upper_exact, k_used, degenerate)

    @classmethod
    def from_moment(cls, moment: Fraction, factor: int, k: int) -> "Interval":
        """Build the interval from the exact moment and exact 2k-power
        factor; k is read with ``exact.parse_positive``."""
        k = parse_positive(k, "k")
        if moment < 0:
            raise ValueError("even moment cannot be negative")
        upper_exact = moment * factor
        return cls(
            lower=_outward_root(moment, k, upward=False),
            upper=_outward_root(upper_exact, k, upward=True),
            lower_exact=moment,
            upper_exact=upper_exact,
            k_used=k,
            degenerate=(moment == 0),
        )

    @property
    def ratio(self) -> float:
        """upper / lower (inf-free: 1.0 for the degenerate interval)."""
        if self.lower == 0.0:
            return 1.0 if self.upper == 0.0 else float("inf")
        return self.upper / self.lower

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_exact": format_rational(self.lower_exact),
            "upper_exact": format_rational(self.upper_exact),
            "k": self.k_used,
            "degenerate": self.degenerate,
        }


def _outward_root(x: Fraction, k: int, upward: bool) -> float:
    """x**(1/(2k)) rounded outward: the smallest float whose 2k-th power
    is at least x (upward), or the largest float whose 2k-th power is at
    most x.  It starts from ``root_2k``, which is within one float step
    of the root, and steps outward until the exact comparison of the
    float's 2k-th power with x brackets the root, so a seed on the wrong
    side costs one more comparison per step, never an uncertified end.
    A root above the float range gives inf upward and the largest float
    downward."""
    n = 2 * k
    f = root_2k(x, k)
    if upward:
        while f < math.inf and _power_cmp(f, n, x) < 0:
            f = math.nextafter(f, math.inf)
    else:
        f = min(f, sys.float_info.max)
        while _power_cmp(f, n, x) > 0:
            f = math.nextafter(f, 0.0)
    return f
