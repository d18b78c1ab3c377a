"""Certified two-sided interval for a maximum absolute value."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exact import format_rational, root_2k

__all__ = ["Interval"]


@dataclass(frozen=True)
class Interval:
    """A sandwich lower <= max <= upper certified from an exact even moment.

    ``lower_exact`` is the exact 2k-th power of the lower end (the even
    moment itself) and ``upper_exact`` that of the upper end (moment
    times the exact bound factor); the floats are their 2k-th roots
    rounded outward, so that ``lower**(2k) <= lower_exact`` and
    ``upper**(2k) >= upper_exact`` hold exactly for the floats too.
    ``degenerate`` marks the [0, 0] interval produced for
    an identically-zero objective, which certifies nothing.
    """

    lower: float
    upper: float
    lower_exact: Fraction
    upper_exact: Fraction
    k_used: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("interval ends out of order")

    @classmethod
    def from_moment(cls, moment: Fraction, factor: int, k: int) -> "Interval":
        """Build the interval from the exact moment and exact 2k-power factor."""
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
    """The float nearest x**(1/(2k)), moved one step outward when its
    exact 2k-th power lies on the wrong side of x.  The nearest float is
    within one step of the true root, so one step suffices, and a root
    that is itself a float is returned unchanged.  A root above the
    float range gives inf upward and the largest float downward."""
    f = root_2k(x, k)
    if math.isinf(f):
        if upward:
            return f
        f = sys.float_info.max  # checked below like any other root
    power = Fraction(f) ** (2 * k)
    if upward and power < x:
        return math.nextafter(f, math.inf)
    if not upward and power > x:
        return math.nextafter(f, 0.0)
    return f
