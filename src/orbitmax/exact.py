"""Exact scalar kernels: bound factors, roots, rational and integer parsing,
and clearing the denominators of a rational vector.

Everything here is computed in exact integer / rational arithmetic
(``fractions.Fraction``); floating point appears only at the very end,
in :func:`root_2k` and :func:`bound_factor`, so that no certified
inequality can be broken by intermediate roundoff.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

# The one exactness rule of every int64 fast path: an engine computes in
# int64 when a bound on every value it reads out is at most _INT64_MAX.
# int64 arithmetic is exact modulo 2**64, so products and partial sums
# between those values may wrap without changing them (the one-modulus
# case of the modular method: von zur Gathen and Gerhard, *Modern Computer
# Algebra*, ch. 5).
_INT64_MAX = 2 ** 63 - 1

__all__ = [
    "bound_factor",
    "root_2k",
    "format_rational",
    "parse_rational",
    "parse_int",
    "parse_list",
    "parse_ints",
]


def root_2k(x: Fraction | int, k: int) -> float:
    """x**(1/(2k)) as a float64, relative error well under 4 ulp.

    Computed through 60-digit decimal arithmetic and rounded once to
    binary, so the result is correctly rounded for all practical
    purposes (in particular exact whenever the true root is a
    representable float, e.g. roots of perfect powers).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    if x < 0:
        raise ValueError("root_2k requires a non-negative argument")
    if x == 0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        num = Decimal(x.numerator)
        den = Decimal(x.denominator)
        return float((num / den) ** (Decimal(1) / Decimal(2 * k)))


def bound_factor(dim: int, k: int) -> float:
    """C(dim + k - 1, k)**(1/(2k)): the generic even-moment-to-max factor.

    The binomial is exact; only the single final root is floating.
    Always >= 1, and equal to sqrt(dim) at k = 1.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return root_2k(Fraction(math.comb(dim + k - 1, k)), k)


def format_rational(x: Fraction) -> str:
    """Canonical 'num/den' form in lowest terms with positive denominator."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse 'num/den' (or an integer / decimal string) into a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"refusing to parse boolean {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"refusing to parse float {value!r} as an exact rational; "
            "pass a 'num/den' string instead")
    try:
        return Fraction(str(value).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def parse_int(value: str | int) -> int:
    """An integer given as an int (not a bool), another integer type that
    defines ``__index__`` (such as numpy's), or a string int() accepts; a
    float such as 2.7 is refused, not truncated."""
    if isinstance(value, str):
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def parse_list(value: object) -> list:
    """A JSON array, as read from the input; a string is refused rather
    than read as the list of its characters, and so is any other value."""
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON array, got {value!r}")
    return value


def parse_ints(value: object) -> tuple[int, ...]:
    """A sequence of integers, each read with ``parse_int``; a string or
    bytes is refused rather than read as its characters."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"expected a sequence of integers, got {value!r}")
    return tuple(map(parse_int, value))


def _int_scaled(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Clear denominators: returns (the integers L*v, L)."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale
