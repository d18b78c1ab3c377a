"""Exact scalar kernels: sphere monomial integrals, bound factors, roots.

Everything here is computed in exact integer / rational arithmetic
(``fractions.Fraction``); floating point appears only at the very end,
in :func:`root_2k` and :func:`bound_factor`, so that no certified
inequality can be broken by intermediate roundoff.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

__all__ = [
    "sphere_monomial_moment",
    "bound_factor",
    "root_2k",
    "format_rational",
    "parse_rational",
]


@lru_cache(maxsize=None)
def _gamma_half(twice_x: int) -> tuple[Fraction, int]:
    """Gamma(twice_x / 2) as (rational, e) meaning rational * sqrt(pi)**e.

    Evaluated purely by the recurrence Gamma(x+1) = x Gamma(x) from the
    base cases Gamma(1) = 1 and Gamma(1/2) = sqrt(pi); no floating
    Gamma is ever used.
    """
    if twice_x < 1:
        raise ValueError("gamma argument must be positive")
    if twice_x % 2 == 0:
        return Fraction(math.factorial(twice_x // 2 - 1)), 0
    r = Fraction(1)
    x = Fraction(1, 2)
    for _ in range((twice_x - 1) // 2):
        r *= x
        x += 1
    return r, 1


def sphere_monomial_moment(alpha: Sequence[int], n: int) -> Fraction:
    """Average of the monomial x1**a1 * ... * xn**an over the unit sphere.

    The sphere carries the rotation-invariant probability measure.  If
    any exponent is odd the average is 0 by symmetry; otherwise it is a
    ratio of Gamma values at half-integers, which is rational because
    every sqrt(pi) factor cancels identically.  The cancellation is
    tracked symbolically, so the result is exact.
    """
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if len(alpha) != n:
        raise ValueError(f"exponent vector has length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be non-negative")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    beta = [a // 2 for a in alpha]
    num, spi = _gamma_half(n)                     # Gamma(n/2)
    for b in beta:
        g, e = _gamma_half(2 * b + 1)             # Gamma(b + 1/2)
        num *= g
        spi += e
    den, e = _gamma_half(2 * sum(beta) + n)       # Gamma(sum(beta) + n/2)
    spi -= e
    spi -= n                                      # pi**(n/2) = sqrt(pi)**n
    if spi != 0:
        raise AssertionError("sqrt(pi) bookkeeping failed to cancel")
    return num / den


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
