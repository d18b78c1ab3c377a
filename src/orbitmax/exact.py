"""Exact scalar kernels: bound factors, roots, rational and integer parsing,
and clearing the denominators of a rational vector; and ``_Frozen``, the
immutable base of the library's value types.

Everything here is computed in exact integer / rational arithmetic
(``fractions.Fraction``); floating point appears only at the very end,
in :func:`root_2k` and :func:`bound_factor`, so that no certified
inequality can be broken by intermediate roundoff.  :func:`root_2k`
estimates its root in integers cut to their leading 160 bits, and the
float it returns is within one step of the root.  ``bounds`` certifies
each interval end from it with ``_power_cmp``, which compares a float's
2k-th power with a rational on the same 160-bit bounds, and exactly
only where those cannot tell them apart.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

# The one exactness rule of every int64 fast path: an engine computes in
# int64 when a bound on every value it reads out is at most _INT64_MAX.
# int64 arithmetic is exact modulo 2**64, so products and partial sums
# between those values may wrap without changing them.  This is the
# one-modulus case of the modular method (von zur Gathen and Gerhard,
# *Modern Computer Algebra*, ch. 5), which the pinned d >= 2 steps take
# above the bound too: they compute modulo the fewest primes below 2**31
# whose product exceeds the bound (a product of two residues fits in
# int64) and rebuild only the values they read out, which are >= 0, by
# the Chinese remainder theorem (``_residue``).
_INT64_MAX = 2 ** 63 - 1

__all__ = [
    "bound_factor",
    "root_2k",
    "format_rational",
    "parse_rational",
    "parse_int",
    "parse_budget",
    "parse_list",
    "parse_ints",
    "parse_rationals",
]


# the precision of root_2k's estimate and of the 2k-th power bounds
_BITS = 160


def _lead(v: int) -> tuple[int, int]:
    """(t, s) with t the leading _BITS bits of v >= 0: t == v >> s."""
    s = max(v.bit_length() - _BITS, 0)
    return v >> s, s


def _pow_trunc(m: int, n: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2**s <= m**n <= hi * 2**s for m >= 1, n >= 2.

    Left-to-right square and multiply, each product cut to its leading
    _BITS bits: rounded down in lo and up in hi.  Both are exact while
    no product is cut."""
    lo = hi = m
    s = 0
    for bit in bin(n)[3:]:
        lo, hi, s = lo * lo, hi * hi, 2 * s
        if bit == "1":
            lo, hi = lo * m, hi * m
        cut = hi.bit_length() - _BITS
        if cut > 0:
            lo, hi, s = lo >> cut, -(-hi >> cut), s + cut
    return lo, hi, s


def root_2k(x: Fraction | int, k: int) -> float:
    """x**(1/(2k)) as a float64 within one float step of the true root.

    The numerator and denominator are cut to their leading 160 bits; a
    float seed taken from their log2 and bit lengths is refined by two
    Newton steps in 160-bit integers (one ``_pow_trunc`` each), and the
    estimate, within about 2**-140 of the root relative, is rounded once
    to the nearest float.  So the result is the nearest float unless the
    root lies that close to a midpoint between two floats, and is exact
    whenever the root is a float not that close to one.  A root above
    the float range is inf, one below half the smallest subnormal 0.0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Fraction(x)
    if x < 0:
        raise ValueError("root_2k requires a non-negative argument")
    if x == 0:
        return 0.0
    n = 2 * k
    num, sn = _lead(x.numerator)
    den, sd = _lead(x.denominator)
    c = _BITS + den.bit_length() - num.bit_length()
    q, e = (num << c) // den, sn - sd - c  # x ~ q * 2**e, q of _BITS bits
    mant, bits = math.frexp(q)  # q ~ mant * 2**bits, 0.5 <= mant < 1
    whole, rem = divmod(e + bits, n)
    # the root ~ 2**(whole + (rem + log2(mant)) / n) ~ y * 2**s
    y = int(math.ldexp(2.0 ** ((rem + math.log2(mant)) / n), _BITS - 1))
    s = whole - _BITS + 1
    for _ in range(2):
        # Newton for y**n * 2**(n s) = x: y *= ((n - 1) + x / root**n) / n,
        # with z = x / root**n in units of 2**-_BITS
        power, _, ps = _pow_trunc(y, n)
        z, shift = (q << _BITS) // power, e - ps - n * s
        z = z << shift if shift >= 0 else z >> -shift
        y = y * (((n - 1) << _BITS) + z) // (n << _BITS)
    if s < 0:
        return y / (1 << -s)  # correctly rounded, subnormals included
    try:
        return float(y << s)
    except OverflowError:
        return math.inf


def _power_cmp(f: float, n: int, x: Fraction) -> int:
    """The sign of f**n - x for a finite f >= 0 and x >= 0.

    Decided on 160-bit bounds of both sides: ``_pow_trunc`` rounds f**n
    down and up, and x is bracketed by its leading bits.  Only when the
    two brackets overlap, as for a perfect power, does it compare
    exactly, in integers: f is m / 2**e, so the power of two is a shift,
    not a power."""
    m, d = f.as_integer_ratio()
    if m == 0:
        return -1 if x else 0
    e = d.bit_length() - 1
    lo, hi, s = _pow_trunc(m, n)
    s -= n * e  # lo * 2**s <= f**n <= hi * 2**s
    num, sn = _lead(x.numerator)
    den, sd = _lead(x.denominator)
    # num * 2**sn <= x.numerator < (num + 1) * 2**sn when cut, and so for den
    if _dyadic_lt(hi * (den + (sd > 0)), s + sd, num, sn):
        return -1
    if _dyadic_lt(num + (sn > 0), sn, lo * den, s + sd):
        return 1
    left, right = m ** n * x.denominator, x.numerator << n * e
    return (left > right) - (left < right)


def _dyadic_lt(a: int, ea: int, b: int, eb: int) -> bool:
    """a * 2**ea < b * 2**eb for ints a, b >= 0, shifting by no more
    than their bit lengths."""
    if not a or not b:
        return b > a
    la, lb = a.bit_length() + ea, b.bit_length() + eb
    if la != lb:
        return la < lb
    return a << (ea - eb) < b if ea >= eb else a < b << (eb - ea)


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


def parse_budget(value: str | int | None, default: int | None = None) -> int | None:
    """A work budget: ``default`` when ``value`` is None, else an integer
    read with ``parse_int``, refused when negative.  Budget 0 is valid."""
    if value is None:
        return default
    budget = parse_int(value)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


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


def parse_rationals(value: object) -> tuple[Fraction, ...]:
    """A sequence of rationals, each read with ``parse_rational``; a
    string or bytes is refused rather than read as its characters."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"expected a sequence of rationals, got {value!r}")
    return tuple(map(parse_rational, value))


class _Frozen:
    """Base of the immutable value types: unlike a data class, defining a
    subclass generates and compiles no code at import.  A subclass names
    its fields in ``__slots__`` and sets them once, in its ``__init__``,
    with ``_set``; assigning or deleting a field afterwards raises
    ``AttributeError``.  Equality (same class, equal ``_key``) and hash
    read ``_key``, every field by default, and repr shows every field.
    ``copy`` and ``pickle`` call the class on ``_key``, so a copy passes
    ``__init__``'s checks again; a subclass whose ``_key`` is not its
    constructor's arguments overrides ``__reduce__``."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._key()


def _int_scaled(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Clear denominators: returns (the integers L*v, L)."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale
