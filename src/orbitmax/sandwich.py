"""Desk-scale exact verification of the moment-to-maximum sandwich over S_n.

For f(g) = <ell, gv> with S_n permuting coordinates, everything is
finitely enumerable: the sup norm, the even moments, and the dimension
of the span of the orbit of the k-th tensor power of v.  This module
computes all of them exactly and checks the resulting inequalities at
the 2k-th-power level, where every comparison is between rationals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import _int_scaled, _record_json, bound_factor, parse_positive, parse_rationals

__all__ = [
    "DEFAULT_GROUP_CAP",
    "InequalityCheck",
    "SandwichReport",
    "Cor16Check",
    "Cor16Report",
    "orbit_span_dim",
    "verify_sandwich",
    "cor16_factor_check",
]

DEFAULT_GROUP_CAP = 7


class InequalityCheck(NamedTuple):
    """One sandwich inequality lhs <= rhs, decided exactly.  A NamedTuple:
    immutable, and compared as the tuple of its fields."""

    inequality: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    tight: bool

    @property
    def margin(self) -> Fraction:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return _record_json(self, margin=self.margin)


class SandwichReport(NamedTuple):
    """The exact quantities and checks of ``verify_sandwich``.  A
    NamedTuple: immutable, and compared as the tuple of its fields."""

    n: int
    k: int
    span_dim: int
    sup_abs: Fraction
    moment_2k: Fraction
    moment_2: Fraction
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        return _record_json(self, all_hold=self.all_hold)


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries; a row whose gcd
    is 0 or 1 is returned as it is."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_row_rank(rows: Sequence[tuple[int, ...]], ncols: int) -> int:
    """Exact rank over Q of integer rows, by fraction-free elimination.

    Each incoming row is reduced by cross-multiplication against the
    basis row sharing its leading column (never any division except by
    the row gcd), so all arithmetic stays in the integers.
    """
    basis: dict[int, list[int]] = {}
    rank = 0
    for row in rows:
        r = list(row)
        while True:
            lead = next((i for i, x in enumerate(r) if x), None)
            if lead is None:
                break
            b = basis.get(lead)
            if b is None:
                basis[lead] = _primitive(r)
                rank += 1
                break
            bl, rl = b[lead], r[lead]
            r = _primitive([x * bl - y * rl for x, y in zip(r, b)])
        if rank == ncols:
            break
    return rank


def orbit_span_dim(v: Sequence[Fraction | int], k: int) -> int:
    """Exact dimension of span{ (gv)**(tensor k) : g in S_n } over Q.

    The tensor power of a vector is symmetric, so columns at permuted
    multi-indices are identical across all rows; one column per k-multiset
    of coordinates preserves the row-space rank and keeps the
    elimination small.  Invariant under permuting or rescaling v, whose
    values are read with ``exact.parse_rationals``, and k with
    ``exact.parse_positive``.  Refuses n > DEFAULT_GROUP_CAP.
    """
    v = parse_rationals(v)
    n = len(v)
    if n > DEFAULT_GROUP_CAP:
        raise ValueError(
            f"orbit span cap is n <= {DEFAULT_GROUP_CAP}, got n = {n}")
    k = parse_positive(k, "k")
    ints = _primitive(_int_scaled(v)[0])
    if not any(ints):
        raise ValueError("v must be non-zero")
    combos = list(itertools.combinations_with_replacement(range(n), k))
    rows = set()
    for w in set(itertools.permutations(ints)):
        rows.add(tuple(math.prod(w[i] for i in combo) for combo in combos))
    return _int_row_rank(sorted(rows), len(combos))


def verify_sandwich(v: Sequence[Fraction | int], ell: Sequence[Fraction | int],
                    k: int) -> SandwichReport:
    """Enumerate f(g) = <ell, gv> over all of S_n and check the sandwich.

    One pass over the n! orders of ell, in Python integers over the
    cleared denominators, gives sum f**2, sum f**(2k) and max |f|: an
    enumeration independent of the moment engines.  v and ell are read
    with ``exact.parse_rationals``, and k with ``exact.parse_positive``.
    Refuses n < 1 and
    n > DEFAULT_GROUP_CAP.  All four inequalities are verified at the
    2k-th-power level with exact rational comparisons:

      moment_2k <= sup**(2k)              (norm below max)
      sup**(2k) <= D_k * moment_2k        (max below span-dim factor)
      moment_2  <= sup**2                 (the k = 1 case)
      sup**2    <= n * moment_2           (max below sqrt(dim) factor)
    """
    vv, ell = parse_rationals(v), parse_rationals(ell)
    n = len(vv)
    if len(ell) != n:
        raise ValueError("v and ell must have equal length")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_GROUP_CAP:
        raise ValueError(
            f"group enumeration cap is n <= {DEFAULT_GROUP_CAP}, got n = {n}")
    k = parse_positive(k, "k")
    ints_v, lv = _int_scaled(vv)
    ints_ell, lell = _int_scaled(ell)
    s2 = s2k = top = 0
    # f(g) = sum_i v_i ell_{g(i)}: w runs over the tuples (ell_{g(i)})_i
    for w in itertools.permutations(ints_ell):
        x = sum(a * b for a, b in zip(ints_v, w))
        s2 += x * x
        s2k += x ** (2 * k)
        top = max(top, abs(x))
    scale = lv * lell
    count = math.factorial(n)
    sup = Fraction(top, scale)
    m2k = Fraction(s2k, count * scale ** (2 * k))
    m2 = Fraction(s2, count * scale ** 2)
    span = orbit_span_dim(vv, k) if any(vv) else 0
    sup_2k = sup ** (2 * k)
    sup_2 = sup * sup
    checks = (
        InequalityCheck("moment_2k <= sup_abs^2k", m2k, sup_2k,
                        m2k <= sup_2k, m2k == sup_2k),
        InequalityCheck("sup_abs^2k <= span_dim * moment_2k", sup_2k,
                        span * m2k, sup_2k <= span * m2k,
                        sup_2k == span * m2k),
        InequalityCheck("moment_2 <= sup_abs^2", m2, sup_2,
                        m2 <= sup_2, m2 == sup_2),
        InequalityCheck("sup_abs^2 <= dim * moment_2", sup_2, n * m2,
                        sup_2 <= n * m2, sup_2 == n * m2),
    )
    return SandwichReport(n, k, span, sup, m2k, m2, checks)


class Cor16Check(NamedTuple):
    """The bound factor at one dimension against eps * sqrt(dim).  A
    NamedTuple: immutable, and compared as the tuple of its fields."""

    dim: int
    factor: float
    threshold: float
    holds: bool
    applicable: bool

    def to_json(self) -> dict:
        return _record_json(self)


class Cor16Report(NamedTuple):
    """The k0 and checks of ``cor16_factor_check``.  A NamedTuple:
    immutable, and compared as the tuple of its fields."""

    eps: float
    k0: int
    checks: tuple[Cor16Check, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)

    def to_json(self) -> dict:
        return _record_json(self, all_hold=self.all_hold)


def _below(x: int, a: int, b: int) -> bool:
    """x < a * b for x >= 0 and a, b >= 1.  The product has bit length
    bits(a) + bits(b) - 1 or one more, so it is built only when x's bit
    length is one of those two."""
    bits = a.bit_length() + b.bit_length()
    if x.bit_length() < bits - 1:
        return True
    if x.bit_length() > bits:
        return False
    return x < a * b


def cor16_factor_check(dim: int, eps: float) -> Cor16Report:
    """Smallest k0 with (k0!)**(1/k0) > 2/eps**2, then verify the bound
    factor is below eps * sqrt(dim) at k0 for sampled dimensions >= k0.

    Both the search and the verification compare exact integers at the
    k0-th-power level; the floats in the report are informational.  The
    factor inequality requires dim >= k0, so smaller dimensions are
    reported as not applicable.  ``dim`` is read with
    ``exact.parse_positive``.
    """
    dim = parse_positive(dim, "dim")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    # a float's denominator is a power of two, 2**s, so den**(2k) and 2**k
    # are shifts
    num, den = float(eps).as_integer_ratio()
    s = den.bit_length() - 1
    num_pows: dict[int, int] = {}  # num**(2k) by k, read again at k0

    def above(k: int) -> bool:
        # k! * eps**(2k) > 2**k, with denominators cleared
        num_pows[k] = num ** (2 * k)
        return _below(1 << k * (2 * s + 1), math.factorial(k), num_pows[k])

    # log(k! * eps**(2k) / 2**k) has increasing steps log(k + 1) + c and
    # is 0 at k = 0, so the k >= 1 where it is positive run from k0 on:
    # bisect its float value, then settle k0 on the exact comparison
    c = 2 * math.log(eps) - math.log(2)
    lo, hi = 0, 1
    while math.lgamma(hi + 1) + hi * c <= 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if math.lgamma(mid + 1) + mid * c <= 0 else (lo, mid)
    k0 = hi
    while not above(k0):
        k0 += 1
    while k0 > 1 and above(k0 - 1):
        k0 -= 1
    num_2k0 = num_pows[k0]
    dims = sorted({dim, k0, 2 * k0, 10 * k0})
    checks = []
    for dm in dims:
        applicable = dm >= k0
        # C(dm + k0 - 1, k0) * den**(2 k0) <= num**(2 k0) * dm**k0
        holds = _below((math.comb(dm + k0 - 1, k0) << 2 * k0 * s) - 1,
                       num_2k0, dm ** k0)
        checks.append(Cor16Check(
            dim=dm,
            factor=bound_factor(dm, k0),
            threshold=eps * math.sqrt(dm),
            holds=bool(holds),
            applicable=applicable,
        ))
    return Cor16Report(eps, k0, tuple(checks))
