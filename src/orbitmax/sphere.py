"""Homogeneous polynomials on the unit sphere: exact even-power moments,
certified two-sided maximum bounds, the fewnomial approximation scheme,
and a feasibility reduction for square systems of polynomial equations.

A polynomial is a collected map from exponent vectors to exact rational
coefficients; all moments are exact, and floats appear only in the final
root extraction of an interval end.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import count, repeat
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bounds import Interval
from .errors import BudgetError
from .exact import (_Frozen, _int_scaled, _record_json, format_rational, parse_budget,
                    parse_int, parse_ints, parse_list, parse_positive, parse_rational)

__all__ = [
    "DEFAULT_TERM_BUDGET",
    "SparsePoly",
    "moment_2k",
    "sup_bounds",
    "choose_k",
    "fewnomial_sup",
    "sample_lower_bound",
    "system_reduce",
    "SystemReduction",
    "poly_to_json",
    "poly_from_json",
]

DEFAULT_TERM_BUDGET = 5_000_000


class SparsePoly(_Frozen):
    """Homogeneous polynomial of degree d in n variables.

    ``terms`` maps exponent tuples (length n, entries summing to d) to
    non-zero Fraction coefficients.  The zero polynomial is the empty
    map with a declared (n, d), read with ``exact.parse_int``; every
    coefficient is read with ``exact.parse_rational``.  Instances are
    canonical on construction: no zero coefficients, no duplicate
    exponent vectors.  A polynomial is immutable, and equal to another
    when n, d and terms are; it is unhashable, since ``terms`` is a
    dict.
    """

    __slots__ = ("n", "d", "terms")

    def __init__(self, n: int, d: int,
                 terms: Mapping[tuple[int, ...], Fraction | int | str] = {}) -> None:
        n, d = parse_int(n), parse_int(d)
        if n < 1:
            raise ValueError("n must be >= 1")
        if d < 1:
            raise ValueError("d must be >= 1 (homogeneous, non-constant)")
        terms = {exps: parse_rational(coef) for exps, coef in terms.items()}
        for exps, coef in terms.items():
            if len(exps) != n:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) != d:
                raise ValueError(
                    f"term {exps} has total degree {sum(exps)}, expected {d}")
            if coef == 0:
                raise ValueError("zero coefficients must not be stored")
        self._set(n, d, terms)

    @classmethod
    def from_terms(cls, n: int, d: int,
                   items: Iterable[tuple[Sequence[int], Fraction | int | str]]
                   ) -> "SparsePoly":
        """Collect (exponents, coefficient) pairs, summing duplicates.

        Exponents are read with ``exact.parse_ints``: a float, a bool or
        a string raises ``ValueError`` rather than being truncated or
        read as its characters."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in items:
            key = parse_ints(exps)
            acc[key] = acc.get(key, Fraction(0)) + parse_rational(coef)
        return cls(n, d, {e: c for e, c in acc.items() if c != 0})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int],
                 coef: Fraction | int = 1) -> "SparsePoly":
        return cls.from_terms(n, sum(exps), [(exps, coef)])

    @classmethod
    def variable(cls, n: int, i: int) -> "SparsePoly":
        exps = [0] * n
        exps[i] = 1
        return cls.from_terms(n, 1, [(exps, 1)])

    @classmethod
    def zero(cls, n: int, d: int) -> "SparsePoly":
        return cls(n, d, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def __mul__(self, other: "SparsePoly | Fraction | int") -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.n != self.n:
                raise ValueError("polynomial product needs matching n")
            acc: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
            return SparsePoly(self.n, self.d + other.d,
                              {e: c for e, c in acc.items() if c != 0})
        c = Fraction(other)
        if c == 0:
            return SparsePoly.zero(self.n, self.d)
        return SparsePoly(self.n, self.d,
                          {e: cf * c for e, cf in self.terms.items()})

    __rmul__ = __mul__

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if other.n != self.n or other.d != self.d:
            raise ValueError("polynomial sum needs matching n and d")
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
        return SparsePoly(self.n, self.d, {e: c for e, c in acc.items() if c != 0})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (other * Fraction(-1))


def _prod_by_twos(start: int, stop: int) -> int:
    """The product of range(start, stop, 2), multiplied as a balanced
    tree, so that the big multiplies pair factors of like size instead of
    growing one small factor at a time."""
    size = len(range(start, stop, 2))
    if size <= 64:
        return math.prod(range(start, stop, 2))
    mid = start + 2 * (size // 2)
    return _prod_by_twos(start, mid) * _prod_by_twos(mid, stop)


class _OddDoubleFactorials(dict):
    """(a - 1)!! by even exponent a, the Gaussian moment E[g**a], each
    computed when first read from the largest smaller exponent read, so
    a call only builds the weights its walk reaches."""

    def __init__(self) -> None:
        super().__init__({0: 1})
        self._read = [0]  # the exponents computed so far, sorted

    def __missing__(self, a: int) -> int:
        i = bisect.bisect(self._read, a)
        b = self._read[i - 1]
        value = self[b] * _prod_by_twos(b + 1, a)
        self[a] = value
        self._read.insert(i, a)
        return value


def _parity_reach(odd: list[int], limit: int) -> list:
    """Odd-exponent masks the monomials i, i+1, ... can still contribute.

    ``reach[i][q]`` is the set of XORs of ``odd[j]`` (j >= i) over subsets
    of size q mod 2: a count of parity q left for those monomials can
    only produce one of these masks.  Sets that would outgrow ``limit``
    entries are left as None (no pruning at that level or above).
    """
    t = len(odd)
    reach: list = [None] * t
    even, odd_set = {0}, {odd[t - 1]}
    reach[t - 1] = (even, odd_set)
    for i in range(t - 2, 0, -1):
        mu = odd[i]
        if mu not in odd_set:   # otherwise the span, and both sets, stay the same
            even, odd_set = (even | {x ^ mu for x in odd_set},
                             odd_set | {x ^ mu for x in even})
            if len(even) + len(odd_set) > limit:
                break
        reach[i] = (even, odd_set)
    return reach


def moment_2k(p: SparsePoly, k: int, term_budget: int | None = None) -> Fraction:
    """Exact integral of p**(2k) over the unit sphere (before the root).

    Sums the multinomial expansion of p**(2k) directly in integers,
    without building the power: with the coefficients cleared to a
    common denominator L, each composition r of 2k over the t monomials
    contributes ``multinomial(r) * prod c_i**r_i * prod_j (a_j - 1)!!``,
    where a = sum r_i e_i is its exponent vector (Folland's formula; odd
    a_j integrate to zero).  Compositions are walked one monomial at a
    time, and a branch is cut as soon as the XOR of the odd-exponent
    masks of the monomials used an odd number of times is not one the
    remaining monomials can cancel.  Every factor of a term comes from
    its neighbour by an exact ratio, as the term is hypergeometric in
    each r_i (Petkovsek, Wilf and Zeilberger, "A = B", 1996, ch. 3): at
    monomial i, C(rem, r) c_i**r steps from r to r + 2 by (rem - r)
    (rem - r - 1) c_i**2 / ((r + 1)(r + 2)).  The last two monomials a
    and b are one line r_a + r_b = rem, walked per parity class of r_a
    whose masks cancel: its first term is a leaf, and each later one is
    the one before times (rem - r)(rem - r - 1) c_a**2 R / ((r + 1)
    (r + 2) c_b**2 F), where x is the term's exponent vector, delta =
    e_a - e_b, R is the product over delta_j > 0 of (x_j + 1)(x_j + 3)..
    (x_j + 2 delta_j - 1) and F over delta_j < 0 of (x_j - 1)(x_j - 3)..
    (x_j + 2 delta_j + 1).  Each step is one small multiply and one
    exact division, and no power or binomial is tabled: memory is the
    (a - 1)!! weights the walk reads and O(k) per frame.  The result is
    ``total / (L**(2k) * prod_{j<kd} (n + 2j))``, the integral of the
    collected power taken monomial by monomial (Folland, "How to
    integrate a polynomial over a sphere", Amer. Math. Monthly 108, 2001).

    The term budget bounds the C(2k + t - 1, t - 1) compositions of the
    walk and, second, the k*d odd factors of the largest weight (a - 1)!!
    (a <= 2kd); both are checked before any work.  k is read with
    ``exact.parse_positive``.
    """
    k = parse_positive(k, "k")
    budget = parse_budget(term_budget, DEFAULT_TERM_BUDGET)
    if p.is_zero:
        return Fraction(0)
    t = p.num_terms
    comps = math.comb(2 * k + t - 1, t - 1)
    BudgetError.check(comps, budget, "moment at k={} needs {} collected terms for "
                      "the {}-term polynomial", k, comps, t, k=k)
    BudgetError.check(k * p.d, budget, "moment at k={} needs weights of up to "
                      "k*d = {} odd factors", k, k * p.d, k=k)
    m = 2 * k
    exps = list(p.terms)
    ints, lcm = _int_scaled(list(p.terms.values()))
    # weight of an exponent a (read only at even a): (a - 1)!!
    dfw = _OddDoubleFactorials()
    odd = [sum(1 << j for j, e in enumerate(ex) if e & 1) for ex in exps]
    reach = _parity_reach(odd, comps)
    last, pen = t - 1, t - 2
    e_last, c_last, odd_last = exps[last], ints[last], odd[last]
    e_pen, c_pen, odd_pen = exps[pen], ints[pen], odd[pen]
    # the factors x_j + o of R (rising) and F (falling) as (j, o, 2 delta_j),
    # the amount each moves by per step of the line
    rising, falling = [], []
    for j, (u, v) in enumerate(zip(e_pen, e_last)):
        rising += [(j, o, 2 * (u - v)) for o in range(1, 2 * (u - v), 2)]
        falling += [(j, -o, 2 * (u - v)) for o in range(1, 2 * (v - u), 2)]
    total = 0

    def line(rem: int, acc: int, alpha: list[int], mask: int) -> None:
        # r_pen + r_last = rem, one parity class q of r_pen at a time: the
        # first term is a leaf, each later one the term before times the
        # exact ratio nums / dens of small integers
        nonlocal total
        for q in (0, 1):
            if mask ^ (odd_pen if q else 0) ^ (odd_last if (rem - q) & 1 else 0):
                continue
            x = [a + q * u + (rem - q) * v for a, u, v in zip(alpha, e_pen, e_last)]
            # C(rem, q) is 1 or rem
            term = (acc * (rem * c_pen if q else 1) * c_last ** (rem - q)
                    * math.prod(map(dfw.__getitem__, x)))
            total += term
            # the steps r -> r + 2 for r = q, q + 2, .. <= rem - 2
            nums = map(mul, range(rem - q, 1, -2), range(rem - q - 1, 0, -2))
            dens = map(mul, range(q + 1, rem, 2), range(q + 2, rem + 1, 2))
            nums = map(mul, nums, repeat(c_pen * c_pen))
            dens = map(mul, dens, repeat(c_last * c_last))
            for j, o, s in rising:
                nums = map(mul, nums, count(x[j] + o, s))
            for j, o, s in falling:
                dens = map(mul, dens, count(x[j] + o, s))
            for nu, de in zip(nums, dens):
                term = term * nu // de
                total += term

    def walk(i: int, rem: int, acc: int, alpha: list[int], mask: int) -> None:
        # recurses only on r_i >= 1 and steps over r_i = 0 in this frame,
        # so the depth is at most min(t, 2k)
        nonlocal total
        while True:
            if rem == 0 or i == last:
                if rem & 1:
                    mask ^= odd_last
                if mask == 0:
                    if rem:
                        alpha = [a + rem * x for a, x in zip(alpha, e_last)]
                        acc *= c_last ** rem
                    total += acc * math.prod(map(dfw.__getitem__, alpha))
                return
            if i == pen and rem > 3:
                # a line of at most one step per class keeps the leaves:
                # setting up its ratios costs more than they save
                line(rem, acc, alpha, mask)
                return
            e, c, ok = exps[i], ints[i], reach[i + 1]
            sub = mask ^ odd[i]
            # term = acc * C(rem, r) * c**r, stepped r -> r + 2 by its exact ratio
            if ok is None or sub in ok[(rem - 1) & 1]:
                term = acc * rem * c
                for r in range(1, rem + 1, 2):
                    walk(i + 1, rem - r, term, [a + r * x for a, x in zip(alpha, e)], sub)
                    term = term * ((rem - r) * (rem - r - 1) * c * c) // ((r + 1) * (r + 2))
            if ok is not None and mask not in ok[rem & 1]:
                return
            term = acc * (rem * (rem - 1) // 2) * c * c
            for r in range(2, rem + 1, 2):
                walk(i + 1, rem - r, term, [a + r * x for a, x in zip(alpha, e)], mask)
                term = term * ((rem - r) * (rem - r - 1) * c * c) // ((r + 1) * (r + 2))
            i += 1

    walk(0, m, 1, [0] * p.n, 0)
    return Fraction(total, lcm ** m * _prod_by_twos(p.n, p.n + 2 * k * p.d))


def sup_bounds(p: SparsePoly, k: int,
               term_budget: int | None = None) -> Interval:
    """Certified interval around max |p| on the sphere at moment order k.

    The exact factor is C(kd + n - 1, kd), the dimension of degree-kd
    forms in n variables; the zero polynomial yields the degenerate
    [0, 0] interval.
    """
    k = parse_positive(k, "k")
    moment = moment_2k(p, k, term_budget)
    factor = math.comb(k * p.d + p.n - 1, k * p.d)
    return Interval.from_moment(moment, factor, k)


def choose_k(n: int, d: int, eps: float) -> int:
    """Smallest k >= 1 with (n-1)/(2k) * ln(kd+1) < ln(1+eps).

    At this k the sup_bounds factor is below 1 + eps, so the interval
    ratio is guaranteed; k grows like eps**-1 * n**2 * ln(d).  The
    left side decreases in k, so k is found by doubling, then bisection.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    n, d = parse_positive(n, "n"), parse_positive(d, "d")
    if n == 1:
        return 1
    target = math.log1p(eps)

    def too_small(k: int) -> bool:
        return (n - 1) / (2 * k) * math.log(k * d + 1) >= target

    hi = 1
    while too_small(hi):
        hi *= 2
    lo = hi // 2        # too_small(lo) holds whenever hi > 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if too_small(mid):
            lo = mid
        else:
            hi = mid
    return hi


def fewnomial_sup(p: SparsePoly, eps: float,
                  term_budget: int | None = None) -> Interval:
    """Interval with guaranteed ratio upper/lower <= 1 + eps.

    Chooses k via :func:`choose_k`; the expansion cost is polynomial in
    k for a fixed number of monomials, and the term budget turns any
    blow-up into a clean error naming the offending k.
    """
    k = choose_k(p.n, p.d, eps)
    return sup_bounds(p, k, term_budget)


def sample_lower_bound(p: SparsePoly, trials: int, seed: int) -> float:
    """Max |p| over pseudo-random sphere points (normalised Gaussians).

    Deterministic per seed.  Never exceeds the true maximum, so it
    cross-checks any certified upper bound from below.  ``trials`` is
    read with ``exact.parse_positive``.
    """
    trials = parse_positive(trials, "trials")
    if p.is_zero:
        return 0.0
    # the only numpy user here: importing it at module level would cost
    # every sphere-only CLI process its import time
    import numpy as np

    try:
        coefs = [float(c) for c in p.terms.values()]
    except OverflowError:
        raise ValueError("a coefficient is outside the float range, and the "
                         "samples evaluate p in floats") from None
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((trials, p.n))
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0] = 1.0
    pts /= norms[:, None]
    vals = np.zeros(trials)
    for exps, coef in zip(p.terms, coefs):
        term = np.full(trials, coef)
        for i, e in enumerate(exps):
            if e:
                term *= pts[:, i] ** e
        vals += term
    return float(np.max(np.abs(vals)))


class SystemReduction(NamedTuple):
    """Outcome of the feasibility reduction for p_i(x) = 0 on the sphere.
    A NamedTuple: immutable, and compared as the tuple of its fields;
    unhashable, since ``p`` is."""

    gamma: float
    gamma_exact: Fraction
    p: SparsePoly
    interval: Interval
    verdict: str                     # "possibly solvable" | "certified gap"
    certified_min_q: float | None    # > 0 lower bound on min q when gapped

    def to_json(self) -> dict:
        return _record_json(self, p=poly_to_json(self.p))


def system_reduce(system: Sequence[SparsePoly], k: int, delta: float = 0.01,
                  term_budget: int | None = None) -> SystemReduction:
    """Test whether p_1 = ... = p_s = 0 can have a nonzero real solution.

    Builds q = sum p_i**2, picks a rational gamma certified to exceed
    max q on the sphere (the float (1 + delta) times the certified upper
    end: at least that end, whose 2k-th power ``Interval``'s outward
    rounding already puts at or above ``upper_exact``), and bounds
    p = gamma*|x|**(2d) - q, with |x|**(2d) written out as the sum over
    |beta| = d of d!/beta! * x**(2 beta), whose C(n + d - 1, d) terms are
    checked against the term budget.  A solution would force max |p| = gamma; if
    the certified upper bound stays below gamma*(1 - delta), decided exactly as
    ``upper_exact < (gamma*(1 - delta))**(2k)``, the system is reported
    as a certified gap, with ``certified_min_q`` a float rounded down
    from gamma - upper, so that min q >= certified_min_q holds exactly.
    k is read with ``exact.parse_positive``.
    """
    k = parse_positive(k, "k")
    if not system:
        raise ValueError("system must contain at least one polynomial")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    budget = parse_budget(term_budget, DEFAULT_TERM_BUDGET)
    n, d = system[0].n, system[0].d
    for q_i in system[1:]:
        if q_i.n != n or q_i.d != d:
            raise ValueError(
                f"system degrees/variables differ: (n={q_i.n}, d={q_i.d}) "
                f"vs (n={n}, d={d})")
    q = SparsePoly.zero(n, 2 * d)
    for p_i in system:
        if not p_i.is_zero:
            q = q + p_i * p_i
    qb = sup_bounds(q, k, budget)
    if q.is_zero:
        gamma_exact = Fraction(0)
    else:
        top = (1.0 + delta) * qb.upper
        if top == math.inf:
            raise ValueError("(1 + delta) times the certified upper end of max q "
                             "is above the float range")
        gamma_exact = Fraction(top)
    count = math.comb(n + d - 1, d)
    BudgetError.check(count, budget, "|x|**(2d) at n={}, d={} has {} terms",
                      n, d, count)
    # the exponent vectors beta, |beta| = d, in ascending lexicographic order
    betas = [()]
    for i in range(n):
        betas = [b + (r,) for b in betas
                 for r in (range(d - sum(b) + 1) if i < n - 1 else (d - sum(b),))]
    norm_power = SparsePoly(n, 2 * d, {
        tuple(2 * r for r in b):
            Fraction(math.factorial(d) // math.prod(map(math.factorial, b)))
        for b in betas})
    p = norm_power * gamma_exact - q
    pb = sup_bounds(p, k, budget)
    gamma = float(gamma_exact)
    threshold = gamma_exact * (1 - Fraction(delta))
    if threshold <= 0 or pb.upper_exact >= threshold ** (2 * k):
        return SystemReduction(gamma, gamma_exact, p, pb,
                               "possibly solvable", None)
    # pb.upper is at least the true upper end, so the gap below it,
    # rounded down, never exceeds gamma - upper
    gap = gamma_exact - Fraction(pb.upper)
    min_q = float(gap)
    if Fraction(min_q) > gap:
        min_q = math.nextafter(min_q, -math.inf)
    return SystemReduction(gamma, gamma_exact, p, pb, "certified gap", min_q)


def poly_to_json(p: SparsePoly) -> dict:
    """Canonical JSON form: exponent vectors sorted lexicographically."""
    return {
        "n": p.n,
        "d": p.d,
        "terms": [{"exps": list(exps), "coef": format_rational(p.terms[exps])}
                  for exps in sorted(p.terms)],
    }


def poly_from_json(obj: Mapping) -> SparsePoly:
    try:
        n = parse_int(obj["n"])
        d = parse_int(obj["d"])
        raw = obj.get("terms", [])
        items = [(tuple(map(parse_int, parse_list(t["exps"]))), parse_rational(t["coef"]))
                 for t in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    return SparsePoly.from_terms(n, d, items)
