"""The d-dimensional assignment problem over the symmetric group.

For order-d tensors A, B with side n, the objective f(g) = <B, gA> over
permutations g generalises linear (d = 1) and quadratic (d = 2)
assignment.  This module computes the exact average of f**(2k) over all
of S_n (or over a coset fixing a partial assignment) without touching
the n! permutations, certifies two-sided bounds on max |f|, extracts a
permutation greedily coset-by-coset, and provides a brute-force oracle.

At d = 1 everything is exact in Python integers: the moments come from
the power sums of the two vectors (the sum over index sequences of one
equality type is an injective power sum, a Moebius inversion of power
sums, so the work is polynomial in n and in the number of integer
partitions of 2k), and ``brute_max`` reads the maximum of |f| off the
rearrangement inequality instead of enumerating S_n.  At d >= 2 the
moment over all of S_n comes from ``_contract``: the same inversion
over the set partitions of the 2kd index positions, each term one
tensor contraction, so the work is polynomial in n.  Greedy steps and
pinned cosets at d >= 2 share one scorer, the type sweep in
``_typesweep`` (max(nnz(A), nnz(B))**(2k) row visits, one row per
choice of 2k nonzero entries), and small cosets are enumerated directly
by ``_coset_values``, the one evaluator of f(g) over sets of
permutations at d >= 2, which ``brute_max`` shares.  The d >= 2 engines
and numpy are imported by the functions that use them, so a process
that only works at d = 1 loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bounds import Interval
from .errors import BudgetError
from .exact import _int_scaled, format_rational, parse_int, parse_rational

__all__ = [
    "DEFAULT_VISIT_BUDGET",
    "DEFAULT_BRUTE_CAP",
    "DenseTensor",
    "Permutation",
    "PartialAssignment",
    "GreedyResult",
    "BruteResult",
    "apply_perm",
    "matrix_element",
    "moment_2k",
    "sup_bounds",
    "coset_moment",
    "greedy_extract",
    "brute_max",
    "tensor_to_json",
    "tensor_from_json",
    "permutation_to_json",
    "permutation_from_json",
]

DEFAULT_VISIT_BUDGET = 10 ** 8
DEFAULT_BRUTE_CAP = 9


@dataclass(frozen=True)
class DenseTensor:
    """Order-d array with side n over exact rationals, row-major, 0-based."""

    n: int
    d: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("tensor needs n >= 1 and d >= 1")
        if len(self.entries) != self.n ** self.d:
            raise ValueError(
                f"expected {self.n ** self.d} entries, got {len(self.entries)}")

    @classmethod
    def from_entries(cls, n: int, d: int,
                     values: Iterable[Fraction | int]) -> "DenseTensor":
        return cls(n, d, tuple(Fraction(v) for v in values))

    @classmethod
    def from_sparse(cls, n: int, d: int,
                    items: Mapping[tuple[int, ...], Fraction | int]) -> "DenseTensor":
        flat = [Fraction(0)] * n ** d
        for idx, val in items.items():
            flat[_flat_index(idx, n, d)] = Fraction(val)
        return cls(n, d, tuple(flat))

    @classmethod
    def zeros(cls, n: int, d: int) -> "DenseTensor":
        return cls(n, d, (Fraction(0),) * n ** d)

    def get(self, idx: Sequence[int]) -> Fraction:
        return self.entries[_flat_index(tuple(idx), self.n, self.d)]

    @property
    def is_zero_one(self) -> bool:
        return all(v == 0 or v == 1 for v in self.entries)


def _flat_index(idx: tuple[int, ...], n: int, d: int) -> int:
    if len(idx) != d:
        raise ValueError(f"index of length {len(idx)}, expected {d}")
    flat = 0
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"index entry {i} out of range 0..{n - 1}")
        flat = flat * n + i
    return flat


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}; images[i] = g(i)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def apply_index(self, idx: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.images[i] for i in idx)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (g * h)(i) = g(h(i))."""
        return Permutation(tuple(self.images[other.images[i]]
                                 for i in range(self.n)))


@dataclass(frozen=True)
class PartialAssignment:
    """Injective prefix of a permutation: ordered (position, image) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pos = [p for p, _ in self.pairs]
        img = [q for _, q in self.pairs]
        if len(set(pos)) != len(pos):
            raise ValueError("positions in a partial assignment must be distinct")
        if len(set(img)) != len(img):
            raise ValueError("images in a partial assignment must be distinct")

    @classmethod
    def empty(cls) -> "PartialAssignment":
        return cls(())

    def extended(self, position: int, image: int) -> "PartialAssignment":
        return PartialAssignment(self.pairs + ((position, image),))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.pairs)


class GreedyResult(NamedTuple):
    permutation: Permutation
    value: Fraction
    abs_value: float


class BruteResult(NamedTuple):
    permutation: Permutation
    abs_value: Fraction


def _check_shapes(a: DenseTensor, b: DenseTensor) -> None:
    if a.n != b.n or a.d != b.d:
        raise ValueError(
            f"tensor shapes differ: (n={a.n}, d={a.d}) vs (n={b.n}, d={b.d})")


def apply_perm(g: Permutation, x: DenseTensor) -> DenseTensor:
    """Relabelled tensor gX with (gX)[g(i1),...,g(id)] = X[i1,...,id]."""
    if g.n != x.n:
        raise ValueError(f"permutation on {g.n} points, tensor side {x.n}")
    n, d = x.n, x.d
    out = [Fraction(0)] * n ** d
    for digits, val in _nonzero_digit_entries(x.entries, n, d):
        out[_flat_index(g.apply_index(digits), n, d)] = val
    return DenseTensor(n, d, tuple(out))


def matrix_element(a: DenseTensor, b: DenseTensor, g: Permutation) -> Fraction:
    """Exact inner product <B, gA> = sum_I a_I * b_{g(I)}."""
    _check_shapes(a, b)
    if g.n != a.n:
        raise ValueError(f"permutation on {g.n} points, tensors on {a.n}")
    total = Fraction(0)
    for digits, val in _nonzero_digit_entries(a.entries, a.n, a.d):
        total += val * b.get(g.apply_index(digits))
    return total


def _d1_plan(m: int, top: int) -> tuple:
    """Recursion plan for the injective power sums M_lam over the integer
    partitions lam of 0..m with at most ``top`` parts, ordered by length.

    Each row is (size j, parts r, set partitions of that shape, parent
    row, last part s, merged rows): M_lam = M_parent * p_s - sum of M
    over the merged rows, where parent drops the last part s of lam and
    each merged row adds s to one other part; both have one part fewer,
    so every row looks back.
    """
    def parts(rest: int, largest: int, slots: int):
        yield ()
        if slots:
            for first in range(min(rest, largest), 0, -1):
                for tail in parts(rest - first, first, slots - 1):
                    yield (first,) + tail

    lams = sorted(parts(m, m, top), key=len)
    row_of = {lam: i for i, lam in enumerate(lams)}
    rows = [(0, 0, 1, -1, 0, ())]
    for lam in lams[1:]:
        j, r = sum(lam), len(lam)
        count = math.factorial(j)
        for v in lam:
            count //= math.factorial(v)
        for v in set(lam):
            count //= math.factorial(lam.count(v))
        head, s = lam[:-1], lam[-1]
        merged = tuple(
            row_of[tuple(sorted(head[:i] + (head[i] + s,) + head[i + 1:],
                                reverse=True))]
            for i in range(r - 1))
        rows.append((j, r, count, row_of[head], s, merged))
    return tuple(rows)


def _d1_check_budget(n: int, m: int, cosets: Mapping[int, int],
                     budget: int) -> None:
    """Charge n * m power products plus one term per coset and integer
    partition of each j <= m, where ``cosets`` maps a part limit r to
    the number of cosets evaluated over the partitions with at most r
    parts.  The partitions are counted, not built, and the count stops
    as soon as it exceeds the budget."""
    top = max(cosets)
    required = n * m
    at_most: list[list[int]] = []  # at_most[j][r]: partitions of j, <= r parts
    for j in range(m + 1):
        row = [int(j == 0)]
        for r in range(1, top + 1):
            row.append(row[r - 1] + (at_most[j - r][r] if j >= r else 0))
        at_most.append(row)
        required += sum(c * row[r] for r, c in cosets.items())
        if required > budget:
            raise BudgetError(
                f"power-sum moments need at least {required} partition terms "
                f"and power products (n={n}, 2k={m}), budget is {budget}",
                required=required, budget=budget, k=m // 2)


def _power_sums(vals: Sequence[int], m: int) -> list[int]:
    return [sum(v ** s for v in vals) for s in range(m + 1)]


def _injective_sums(plan: tuple, p: Sequence[int], top: int) -> list[int]:
    """M_lam = sum over distinct i_1..i_r of prod x_{i_t}**lam_t from the
    power sums p, for the plan rows with at most ``top`` parts."""
    out = [1]
    for _, r, _, parent, s, merged in plan[1:]:
        if r > top:
            break
        v = out[parent] * p[s]
        for i in merged:
            v -= out[i]
        out.append(v)
    return out


def _d1_weights(plan: tuple, m: int, nfree: int, p: Sequence[int]) -> list[int]:
    """C(m, j) * N_lam * M_lam * (N)_top / (N)_r for each plan row lam of j
    with r <= top = min(m, N) parts, N_lam the set partitions of shape lam.

    Against the other side's M_lam and the shift power c**(m - j) they
    sum to (N)_top times the average of (c + f_free)**m over the
    bijections of the N free coordinates.
    """
    top = min(m, nfree)
    return [math.comb(m, j) * count * math.perm(nfree - r, top - r) * x
            for (j, r, count, *_), x in zip(plan, _injective_sums(plan, p, top))]


def _d1_pair(plan: tuple, m: int, nfree: int, weights: Sequence[int],
             p: Sequence[int], shift: int) -> int:
    inj = _injective_sums(plan, p, min(m, nfree))
    shifts = [shift ** (m - j) for j in range(m + 1)]
    return sum(w * y * shifts[row[0]]
               for w, y, row in zip(weights, inj, plan) if w)


def _d1_coset_moment(a: DenseTensor, b: DenseTensor, m: int,
                     pairs: Sequence[tuple[int, int]], budget: int) -> Fraction:
    """Coset average of <b, g a>**m at d = 1; the prefix adds the
    constant shift sum a_p b_q to f over the free coordinates."""
    nfree = a.n - len(pairs)
    top = min(m, nfree)
    _d1_check_budget(a.n, m, {top: 1}, budget)
    ints_a, la = _int_scaled(a.entries)
    ints_b, lb = _int_scaled(b.entries)
    fixed = dict(pairs)
    used = set(fixed.values())
    free_a = [x for i, x in enumerate(ints_a) if i not in fixed]
    free_b = [y for j, y in enumerate(ints_b) if j not in used]
    plan = _d1_plan(m, top)
    weights = _d1_weights(plan, m, nfree, _power_sums(free_a, m))
    total = _d1_pair(plan, m, nfree, weights, _power_sums(free_b, m),
                     sum(ints_a[p] * ints_b[q] for p, q in pairs))
    return (Fraction(total, math.perm(nfree, top))
            / (Fraction(la) ** m * Fraction(lb) ** m))


def _d1_greedy(a: DenseTensor, b: DenseTensor, m: int, budget: int) -> list[int]:
    """Greedy images at d = 1; fixing a position subtracts its powers from
    the free power sums.  The children of one step share the denominator
    (N)_top, so their raw sums are compared."""
    n = a.n
    cosets: dict[int, int] = {}
    for t in range(n):
        top = min(m, n - t - 1)
        cosets[top] = cosets.get(top, 0) + n - t
    _d1_check_budget(n, m, cosets, budget)
    ints_a, _ = _int_scaled(a.entries)
    ints_b, _ = _int_scaled(b.entries)
    plan = _d1_plan(m, min(m, n - 1))
    pow_a = [[x ** s for s in range(m + 1)] for x in ints_a]
    pow_b = [[y ** s for s in range(m + 1)] for y in ints_b]
    pa, pb = [sum(col) for col in zip(*pow_a)], [sum(col) for col in zip(*pow_b)]
    shift = 0
    free = list(range(n))
    chosen: list[int] = []
    for t in range(n):
        nfree = n - t - 1
        pa = [s - x for s, x in zip(pa, pow_a[t])]
        weights = _d1_weights(plan, m, nfree, pa)
        best_j = max(free, key=lambda j: _d1_pair(
            plan, m, nfree, weights, [s - y for s, y in zip(pb, pow_b[j])],
            shift + ints_a[t] * ints_b[j]))
        chosen.append(best_j)
        free.remove(best_j)
        pb = [s - y for s, y in zip(pb, pow_b[best_j])]
        shift += ints_a[t] * ints_b[best_j]
    return chosen


def moment_2k(a: DenseTensor, b: DenseTensor, k: int,
              visit_budget: int | None = None) -> Fraction:
    """Exact average of <B, gA>**(2k) over all n! permutations g.

    At d = 1 it works from power sums: n * 2k power products plus one
    term per integer partition of each j <= 2k with at most min(n, 2k)
    parts.  At d >= 2 it works by Moebius inversion over the set
    partitions of the l = 2kd index positions (``_contract``): one
    tensor contraction per connected component of each partition, over
    the orbit representatives under the (2k)! orders of the factors
    with at most min(n, l) blocks.  The budget counts the plan's work
    (``_contract.plan_terms``) before the plan is built, plus the
    multiply-adds of both sides' contractions before any is run.
    """
    _check_shapes(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = DEFAULT_VISIT_BUDGET if visit_budget is None else visit_budget
    m = 2 * k
    if a.d == 1:
        return _d1_coset_moment(a, b, m, (), budget)
    # imported here: processes that never take this path (d = 1) do not
    # compile it or import numpy
    from . import _contract

    ints_a, la = _int_scaled(a.entries)
    ints_b, lb = _int_scaled(b.entries)
    total = _contract.moment(ints_a, ints_b, a.n, a.d, m, budget)
    return total / (Fraction(la) ** m * Fraction(lb) ** m)


def bound_factor_exact(a: DenseTensor, b: DenseTensor, k: int) -> int:
    """Exact 2k-th power of the moment-to-max factor for this pair.

    sum_{j=1}^{k} C(n**d, j) when either tensor is 0/1-valued, else the
    generic C(n**d + k - 1, k).
    """
    nd = a.n ** a.d
    if a.is_zero_one or b.is_zero_one:
        return sum(math.comb(nd, j) for j in range(1, k + 1))
    return math.comb(nd + k - 1, k)


def sup_bounds(a: DenseTensor, b: DenseTensor, k: int,
               visit_budget: int | None = None) -> Interval:
    """Certified interval around max_g |<B, gA>| from the exact 2k moment."""
    moment = moment_2k(a, b, k, visit_budget)
    return Interval.from_moment(moment, bound_factor_exact(a, b, k), k)


def _nonzero_digit_entries(flat: Sequence, n: int, d: int) -> list[tuple]:
    """(digits, value) for each nonzero entry of a row-major flat tensor."""
    out = []
    for idx, val in enumerate(flat):
        if val:
            digits = []
            for _ in range(d):
                idx, dig = divmod(idx, n)
                digits.append(dig)
            out.append((tuple(reversed(digits)), val))
    return out


def _coset_values(nz_a, flat_b: Sequence[int], n: int, d: int, pairs):
    """f = <B, gA> over the coset fixed by ``pairs``, as numpy blocks
    (image rows, f) in ``itertools.permutations`` order of the free values.

    Each block gathers B at the images of A's nonzero entries, and
    f = B[g(I)] @ a.  f is int64 when nnz * max|a| * max|b| fits, which
    bounds every partial sum, and Python ints otherwise.  A block has at
    most ``_typesweep.CHUNK_SIZE // max(n, nnz)`` rows, so its image and
    gather arrays stay within ``CHUNK_SIZE`` elements.
    """
    import numpy as np

    from . import _typesweep

    fixed = dict(pairs)
    free_pos = [p for p in range(n) if p not in fixed]
    used = set(fixed.values())
    free_val = [v for v in range(n) if v not in used]
    nnz = len(nz_a)
    top_a = max((abs(v) for _, v in nz_a), default=0)
    top_b = max(map(abs, flat_b), default=0)
    dtype = (np.int64 if nnz * top_a * top_b <= _typesweep._INT64_MAX
             else object)
    vals = np.array([v for _, v in nz_a], dtype=dtype)
    flat = np.array(flat_b, dtype=dtype)
    digits = np.array([dg for dg, _ in nz_a], dtype=np.int64).reshape(nnz, d)
    for rows in _typesweep.permutation_blocks(
            free_val, _typesweep.CHUNK_SIZE // max(n, nnz)):
        img = np.empty((len(rows), n), dtype=np.int64)
        for p, q in fixed.items():
            img[:, p] = q
        img[:, free_pos] = rows
        gflat = img[:, digits[:, 0]]
        for t in range(1, d):
            gflat = gflat * n + img[:, digits[:, t]]
        yield img, flat[gflat] @ vals


def _enumerate_coset_power_sums(nz_a, flat_b: Sequence[int], n: int, d: int,
                                m: int, pairs, split_pos: int | None):
    """Sum of <B, gA>**m over the coset fixed by ``pairs``; with
    ``split_pos`` set, one sum per value of g(split_pos) instead.
    f**m and the sums are Python ints whatever the dtype of f; split, the
    sums are an object array indexed by image, and unsplit the per-image
    sums of column 0 are added up."""
    import numpy as np

    sums = np.zeros(n, dtype=object)
    for img, f in _coset_values(nz_a, flat_b, n, d, pairs):
        np.add.at(sums, img[:, split_pos or 0], f.astype(object) ** m)
    return sums if split_pos is not None else int(sums.sum())


def _enumeration_cheaper(n: int, npins: int, nnz: int, rows: int) -> bool:
    """Direct coset enumeration beats the type sweep when the coset is
    small: (n - T)! * nnz(A) Python operations against the sweep's
    ``rows`` vectorised row visits (plus the pattern tables, which stop
    compressing as T grows)."""
    brute_cost = math.factorial(n - npins) * max(nnz, 1)
    return brute_cost <= max(200_000, rows // 4)


def _check_enumeration_budget(nfree: int, nnz: int, m: int,
                              budget: int) -> None:
    """Refuse more than ``budget`` evaluations: nfree! times nnz(A)."""
    cost = math.factorial(nfree) * max(nnz, 1)
    if cost > budget:
        raise BudgetError(
            f"coset enumeration needs {cost} evaluations, budget is {budget}",
            required=cost, budget=budget, k=m // 2)


def coset_moment(a: DenseTensor, b: DenseTensor, k: int,
                 prefix: PartialAssignment,
                 visit_budget: int | None = None) -> Fraction:
    """Exact average of <B, gA>**(2k) over {g : g(p) = q for (p, q) in prefix}.

    The empty prefix recovers the full-group moment; a length-n prefix
    pins a single permutation and returns f(g)**(2k) exactly.

    At d = 1 it uses the power-sum engine (the prefix adds a constant to
    f; see ``moment_2k``).  At d >= 2 the empty prefix is ``moment_2k``;
    a nonempty one takes the cheaper of two exact routes, judged from n,
    k, the prefix length, nnz(A) and nnz(B): the greedy scorer's type
    sweep (max(nnz(A), nnz(B))**(2k) row visits, one per choice of 2k
    nonzero entries of a side), or a direct enumeration of the coset
    ((n - len(prefix))! evaluations of f, vectorised over blocks of
    permutations).  The sweep relabels A's coordinates so that the
    prefix's positions come first, as 0..T-1, and B's so that its images
    do.  That maps the coset one-to-one, with equal f, onto the child
    coset of a greedy step that has chosen 0..T-2 and scores T-1.
    """
    _check_shapes(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = a.n
    for p, q in prefix.pairs:
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"prefix pair ({p}, {q}) out of range 0..{n - 1}")
    budget = DEFAULT_VISIT_BUDGET if visit_budget is None else visit_budget
    m = 2 * k
    if a.d == 1:
        return _d1_coset_moment(a, b, m, prefix.pairs, budget)
    if not prefix.pairs:
        return moment_2k(a, b, k, budget)
    from . import _typesweep

    ints_a, la = _int_scaled(a.entries)
    ints_b, lb = _int_scaled(b.entries)
    scale = Fraction(la) ** m * Fraction(lb) ** m
    t = len(prefix)
    rows = [_typesweep.sweep_rows(_pins_first(ints, n, a.d, pins), n, a.d, m)
            for ints, pins in ((ints_a, prefix.positions),
                               (ints_b, prefix.images))]
    nnz = sum(1 for v in ints_a if v)
    if _enumeration_cheaper(n, t, nnz, max(count for count, _ in rows)):
        _check_enumeration_budget(n - t, nnz, m, budget)
        nz_a = _nonzero_digit_entries(ints_a, n, a.d)
        total = _enumerate_coset_power_sums(nz_a, ints_b, n, a.d, m,
                                            prefix.pairs, None)
        return Fraction(total, math.factorial(n - t)) / scale
    score = _typesweep.greedy_scores(*rows, n, a.d, m, tuple(range(t - 1)),
                                     (t - 1,), budget)[t - 1]
    free = n - t  # the score is perm(free, F) times the average
    return Fraction(score, math.perm(free, min(m * a.d, free))) / scale


def _pins_first(flat: Sequence[int], n: int, d: int,
                pins: Sequence[int]) -> list[int]:
    """A row-major tensor relabelled so that ``pins`` are coordinates
    0..len(pins)-1, the rest after them in order: one gather per axis."""
    import numpy as np

    order = [*pins, *sorted(set(range(n)) - set(pins))]
    return (np.array(flat, dtype=object).reshape((n,) * d)
            [np.ix_(*[order] * d)].reshape(-1).tolist())


def _sweep_greedy(ints_a: Sequence[int], ints_b: Sequence[int], n: int,
                  d: int, m: int, budget: int) -> list[int]:
    """Greedy images at d >= 2: per step, a pinned type sweep or one
    enumeration of the parent coset, whichever is cheaper."""
    from . import _typesweep

    nnz = sum(1 for v in ints_a if v)
    nz_a = _nonzero_digit_entries(ints_a, n, d)
    rows = [_typesweep.sweep_rows(ints, n, d, m) for ints in (ints_a, ints_b)]
    visits = max(count for count, _ in rows)
    chosen: list[int] = []
    for t in range(1, n + 1):
        cands = tuple(j for j in range(n) if j not in chosen)
        pairs = tuple((i, chosen[i]) for i in range(t - 1))
        # children share one denominator, (n-t)! or perm(n - t,
        # min(2kd, n - t)), so both routes compare raw integer sums
        if _enumeration_cheaper(n, t - 1, nnz, visits):
            # one pass over the parent coset, split by the new image
            _check_enumeration_budget(n - t + 1, nnz, m, budget)
            sums = _enumerate_coset_power_sums(nz_a, ints_b, n, d, m,
                                               pairs, t - 1)
            chosen.append(max(cands, key=sums.__getitem__))
        else:
            scores = _typesweep.greedy_scores(*rows, n, d, m, tuple(chosen),
                                              cands, budget)
            chosen.append(max(cands, key=scores.__getitem__))
    return chosen


def greedy_extract(a: DenseTensor, b: DenseTensor, k: int,
                   visit_budget: int | None = None) -> GreedyResult:
    """Fix g(0), g(1), ... successively, each time entering the coset with
    the largest exact conditional moment (ties to the smallest image: each
    step takes ``max`` over ascending candidates, which keeps the first).

    Since the best child coset is at least as good as its parent's
    average, the returned permutation satisfies f(g)**(2k) >= the full
    moment, i.e. |f(g)| >= the certified lower bound.

    At d = 1 every child moment comes from the free power sums, updated
    as positions are fixed: n(n+1)/2 candidate cosets, each one term per
    integer partition of each j <= 2k with at most as many parts as the
    coset has free coordinates.  At d >= 2 each step runs a
    pinned type sweep (max(nnz(A), nnz(B))**(2k) row visits, one per
    choice of 2k nonzero entries of a side) or enumerates the parent
    coset, whichever is cheaper.  Either way the children of one step
    share a denominator, so their raw integer sums are compared: the
    sweep keeps each side's nonzero rows for the whole extraction,
    groups and weights A's rows once per step, groups B's rows once by
    the images already chosen and reads every candidate's sum off those
    groups (``_typesweep.greedy_scores``); the enumeration sums f**m per
    image of the position being fixed.
    """
    _check_shapes(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = DEFAULT_VISIT_BUDGET if visit_budget is None else visit_budget
    n, d, m = a.n, a.d, 2 * k
    if d == 1:
        chosen = _d1_greedy(a, b, m, budget)
    else:
        chosen = _sweep_greedy(_int_scaled(a.entries)[0],
                               _int_scaled(b.entries)[0], n, d, m, budget)
    g = Permutation(tuple(chosen))
    value = matrix_element(a, b, g)
    return GreedyResult(g, value, float(abs(value)))


def brute_max(a: DenseTensor, b: DenseTensor) -> BruteResult:
    """Exact argmax of |<B, gA>| over all n! permutations.

    Ties resolve to the lexicographically smallest image tuple, the
    first maximum in ``itertools.permutations`` order.  At d >= 2 the
    permutations are enumerated in that order and the first maximum is
    kept: n! * nnz(A) work.  At d = 1 nothing is enumerated: in cleared
    integers, max f pairs sorted a with sorted b and min f pairs sorted a
    with b reversed (the rearrangement inequality), so max |f| is known,
    and the images are chosen position by position, each the smallest
    after which the remaining positions can still reach it: O(n**3 log n)
    integer work.  Either way n > DEFAULT_BRUTE_CAP is refused.
    """
    _check_shapes(a, b)
    n, d = a.n, a.d
    if n > DEFAULT_BRUTE_CAP:
        raise ValueError(
            f"brute force cap is n <= {DEFAULT_BRUTE_CAP}, got n = {n}")
    ints_a, la = _int_scaled(a.entries)
    ints_b, lb = _int_scaled(b.entries)
    if d == 1:
        best, best_g = _d1_brute(ints_a, ints_b)
    else:
        best = best_g = None
        for img, f in _coset_values(_nonzero_digit_entries(ints_a, n, d),
                                    ints_b, n, d, ()):
            f = abs(f)
            i = int(f.argmax())
            if best is None or f[i] > best:
                best, best_g = int(f[i]), tuple(img[i].tolist())
    return BruteResult(Permutation(best_g), Fraction(best, la * lb))


def _d1_brute(ints_a: Sequence[int], ints_b: Sequence[int]
              ) -> tuple[int, tuple[int, ...]]:
    """(max |f|, the lexicographically first maximiser) for integer
    vectors at d = 1.  A completion of a prefix worth ``value`` reaches
    +top or -top exactly when value plus the rest's max is top, or value
    plus the rest's min is -top: no completion leaves [-top, top]."""
    def extremes(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, int]:
        xs, ys = sorted(xs), sorted(ys)
        return (sum(x * y for x, y in zip(xs, ys)),
                sum(x * y for x, y in zip(xs, reversed(ys))))

    hi, lo = extremes(ints_a, ints_b)
    top = max(hi, -lo)
    free = list(range(len(ints_b)))
    images: list[int] = []
    value = 0
    for i, x in enumerate(ints_a):
        rest = ints_a[i + 1:]
        for j in free:
            hi, lo = extremes(rest, [ints_b[q] for q in free if q != j])
            here = value + x * ints_b[j]
            if here + hi == top or here + lo == -top:
                break
        images.append(j)
        free.remove(j)
        value = here
    return top, tuple(images)


def tensor_to_json(t: DenseTensor) -> dict:
    """Sparse JSON form with 1-based indices; omitted entries are zero."""
    items = [{"index": [i + 1 for i in digits], "value": format_rational(val)}
             for digits, val in _nonzero_digit_entries(t.entries, t.n, t.d)]
    return {"n": t.n, "d": t.d, "entries": items}


def tensor_from_json(obj: Mapping) -> DenseTensor:
    try:
        n = parse_int(obj["n"])
        d = parse_int(obj["d"])
        parsed = [(ent["index"], tuple(parse_int(i) - 1 for i in ent["index"]),
                   parse_rational(ent["value"]))
                  for ent in obj.get("entries", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tensor object: {exc}") from exc
    items: dict[tuple[int, ...], Fraction] = {}
    for index, idx, value in parsed:
        if idx in items:
            raise ValueError(f"duplicate tensor index {list(index)}")
        items[idx] = value
    return DenseTensor.from_sparse(n, d, items)


def permutation_to_json(g: Permutation) -> dict:
    return {"images": [i + 1 for i in g.images]}


def permutation_from_json(obj: Mapping) -> Permutation:
    try:
        images = tuple(parse_int(i) - 1 for i in obj["images"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed permutation object: {exc}") from exc
    return Permutation(images)
