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
tensor contraction, so the work is polynomial in n.

Greedy steps and pinned cosets share one step scorer per engine, which
returns the raw sums of f**(2k) over some child cosets of a prefix and
their one denominator: ``_d1_sums`` at d = 1, and at d >= 2
``_pinned_sums``, which either sweeps (``_typesweep.PinnedScorer``, one
row per choice of 2k nonzero entries, its groups refined pin by pin
over the extraction) or enumerates the cosets directly by
``_coset_values``, the one evaluator of f(g) over sets of permutations
at d >= 2, which ``brute_max`` shares; an extraction enumerates a small
coset once and sums blocks of it at every later step.  Both routes sum
in int64 residues (``_residue``, by the rule beside
``exact._INT64_MAX``) and rebuild only the sums a step reads out.
``_pinned_scorer`` states how a step picks its route, by measured
costs (``_enumeration_cheaper``), and charges the budget.

Denominators are cleared once per tensor, when it is built: a
``DenseTensor`` holds its entries as integers over one denominator,
with the positions of its nonzero entries.  Every engine here computes
in those integers, reads only the nonzero positions where zeros add
nothing, and divides by the scale once, at the end.  The d >= 2
engines and numpy are imported by the functions that use them, so a
process that only works at d = 1 loads neither, and one that never
sweeps does not load ``_typesweep``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bounds import Interval
from .errors import BudgetError
from .exact import (_INT64_MAX, _Frozen, format_rational, parse_budget, parse_int,
                    parse_ints, parse_list, parse_rational, parse_rationals)

__all__ = [
    "DEFAULT_VISIT_BUDGET",
    "DEFAULT_BRUTE_CAP",
    "DenseTensor",
    "Permutation",
    "PartialAssignment",
    "GreedyResult",
    "BruteResult",
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


class DenseTensor(_Frozen):
    """Order-d array with side n over exact rationals, row-major, 0-based.

    The entries are cleared once, when the tensor is built, into three
    read-only attributes the engines read: ``ints``, the integers
    den * x of the entries x, ``den``, the least positive denominator
    that clears them (so ``(list(ints), den)`` is what
    ``exact._int_scaled`` returns on the entries), and ``nonzero``, the
    ascending row-major positions of the nonzero entries.  The engines
    compute in these integers and apply the scale once, at the end;
    ``entries`` is a view of the entries as ``Fraction``s in lowest
    terms, built on each access.  Tensors are immutable, and equal when
    their n, d and entries are: equality compares n, d, den and ints,
    not ``nonzero``, which they determine.  The shape and every index
    are read with ``exact.parse_int``, and the entries with
    ``exact.parse_rationals``.
    """

    __slots__ = ("n", "d", "den", "ints", "nonzero")

    def __init__(self, n: int, d: int,
                 entries: Iterable[Fraction | int | str]) -> None:
        n, d = _shape(n, d)
        values = parse_rationals(entries)
        if len(values) != n ** d:
            raise ValueError(f"expected {n ** d} entries, got {len(values)}")
        self._clear(n, d, [(v, (i,)) for i, v in enumerate(values) if v])

    def _clear(self, n: int, d: int,
               groups: Sequence[tuple[Fraction, Iterable[int]]]) -> None:
        """Set the tensor holding each value of ``groups`` at its
        row-major positions and 0 elsewhere: the values are cleared
        once, by the least common multiple of their denominators, and
        scattered."""
        den = math.lcm(*{v.denominator for v, _ in groups})
        ints = [0] * n ** d
        for v, positions in groups:
            x = v.numerator * (den // v.denominator)
            for p in positions:
                ints[p] = x
        self._set(n, d, den, tuple(ints), tuple(itertools.compress(range(n ** d), ints)))

    @classmethod
    def _scattered(cls, n: int, d: int,
                   groups: Sequence[tuple[Fraction, Iterable[int]]]) -> "DenseTensor":
        """The tensor of ``_clear``, for a shape already read."""
        t = object.__new__(cls)
        t._clear(n, d, groups)
        return t

    def _key(self) -> tuple:
        return self.n, self.d, self.den, self.ints

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.d, self.entries)

    def __repr__(self) -> str:
        return f"DenseTensor(n={self.n!r}, d={self.d!r}, entries={self.entries!r})"

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.ints)

    @classmethod
    def from_entries(cls, n: int, d: int,
                     values: Iterable[Fraction | int | str]) -> "DenseTensor":
        return cls(n, d, values)

    @classmethod
    def from_sparse(cls, n: int, d: int,
                    items: Mapping[tuple[int, ...], Fraction | int | str]
                    ) -> "DenseTensor":
        n, d = _shape(n, d)
        positions = [_flat_index(parse_ints(idx), n, d) for idx in items]
        # keys such as (0,) and ("0",) name one entry: the later one holds it
        flat = dict(zip(positions, parse_rationals(items.values())))
        return cls._scattered(n, d, [(v, (p,)) for p, v in flat.items()])

    @classmethod
    def zeros(cls, n: int, d: int) -> "DenseTensor":
        return cls.from_sparse(n, d, {})

    def get(self, idx: Sequence[int]) -> Fraction:
        return Fraction(self.ints[_flat_index(parse_ints(idx), self.n, self.d)], self.den)

    @property
    def is_zero_one(self) -> bool:
        return self.den == 1 and all(self.ints[p] == 1 for p in self.nonzero)


def _shape(n: int, d: int) -> tuple[int, int]:
    """A tensor's n and d, read with ``exact.parse_int`` before any size
    is computed from them."""
    n, d = parse_int(n), parse_int(d)
    if n < 1 or d < 1:
        raise ValueError("tensor needs n >= 1 and d >= 1")
    return n, d


def _flat_index(idx: tuple[int, ...], n: int, d: int) -> int:
    if len(idx) != d:
        raise ValueError(f"index of length {len(idx)}, expected {d}")
    flat = 0
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"index entry {i} out of range 0..{n - 1}")
        flat = flat * n + i
    return flat


def _digits(flat: int, n: int, d: int) -> tuple[int, ...]:
    """The index of row-major position ``flat``: ``_flat_index`` undone."""
    idx = []
    for _ in range(d):
        flat, i = divmod(flat, n)
        idx.append(i)
    return tuple(reversed(idx))


class Permutation(_Frozen):
    """A bijection of {0..n-1}; images[i] = g(i), each read with
    ``exact.parse_int``.  Immutable; equality compares ``images``."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]) -> None:
        images = parse_ints(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
        self._set(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def apply_index(self, idx: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.images[i] for i in idx)


class PartialAssignment(_Frozen):
    """Injective prefix of a permutation: ordered (position, image) pairs,
    each read with ``exact.parse_ints``.  Immutable; equality compares
    ``pairs``, in order."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence[Sequence[int]]) -> None:
        pairs = tuple(map(parse_ints, pairs))
        pos = [p for p, _ in pairs]
        img = [q for _, q in pairs]
        if len(set(pos)) != len(pos):
            raise ValueError("positions in a partial assignment must be distinct")
        if len(set(img)) != len(img):
            raise ValueError("images in a partial assignment must be distinct")
        self._set(pairs)

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


def matrix_element(a: DenseTensor, b: DenseTensor, g: Permutation) -> Fraction:
    """Exact inner product <B, gA> = sum_I a_I * b_{g(I)}: the integer
    products over A's nonzero entries, divided once by both scales."""
    _check_shapes(a, b)
    if g.n != a.n:
        raise ValueError(f"permutation on {g.n} points, tensors on {a.n}")
    n, images, ints_a, ints_b = a.n, g.images, a.ints, b.ints
    total = 0
    for pos in a.nonzero:
        image, rest, place = 0, pos, 1
        for _ in range(a.d):
            rest, i = divmod(rest, n)
            image += images[i] * place
            place *= n
        total += ints_a[pos] * ints_b[image]
    return Fraction(total, a.den * b.den)


@functools.lru_cache(maxsize=64)
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


def _injective_sums(plan: tuple, p: Sequence[int]) -> list[int]:
    """M_lam = sum over distinct i_1..i_r of prod x_{i_t}**lam_t from the
    power sums p, for every plan row."""
    out = [1]
    for _, _, _, parent, s, merged in plan[1:]:
        v = out[parent] * p[s]
        for i in merged:
            v -= out[i]
        out.append(v)
    return out


def _d1_weights(plan: tuple, m: int, nfree: int, p: Sequence[int]) -> list[int]:
    """C(m, j) * N_lam * M_lam * (N)_top / (N)_r for each row lam of j with
    r parts of the plan ``_d1_plan(m, top)``, top = min(m, N), N_lam the
    set partitions of shape lam.

    Against the other side's M_lam and the shift power c**(m - j) they
    sum to (N)_top times the average of (c + f_free)**m over the
    bijections of the N free coordinates.
    """
    top = min(m, nfree)
    return [math.comb(m, j) * count * math.perm(nfree - r, top - r) * x
            for (j, r, count, *_), x in zip(plan, _injective_sums(plan, p))]


def _d1_pair(plan: tuple, m: int, weights: Sequence[int], p: Sequence[int],
             shift: int) -> int:
    inj = _injective_sums(plan, p)
    shifts = [shift ** (m - j) for j in range(m + 1)]
    return sum(w * y * shifts[row[0]]
               for w, y, row in zip(weights, inj, plan) if w)


def _d1_sums(ints_a: Sequence[int], ints_b: Sequence[int], m: int,
             pairs: Sequence[tuple[int, int]], pos: int,
             cands: Iterable[int]) -> tuple[dict[int, int], int]:
    """The d = 1 step scorer: for each image c in ``cands``, (N)_top
    times the average of f**m over the coset fixing ``pairs`` and
    pos -> c, and the denominator (N)_top the candidates share, N the
    free coordinates.  A pin (p, q) adds a_p * b_q to f and takes a_p
    and b_q out of the free power sums.  The caller charges the budget."""
    fixed = dict(pairs)
    nfree = len(ints_a) - len(fixed) - 1
    top = min(m, nfree)
    plan = _d1_plan(m, top)
    weights = _d1_weights(plan, m, nfree, _power_sums(
        [x for i, x in enumerate(ints_a) if i != pos and i not in fixed], m))
    used = set(fixed.values())
    pb = _power_sums([y for j, y in enumerate(ints_b) if j not in used], m)
    shift = sum(ints_a[p] * ints_b[q] for p, q in pairs)
    return {c: _d1_pair(plan, m, weights,
                        [s - ints_b[c] ** e for e, s in enumerate(pb)],
                        shift + ints_a[pos] * ints_b[c])
            for c in cands}, math.perm(nfree, top)


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
    budget = parse_budget(visit_budget, DEFAULT_VISIT_BUDGET)
    n, m = a.n, 2 * k
    scale = _scale(a, b, m)
    if a.d == 1:
        top = min(m, n)
        _d1_check_budget(n, m, {top: 1}, budget)
        plan = _d1_plan(m, top)
        weights = _d1_weights(plan, m, n, _power_sums(a.ints, m))
        total = _d1_pair(plan, m, weights, _power_sums(b.ints, m), 0)
        return Fraction(total, math.perm(n, top)) / scale
    # imported here: processes that never take this path (d = 1) do not
    # compile it or import numpy
    from . import _contract

    return _contract.moment(a.ints, b.ints, n, a.d, m, budget) / scale


def _scale(a: DenseTensor, b: DenseTensor, m: int) -> Fraction:
    """(den_a * den_b)**m, the scale of f**m in the cleared integers."""
    return Fraction(a.den) ** m * Fraction(b.den) ** m


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


def _nonzero_values(t: DenseTensor) -> list[int]:
    """The cleared integers of t's nonzero entries, in row-major order."""
    return [t.ints[p] for p in t.nonzero]


_CHUNK_SIZE = 1 << 20  # elements of one enumeration block's image array


@functools.lru_cache(maxsize=16)
def _lex_permutations(s: int):
    """The s! permutations of range(s) as int8 rows, in the order of
    ``itertools.permutations``.  ``permutation_blocks`` keeps s! within
    its row cap, so s, and this cache, stay small."""
    import numpy as np

    rows = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, s + 1):
        prev = rows
        rows = np.empty((size * len(prev), size), dtype=np.int8)
        for first in range(size):
            rest = np.array([x for x in range(size) if x != first],
                            dtype=np.int8)
            part = rows[first * len(prev):(first + 1) * len(prev)]
            part[:, 0] = first
            part[:, 1:] = rest[prev]
    rows.flags.writeable = False  # shared by every caller
    return rows


def permutation_blocks(values: Sequence[int], max_rows: int):
    """Every permutation of ``values`` as an int64 row, in the order of
    ``itertools.permutations``, in blocks of at most max(max_rows, 1)
    rows.  A block fixes a head of the leading values and permutes the
    rest through a cached index table; no values (a full prefix) give
    one empty row."""
    import numpy as np

    size = len(values)
    s = size
    while s and math.factorial(s) > max_rows:
        s -= 1
    block = _lex_permutations(s)
    for head in itertools.permutations(values, size - s):
        rest = np.array([v for v in values if v not in head], dtype=np.int64)
        rows = np.empty((len(block), size), dtype=np.int64)
        rows[:, :size - s] = head
        rows[:, size - s:] = rest[block]
        yield rows


class _CosetInputs(NamedTuple):
    """What ``_coset_values`` reads of a pair, built once per greedy
    extraction or ``brute_max`` (``_coset_inputs``): A's nonzero
    integers and the index digits of their positions, B's integers, and
    ``wide``, whether f may leave int64; the arrays are int64 when it
    may not, and hold Python ints when it may."""
    n: int
    d: int
    vals: object
    digits: object
    flat_b: object
    wide: bool


def _coset_inputs(a: DenseTensor, b: DenseTensor) -> _CosetInputs:
    import numpy as np

    entries = _nonzero_values(a)
    top_a = max(map(abs, entries), default=0)
    top_b = max(map(abs, _nonzero_values(b)), default=0)
    wide = len(entries) * top_a * top_b > _INT64_MAX
    dtype = object if wide else np.int64
    digits = np.stack(np.unravel_index(np.array(a.nonzero, dtype=np.int64),
                                       (a.n,) * a.d), axis=1)
    return _CosetInputs(a.n, a.d, np.array(entries, dtype=dtype), digits,
                        np.array(b.ints, dtype=dtype), wide)


def _coset_values(pair: _CosetInputs, pairs, moduli=None):
    """f = <B, gA> over the coset fixed by ``pairs``, as numpy blocks
    (image rows, f) in ``itertools.permutations`` order of the free values.

    Each block gathers B's integers at the images of A's nonzero
    entries, and f = B[g(I)] @ a in the cleared integers.  Without
    ``moduli`` f is exact: int64 when nnz * max|a| * max|b|, a bound on
    every f, is at most ``_INT64_MAX`` (the int64 rule beside it in
    ``exact``), and Python ints otherwise (``pair.wide``).
    With ``moduli`` (a ``_residue.Moduli``) f comes as its residues,
    shape (size, rows): reduced from the int64 f under that rule, and
    above it from the entries by ``_residue.gathered_sums``.  A block
    has at most ``_CHUNK_SIZE // max(n, nnz * gathers)`` rows, gathers
    the arrays of B gathered per block, so its image and gather arrays
    stay within ``_CHUNK_SIZE`` elements.
    """
    import numpy as np

    n, d, digits = pair.n, pair.d, pair.digits
    fixed = dict(pairs)
    free_pos = [p for p in range(n) if p not in fixed]
    used = set(fixed.values())
    free_val = [v for v in range(n) if v not in used]
    if not pair.wide or moduli is None:
        def values(gflat):
            f = pair.flat_b[gflat] @ pair.vals
            return f if moduli is None else moduli.exact(f)
        gathers = 1
    else:  # f**m, read out of moduli, exceeds int64, so they are primes
        from ._residue import gathered_sums

        values, gathers = gathered_sums(pair.vals, pair.flat_b, moduli)
    for rows in permutation_blocks(free_val, _CHUNK_SIZE // max(
            n, len(pair.vals) * gathers)):
        img = np.empty((len(rows), n), dtype=np.int64)
        for p, q in fixed.items():
            img[:, p] = q
        img[:, free_pos] = rows
        gflat = img[:, digits[:, 0]]
        for t in range(1, d):
            gflat = gflat * n + img[:, digits[:, t]]
        yield img, values(gflat)


def _enumerate_coset_power_sums(pair: _CosetInputs, m: int, pairs,
                                split_pos: int | None, moduli):
    """Residues modulo ``moduli`` of the sums of <B, gA>**m over the coset
    fixed by ``pairs``, in the cleared integers, one per value of
    g(split_pos), shape (size, n) indexed by image; with ``split_pos``
    None, those of f**m of each permutation of the coset, in the order
    of ``_coset_values``."""
    import numpy as np

    from ._residue import scatter_add

    powers = ((img, moduli.power(f, m))
              for img, f in _coset_values(pair, pairs, moduli))
    if split_pos is None:
        return np.concatenate([p for _, p in powers], axis=1)
    sums = np.zeros((moduli.size, pair.n), dtype=np.int64)
    for img, p in powers:
        scatter_add(sums, img[:, split_pos], p)
        sums = moduli.reduce(sums)
    return sums


# Measured route costs in nanoseconds (best of 3 warm calls on a 2-CPU
# x86 VM, seeded d = 2 and d = 3 inputs outside the benchmark, entries
# below 10): an enumeration evaluation costs 5-8, so 6.5; a sweep step
# 200,000 plus 21-26 per row and index position (l = 2kd), and the step
# that builds the rows 51-55 more per row and position, so 25 and 53
_ENUM_NS = 6.5
_STEP_NS = 200_000
_ROW_NS = 25
_BUILD_NS = 53


def _enumeration_cheaper(evaluations: int, rows: int, l: int, built: bool,
                         later: Sequence[int] = ()) -> bool:
    """Whether enumerating a step's cosets (``evaluations`` gathered
    products) costs less than sweeping its ``rows``, each with l index
    positions, a sweep whose rows are ``built`` already paying no build.

    ``later`` holds, when this step's enumeration is kept and so ends
    the extraction's work, the evaluations of the whole parent at each
    later step: the sweep is then charged its steps up to the cheapest
    later enumeration as well."""
    step = _STEP_NS + _ROW_NS * l * rows
    sweep = step + (0 if built else _BUILD_NS * l * rows)
    sweep += min((_ENUM_NS * e + i * step for i, e in enumerate(later)),
                 default=0)
    return _ENUM_NS * evaluations <= sweep


# bytes of the running sums of the coset a greedy extraction keeps: 2**21
# permutations of one residue, as many as a sweep side keeps rows
_KEEP_BYTES = 16 << 20


def _pinned_scorer(a: DenseTensor, b: DenseTensor, m: int, budget: int):
    """The d >= 2 step scorer ``_pinned_sums`` of one extraction, in the
    cleared integers of a and b.

    ``_pinned_sums(pairs, pos, cands)`` returns, for each image c in
    ``cands``, the sum of f**m over the coset fixing ``pairs`` and
    pos -> c times D / |coset|, and the denominator D the candidates
    share.  It counts two exact routes: the enumeration of the
    candidates' cosets (len(cands) * (n - t)! * nnz(A) evaluations,
    t = len(pairs) + 1, D = (n - t)!) and the sweep of
    max(nnz(A), nnz(B))**m rows (one ``_typesweep.PinnedScorer`` for the
    whole extraction, built by the first step that sweeps,
    D = perm(n - t, F)).  It takes the route ``_enumeration_cheaper``
    picks if that one fits the budget, else the other; a step neither
    fits is refused before any work, ``required`` the smaller count.

    The enumeration sums f**m in int64 residues (``_residue``) whose
    moduli hold each child's sum, at most (n - t)! * fmax**m with fmax a
    bound on |f|, and rebuilds only the candidates' sums.  A step that
    enumerates every child of its parent coset enumerates the parent
    once, keeping the running sums of f**m of each permutation (up to
    _KEEP_BYTES of residues) in ``itertools.permutations`` order.  A
    later step's coset is one contiguous block of the kept ones, its
    children equal blocks within it, so it sums blocks and enumerates
    nothing.
    """
    import numpy as np

    from ._residue import Moduli, f_bound

    n, d, nnz = a.n, a.d, len(a.nonzero)
    rows = max(nnz, len(b.nonzero)) ** m
    sides = ((a.nonzero, _nonzero_values(a)), (b.nonzero, _nonzero_values(b)))
    power_bound = f_bound(sides[0][1], sides[1][1]) ** m
    sweep: list = []
    coset: list = []  # the pair as ``_coset_values`` reads it, built once
    # the kept coset: its pairs, free positions and values, running sums
    # and their moduli
    kept: list = []

    def kept_sums(pairs, pos: int, cands: Sequence[int]) -> dict:
        """The children's sums as blocks of the kept coset; the steps
        after it extend its pairs, fixing its free positions in order."""
        base, positions, values, running, moduli = kept
        extra = pairs[len(base):]
        assert pairs[:len(base)] == base and \
            [p for p, _ in extra] + [pos] == positions[:len(extra) + 1]
        start, size, values = 0, running.shape[1] - 1, list(values)
        for _, q in extra:
            size //= len(values)
            start += values.index(q) * size
            values.remove(q)
        size //= len(values)
        lows = [start + values.index(c) * size for c in cands]
        ends = running[:, lows + [low + size for low in lows]]
        return dict(zip(cands, moduli.values(moduli.sub(
            ends[:, len(lows):], ends[:, :len(lows)]))))

    def _pinned_sums(pairs: Sequence[tuple[int, int]], pos: int,
                     cands: Sequence[int]):
        free = n - len(pairs) - 1
        evaluations = len(cands) * math.factorial(free) * max(nnz, 1)
        if min(evaluations, rows) > budget:
            raise BudgetError(
                f"pinned step needs {evaluations} coset evaluations or "
                f"{rows} sweep rows (n={n}, d={d}, 2k={m}), budget is {budget}",
                required=min(evaluations, rows), budget=budget, k=m // 2)
        if kept:  # within the budget: fewer evaluations than the step that kept it
            return kept_sums(tuple(pairs), pos, cands), math.factorial(free)
        whole = len(cands) + len(pairs) == n  # every child of the parent
        # each child's sum of f**m is at most its (n - t)! * fmax**m
        moduli = Moduli.for_bound(math.factorial(free) * power_bound)
        keep = whole and 8 * moduli.size * math.factorial(free + 1) <= _KEEP_BYTES
        # a kept parent ends the work of the later steps, whose parents
        # have free!, (free - 1)!, ... permutations
        later = [math.factorial(j) * nnz for j in range(free, 0, -1)] \
            if keep else ()
        if rows > budget or (evaluations <= budget and _enumeration_cheaper(
                evaluations, rows, m * d, bool(sweep), later)):
            pairs = tuple(pairs)
            if not coset:
                coset.append(_coset_inputs(a, b))
            if keep:
                fixed = dict(pairs)
                powers = _enumerate_coset_power_sums(coset[0], m, pairs, None,
                                                     moduli)
                running = np.zeros((moduli.size, powers.shape[1] + 1),
                                   dtype=np.int64)
                np.cumsum(powers, axis=1, out=running[:, 1:])
                kept.extend((pairs, [p for p in range(n) if p not in fixed],
                             [v for v in range(n) if v not in fixed.values()],
                             moduli.reduce(running), moduli))
                return kept_sums(pairs, pos, cands), math.factorial(free)
            # every child: one pass over the parent coset, split by image
            cosets = [pairs] if whole else [(*pairs, (pos, c)) for c in cands]
            sums = sum(_enumerate_coset_power_sums(coset[0], m, prefix, pos, moduli)
                       for prefix in cosets)
            return (dict(zip(cands, moduli.values(
                moduli.reduce(sums[:, list(cands)])))), math.factorial(free))
        from . import _typesweep

        if not sweep:
            sweep.append(_typesweep.PinnedScorer(*sides, n, d, m))
        return sweep[0].scores(pairs, pos, cands)

    return _pinned_sums


def coset_moment(a: DenseTensor, b: DenseTensor, k: int,
                 prefix: PartialAssignment,
                 visit_budget: int | None = None) -> Fraction:
    """Exact average of <B, gA>**(2k) over {g : g(p) = q for (p, q) in prefix}.

    The empty prefix recovers the full-group moment (``moment_2k``); a
    length-n prefix pins a single permutation and returns f(g)**(2k)
    exactly.

    A nonempty prefix is one call of the greedy step scorer, whose one
    candidate is the prefix's last pair: ``_d1_sums`` (power sums; the
    prefix adds a constant to f) at d = 1, charged one coset's partition
    terms, and ``_pinned_sums`` at d >= 2, which sweeps or enumerates the
    coset and charges the budget as ``_pinned_scorer`` states.  The pins
    are passed to the sweep as they stand; nothing is relabelled.
    """
    _check_shapes(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    n, d, m = a.n, a.d, 2 * k
    for p, q in prefix.pairs:
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"prefix pair ({p}, {q}) out of range 0..{n - 1}")
    budget = parse_budget(visit_budget, DEFAULT_VISIT_BUDGET)
    if not prefix.pairs:
        return moment_2k(a, b, k, budget)
    *pairs, (pos, image) = prefix.pairs
    if d == 1:
        _d1_check_budget(n, m, {min(m, n - len(prefix)): 1}, budget)
        sums, den = _d1_sums(a.ints, b.ints, m, pairs, pos, (image,))
    else:
        sums, den = _pinned_scorer(a, b, m, budget)(pairs, pos, (image,))
    return Fraction(sums[image], den) / _scale(a, b, m)


def greedy_extract(a: DenseTensor, b: DenseTensor, k: int,
                   visit_budget: int | None = None) -> GreedyResult:
    """Fix g(0), g(1), ... successively, each time entering the coset with
    the largest exact conditional moment (ties to the smallest image: each
    step takes ``max`` over ascending candidates, which keeps the first).

    Since the best child coset is at least as good as its parent's
    average, the returned permutation satisfies f(g)**(2k) >= the full
    moment, i.e. |f(g)| >= the certified lower bound.

    One loop serves every d: each step asks the step scorer for the raw
    integer sums of its candidates' cosets, which share a denominator,
    and keeps the largest.  At d = 1 the scorer is ``_d1_sums`` (free
    power sums; n(n+1)/2 candidate cosets, each one term per integer
    partition of each j <= 2k with at most as many parts as the coset
    has free coordinates, all charged before the first step).  At
    d >= 2 it is ``_pinned_sums``, which per step either runs a pinned
    type sweep (the rows built once per extraction;
    ``_typesweep.PinnedScorer`` refines the last step's groups of both
    sides by the pair it chose, weights A's groups by the slot of the
    position being fixed and reads every candidate's sum off one pass
    over B's rows) or sums f**m per image of the position being fixed
    over the parent coset, routed and charged as ``_pinned_scorer``
    states.  The first step that enumerates keeps its parent coset's
    values, and the later steps sum blocks of them and evaluate nothing.
    """
    _check_shapes(a, b)
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = parse_budget(visit_budget, DEFAULT_VISIT_BUDGET)
    n, m = a.n, 2 * k
    if a.d == 1:
        cosets: dict[int, int] = {}
        for t in range(n):
            top = min(m, n - t - 1)
            cosets[top] = cosets.get(top, 0) + n - t
        _d1_check_budget(n, m, cosets, budget)
        scorer = functools.partial(_d1_sums, a.ints, b.ints, m)
    else:
        scorer = _pinned_scorer(a, b, m, budget)
    chosen: list[int] = []
    for pos in range(n):
        cands = [j for j in range(n) if j not in chosen]
        sums, _ = scorer(tuple(enumerate(chosen)), pos, cands)
        chosen.append(max(cands, key=sums.__getitem__))
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
    if d == 1:
        best, best_g = _d1_brute(a.ints, b.ints)
    else:
        best = best_g = None
        for img, f in _coset_values(_coset_inputs(a, b), ()):
            f = abs(f)
            i = int(f.argmax())
            if best is None or f[i] > best:
                best, best_g = int(f[i]), tuple(img[i].tolist())
    return BruteResult(Permutation(best_g), Fraction(best, a.den * b.den))


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
    items = [{"index": [i + 1 for i in _digits(p, t.n, t.d)],
              "value": format_rational(Fraction(t.ints[p], t.den))}
             for p in t.nonzero]
    return {"n": t.n, "d": t.d, "entries": items}


def tensor_from_json(obj: Mapping) -> DenseTensor:
    try:
        n = parse_int(obj["n"])
        d = parse_int(obj["d"])
        parsed = [(ent["index"], tuple(parse_int(i) - 1 for i in parse_list(ent["index"])),
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
        images = tuple(parse_int(i) - 1 for i in parse_list(obj["images"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed permutation object: {exc}") from exc
    return Permutation(images)
