"""Internal engine: pinned coset sums of tensor-power entries, grouped by index type.

The k-th even moment of an assignment objective over a coset fixing a
partial assignment reduces to sums of virtual-tensor-power entries
grouped by the equality pattern ("type") of the full index sequence,
refined by which blocks carry values pinned by the partial assignment.
Only sequences whose m = 2k entries are all nonzero contribute, so the
sweep's rows are the nnz**m choices of m nonzero entries of a side,
vectorised with numpy; each row is classified by type and pin pattern
and the per-group sums are accumulated exactly.  The sweep serves the
d >= 2 pinned cosets and greedy steps; moments over all of S_n come
from ``_contract``, which needs no sweep.

There is one accumulation path.  The entry products go into an int64
array when ``perm(n, rmax) * top**m``, a bound on every group sum
(``top`` the largest absolute entry, ``rmax`` the most blocks a type can
have), fits in int64, and into an object array of Python ints
otherwise.  Either way each group sum is ``np.unique`` plus
``np.add.at``.

``greedy_scores`` is the one scorer.  A (type, pattern) group with j
free blocks averages over perm(N, j) placements, N = n - npins; the
scorer weights each group sum by perm(N - j, F - j), F = min(rmax, N),
so that the candidate cosets of a greedy step share the denominator
perm(N, F), and reads every candidate's score off one grouping of each
side's rows (``sweep_rows``, kept for the whole extraction up to
CACHE_MAX rows and rebuilt chunk by chunk above it).
``assign.coset_moment`` relabels a prefix to come first, which makes
its coset the one candidate of such a step.

The module also enumerates permutations of the free coordinates in
blocks of numpy rows, for the direct coset enumeration in ``assign``.

Tensors are passed in as plain integer lists (callers clear rational
denominators first and rescale the results).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError

CHUNK_SIZE = 1 << 20
CACHE_MAX = 1 << 21
_INT64_MAX = 2 ** 63 - 1  # bounds the type keys and the int64 group sums


def check_budget(rows: int, n: int, d: int, m: int, budget: int,
                 npins: int) -> None:
    """Refuse a sweep of more than ``budget`` rows, and (type, pin
    pattern) keys that would not fit in int64."""
    if rows > budget:
        raise BudgetError(
            f"type sweep needs {rows} row visits "
            f"(n={n}, d={d}, 2k={m}), budget is {budget}",
            required=rows, budget=budget, k=m // 2)
    l = m * d
    rmax = min(l, n)
    keys = _key_base(rmax) ** l * (npins + 1) ** rmax
    if keys > _INT64_MAX:
        raise BudgetError(
            f"type keys need {keys} values (n={n}, d={d}, 2k={m}, "
            f"{npins} pins), int64 holds {_INT64_MAX}",
            required=keys, budget=_INT64_MAX, k=m // 2)


def _key_base(rmax: int) -> int:
    return max(rmax, 2)


def _index_dtype(n: int):
    """Smallest signed dtype for index values, block labels, block counts
    and slots at side n (all at most n), and the -1 sentinel."""
    for dt in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dt).max:
            return dt
    return np.int64


def _build_chunk(digits: np.ndarray, vals: np.ndarray, n: int, m: int,
                 start: int, stop: int):
    """Type keys, per-block values and entry products for a range of
    mixed-radix row ids, a row being m nonzero entries (``digits``,
    ``vals``) in order."""
    nnz, d = digits.shape
    l = m * d
    rmax = min(l, n)
    count = stop - start
    ix = digits.dtype
    entries = np.unravel_index(np.arange(start, stop), (nnz,) * m)
    cols = np.concatenate([digits[e] for e in entries], axis=1)
    prods = math.prod(vals[e] for e in entries)
    # restricted-growth labels: label[i] = index of the block position i joins
    labels = np.zeros((count, l), dtype=ix)
    blockvals = np.full((count, rmax), -1, dtype=ix)
    blockvals[:, 0] = cols[:, 0]
    nblocks = np.ones(count, dtype=ix)
    for i in range(1, l):
        lab = np.full(count, -1, dtype=ix)
        for j in range(i):
            eq = cols[:, j] == cols[:, i]
            lab[eq] = labels[eq, j]
        new = lab < 0
        labels[:, i] = np.where(new, nblocks, lab)
        rows = np.nonzero(new)[0]
        blockvals[rows, nblocks[rows]] = cols[rows, i]
        nblocks[new] += 1
    powers = (_key_base(rmax) ** np.arange(l)).astype(np.int64)
    keys = labels.astype(np.int64) @ powers
    return keys, blockvals, prods


def _entry_array(flat: Sequence[int], n: int, rmax: int, m: int) -> np.ndarray:
    """The entries as int64 when no group sum can leave int64, else as
    Python ints.  A group of a type with r blocks holds at most
    perm(n, r) <= perm(n, rmax) rows, each a product of m entries."""
    top = max((abs(v) for v in flat), default=0)
    if math.perm(n, rmax) * top ** m <= _INT64_MAX:
        return np.array(flat, dtype=np.int64)
    return np.array(flat, dtype=object)


def _pin_digits(blockvals: np.ndarray, pins: Sequence[int],
                n: int) -> np.ndarray:
    """Per block slot, the 1-based index of the pin its value is; 0 for
    other values and for empty slots (-1 reads ``lut[n]``)."""
    lut = np.zeros(n + 1, dtype=np.int64)
    lut[list(pins)] = np.arange(1, len(pins) + 1)
    return lut[blockvals]


def _group_sums(keys: np.ndarray, vals: np.ndarray):
    """Distinct keys (sorted), the group of every row, and the sum of vals
    per key in the dtype of vals."""
    uk, inv = np.unique(keys, return_inverse=True)
    inv = inv.reshape(-1)
    sums = np.zeros(len(uk), dtype=vals.dtype)
    np.add.at(sums, inv, vals)
    return uk, inv, sums


def sweep_rows(flat: Sequence[int], n: int, d: int, m: int):
    """The sweep of a row-major tensor: (row count, a callable returning
    (type keys, block values, products) per chunk of rows).  A row is
    one choice of m nonzero entries, so there are nnz**m rows, all with
    nonzero products.  The chunks are built on the first call and kept
    up to CACHE_MAX rows, rebuilt on every call above it."""
    arr = _entry_array(flat, n, min(m * d, n), m)
    nz = np.flatnonzero(arr)
    digits = np.stack(np.unravel_index(nz, (n,) * d), axis=1)
    digits, vals = digits.astype(_index_dtype(n)), arr[nz]
    total = len(nz) ** m

    def build() -> Iterator[tuple]:
        # one chunk, empty, when the tensor has no nonzero entry
        for start in range(0, max(total, 1), CHUNK_SIZE):
            yield _build_chunk(digits, vals, n, m, start,
                               min(start + CHUNK_SIZE, total))

    if total > CACHE_MAX:
        return total, build
    return total, functools.cache(lambda: list(build()))


def greedy_scores(rows_a, rows_b, n: int, d: int, m: int,
                  chosen: Sequence[int], cands: Sequence[int],
                  budget: int) -> dict[int, int]:
    """For each image c in ``cands`` (none in ``chosen``), perm(N, F)
    times the average over the coset pinning positions 0..t-1 to
    chosen + (c,), t = len(chosen) + 1, N = n - t, F = min(rmax, N).
    The rows come from ``sweep_rows``, and the budget caps the larger
    side's row count.

    A's rows are grouped by (type, pattern of positions 0..t-1), a group
    with j free blocks weighted by perm(N - j, F - j).  B's rows are
    grouped once by (type, pattern of ``chosen``); candidate c moves the
    rows holding c at slot s from their group g's key to
    key + T*(T+1)**s, T = t, so
    score[c] = sum G0[g] * W(g) + sum H[g, s, c] * (W(g, s) - W(g)),
    G0 the group sums and H those of the moved rows, both in the entry
    dtype and H only over the cells of candidates that occur.
    """
    t = len(chosen) + 1
    (count_a, chunks_a), (count_b, chunks_b) = rows_a, rows_b
    check_budget(max(count_a, count_b), n, d, m, budget, t)
    rmax = min(m * d, n)
    pb = (t + 1) ** rmax
    place = (t + 1) ** np.arange(rmax, dtype=np.int64)
    free = n - t
    top = min(rmax, free)
    weight = np.array([math.perm(free - j, top - j) for j in range(top + 1)],
                      dtype=object)
    parts = []
    for keys, blockvals, vals in chunks_a():
        dig = _pin_digits(blockvals, range(t), n)
        uk, inv, sums = _group_sums(keys * pb + dig @ place, vals)
        nfree = np.zeros(len(uk), dtype=np.int64)
        nfree[inv] = (blockvals >= t).sum(axis=1)  # values 0..t-1 are pins
        parts.append((uk, sums.astype(object) * weight[nfree]))
    uk, wa = parts[0]
    if len(parts) > 1:  # merge the chunks' groups
        uk, _, wa = _group_sums(*(np.concatenate(p) for p in zip(*parts)))
    # a trailing key no lookup matches, so a search past the end reads 0
    uk, wa = np.append(uk, -1), np.append(wa, 0)

    def weighted(q: np.ndarray) -> np.ndarray:
        i = np.searchsorted(uk[:-1], q)
        return np.where(uk[i] == q, wa[i], 0)

    is_cand = np.zeros(n + 1, dtype=bool)  # empty slots (-1) read is_cand[n]
    is_cand[list(cands)] = True
    base_sum = 0
    moved = np.zeros(n, dtype=object)
    for keys, blockvals, vals in chunks_b():
        dig = _pin_digits(blockvals, chosen, n)
        ub, inv, g0 = _group_sums(keys * pb + dig @ place, vals)
        w_base = weighted(ub)
        base_sum += np.dot(g0.astype(object), w_base)
        # W(g, s) - W(g) per base group and slot, and one cell per
        # (c, g, s) that occurs, keyed c * width + (g * rmax + s)
        diff = (weighted(ub[:, None] + t * place) - w_base[:, None]).reshape(-1)
        width = max(diff.size, 1)
        row, slot = np.nonzero(is_cand[blockvals])
        cell = (blockvals[row, slot].astype(np.int64) * width
                + inv[row] * rmax + slot)
        uc, _, h = _group_sums(cell, vals[row])
        np.add.at(moved, uc // width, h.astype(object) * diff[uc % width])
    return {c: int(base_sum + moved[c]) for c in cands}


@functools.lru_cache(maxsize=16)
def _lex_permutations(s: int) -> np.ndarray:
    """The s! permutations of range(s) as int8 rows, in the order of
    ``itertools.permutations``.  ``permutation_blocks`` keeps s! within
    CHUNK_SIZE, so s, and this cache, stay small."""
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


def permutation_blocks(values: Sequence[int],
                       max_rows: int) -> Iterator[np.ndarray]:
    """Every permutation of ``values`` as an int64 row, in the order of
    ``itertools.permutations``, in blocks of at most max(max_rows, 1)
    rows.  A block fixes a head of the leading values and permutes the
    rest through a cached index table; no values (a full prefix) give
    one empty row."""
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

