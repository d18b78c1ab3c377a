"""Internal engine: pinned coset sums of tensor-power entries, grouped by index type.

The k-th even moment of an assignment objective over a coset fixing a
partial assignment reduces to sums of virtual-tensor-power entries
grouped by the equality pattern ("type") of the full index sequence,
refined by which blocks carry values pinned by the partial assignment.
This module enumerates the n**l index sequences (l = 2k*d) vectorised
with numpy, classifies each sequence by type and pin pattern, and
accumulates the per-group sums exactly.  It serves the d >= 2 pinned
cosets and greedy steps; moments over all of S_n come from
``_contract``, which needs no sweep.

There is one accumulation path.  The entry products go into an int64
array when ``perm(n, rmax) * top**m``, a bound on every group sum
(``top`` the largest absolute entry, ``rmax`` the most blocks a type can
have), fits in int64, and into an object array of Python ints
otherwise.  Either way the zero products are dropped and each group sum
is ``np.unique`` plus ``np.add.at``.

``greedy_scores`` is the one scorer.  A (type, pattern) group with j
free blocks averages over perm(N, j) placements, N = n - npins; the
scorer weights each group sum by perm(N - j, F - j), F = min(rmax, N),
so that the candidate cosets of a greedy step share the denominator
perm(N, F), and reads every candidate's score off one grouping of each
side's nonzero rows (``sweep_rows``, kept for the whole extraction).
``assign.coset_moment`` relabels a prefix to come first, which makes
its coset the one candidate of such a step.  Up to CACHE_MAX sequences
the sweep's keys, block values and segment indices are cached per
(n, d, 2k); above it they are rebuilt chunk by chunk, on the same path.

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
# bytes of cached sweep tables; the least recently used go first, but
# the newest is kept even when it alone is larger
_CACHE_BYTES = 64 << 20

# (n, d, m) -> (keys, blockvals, seg), least recently used first
_table_cache: dict[tuple[int, int, int], tuple] = {}


def sequence_count(n: int, d: int, m: int) -> int:
    return n ** (m * d)


def check_budget(n: int, d: int, m: int, budget: int, npins: int = 0) -> None:
    """Refuse more than ``budget`` sequence visits, and (type, pin
    pattern) keys that would not fit in int64."""
    required = sequence_count(n, d, m)
    if required > budget:
        raise BudgetError(
            f"type enumeration needs {required} sequence visits "
            f"(n={n}, d={d}, 2k={m}), budget is {budget}",
            required=required, budget=budget, k=m // 2)
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


def _build_chunk(n: int, d: int, m: int, start: int, stop: int):
    """Type keys, per-block values and per-segment flat indices for a range
    of mixed-radix sequence ids."""
    l = m * d
    rmax = min(l, n)
    idx = np.arange(start, stop, dtype=np.int64)
    count = stop - start
    ix = _index_dtype(n)
    cols = np.empty((count, l), dtype=ix)
    for pos in range(l):
        p = n ** (l - 1 - pos)
        cols[:, pos] = (idx // p) % n
    seg = []
    for s in range(m):
        acc = np.zeros(count, dtype=np.int64)
        for t in range(d):
            acc = acc * n + cols[:, s * d + t]
        seg.append(acc)
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
    return keys, blockvals, seg


def _table_bytes(entry: tuple) -> int:
    keys, blockvals, seg = entry
    return sum(a.nbytes for a in (keys, blockvals, *seg))


def _cached_table(n: int, d: int, m: int):
    key = (n, d, m)
    hit = _table_cache.pop(key, None)
    if hit is None:
        hit = _build_chunk(n, d, m, 0, sequence_count(n, d, m))
    _table_cache[key] = hit
    held = sum(map(_table_bytes, _table_cache.values()))
    while held > _CACHE_BYTES and len(_table_cache) > 1:
        held -= _table_bytes(_table_cache.pop(next(iter(_table_cache))))
    return hit


def _iter_chunks(n: int, d: int, m: int) -> Iterator[tuple]:
    """(keys, blockvals, seg) per chunk, cached up to CACHE_MAX sequences."""
    total = sequence_count(n, d, m)
    if total <= CACHE_MAX:
        yield _cached_table(n, d, m)
        return
    for start in range(0, total, CHUNK_SIZE):
        yield _build_chunk(n, d, m, start, min(start + CHUNK_SIZE, total))


def _entry_array(flat: Sequence[int], n: int, rmax: int, m: int) -> np.ndarray:
    """The entries as int64 when no group sum can leave int64, else as
    Python ints.  A group of a type with r blocks holds at most
    perm(n, r) <= perm(n, rmax) sequences, each a product of m entries."""
    top = max((abs(v) for v in flat), default=0)
    if math.perm(n, rmax) * top ** m <= _INT64_MAX:
        return np.array(flat, dtype=np.int64)
    return np.array(flat, dtype=object)


def _nonzero_products(arr: np.ndarray, seg: list[np.ndarray]):
    """A mask of the rows whose product of entries over the segments is
    nonzero, and those products."""
    vals = arr[seg[0]]
    for s in seg[1:]:
        vals = vals * arr[s]
    mask = vals != 0
    return mask, vals[mask]


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
    """The sequences whose m-fold entry product is nonzero, as a callable
    returning (type keys, block values, products) per chunk of the sweep:
    built on the first call and kept up to CACHE_MAX sequences, rebuilt
    chunk by chunk on every call above it."""
    def build() -> Iterator[tuple]:
        arr = _entry_array(flat, n, min(m * d, n), m)
        for keys, blockvals, seg in _iter_chunks(n, d, m):
            mask, vals = _nonzero_products(arr, seg)
            yield keys[mask], blockvals[mask], vals

    if sequence_count(n, d, m) > CACHE_MAX:
        return build
    return functools.cache(lambda: list(build()))


def greedy_scores(rows_a, rows_b, n: int, d: int, m: int,
                  chosen: Sequence[int], cands: Sequence[int],
                  budget: int) -> dict[int, int]:
    """For each image c in ``cands`` (none in ``chosen``), perm(N, F)
    times the average over the coset pinning positions 0..t-1 to
    chosen + (c,), t = len(chosen) + 1, N = n - t, F = min(rmax, N).
    The rows come from ``sweep_rows``.

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
    check_budget(n, d, m, budget, t)
    rmax = min(m * d, n)
    pb = (t + 1) ** rmax
    place = (t + 1) ** np.arange(rmax, dtype=np.int64)
    free = n - t
    top = min(rmax, free)
    weight = np.array([math.perm(free - j, top - j) for j in range(top + 1)],
                      dtype=object)
    parts = []
    for keys, blockvals, vals in rows_a():
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
    for keys, blockvals, vals in rows_b():
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


def add_power_sums(out: dict[int, int], keys: np.ndarray, f: np.ndarray,
                   m: int) -> None:
    """out[key] += the sum of f[i]**m over the rows with keys[i] == key,
    in Python ints whatever the dtype of f."""
    for key, x in zip(keys.tolist(), f.tolist()):
        out[key] = out.get(key, 0) + x ** m
