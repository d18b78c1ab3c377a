"""Internal engine: exact orbit sums of tensor-power entries, grouped by index type.

The k-th even moment of an assignment objective over all permutations
reduces to sums of virtual-tensor-power entries grouped by the equality
pattern ("type") of the full index sequence, optionally refined by which
blocks carry values pinned by a partial assignment.  This module
enumerates the n**l index sequences (l = 2k*d) vectorised with numpy,
classifies each sequence by type and pin pattern, and accumulates the
per-group sums exactly.

There is one accumulation path.  The entry products go into an int64
array when ``perm(n, rmax) * top**m``, a bound on every group sum
(``top`` the largest absolute entry, ``rmax`` the most blocks a type can
have), fits in int64, and into an object array of Python ints
otherwise.  Either way the zero products are dropped and each group sum
is ``np.unique`` plus ``np.add.at``; an unpinned table reuses the cached
grouping of the whole sweep instead of sorting again.

A (type, pattern) group with j free blocks averages over perm(N, j)
injective placements of those blocks, N = n - npins the free
coordinates.  ``combine`` and the greedy extractor weight each group sum
by perm(N - j, F - j), F = min(rmax, N), so that every group, and every
candidate coset of one greedy step, shares the one integer denominator
perm(N, F).

The module also enumerates permutations of the free coordinates in
blocks of numpy rows, for the direct coset enumeration in ``assign``.

Tensors are passed in as plain integer lists (callers clear rational
denominators first and rescale the results).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError

CHUNK_SIZE = 1 << 20
CACHE_MAX = 1 << 21
_INT64_MAX = 2 ** 63 - 1  # bounds the type keys and the int64 group sums
# bytes of cached groupings; the least recently used go first, but the
# newest is kept even when it alone is larger
_CACHE_BYTES = 64 << 20

# (n, d, m) -> (keys, blockvals, seg, uk0, inv0), least recently used first
_table_cache: dict[tuple[int, int, int], tuple] = {}

SideTable = dict[tuple[int, int], int]


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
    keys, blockvals, seg, uk0, inv0 = entry
    return sum(a.nbytes for a in (keys, blockvals, *seg, uk0, inv0))


def _cached_table(n: int, d: int, m: int):
    key = (n, d, m)
    hit = _table_cache.pop(key, None)
    if hit is None:
        keys, blockvals, seg = _build_chunk(n, d, m, 0, sequence_count(n, d, m))
        uk0, inv0 = np.unique(keys, return_inverse=True)
        hit = (keys, blockvals, seg, uk0, inv0.reshape(-1))
    _table_cache[key] = hit
    held = sum(map(_table_bytes, _table_cache.values()))
    while held > _CACHE_BYTES and len(_table_cache) > 1:
        held -= _table_bytes(_table_cache.pop(next(iter(_table_cache))))
    return hit


def _iter_chunks(n: int, d: int, m: int) -> Iterator[tuple]:
    """(keys, blockvals, seg, grouping) per chunk; ``grouping`` is the
    cached ``np.unique(keys, return_inverse=True)`` or None."""
    total = sequence_count(n, d, m)
    if total <= CACHE_MAX:
        keys, blockvals, seg, uk0, inv0 = _cached_table(n, d, m)
        yield keys, blockvals, seg, (uk0, inv0)
        return
    for start in range(0, total, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, total)
        yield (*_build_chunk(n, d, m, start, stop), None)


def decode_block_count(rawkey: int, rmax: int, l: int) -> int:
    """Number of blocks of the type encoded by a raw key (max label + 1)."""
    base = _key_base(rmax)
    top = 0
    for _ in range(l):
        rawkey, dig = divmod(rawkey, base)
        if dig > top:
            top = dig
    return top + 1


def _count_pins(patkey: int, npins: int) -> int:
    nf = 0
    while patkey:
        patkey, dig = divmod(patkey, npins + 1)
        if dig:
            nf += 1
    return nf


def _entry_array(flat: Sequence[int], n: int, rmax: int, m: int) -> np.ndarray:
    """The entries as int64 when no group sum can leave int64, else as
    Python ints.  A group of a type with r blocks holds at most
    perm(n, r) <= perm(n, rmax) sequences, each a product of m entries."""
    top = max((abs(v) for v in flat), default=0)
    if math.perm(n, rmax) * top ** m <= _INT64_MAX:
        return np.array(flat, dtype=np.int64)
    return np.array(flat, dtype=object)


def _products(arr: np.ndarray, seg: list[np.ndarray]) -> np.ndarray:
    v = arr[seg[0]]
    for s in seg[1:]:
        v = v * arr[s]
    return v


def _pattern_keys(blockvals: np.ndarray, fixed_vals: Sequence[int],
                  npins: int) -> np.ndarray:
    """Base-(npins+1) key recording, per block slot, which pinned value (if
    any) that block carries.  Block values are distinct within a row, so
    each slot matches at most one pin."""
    pat = np.zeros(blockvals.shape[0], dtype=np.int64)
    mult = 1
    for slot in range(blockvals.shape[1]):
        col = blockvals[:, slot]
        dig = np.zeros(blockvals.shape[0], dtype=np.int64)
        for t, fv in enumerate(fixed_vals):
            dig[col == fv] = t + 1
        pat += dig * mult
        mult *= npins + 1
    return pat


def _add_groups(out: dict[int, int], keys: np.ndarray, inv: np.ndarray,
                vals: np.ndarray) -> None:
    """out[keys[g]] += the sum of vals over inv == g, for nonzero sums."""
    sums = np.zeros(len(keys), dtype=vals.dtype)
    np.add.at(sums, inv, vals)
    nz = np.flatnonzero(sums)
    for c, s in zip(keys[nz].tolist(), sums[nz].tolist()):
        out[c] = out.get(c, 0) + s


def side_table(flat: Sequence[int], n: int, d: int, m: int,
               fixed_vals: tuple[int, ...], budget: int) -> SideTable:
    """Exact sums of m-fold entry products, grouped by (type, pin pattern).

    Returns {(raw type key, pattern key): sum}.  ``fixed_vals`` are the
    pinned values for this side (source positions or target images);
    blocks carrying a pinned value get that pin's 1-based index as their
    pattern digit.  Zero sums are omitted.
    """
    check_budget(n, d, m, budget, len(fixed_vals))
    rmax = min(m * d, n)
    arr = _entry_array(flat, n, rmax, m)
    npins = len(fixed_vals)
    pb = (npins + 1) ** rmax
    raw: dict[int, int] = {}
    for keys, blockvals, seg, grouping in _iter_chunks(n, d, m):
        vals = _products(arr, seg)
        mask = vals != 0
        if npins:
            combo = keys[mask] * pb + _pattern_keys(blockvals[mask],
                                                    fixed_vals, npins)
            uk, inv = np.unique(combo, return_inverse=True)
        elif grouping is not None:
            uk, inv = grouping[0], grouping[1][mask]
        else:
            uk, inv = np.unique(keys[mask], return_inverse=True)
        _add_groups(raw, uk, inv, vals[mask])
    return {divmod(c, pb): s for c, s in raw.items()}


def candidate_side_tables(flat: Sequence[int], n: int, d: int, m: int,
                          base_vals: tuple[int, ...],
                          cands: tuple[int, ...],
                          budget: int) -> dict[int, SideTable]:
    """Side tables for every pin list ``base_vals + (c,)`` with c in cands.

    Pattern keys use the final pin count T = len(base_vals) + 1, so the
    results pair with a table built from any other pin list of length T.
    Used by the greedy extractor, where only the last pin varies: the
    sequences are grouped once by (type, base pattern), and each
    candidate only splits those groups by the slot holding it.
    """
    check_budget(n, d, m, budget, len(base_vals) + 1)
    if set(cands) & set(base_vals):
        raise ValueError("candidate pins must be disjoint from the base pins")
    if sequence_count(n, d, m) > CACHE_MAX:
        return {c: side_table(flat, n, d, m, base_vals + (c,), budget)
                for c in cands}
    rmax = min(m * d, n)
    npins = len(base_vals) + 1
    pb = (npins + 1) ** rmax
    keys, blockvals, seg, _, _ = _cached_table(n, d, m)
    vals = _products(_entry_array(flat, n, rmax, m), seg)
    mask = vals != 0
    vals = vals[mask]
    bv = blockvals[mask]
    uk, inv = np.unique(keys[mask] * pb + _pattern_keys(bv, base_vals, npins),
                        return_inverse=True)
    # slot (1-based, 0 = absent) holding each value, per surviving row
    val_slot = np.zeros((bv.shape[0], n), dtype=_index_dtype(n))
    rows = np.arange(bv.shape[0])
    for slot in range(rmax):
        col = bv[:, slot]
        ok = col >= 0
        val_slot[rows[ok], col[ok]] = slot + 1
    # cell (group, slot) -> final combo: the group's combo plus the new
    # pin's digit at that slot
    slot_digit = np.array(
        [0] + [npins * (npins + 1) ** s for s in range(rmax)], dtype=np.int64)
    width = rmax + 1
    cell_keys = (uk[:, None] + slot_digit).reshape(-1)
    cell_base = inv * width
    out: dict[int, SideTable] = {}
    for c in cands:
        raw: dict[int, int] = {}
        _add_groups(raw, cell_keys, cell_base + val_slot[:, c], vals)
        out[c] = {divmod(k, pb): s for k, s in raw.items()}
    return out


def weighted_table(table: SideTable, n: int, d: int, m: int,
                   npins: int) -> SideTable:
    """Each group sum times perm(N - j, F - j), j its free blocks (blocks
    minus pinned blocks), so that S * perm(N - j, F - j) / perm(N, F) is
    its share S / perm(N, j) of the coset average.  The block and pin
    counts are decoded once per distinct raw key and pattern."""
    l = m * d
    rmax = min(l, n)
    free = n - npins
    top = min(rmax, free)
    weight = [math.perm(free - j, top - j) for j in range(top + 1)]
    blocks: dict[int, int] = {}
    pinned: dict[int, int] = {}
    out: SideTable = {}
    for key, s in table.items():
        rawkey, pat = key
        r = blocks.get(rawkey)
        if r is None:
            r = blocks[rawkey] = decode_block_count(rawkey, rmax, l)
        nf = pinned.get(pat)
        if nf is None:
            nf = pinned[pat] = _count_pins(pat, npins)
        out[key] = s * weight[r - nf]
    return out


def pair_sum(weighted: SideTable, table: SideTable) -> int:
    """Sum over shared groups of the weighted sum times the other side's
    sum: perm(N, F) times the coset average."""
    return sum(w * table[key] for key, w in weighted.items() if key in table)


def combine(table_a: SideTable, table_b: SideTable, n: int, d: int, m: int,
            npins: int) -> Fraction:
    """Pair two side tables into the exact coset average of the product.

    For each shared (type, pattern) group with j free (unpinned) blocks,
    those blocks range injectively over the n - npins free values, so
    the group contributes S_A * S_B / perm(n - npins, j).  The groups
    are summed in integers over their common denominator perm(N, F),
    N = n - npins and F = min(rmax, N), with the smaller table weighted.
    """
    if len(table_b) < len(table_a):
        table_a, table_b = table_b, table_a
    total = pair_sum(weighted_table(table_a, n, d, m, npins), table_b)
    free = n - npins
    return Fraction(total, math.perm(free, min(m * d, free)))


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
