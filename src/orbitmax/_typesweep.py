"""Internal engine: exact orbit sums of tensor-power entries, grouped by index type.

The k-th even moment of an assignment objective over all permutations
reduces to sums of virtual-tensor-power entries grouped by the equality
pattern ("type") of the full index sequence, optionally refined by which
blocks carry values pinned by a partial assignment.  This module
enumerates the n**l index sequences (l = 2k*d) vectorised with numpy,
classifies each sequence by type and pin pattern, and accumulates the
per-group sums exactly.

Exactness is preserved in all three arithmetic tiers:

* float64 gathers + bincount when every product and partial sum is
  provably below 2**53 (integers in that range are exact in float64);
* int64 gathers + sorted reduceat below 2**62;
* arbitrary-precision Python ints (object dtype) otherwise.

Tensors are passed in as plain integer lists (callers clear rational
denominators first and rescale the results).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError

CHUNK_SIZE = 1 << 20
CACHE_MAX = 1 << 21
_KEY_LIMIT = 2 ** 63 - 1  # type keys times pin patterns, as int64
_CACHE_SLOTS = 3

# (n, d, m) -> (keys, blockvals, seg, uk0, inv0); small LRU
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
    if keys > _KEY_LIMIT:
        raise BudgetError(
            f"type keys need {keys} values (n={n}, d={d}, 2k={m}, "
            f"{npins} pins), int64 holds {_KEY_LIMIT}",
            required=keys, budget=_KEY_LIMIT, k=m // 2)


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


def _cached_table(n: int, d: int, m: int):
    key = (n, d, m)
    hit = _table_cache.pop(key, None)
    if hit is None:
        keys, blockvals, seg = _build_chunk(n, d, m, 0, sequence_count(n, d, m))
        uk0, inv0 = np.unique(keys, return_inverse=True)
        hit = (keys, blockvals, seg, uk0, inv0.reshape(-1))
        while len(_table_cache) >= _CACHE_SLOTS:
            _table_cache.pop(next(iter(_table_cache)))
    _table_cache[key] = hit
    return hit


def _iter_chunks(n: int, d: int, m: int) -> Iterator[tuple]:
    total = sequence_count(n, d, m)
    if total <= CACHE_MAX:
        keys, blockvals, seg, _, _ = _cached_table(n, d, m)
        yield keys, blockvals, seg
        return
    for start in range(0, total, CHUNK_SIZE):
        yield _build_chunk(n, d, m, start, min(start + CHUNK_SIZE, total))


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


def _tier(flat: Sequence[int], n: int, rmax: int, m: int) -> str:
    top = max((abs(v) for v in flat), default=0)
    if top == 0:
        return "zero"
    bound = math.perm(n, rmax) * top ** m
    if bound < 2 ** 53:
        return "float"
    if bound < 2 ** 62:
        return "int64"
    return "object"


def _entry_array(flat: Sequence[int], tier: str) -> np.ndarray:
    if tier == "float":
        return np.array(flat, dtype=np.float64)
    if tier == "int64":
        return np.array(flat, dtype=np.int64)
    return np.array([int(v) for v in flat], dtype=object)


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


def _accumulate(combo: np.ndarray, vals: np.ndarray, tier: str,
                out: dict[int, int]) -> None:
    mask = vals != 0
    if not mask.any():
        return
    combo = combo[mask]
    vals = vals[mask]
    uk, inv = np.unique(combo, return_inverse=True)
    inv = inv.reshape(-1)
    if tier == "float":
        sums = np.bincount(inv, weights=vals, minlength=len(uk))
        it = zip(uk.tolist(), (int(s) for s in sums))
    else:
        order = np.argsort(inv, kind="stable")
        si = inv[order]
        bounds_idx = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
        sums = np.add.reduceat(vals[order], bounds_idx)
        it = zip(uk.tolist(), (int(s) for s in sums))
    for c, s in it:
        if s:
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
    l = m * d
    rmax = min(l, n)
    tier = _tier(flat, n, rmax, m)
    if tier == "zero":
        return {}
    arr = _entry_array(flat, tier)
    npins = len(fixed_vals)
    pb = (npins + 1) ** rmax
    raw: dict[int, int] = {}
    for keys, blockvals, seg in _iter_chunks(n, d, m):
        vals = _products(arr, seg)
        if npins:
            combo = keys * pb + _pattern_keys(blockvals, fixed_vals, npins)
        else:
            combo = keys
        _accumulate(combo, vals, tier, raw)
    return {divmod(c, pb): s for c, s in raw.items()}


def moment_tables(flat_a: Sequence[int], flat_b: Sequence[int], n: int,
                  d: int, m: int, budget: int) -> tuple[SideTable, SideTable]:
    """Both unpinned side tables in one pass, sharing the cached grouping."""
    check_budget(n, d, m, budget)
    l = m * d
    rmax = min(l, n)
    tier_a = _tier(flat_a, n, rmax, m)
    tier_b = _tier(flat_b, n, rmax, m)
    raw_a: dict[int, int] = {}
    raw_b: dict[int, int] = {}
    total = sequence_count(n, d, m)
    if total <= CACHE_MAX and tier_a == tier_b == "float":
        # fast path: reuse the cached compressed grouping, no re-sort
        keys, _, seg, uk0, inv0 = _cached_table(n, d, m)
        arr_a = _entry_array(flat_a, "float")
        arr_b = _entry_array(flat_b, "float")
        sa = np.bincount(inv0, weights=_products(arr_a, seg), minlength=len(uk0))
        sb = np.bincount(inv0, weights=_products(arr_b, seg), minlength=len(uk0))
        for c, va, vb in zip(uk0.tolist(), sa, sb):
            if va:
                raw_a[c] = int(va)
            if vb:
                raw_b[c] = int(vb)
    else:
        if tier_a != "zero":
            arr_a = _entry_array(flat_a, tier_a)
        if tier_b != "zero":
            arr_b = _entry_array(flat_b, tier_b)
        for keys, _, seg in _iter_chunks(n, d, m):
            if tier_a != "zero":
                _accumulate(keys, _products(arr_a, seg), tier_a, raw_a)
            if tier_b != "zero":
                _accumulate(keys, _products(arr_b, seg), tier_b, raw_b)
    return ({(c, 0): s for c, s in raw_a.items()},
            {(c, 0): s for c, s in raw_b.items()})


def candidate_side_tables(flat: Sequence[int], n: int, d: int, m: int,
                          base_vals: tuple[int, ...],
                          cands: tuple[int, ...],
                          budget: int) -> dict[int, SideTable]:
    """Side tables for every pin list ``base_vals + (c,)`` with c in cands.

    Pattern keys use the final pin count T = len(base_vals) + 1, so the
    results pair with a table built from any other pin list of length T.
    Used by the greedy extractor, where only the last pin varies.
    """
    check_budget(n, d, m, budget, len(base_vals) + 1)
    if set(cands) & set(base_vals):
        raise ValueError("candidate pins must be disjoint from the base pins")
    l = m * d
    rmax = min(l, n)
    npins = len(base_vals) + 1
    tier = _tier(flat, n, rmax, m)
    if tier == "zero":
        return {c: {} for c in cands}
    total = sequence_count(n, d, m)
    if tier != "float" or total > CACHE_MAX:
        return {c: side_table(flat, n, d, m, base_vals + (c,), budget)
                for c in cands}

    keys, blockvals, seg, _, _ = _cached_table(n, d, m)
    arr = _entry_array(flat, tier)
    vals = _products(arr, seg)
    mask = vals != 0
    if not mask.any():
        return {c: {} for c in cands}
    vals = vals[mask]
    pb = (npins + 1) ** rmax
    base_pat = _pattern_keys(blockvals[mask], base_vals, npins)
    base_combo = keys[mask] * pb + base_pat
    uk, inv = np.unique(base_combo, return_inverse=True)
    inv = inv.reshape(-1)
    # slot (1-based, 0 = absent) holding each value, per surviving row
    bv = blockvals[mask]
    val_slot = np.zeros((bv.shape[0], n), dtype=_index_dtype(n))
    rows = np.arange(bv.shape[0])
    for slot in range(rmax):
        col = bv[:, slot]
        ok = col >= 0
        val_slot[rows[ok], col[ok]] = slot + 1
    slot_digit = np.array(
        [0] + [npins * (npins + 1) ** s for s in range(rmax)], dtype=np.int64)
    out: dict[int, SideTable] = {}
    width = rmax + 1
    for c in cands:
        sv = val_slot[:, c].astype(np.int64)
        sums = np.bincount(inv * width + sv, weights=vals,
                           minlength=len(uk) * width)
        tbl: SideTable = {}
        nz = np.flatnonzero(sums)
        for cell in nz.tolist():
            gid, s = divmod(cell, width)
            # final combo = group combo + pin digit at the slot holding c
            combo = int(uk[gid]) + int(slot_digit[s])
            key = divmod(combo, pb)
            tbl[key] = tbl.get(key, 0) + int(sums[cell])
        out[c] = tbl
    return out


def combine(table_a: SideTable, table_b: SideTable, n: int, d: int, m: int,
            npins: int) -> Fraction:
    """Pair two side tables into the exact coset average of the product.

    For each shared (type, pattern) group with r blocks of which nf are
    pinned, the unpinned blocks range injectively over the n - npins
    free values, so the group contributes S_A * S_B / perm(n-npins, r-nf).
    """
    l = m * d
    rmax = min(l, n)
    total = Fraction(0)
    if len(table_b) < len(table_a):
        table_a, table_b = table_b, table_a
    for key, sa in table_a.items():
        sb = table_b.get(key)
        if not sb:
            continue
        rawkey, pat = key
        r = decode_block_count(rawkey, rmax, l)
        nf = _count_pins(pat, npins) if pat else 0
        total += Fraction(sa * sb, math.perm(n - npins, r - nf))
    return total
