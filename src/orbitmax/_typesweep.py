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

There is one accumulation path, in int64 residues (``_residue``).  A
side keeps its entry products and group sums exact in int64 when
``perm(n, rmax) * top**m``, a bound on every group sum (``top`` the
side's largest absolute entry, ``rmax`` the most blocks a type can
have), is at most ``exact._INT64_MAX``, and takes them modulo the
scorer's moduli otherwise (``_entry_residues``).  Either way each group
sum is one ``np.add.at`` by group id per row of residues.  The moduli
hold every score, at most ``perm(n, rmax) * fmax**m`` with fmax a bound
on |f|; the weights and the candidates' sums are taken in them, and
only the scores are rebuilt in Python ints.

``PinnedScorer`` is the one scorer, one per greedy extraction.  Its
group ids refine partitions (Paige and Tarjan, "Three partition
refinement algorithms", SIAM J. Comput. 16, 1987): they start from the
type keys (one ``np.unique`` per chunk built), and each pin only splits
groups, so a row's next id is a table lookup at its id and the slot
holding the pin, with no sort; a kept row is refined once per pin.  A
(type, pattern) group with j free blocks averages over perm(N, j)
placements, N = n - npins; the scorer weights each group sum by
perm(N - j, F - j), F = min(rmax, N), so that the candidate cosets of a
step share the denominator perm(N, F), and reads every candidate's
score off one pass over each side's rows (``sweep_rows``, kept for the
whole extraction up to CACHE_BYTES and rebuilt chunk by chunk of at
most CHUNK_BYTES above it, so that rows of several residues are fewer).
The pins are passed explicitly, A's positions and B's images, so a
coset of ``assign.coset_moment`` is the one candidate of a step as it
stands.

Each side is passed in as the row-major positions of its nonzero
entries and their integers: what ``assign.DenseTensor`` holds from the
moment it is built (its cleared entries, whose one scale ``assign``
applies to the scores, and their nonzero positions), so no side is
scanned entry by entry here.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

import numpy as np

from ._residue import Moduli, f_bound, scatter_add
from .exact import _INT64_MAX

# bytes of the rows of one chunk, and of the rows a side keeps: with
# 8-byte ids and products and rmax = 4 int8 block values, 2**20 and
# 2**21 rows; rows of several residues are fewer
CHUNK_BYTES = 20 << 20
CACHE_BYTES = 40 << 20


def _index_dtype(n: int):
    """Smallest signed dtype for index values, block labels, block counts
    and slots at side n (all at most n), and the -1 sentinel."""
    for dt in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dt).max:
            return dt
    return np.int64


def _build_chunk(digits: np.ndarray, vals: np.ndarray, n: int, m: int,
                 start: int, stop: int, mul=np.multiply):
    """Type keys, per-block values and entry products for a range of
    mixed-radix row ids, a row being m nonzero entries (``digits``, and
    ``vals`` with one row per residue) in order, multiplied by ``mul``."""
    nnz, d = digits.shape
    l = m * d
    rmax = min(l, n)
    count = stop - start
    ix = digits.dtype
    entries = np.unravel_index(np.arange(start, stop), (nnz,) * m)
    # column-major, so that each position's column is contiguous
    cols = np.asfortranarray(np.concatenate([digits[e] for e in entries], axis=1))
    prods = functools.reduce(mul, (vals[:, e] for e in entries))
    # restricted-growth labels: label[i] = index of the block position i joins
    labels = np.zeros((count, l), dtype=ix, order="F")
    blockvals = np.full((count, rmax), -1, dtype=ix)
    blockvals[:, 0] = cols[:, 0]
    nblocks = np.ones(count, dtype=ix)
    for i in range(1, l):
        col = cols[:, i]
        lab = np.full(count, -1, dtype=ix)
        for j in range(i):
            lab = np.where(cols[:, j] == col, labels[:, j], lab)
        new = lab < 0
        labels[:, i] = np.where(new, nblocks, lab)
        rows = np.nonzero(new)[0]
        blockvals[rows, nblocks[rows]] = cols[rows, i]
        nblocks[new] += 1
    # the labels in base max(rmax, 2): int64 keys while base**l fits,
    # Python ints beyond
    base = max(rmax, 2)
    powers = np.array([base ** i for i in range(l)],
                      dtype=np.int64 if base ** l <= _INT64_MAX else object)
    keys = labels.astype(powers.dtype) @ powers
    return keys, blockvals, prods


def _entry_residues(flat: Sequence[int], n: int, rmax: int, m: int,
                    moduli: Moduli) -> tuple[bool, np.ndarray]:
    """(exact, entries): the entries (all of a side's, or its nonzero
    ones) as one exact int64 row when perm(n, rmax) * top**m is at most
    ``_INT64_MAX``, else as their residues modulo ``moduli``.  That bound
    holds every group sum, so an exact side's group sums are exact (the
    int64 rule beside ``exact._INT64_MAX``): a group of a type with r
    blocks holds at most perm(n, r) <= perm(n, rmax) rows, each a
    product of m entries."""
    top = max((abs(v) for v in flat), default=0)
    if math.perm(n, rmax) * top ** m <= _INT64_MAX:
        return True, np.array(flat, dtype=np.int64).reshape(1, -1)
    return False, moduli.of(flat)


def sweep_rows(nonzero: Sequence[int], values: Sequence[int], n: int, d: int,
               m: int, moduli: Moduli):
    """The sweep of a row-major tensor, given as the positions of its
    nonzero entries and their values: (exact, row count, bytes per row,
    a callable yielding (type keys, block values, products) per chunk of
    rows), products exact when ``exact``, else residues modulo
    ``moduli``.  A row is one choice of m nonzero entries, so there are
    nnz**m rows, all with nonzero products.  A row holds its id and its
    products in 8 bytes each and rmax block values; a chunk holds at
    most CHUNK_BYTES of them.  Each call builds the chunks anew."""
    rmax = min(m * d, n)
    exact, vals = _entry_residues(values, n, rmax, m, moduli)
    ix = _index_dtype(n)
    digits = np.stack(np.unravel_index(np.array(nonzero, dtype=np.int64),
                                       (n,) * d), axis=1).astype(ix)
    total = len(nonzero) ** m
    row_bytes = 8 * (1 + len(vals)) + rmax * np.dtype(ix).itemsize
    step = max(CHUNK_BYTES // row_bytes, 1)
    mul = np.multiply if exact else moduli.mul

    def build() -> Iterator[tuple]:
        # one chunk, empty, when the tensor has no nonzero entry
        for start in range(0, max(total, 1), step):
            yield _build_chunk(digits, vals, n, m, start,
                               min(start + step, total), mul)

    return exact, total, row_bytes, build


def _slots(blockvals: np.ndarray, value: int) -> np.ndarray:
    """The block slot holding ``value`` in each row, rmax (the width of
    ``blockvals``) where no block does."""
    width = blockvals.shape[1]
    slot = np.full(len(blockvals), width, dtype=np.int64)
    hold = np.flatnonzero(blockvals == value)
    slot[hold // width] = hold % width
    return slot


def _grown(arr: np.ndarray, size: int, fill: int) -> np.ndarray:
    if len(arr) >= size:
        return arr
    pad = np.full(size - len(arr), fill, dtype=arr.dtype)
    return np.concatenate([arr, pad])


class PinnedScorer:
    """The sweep's step scorer (``scores``) for one extraction.

    Every row carries a group id, and equal ids mean equal type and
    equal pattern of the pins so far on either side.  The ids start from
    A's type keys; each pin pair (p, q) then refines them: a row's next
    id is read from a table at its id and the slot holding p (on A; q on
    B), or none.  A's rows enter what the table lacks, in order, through
    an occupancy mask over the table, so nothing is sorted and no key
    grows with the pins.  A B row whose entry A never made has no A row
    of its type and pattern, adds nothing to any score, and is dropped.

    A side of at most CACHE_BYTES is built once and kept with its ids,
    so a pin refines each row once; a larger side is rebuilt chunk by
    chunk for every step and its ids replayed through the tables, which
    are sized by groups, not rows.
    """

    def __init__(self, side_a: tuple[Sequence[int], Sequence[int]],
                 side_b: tuple[Sequence[int], Sequence[int]],
                 n: int, d: int, m: int) -> None:
        self.n = n
        self.rmax = min(m * d, n)
        # every score is at most perm(N, F) * fmax**m
        self.moduli = Moduli.for_bound(
            math.perm(n, self.rmax) * f_bound(side_a[1], side_b[1]) ** m)
        self.sweep = (sweep_rows(*side_a, n, d, m, self.moduli),
                      sweep_rows(*side_b, n, d, m, self.moduli))
        self.pins: tuple = ()
        self.types: dict[int, int] = {}  # A's type keys -> starting ids
        # free[k]: free blocks of each group at k pins; tables[k]: group
        # id at k pins * (rmax + 1) + slot of pin k -> id at k + 1 pins
        self.free = [np.zeros(0, dtype=np.int64)]
        self.tables: list = []
        self.kept: list = [None, None]

    def _sums(self, side: int, sums: np.ndarray) -> np.ndarray:
        """Residues of one side's group sums (exact, or residues already);
        the result may share memory with ``sums``."""
        if self.sweep[side][0]:
            return self.moduli.exact(sums[0])
        return self.moduli.reduce(sums)

    def scores(self, pairs: Sequence[tuple[int, int]], pos: int,
               cands: Sequence[int]) -> tuple[dict[int, int], int]:
        """For each image c in ``cands`` (none an image in ``pairs``),
        perm(N, F) times the average of f**m over the coset fixing
        ``pairs`` and pos -> c, N = n - len(pairs) - 1, F = min(rmax, N),
        and the denominator perm(N, F) the candidates share.

        A's rows are grouped by id and slot of pos, a group with j free
        blocks weighted by perm(N - j, F - j): W(g, s), and W(g) at no
        slot.  A B row of group g reads W(g) unless it holds c, at slot
        s, when it reads W(g, s), so
        score[c] = sum G0[g] * W(g) + sum H[c, g, s] * (W(g, s) - W(g)),
        G0 B's group sums and H those of the rows holding c, H in dense
        blocks of candidates of at most CHUNK_BYTES.  The weights and
        both sums are taken modulo the scorer's moduli, and each score
        is rebuilt from its residues.
        """
        pairs = tuple(pairs)
        assert pairs[:len(self.pins)] == self.pins  # each step extends the last
        self.pins = pairs
        for _ in range(len(self.tables), len(pairs)):
            self.tables.append(np.zeros(0, dtype=np.int64))
            self.free.append(np.zeros(0, dtype=np.int64))
        res = self.moduli
        r = self.rmax
        w = r + 1
        free = self.n - len(pairs) - 1
        top = min(r, free)
        # perm(N - j, F - j) for j free blocks, 0 past F (and at index -1)
        weight = res.of([math.perm(free - j, top - j) if j <= top else 0
                         for j in range(r + 2)])
        sums = np.zeros((1 if self.sweep[0][0] else res.size, 0), dtype=np.int64)
        for ids, blockvals, vals in self._side(0):
            if sums.shape[1] < len(self.free[-1]) * w:  # the groups only grow
                sums = np.concatenate([sums, np.zeros(
                    (len(sums), len(self.free[-1]) * w - sums.shape[1]),
                    dtype=np.int64)], axis=1)
            scatter_add(sums, ids * w + _slots(blockvals, pos), vals)
            if not self.sweep[0][0]:
                res.reduce(sums)
        group_free = self.free[-1]
        groups = len(group_free)
        if not groups:  # A has no row, or B's rows were all dropped
            return dict.fromkeys(cands, 0), math.perm(free, top)
        # W(g) and W(g, s) - W(g) per group and slot
        wa = self._sums(0, sums)
        del sums
        cell = np.arange(groups * w)
        wa *= weight[:, group_free[cell // w] - (cell % w < r)]
        res.reduce(wa)
        stay = wa[:, r::w]
        slot = (np.arange(groups)[:, None] * w + np.arange(r)).reshape(-1)
        gain = res.sub(wa[:, slot], wa[:, slot + r - slot % w])
        # each candidate's place in cands; empty slots (-1) read index[n]
        index = np.full(self.n + 1, -1, dtype=_index_dtype(self.n))
        index[list(cands)] = np.arange(len(cands))
        size = groups * r  # cells per candidate
        exact_b = self.sweep[1][0]
        # candidates per block of H
        per = max(CHUNK_BYTES // (8 * (1 if exact_b else res.size) * size), 1)
        total = np.zeros((res.size, len(cands)), dtype=np.int64)
        for ids, blockvals, vals in self._side(1):
            g0 = np.zeros((len(vals), groups), dtype=np.int64)
            scatter_add(g0, ids, vals)
            # every score adds the sum over G0
            total += res.mul(self._sums(1, g0), stay).sum(axis=1, keepdims=True)
            # a cell c * size + g * r + s per block s holding a candidate c
            cand = index[blockvals].reshape(-1)
            hold = np.flatnonzero(cand >= 0)
            row = hold // r
            cell = ((cand[hold].astype(np.int64) * groups + ids[row]) * r
                    + hold - row * r)
            for first in range(0, len(cands), per):
                lo, hi = first * size, min(first + per, len(cands)) * size
                inside = (slice(None) if per >= len(cands)
                          else (cell >= lo) & (cell < hi))
                h = np.zeros((len(vals), hi - lo), dtype=np.int64)
                scatter_add(h, cell[inside] - lo, vals[:, row[inside]])
                hit = np.flatnonzero(h.any(axis=0))
                part = res.mul(self._sums(1, h[:, hit]), gain[:, hit % size])
                # hit ascends, so each candidate's cells are one run
                edges = np.searchsorted(hit, np.arange(0, hi - lo + 1, size))
                run = np.zeros((res.size, len(hit) + 1), dtype=np.int64)
                np.cumsum(part, axis=1, out=run[:, 1:])
                total[:, first:first + len(edges) - 1] += \
                    run[:, edges[1:]] - run[:, edges[:-1]]
            total = res.reduce(total)
        if all(kept is not None for kept in self.kept):
            self.tables = [None] * len(pairs)  # no row is below these pins
        return dict(zip(cands, res.values(total))), math.perm(free, top)

    def _side(self, side: int) -> Iterator[tuple]:
        """Each chunk of one side's rows (0 for A, 1 for B) as (group ids
        at the current pins, block values, products)."""
        _, count, row_bytes, build = self.sweep[side]
        chunks = self.kept[side]
        if chunks is None:
            chunks = ([0, *self._types(side, *chunk)] for chunk in build())
            if count * row_bytes <= CACHE_BYTES:
                chunks = self.kept[side] = list(chunks)
        for chunk in chunks:
            for k in range(chunk[0], len(self.pins)):
                chunk[1:] = self._refine(side, k, *chunk[1:])
            chunk[0] = len(self.pins)
            yield chunk[1:]

    def _types(self, side: int, keys: np.ndarray, blockvals: np.ndarray,
               vals: np.ndarray):
        """Starting ids of a chunk's rows; A's rows add their new types."""
        uniq, inv = np.unique(keys, return_inverse=True)
        inv = inv.reshape(-1)
        if side:
            ids = [self.types.get(key, -1) for key in uniq.tolist()]
        else:
            ids = [self.types.setdefault(key, len(self.types))
                   for key in uniq.tolist()]
            row = np.empty(len(uniq), dtype=np.int64)  # a row of each type
            row[inv] = np.arange(len(inv))
            self.free[0] = _grown(self.free[0], len(self.types), 0)
            self.free[0][ids] = (blockvals[row] >= 0).sum(axis=1)
        return _live(np.array(ids, dtype=np.int64)[inv], blockvals, vals)

    def _refine(self, side: int, k: int, ids: np.ndarray,
                blockvals: np.ndarray, vals: np.ndarray):
        """Ids after pin k from the ids before it; A's rows add the
        entries the table lacks."""
        w = self.rmax + 1
        raw = ids * w + _slots(blockvals, self.pins[k][side])
        table = _grown(self.tables[k], len(self.free[k]) * w, -1)
        self.tables[k] = table
        out = table[raw]
        if not side and (out < 0).any():
            seen = np.zeros(len(table), dtype=bool)
            seen[raw[out < 0]] = True
            new = np.flatnonzero(seen)
            table[new] = len(self.free[k + 1]) + np.arange(len(new))
            self.free[k + 1] = np.concatenate([
                self.free[k + 1],
                self.free[k][new // w] - (new % w < self.rmax)])
            out = table[raw]
        return _live(out, blockvals, vals)


def _live(ids: np.ndarray, blockvals: np.ndarray, vals: np.ndarray):
    """The rows with an id (B's rows of no A group have -1)."""
    keep = ids >= 0
    if keep.all():
        return ids, blockvals, vals
    return ids[keep], blockvals[keep], vals[:, keep]
