"""Internal engine: d >= 2 moments over S_n by Moebius inversion over set partitions.

The average of <B, gA>**m over all of S_n, m = 2k, is a sum over the
index sequences of the l = m*d positions (m segments of d positions,
one segment per factor).  The group moves a sequence of exact equality
type pi, a set partition of the positions with r blocks, onto every
sequence of that type equally often, so

    moment = sum over pi with r <= n of S_A(pi) * S_B(pi) / (n)_r,

where S_X(pi) sums prod_s X[segment s] over the sequences of exact
type pi.  The sum T_X(sigma) over the sequences merely constant on the
blocks of sigma is a tensor contraction: the product, in Python ints,
of one contraction per connected component (segments that share a
block).  Moebius inversion over the partition lattice gives

    S_X(pi) = sum over sigma >= pi of mu(pi, sigma) * T_X(sigma),
    mu(pi, sigma) = prod over blocks B of sigma of (-1)**(c_B - 1) (c_B - 1)!,

c_B the number of blocks of pi merged into B: the hom/injective
inversion of Lovasz, *Large Networks and Graph Limits* (2012), and
Curticapean, Dell and Marx, "Homomorphisms are a good basis for
counting small subgraphs" (STOC 2017).  The coarsenings of pi have no
more blocks than pi, so only partitions with at most min(n, l) blocks
are ever needed.  All groups share the denominator (n)_F, F = min(n, l),
so the moment is one integer sum.

Permuting the m segments changes neither T, S nor the block count, so
one representative per orbit is evaluated, weighted by the orbit size.
A plan per (d, m), kept for the process and extended to the block
counts a call needs, holds:

* per block count r, the orbits, found one of two ways.  From the
  multisets of m segment words over r block names: an orbit is a
  multiset up to renaming of the blocks, told apart by the smallest,
  over the r! renamings, of its sorted words, and every multiset's key
  maps to its orbit.  Or from the S(l, r) set partitions themselves:
  an orbit is told apart by the smallest restricted-growth key over
  the segment orders that sort a signature moving with the segments,
  and every partition's key maps to its orbit.  Block counts 1..R take
  the first way, R ending the run where ``plan_terms`` counts it as no
  more work, unless the partitions with at most R blocks fit in one
  chunk and are simply listed.  So a plan over many segments never
  lists the 2**(l-1) - 1 partitions into two blocks;
* the orbit sizes, and the Moebius rows folded onto representatives;
* each representative's connected components, as representatives of
  the plans (d, c) for c segments.

The plan compiles each distinct connected component once, into one
list of contraction steps shared by every block limit, equal steps
stored once; the evaluator of a block limit runs the steps its
components reach.  Every segment takes its diagonals and sums the
blocks no other segment holds; then the pair of operands that loops
over the fewest indices is contracted, until one is left.  Each step
is one unoptimised ``np.einsum`` of operands that share an index;
numpy's optimised einsum paths silently wrap on object arrays when
operands are disconnected, and are never used.  A side contracts in
int64 when n**F * top**m, top its largest absolute entry, bounds
every partial sum, and on Python ints otherwise.

Tensors are passed in as plain integer lists (callers clear rational
denominators first and rescale the results).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import string
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetError

_INT64_MAX = 2 ** 63 - 1
_LETTERS = string.ascii_letters
# partitions per canonicalisation chunk (and the most listed in place
# of multisets of words), and array cells built at a time
_CHUNK_ROWS = 1 << 16
_CHUNK_CELLS = 1 << 23

_plans: dict[tuple[int, int], "_Plan"] = {}


@functools.lru_cache(maxsize=None)
def _stirling(size: int) -> list[list[int]]:
    """S[j][r], the set partitions of j elements into r blocks, j, r <= size."""
    rows = [[1] + [0] * size]
    for j in range(1, size + 1):
        prev = rows[-1]
        rows.append([0] + [r * prev[r] + prev[r - 1] for r in range(1, size + 1)])
    return rows


@functools.lru_cache(maxsize=None)
def _word_layers(d: int, m: int) -> int:
    """The block counts 1..R whose orbits are found from the multisets of
    m segment words (r! renamings each) rather than from the S(l, r) set
    partitions (at most m! segment orders each): R is the last r of the
    run from 1 where the words cost no more, or 0 when the partitions
    with at most R blocks are few enough to list in one chunk."""
    l, r = m * d, 0
    while r < l and math.comb((r + 1) ** d + m - 1, m) * math.factorial(r + 1) \
            <= _stirling(l)[l][r + 1] * math.factorial(m):
        r += 1
    return r if sum(_stirling(l)[l][:r + 1]) > _CHUNK_ROWS else 0


def plan_terms(d: int, m: int, top: int) -> int:
    """Work of the plan over m segments of d positions up to ``top``
    blocks, counted before it is built.  A layer of r blocks found from
    the comb(r**d + m - 1, m) multisets of segment words costs r!
    renamings per multiset; one found from its S(l, r) set partitions
    costs at most m! segment orders per partition, and listing the
    partitions costs one term per partition with at most r blocks.
    Each multiset or partition also charges its Bell(r) coarsenings for
    the Moebius rows, and comb(m + 1, 3) for the pairwise contraction
    order of its components (each of the m - 1 steps scans the pairs of
    operands left)."""
    l = m * d
    s = _stirling(l)
    total = listed = 0
    for r in range(1, top + 1):
        if r <= _word_layers(d, m):
            items, tries = math.comb(r ** d + m - 1, m), math.factorial(r)
        else:
            items, tries = s[l][r], math.factorial(m)
            listed = sum(s[l][:r + 1])
        total += items * (tries + sum(s[r]) + math.comb(m + 1, 3))
    return total + listed


@functools.lru_cache(maxsize=None)
def _rgs(l: int, top: int) -> np.ndarray:
    """The restricted-growth strings of length l with at most ``top``
    blocks, in lexicographic order, as read-only int8 rows: the label of
    each position, labels numbered in order of first use."""
    if top > l:
        return _rgs(l, l)
    if l == 1:
        rows = np.zeros((1, 1), dtype=np.int8)
    else:
        prev = _rgs(l - 1, top)
        choices = np.minimum(prev.max(axis=1).astype(np.int64) + 2, top)
        pick = np.repeat(np.arange(len(prev)), choices)
        label = np.arange(len(pick)) - np.repeat(np.cumsum(choices) - choices,
                                                 choices)
        rows = np.column_stack((prev[pick], label.astype(np.int8)))
    rows.flags.writeable = False
    return rows


def _multisets(count: int, size: int) -> np.ndarray:
    """The multisets of ``size`` values below ``count``, as nondecreasing
    rows in lexicographic order."""
    rows = np.arange(count, dtype=np.min_scalar_type(count))[:, None]
    for _ in range(size - 1):
        choices = count - rows[:, -1].astype(np.int64)
        pick = np.repeat(np.arange(len(rows)), choices)
        value = rows[pick, -1] + (np.arange(len(pick)) - np.repeat(
            np.cumsum(choices) - choices, choices)).astype(rows.dtype)
        rows = np.column_stack((rows[pick], value))
    return rows


def _rgs_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Integer key of each row of labels; key order is lexicographic order."""
    width = rows.shape[-1]
    return rows @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _relabel(rows: np.ndarray, r: int) -> np.ndarray:
    """Restricted-growth strings of label rows (labels < r): each label
    renamed to the number of distinct labels before its first use."""
    cell = np.arange(len(rows)) * r
    seen = np.full(len(rows) * r, -1, dtype=np.int8)
    count = np.zeros(len(rows), dtype=np.int8)
    out = np.empty_like(rows)
    for i in range(rows.shape[1]):
        at = cell + rows[:, i]
        lab = seen[at]
        new = lab < 0
        lab = np.where(new, count, lab)
        seen[at] = lab
        count += new
        out[:, i] = lab
    return out


@functools.lru_cache(maxsize=None)
def _coarsenings(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bell(r) set partitions tau of r blocks, as label rows, their
    Moebius weights prod_B (-1)**(|B|-1) (|B|-1)!, and their block counts."""
    tau = _rgs(r, r)
    sizes = (tau[:, :, None] == np.arange(r, dtype=np.int8)).sum(axis=1)
    weight = np.array([1] + [(-1) ** (s - 1) * math.factorial(s - 1)
                             for s in range(1, r + 1)], dtype=np.int64)
    return tau, weight[sizes].prod(axis=1), (sizes > 0).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _subscripts(*operands: tuple[int, ...]) -> str:
    """einsum subscripts for label tuples, the last one the output; letters
    follow the labels' first appearance."""
    local = dict(zip(dict.fromkeys(itertools.chain(*operands)), _LETTERS))
    return ",".join("".join(map(local.get, labs)) for labs in operands[:-1]) + \
        "->" + "".join(map(local.get, operands[-1]))


@functools.lru_cache(maxsize=None)
def _reduction(seg: tuple[int, ...], keep: int) -> tuple:
    """(subscripts or None, kept labels, width) of the diagonals of one
    segment and its sums over the labels outside the bit set ``keep``."""
    order = tuple(dict.fromkeys(seg))
    kept = tuple(lab for lab in order if keep >> lab & 1)
    if len(order) == len(seg) == len(kept):
        return None, kept, 0
    return _subscripts(seg, kept), kept, len(order)


def _compile(rgs: Sequence[int], d: int, nodes: list, index: dict) -> int:
    """Append the contraction of one connected partition of c segments to
    a node list shared by all partitions, and return the node of its value.

    Node 0 is the tensor; any other node is (subscripts, x, y, width):
    ``np.einsum(subscripts, node x)`` when y is None, else of nodes x and
    y, with width the number of distinct indices it loops over.  ``index``
    maps each node to its number, so equal nodes are stored once.  Every
    segment first takes its diagonals and sums the blocks no other
    segment holds; then operands are contracted in pairs (``_pairing``)
    until one is left.
    """
    def node(sub: str, x: int, y: int | None, width: int) -> int:
        hit = index.get((sub, x, y))
        if hit is None:
            hit = index[(sub, x, y)] = len(nodes)
            nodes.append((sub, x, y, width))
        return hit

    segs = [tuple(rgs[s * d:(s + 1) * d]) for s in range(len(rgs) // d)]
    masks = []
    once = twice = 0  # bit sets of the labels held by one, by two segments
    for seg in segs:
        bits = 0
        for lab in seg:
            bits |= 1 << lab
        masks.append(bits)
        twice |= once & bits
        once |= bits
    live = []  # (node, labels of its axes)
    for seg, bits in zip(segs, masks):
        sub, kept, width = _reduction(seg, bits & twice)
        live.append((0 if sub is None else node(sub, 0, None, width), kept))
    # operands by their number of axes, so that more partitions share one
    # cached pairing
    live.sort(key=lambda v: len(v[1]))
    shapes = [kept for _, kept in live]
    rename = {lab: i for i, lab in enumerate(dict.fromkeys(itertools.chain(*shapes)))}
    live = [v for v, _ in live]
    for x, y, sub, width in _pairing(tuple(tuple(map(rename.get, s)) for s in shapes)):
        made = node(sub, live[x], live[y], width)
        live = [v for z, v in enumerate(live) if z != x and z != y]
        live.append(made)
    return live[0]


@functools.lru_cache(maxsize=None)
def _pairing(shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """Pairwise contraction order of operands with these axis labels:
    steps (x, y, subscripts, width) on positions of the live list, which
    drops x and y and appends the result.  Each step takes the pair that
    loops over the fewest indices, then keeps the fewest."""
    live = [(s, sum(1 << lab for lab in s)) for s in shapes]
    steps = []
    while len(live) > 1:
        # labels held by at least two, at least three live operands: a
        # label of x or y is kept if a third operand holds it
        one = two = three = 0
        for _, bits in live:
            three |= two & bits
            two |= one & bits
            one |= bits
        best = None
        for x, y in itertools.combinations(range(len(live)), 2):
            bx, by = live[x][1], live[y][1]
            if bx & by:  # else an outer product
                kept = (bx & by & three) | ((bx ^ by) & two)
                cost = ((bx | by).bit_count(), kept.bit_count())
                if best is None or cost < best[0]:
                    best = (cost, x, y, kept)
        (width, _), x, y, kept = best
        ax, ay = live[x][0], live[y][0]
        out = tuple(dict.fromkeys(lab for lab in ax + ay if kept >> lab & 1))
        steps.append((x, y, _subscripts(ax, ay, out), width))
        live = [v for z, v in enumerate(live) if z != x and z != y]
        live.append((out, kept))
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _sorting_orders(ranks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The orders of the segments that list them by nondecreasing rank:
    every order of each group of tied segments, the groups by rank."""
    m = len(ranks)
    groups = [[s for s in range(m) if ranks[s] == v] for v in sorted(set(ranks))]
    return tuple(tuple(itertools.chain(*parts)) for parts in
                 itertools.product(*map(itertools.permutations, groups)))


@functools.lru_cache(maxsize=None)
def _renamed_words(r: int, d: int, base: int) -> np.ndarray:
    """Row p, column w: the word w of d block names, read as digits in
    ``base``, under the p-th renaming of the names below r."""
    places = base ** np.arange(d - 1, -1, -1)
    digits = np.arange(base ** d)[:, None] // places % base
    names = np.array([p + tuple(range(r, base))
                      for p in itertools.permutations(range(r))])
    return names[:, digits] @ places


class _Evaluator:
    """What one side needs at one block limit ``top``: the contraction
    nodes its factors reach (node 0 the tensor, each other node
    (subscripts, x, y, width) on earlier nodes, equal nodes stored once),
    the node of each factor's value, each representative's factors
    (padded with the slot of a constant 1), and the Moebius rows as flat
    column, coefficient and start arrays.  The factors are compiled into
    the plan's shared node list, each distinct one once per process, and
    the nodes they reach are copied out in order, so an evaluator loops
    over the same indices whatever limits were asked for before it."""

    def __init__(self, plan: "_Plan", top: int):
        plan.extend_rows(top)
        count = plan.start[top + 1]
        keys = sorted({f for i in range(count) for f in plan.factors[i]})
        for c, i in keys:
            if (c, i) not in plan.compiled:
                plan.compiled[(c, i)] = _compile(
                    _plan(plan.d, c).reps[i].tolist(), plan.d, plan.nodes,
                    plan.node_index)
        reach, stack = set(), [plan.compiled[key] for key in keys]
        while stack:
            v = stack.pop()
            if v and v not in reach:
                reach.add(v)
                _, x, y, _ = plan.nodes[v]
                stack.extend((x,) if y is None else (x, y))
        # operands are numbered before the nodes that read them
        local = {0: 0}
        self.nodes: list = [None]
        for v in sorted(reach):
            sub, x, y, width = plan.nodes[v]
            local[v] = len(self.nodes)
            self.nodes.append((sub, local[x], None if y is None else local[y],
                               width))
        self.outputs = [local[plan.compiled[key]] for key in keys]
        slot = {key: j for j, key in enumerate(keys)}
        self.factors = np.full((count, plan.m), len(keys), dtype=np.intp)
        for i in range(count):
            fs = [slot[f] for f in plan.factors[i]]
            self.factors[i, :len(fs)] = fs
        self.starts = np.array(plan.row_start[:count], dtype=np.intp)
        end = plan.row_start[count]
        self.cols = np.concatenate(plan.row_cols)[:end]
        self.coefs = np.concatenate(plan.row_coefs)[:end]
        self.coefs_obj = self.coefs.astype(object)
        self.row_abs = int(np.add.reduceat(np.abs(self.coefs), self.starts).max())
        self.widths = [node[3] for node in self.nodes[1:]]

    def side(self, tensor: np.ndarray) -> list[int]:
        """S of every representative for one tensor (int64 or object)."""
        values = [tensor]
        for sub, x, y, _ in self.nodes[1:]:
            values.append(np.einsum(sub, values[x]) if y is None
                          else np.einsum(sub, values[x], values[y]))
        comps = [int(values[i]) for i in self.outputs] + [1]
        hom = np.array(comps, dtype=tensor.dtype)[self.factors].prod(axis=1)
        if tensor.dtype != object and \
                self.row_abs * int(np.abs(hom).max()) > _INT64_MAX:
            hom = hom.astype(object)
        coefs = self.coefs_obj if hom.dtype == object else self.coefs
        return np.add.reduceat(coefs * hom[self.cols], self.starts).tolist()


class _Plan:
    """Orbit representatives of the set partitions of m segments of d
    positions; see the module docstring.  Representatives are numbered
    by block count, then by canonical key, so a coarser one always has
    the smaller number.  Keys of listed partitions are restricted-growth
    strings read in base ``base``; a plan that only names the components
    of a larger one builds no Moebius rows or factors."""

    def __init__(self, d: int, m: int):
        self.d, self.m, self.l = d, m, m * d
        self.base = _key_base(self.l)
        self.built = 0  # block counts 1..built are in the plan
        # every listed partition's key, sorted, and its representative
        self.keys = np.zeros(0, dtype=np.int64)
        self.ids = np.zeros(0, dtype=np.intp)
        # block counts 1..words are word layers; every multiset of their
        # words, keyed in one base, sorted, and its representative
        self.words = _word_layers(d, m)
        self.word_base = max(1, min(self.words, self.base))
        self.word_keys = np.zeros(0, dtype=np.int64)
        self.word_ids = np.zeros(0, dtype=np.intp)
        self.reps = np.zeros((0, self.l), dtype=np.int8)
        self.start = [0, 0]  # start[r]: first representative with r blocks
        self.size: list[int] = []
        self.factors: list[tuple[tuple[int, int], ...]] = []
        self.row_cols: list[np.ndarray] = []
        self.row_coefs: list[np.ndarray] = []
        self.row_start = [0]
        # the contraction nodes of every evaluator (node 0 the tensor), the
        # number of each node, and the node of each compiled component
        self.nodes: list = [None]
        self.node_index: dict = {}
        self.compiled: dict[tuple[int, int], int] = {}
        self.evaluators: dict[int, _Evaluator] = {}

    def evaluator(self, top: int) -> _Evaluator:
        hit = self.evaluators.get(top)
        if hit is None:
            hit = self.evaluators[top] = _Evaluator(self, top)
        return hit

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Representative numbers of restricted-growth rows."""
        blocks = rows.max(axis=1) + 1
        out = np.empty(len(rows), dtype=np.intp)
        worded = blocks <= self.words
        out[worded] = self.word_ids[np.searchsorted(
            self.word_keys, self._word_keys(self._words(rows[worded])))]
        listed = ~worded
        out[listed] = self.ids[np.searchsorted(
            self.keys, _rgs_keys(rows[listed], self.base))]
        return out

    def extend(self, top: int) -> None:
        """Add the orbits with built < r <= top blocks."""
        for r in range(self.built + 1, min(top, self.words) + 1):
            self._word_orbits(r)
        if top > max(self.built, self.words):
            self._partition_orbits(max(self.built, self.words) + 1, top)
        self.built = max(self.built, top)

    def _word_orbits(self, r: int) -> None:
        """The orbits with r blocks from the multisets of m words over r
        block names that use every name.  A multiset's key is its sorted
        words read as digits; an orbit is keyed by the smallest key over
        the r! renamings, and the multiset with that key, written as a
        restricted-growth string, is its representative.  The orbit holds
        (its multisets) * (orderings of one of them) / r! partitions."""
        d, m = self.d, self.m
        words = _multisets(r ** d, m)
        digits = np.arange(r ** d)[:, None] // r ** np.arange(d - 1, -1, -1) % r
        names = np.bitwise_or.reduce(1 << digits, axis=1)  # bit set per word
        words = words[np.bitwise_or.reduce(names[words], axis=1) == (1 << r) - 1]
        labels = digits.astype(np.int8)[words].reshape(len(words), self.l)
        own = self._word_keys(self._words(labels))
        canon = self._renamed_keys(labels, r)
        _, orbit, count = np.unique(canon, return_inverse=True, return_counts=True)
        mine = own == canon  # the canonical multisets, in key order
        sizes = [math.factorial(m) * c // math.factorial(r) // math.prod(
                 map(math.factorial, collections.Counter(row).values()))
                 for c, row in zip(count.tolist(), words[mine].tolist())]
        keys = np.concatenate((self.word_keys, own))
        at = np.argsort(keys)
        self.word_keys = keys[at]
        self.word_ids = np.concatenate(
            (self.word_ids, len(self.reps) + orbit.reshape(-1)))[at]
        self.reps = np.concatenate((self.reps, _relabel(labels[mine], r)))
        self.size.extend(sizes)
        self.start.append(len(self.reps))

    def _words(self, rows: np.ndarray) -> np.ndarray:
        """Each segment of each row read as a word in ``word_base``."""
        return rows.reshape(len(rows), self.m, self.d).astype(np.int64) \
            @ self.word_base ** np.arange(self.d - 1, -1, -1)

    def _word_keys(self, words: np.ndarray) -> np.ndarray:
        """The key of each multiset of m segment words (the last axis):
        the words sorted, read as digits."""
        return np.sort(words, axis=-1) \
            @ (self.word_base ** self.d) ** np.arange(self.m - 1, -1, -1)

    def _partition_orbits(self, lo: int, top: int) -> None:
        """The orbits with lo <= r <= top blocks from the partitions
        themselves, numbered by block count, then by canonical key; an
        orbit's representative is its member with the smallest key."""
        rows = _rgs(self.l, top)
        blocks = rows.max(axis=1) + 1
        rows, blocks = rows[blocks >= lo], blocks[blocks >= lo]
        own = _rgs_keys(rows, self.base)
        canon = np.empty(len(rows), dtype=np.int64)
        for at in range(0, len(rows), _CHUNK_ROWS):
            canon[at:at + _CHUNK_ROWS] = self._canonical_keys(
                rows[at:at + _CHUNK_ROWS], top)
        order = np.lexsort((canon, blocks))
        new = np.flatnonzero((np.diff(canon[order], prepend=-1) != 0)
                             | (np.diff(blocks[order], prepend=-1) != 0))
        opens = np.zeros(len(rows), dtype=np.intp)
        opens[new] = 1
        orbit = np.empty(len(rows), dtype=np.intp)
        orbit[order] = np.cumsum(opens) - 1 + len(self.reps)
        keys = np.concatenate((self.keys, own))
        at = np.argsort(keys)
        self.keys = keys[at]
        self.ids = np.concatenate((self.ids, orbit))[at]
        first = len(self.reps)
        self.reps = np.concatenate((self.reps, rows[order[new]]))
        self.size.extend(np.diff(new, append=len(rows)).tolist())
        self.start.extend((first + np.searchsorted(
            blocks[order[new]], np.arange(lo, top + 1), side="right")).tolist())

    def _renamed_keys(self, rows: np.ndarray, r: int) -> np.ndarray:
        """A key of each row's orbit, for rows with r blocks: the
        smallest, over the r! renamings of the blocks, of the sorted
        segments read as words."""
        words = self._words(rows)
        renamed = _renamed_words(r, self.d, self.word_base)
        keys = np.empty(len(rows), dtype=np.int64)
        step = max(1, _CHUNK_CELLS // (self.m * len(renamed)))
        for lo in range(0, len(rows), step):
            keys[lo:lo + step] = self._word_keys(
                renamed[:, words[lo:lo + step]]).min(axis=0)
        return keys

    def _canonical_keys(self, rows: np.ndarray, top: int) -> np.ndarray:
        """The smallest key of each row's orbit.  Only the segment orders
        that sort the segments by a signature (their equality pattern and
        the sizes of the blocks their positions fall in) are tried: the
        signatures move with the segments, so the orders tried for two
        members of one orbit give the same rows."""
        count, d, m = len(rows), self.d, self.m
        sizes = np.bincount((np.arange(count)[:, None] * top + rows).reshape(-1),
                            minlength=count * top).reshape(count, top)
        size = np.take_along_axis(sizes, rows.astype(np.intp), axis=1)
        size, seg = size.reshape(count, m, d), rows.reshape(count, m, d)
        sig = np.zeros((count, m), dtype=np.int64)
        for t in range(d):
            sig = sig * (self.l + 1) + size[:, :, t]
            for u in range(t):
                sig = sig * 2 + (seg[:, :, t] == seg[:, :, u])
        # rank of each segment's signature in its row (ties share a
        # rank); the orders to try depend on the ranks alone
        rank = (sig[:, :, None] > sig[:, None, :]).sum(axis=2, dtype=np.int64)
        codes, pattern = np.unique(rank @ m ** np.arange(m), return_inverse=True)
        lists = [_sorting_orders(tuple(c // m ** s % m for s in range(m)))
                 for c in codes.tolist()]
        orders = np.array(list(itertools.chain(*lists)), dtype=np.intp)
        sizes = np.array(list(map(len, lists)))
        first = np.cumsum(sizes) - sizes
        pattern = pattern.reshape(-1)
        tried = np.cumsum(sizes[pattern])
        canon = np.empty(count, dtype=np.int64)
        lo = 0
        while lo < count:  # at most _CHUNK_CELLS labels at a time
            done = tried[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(
                tried, done + _CHUNK_CELLS // self.l, side="right")))
            per = sizes[pattern[lo:hi]]
            who = np.repeat(np.arange(hi - lo), per)
            which = np.repeat(first[pattern[lo:hi]] - np.cumsum(per) + per, per) \
                + np.arange(len(who))
            tries = seg[lo:hi][who[:, None], orders[which]].reshape(-1, self.l)
            keys = _rgs_keys(_relabel(tries, top), self.base)
            canon[lo:hi] = np.minimum.reduceat(keys, np.cumsum(per) - per)
            lo = hi
        return canon

    def extend_rows(self, top: int) -> None:
        """Moebius rows and factors of the representatives with at most
        ``top`` blocks."""
        self.extend(top)
        done = len(self.factors)
        if done >= self.start[top + 1]:
            return
        self._moebius_rows(done, top)
        self._factors(done, top)

    def _moebius_rows(self, lo: int, top: int) -> None:
        """S(pi) = sum over the coarsenings sigma of pi, each pi composed
        with a partition tau of its blocks, of mu(tau) T(rep of sigma)."""
        total = self.start[top + 1]
        cells, weights = [], []
        for r in range(1, top + 1):
            a, b = max(lo, self.start[r]), self.start[r + 1]
            if a >= b:
                continue
            tau, mu, count = _coarsenings(r)
            reps = self.reps[a:b]
            found = np.empty((len(tau), b - a), dtype=np.intp)
            # the keys and segment words of tau o pi are linear in tau
            listed = count > self.words
            if listed.any():
                # key = sum_j tau[j] * (place values of pi's block j)
                place = np.zeros((r, b - a), dtype=np.int64)
                np.add.at(place, (reps, np.arange(b - a)[:, None]),
                          self.base ** np.arange(self.l - 1, -1, -1))
                found[listed] = self.ids[np.searchsorted(
                    self.keys, tau[listed] @ place)]
            if not listed.all():
                # word s = sum_j tau[j] * (digit values of block j in segment s)
                digit = np.zeros((b - a, r, self.m), dtype=np.int64)
                np.add.at(digit, (np.arange(b - a)[:, None, None],
                                  reps.reshape(b - a, self.m, self.d),
                                  np.arange(self.m)[:, None]),
                          self.word_base ** np.arange(self.d - 1, -1, -1))
                found[~listed] = self.word_ids[np.searchsorted(
                    self.word_keys, self._word_keys(tau[~listed] @ digit))].T
            cells.append((np.arange(a, b) * total + found).reshape(-1))
            weights.append(np.repeat(mu, b - a))
        cell, weight = np.concatenate(cells), np.concatenate(weights)
        order = np.argsort(cell, kind="stable")
        cell, weight = cell[order], weight[order]
        head = np.flatnonzero(np.diff(cell, prepend=-1))
        coef = np.add.reduceat(weight, head)
        keep = coef != 0
        who, col = np.divmod(cell[head[keep]], total)
        self.row_cols.append(col)
        self.row_coefs.append(coef[keep])
        self.row_start.extend((self.row_start[-1] + np.searchsorted(
            who, np.arange(lo + 1, total + 1))).tolist())

    def _factors(self, lo: int, top: int) -> None:
        """Connected components of the representatives lo.. with at most
        ``top`` blocks, each as (c, representative of the plan (d, c))."""
        d, m = self.d, self.m
        rows = self.reps[lo:self.start[top + 1]]
        count = len(rows)
        masks = []
        step = max(1, _CHUNK_CELLS // (m * max(m, top)))
        for at in range(0, count, step):
            part = rows[at:at + step]
            inc = np.zeros((len(part), m, top), dtype=np.int64)
            inc[np.arange(len(part))[:, None, None], np.arange(m)[:, None],
                part.reshape(len(part), m, d)] = 1
            reach = np.minimum(inc @ inc.transpose(0, 2, 1), 1)
            for _ in range(m.bit_length()):
                reach = np.minimum(reach @ reach, 1)
            masks.append(reach @ (1 << np.arange(m)))  # each segment's component
        # one (component, representative) pair per component, grouped
        comps, owners = np.concatenate(masks).reshape(-1), np.repeat(np.arange(count), m)
        order = np.lexsort((owners, comps))
        comps, owners = comps[order], owners[order]
        new = np.ones(len(comps), dtype=bool)
        new[1:] = (comps[1:] != comps[:-1]) | (owners[1:] != owners[:-1])
        comps, owners = comps[new], owners[new]
        heads = np.flatnonzero(np.diff(comps, prepend=comps[0] - 1)).tolist()
        out: list[list] = [[] for _ in range(count)]
        for a, b in zip(heads, heads[1:] + [len(comps)]):
            comp, who = int(comps[a]), owners[a:b]
            if comp == (1 << m) - 1:
                for i in who.tolist():
                    out[i].append((m, lo + i))
                continue
            cols = [s * d + t for s in range(m) if comp >> s & 1 for t in range(d)]
            plan = _plan(d, len(cols) // d)
            plan.extend(min(top, len(cols)))
            ids = plan.find(_relabel(rows[who][:, cols], top))
            for i, j in zip(who.tolist(), ids.tolist()):
                out[i].append((len(cols) // d, j))
        self.factors.extend(tuple(sorted(f)) for f in out)


def _plan(d: int, m: int) -> _Plan:
    plan = _plans.get((d, m))
    if plan is None:
        plan = _plans[(d, m)] = _Plan(d, m)
    return plan


def _key_base(l: int) -> int:
    """Base of the partition keys of l positions: l, or less when l**l
    would leave int64."""
    base = max(l, 2)
    while base ** l > _INT64_MAX:
        base -= 1
    return base


def check_budget(n: int, d: int, m: int, budget: int) -> _Evaluator:
    """Refuse more than ``budget`` plan terms (``plan_terms``, counted
    before the plan is built) plus the multiply-adds of both sides'
    contractions (read off the plan before any tensor is touched), and
    partitions whose keys would not fit in int64; returns the evaluator
    for min(n, l) blocks."""
    l = m * d
    top = min(n, l)
    if top > _key_base(l):
        raise BudgetError(
            f"partition keys need {top ** l} values (n={n}, d={d}, 2k={m}), "
            f"int64 holds {_INT64_MAX}",
            required=top ** l, budget=_INT64_MAX, k=m // 2)
    required = plan_terms(d, m, top)
    if required <= budget:
        ev = _plan(d, m).evaluator(top)
        required += 2 * sum(n ** w for w in ev.widths)
    if required > budget:
        raise BudgetError(
            f"partition moments need at least {required} plan terms and "
            f"multiply-adds (n={n}, d={d}, 2k={m}), budget is {budget}",
            required=required, budget=budget, k=m // 2)
    return ev


def moment(flat_a: Sequence[int], flat_b: Sequence[int], n: int, d: int,
           m: int, budget: int) -> Fraction:
    """Average of <B, gA>**m over S_n for integer tensors at d >= 2.

    A side's contractions run in int64 when n**F * top**m, F = min(n, l)
    and top its largest absolute entry, bounds every partial sum, and on
    Python ints otherwise."""
    ev = check_budget(n, d, m, budget)
    plan = _plan(d, m)
    top = min(n, m * d)
    sides = []
    for flat in (flat_a, flat_b):
        wide = n ** top * max(map(abs, flat), default=0) ** m > _INT64_MAX
        sides.append(ev.side(np.array(flat, dtype=object if wide else np.int64)
                             .reshape((n,) * d)))
    sa, sb = sides
    total = 0
    for r in range(1, top + 1):
        w = math.perm(n - r, top - r)
        for i in range(plan.start[r], plan.start[r + 1]):
            total += plan.size[i] * sa[i] * sb[i] * w
    return Fraction(total, math.perm(n, top))
