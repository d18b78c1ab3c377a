"""Internal engine: d >= 2 moments over S_n by Moebius inversion over set partitions.

The average of <B, gA>**m over all of S_n, m = 2k, is a sum over the
index sequences of the l = m*d positions (m segments of d positions,
one segment per factor).  The group moves a sequence of exact equality
type pi, a set partition of the positions with r blocks, onto every
sequence of that type equally often, so

    moment = sum over pi with r <= n of S_A(pi) * S_B(pi) / (n)_r,

where S_X(pi) sums prod_s X[segment s] over the sequences of exact
type pi.  The sum T_X(sigma) over the sequences merely constant on the
blocks of sigma is a tensor contraction: the product of one
contraction per connected component (segments that share a block).
Moebius inversion over the partition lattice gives

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

* per block count r, one representative per orbit, its member with
  the smallest restricted-growth string.  Those of (d, m) extend each
  representative of (d, m - 1) by one segment word over its block
  names and new names in first-use order (those of (d, 1) are the
  restricted-growth strings of d positions), one kept per canonical
  key; dropping the last segment of any member leaves a member of a
  (d, m - 1) orbit, so every orbit is reached (McKay, "Isomorph-free
  exhaustive generation", J. Algorithms 26, 1998).  The key is the
  smallest value of the sorted segment words over the block renamings
  that list the blocks by an invariant signature, every order inside a
  tie tried, one table of renamings per pattern of ties; a partition is
  looked up by canonicalising it, whatever names its blocks carry (a
  component keeps the names it has in the larger partition);
* the orbit sizes, and the Moebius rows folded onto representatives;
* each representative's connected components, as the contraction
  nodes of their values.

Representatives are numbered by block count, so a block limit reads a
prefix of one plan.  The plan compiles each distinct connected
component once, into one list of contraction steps shared by every
block limit, equal steps stored once; a limit runs the steps that its
prefix's components reach.  Every segment takes its diagonals and sums
the blocks no other segment holds; then the pair of operands that loops
over the fewest indices is contracted, until one is left.  Each step
is one unoptimised ``np.einsum`` of operands that share an index;
numpy's optimised einsum paths silently wrap on object arrays when
operands are disconnected, and are never used.  A side runs in int64
when n**F * top**m, top its largest absolute entry, is at most
``exact._INT64_MAX``, and on Python ints otherwise: that bound holds
every component value, every T(sigma) and every |S(pi)| <= (n)_r * top**m,
so the int64 rule beside ``_INT64_MAX`` keeps the side exact, whatever
its Moebius products wrap to on the way.

The plans of (d, m) = (2, 2), (2, 4) and (3, 2) (``_SHIPPED``) ship
complete, every block count up to l, as package data in ``plans/``: a
process reads one the first time it asks for that (d, m), never at
import, and builds every other plan as above; a plan that extends or
looks up a shipped one reads it too.  The files are JSON written by
the builder itself, never edited by hand: after any change to how a
plan is built, rewrite them with ``python -m orbitmax._contract``.

Tensors are passed in as flat sequences of integers: the cleared
entries ``assign.DenseTensor`` holds from the moment it is built, whose
one scale ``assign`` applies to the result.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import os
import string
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetError
from .exact import _INT64_MAX

_LETTERS = string.ascii_letters
# array cells built at a time
_CHUNK_CELLS = 1 << 23

_plans: dict[tuple[int, int], "_Plan"] = {}
# the plans (d, m) read complete from package data on first use, never
# built (see the module docstring)
_SHIPPED = frozenset({(2, 2), (2, 4), (3, 2)})
_PLAN_DIR = os.path.join(os.path.dirname(__file__), "plans")


@functools.lru_cache(maxsize=None)
def _stirling(size: int) -> list[list[int]]:
    """S[j][r], the set partitions of j elements into r blocks, j, r <= size."""
    rows = [[1] + [0] * size]
    for j in range(1, size + 1):
        prev = rows[-1]
        rows.append([0] + [r * prev[r] + prev[r - 1] for r in range(1, size + 1)])
    return rows


def plan_terms(d: int, m: int, top: int) -> int:
    """Work charged for the plan over m segments of d positions up to
    ``top`` blocks, counted before it is built.  The count follows an
    earlier way of finding the orbits, kept so that the same calls are
    refused: block counts 1..R charge the comb(r**d + m - 1, m)
    multisets of segment words, r! renamings each, the others their
    S(l, r) set partitions, m! segment orders each, plus one term per
    partition with at most r blocks; R ends the run from 1 where the
    words cost no more, and is 0 when the partitions with at most R
    blocks number at most 2**16.  Each item also charges its Bell(r)
    coarsenings and comb(m + 1, 3) steps of contraction ordering (each
    of the m - 1 steps scans the pairs left)."""
    l = m * d
    s = _stirling(l)
    words = 0
    while words < l and math.comb((words + 1) ** d + m - 1, m) \
            * math.factorial(words + 1) <= s[l][words + 1] * math.factorial(m):
        words += 1
    if sum(s[l][:words + 1]) <= 1 << 16:
        words = 0
    total = listed = 0
    for r in range(1, top + 1):
        if r <= words:
            items, tries = math.comb(r ** d + m - 1, m), math.factorial(r)
        else:
            items, tries = s[l][r], math.factorial(m)
            listed = sum(s[l][:r + 1])
        total += items * (tries + sum(s[r]) + math.comb(m + 1, 3))
    return total + listed


@functools.lru_cache(maxsize=None)
def _rgs(l: int, names: int = 0) -> np.ndarray:
    """Rows of l labels, in lexicographic order, as read-only int8 rows:
    each label one of the ``names`` names in use before the row or a new
    name, new names numbered in order of first use.  With no names before
    the row, these are the restricted-growth strings of length l."""
    rows = np.zeros((1, 0), dtype=np.int8)
    used = np.full(1, names)
    for _ in range(l):
        choices = used + 1
        pick = np.repeat(np.arange(len(rows)), choices)
        label = np.arange(len(pick)) - np.repeat(np.cumsum(choices) - choices,
                                                 choices)
        rows = np.column_stack((rows[pick], label.astype(np.int8)))
        used = np.maximum(used[pick], label + 1)
    rows.flags.writeable = False
    return rows


def _rgs_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Integer key of each row of labels; key order is lexicographic order."""
    width = rows.shape[-1]
    return rows @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _coarsenings(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The Bell(r) set partitions tau of r blocks, as label rows, and
    their Moebius weights prod_B (-1)**(|B|-1) (|B|-1)!."""
    tau = _rgs(r)
    sizes = (tau[:, :, None] == np.arange(r, dtype=np.int8)).sum(axis=1)
    weight = np.array([1] + [(-1) ** (s - 1) * math.factorial(s - 1)
                             for s in range(1, r + 1)], dtype=np.int64)
    return tau, weight[sizes].prod(axis=1)


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
def _renamings(r: int, ties: int) -> np.ndarray:
    """The renamings of r blocks listed in order that keep the order
    between tie groups, bit i of ``ties`` set when places i and i + 1
    of the list tie: row q names the block at each place."""
    groups, lo = [], 0
    for i in range(1, r + 1):
        if i == r or not ties >> (i - 1) & 1:
            groups.append(range(lo, i))
            lo = i
    return np.array([list(itertools.chain(*parts)) for parts in
                     itertools.product(*map(itertools.permutations, groups))],
                    dtype=np.intp)


class _Plan:
    """Orbit representatives of the set partitions of m segments of d
    positions, as restricted-growth strings, with their canonical keys;
    see the module docstring.  Representatives are numbered by block
    count, then by canonical key, so a coarser one always has the
    smaller number, and a block limit ``top`` reads the prefix of the
    first ``start[top + 1]`` representatives.  Keys and strings are read
    as l digits in base ``base``; a plan that only names the components
    of a larger one builds no Moebius rows or factors."""

    def __init__(self, d: int, m: int):
        self.d, self.m, self.l = d, m, m * d
        self.base = _key_base(self.l)
        self.built = 0  # block counts 1..built are in the plan
        # each representative and its canonical key
        self.reps = np.zeros((0, self.l), dtype=np.int8)
        self.keys = np.zeros(0, dtype=np.int64)
        self.start = [0, 0]  # start[r]: first representative with r blocks
        self.size: list[int] = []
        # row i: the nodes of representative i's component values, padded
        # with node 0, which no component's value is
        self.factors = np.zeros((0, m), dtype=np.intp)
        # Moebius row i: columns and coefficients row_start[i]:row_start[i + 1]
        self.cols = np.zeros(0, dtype=np.intp)
        self.coefs = np.zeros(0, dtype=np.int64)
        self.row_start = np.zeros(1, dtype=np.intp)
        # the contraction nodes of every block limit (node 0 the tensor),
        # the number of each node, and the node of each compiled component
        self.nodes: list = [None]
        self.node_index: dict = {}
        self.compiled: dict[tuple[int, int], int] = {}
        self.limits: dict[int, tuple[list[int], list[int]]] = {}

    def limit(self, top: int) -> tuple[list[int], list[int]]:
        """What a block limit cannot slice off the plan: the nodes that its
        prefix's factors reach, operands first, and the component values
        among them."""
        hit = self.limits.get(top)
        if hit is None:
            self.extend_rows(top)
            count = self.start[top + 1]
            roots = sorted(set(self.factors[:count].ravel().tolist()) - {0})
            reach, stack = set(), roots[:]
            while stack:
                v = stack.pop()
                if v and v not in reach:
                    reach.add(v)
                    _, x, y, _ = self.nodes[v]
                    stack.extend((x,) if y is None else (x, y))
            hit = self.limits[top] = (sorted(reach), roots)
        return hit

    def side(self, top: int, flat: Sequence[int]) -> list[int]:
        """S of every representative with at most ``top`` blocks for one
        side's integer tensor of n**d entries, flattened, in int64 when
        n**top * max|entry|**m is at most ``_INT64_MAX`` and on Python ints
        otherwise (see the module docstring); numpy widens the int64
        coefficients in the Moebius products of a Python-int side."""
        nodes, roots = self.limit(top)
        count, d = self.start[top + 1], self.d
        n = round(len(flat) ** (1 / d))
        fits = n ** top * max(map(abs, flat), default=0) ** self.m <= _INT64_MAX
        dtype = np.int64 if fits else object
        values = {0: np.array(flat, dtype=dtype).reshape((n,) * d)}
        for v in nodes:
            sub, x, y, _ = self.nodes[v]
            values[v] = np.einsum(sub, values[x]) if y is None \
                else np.einsum(sub, values[x], values[y])
        scalars = np.ones(len(self.nodes), dtype=dtype)
        scalars[roots] = [int(values[v]) for v in roots]
        hom = scalars[self.factors[:count]].prod(axis=1)
        end = self.row_start[count]
        return np.add.reduceat(self.coefs[:end] * hom[self.cols[:end]],
                               self.row_start[:count]).tolist()

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Representative numbers of rows of labels, any names: each
        distinct row is canonicalised, and its key found among the keys of
        the representatives with its block count.  Rows are told apart in
        the base of their own largest label, which may exceed the plan's."""
        _, first, back = np.unique(_rgs_keys(rows, int(rows.max()) + 1),
                                   return_index=True, return_inverse=True)
        keys, _, blocks = self._canonical(rows[first])
        out = np.empty(len(keys), dtype=np.intp)
        for r in set(blocks.tolist()):
            mine = blocks == r
            lo = self.start[r]
            out[mine] = lo + np.searchsorted(self.keys[lo:self.start[r + 1]],
                                             keys[mine])
        return out[back]

    def extend(self, top: int) -> None:
        """Add the orbits with built < r <= top blocks: every
        representative of (d, m - 1) with at most ``top`` blocks (of
        (d, 1), the empty row), extended by each word over its names and
        new ones, one extension kept per canonical key.  The smallest
        string of an orbit starts with the smallest of its (d, m - 1)
        orbit, so keeping the smallest extension keeps it.  An orbit's
        size is m! / (automorphisms * the orders of its equal words)."""
        top = min(top, self.l)
        if top <= self.built:
            return
        d, m = self.d, self.m
        if m == 1:
            heads = [(np.zeros((1, 0), dtype=np.int8), 0)]
        else:
            prev = _plan(d, m - 1)
            prev.extend(top)
            heads = [(prev.reps[prev.start[r]:prev.start[r + 1]], r)
                     for r in range(1, min(top, prev.l) + 1)]
        rows = []
        for head, r in heads:
            words = _rgs(d, r)
            count = np.maximum(r, words.max(axis=1) + 1)
            words = words[(count > self.built) & (count <= top)]
            if len(words):  # each head with each kept word
                at, word = np.divmod(np.arange(len(head) * len(words)), len(words))
                rows.append(np.hstack((head[at], words[word])))
        rows = np.concatenate(rows)
        keys, auts, blocks = self._canonical(rows)
        # the smallest extension of each orbit, by block count, then key
        order = np.lexsort((_rgs_keys(rows, self.base), keys, blocks))
        first = order[np.flatnonzero(np.diff(keys[order], prepend=-1))]
        # m! / (automorphisms * prod (multiplicity of each word)!), the
        # product taken over each word's place in its run of equal words
        words = np.sort(_rgs_keys(rows[first].reshape(-1, m, d), self.base),
                        axis=1)
        run = np.ones(len(first), dtype=np.int64)
        div = auts[first].astype(
            np.int64 if math.factorial(m) <= _INT64_MAX else object)
        for s in range(1, m):
            run = np.where(words[:, s] == words[:, s - 1], run + 1, 1)
            div = div * run
        self.size.extend((math.factorial(m) // div).tolist())
        self.start.extend((len(self.reps) + np.searchsorted(
            blocks[first], np.arange(self.built + 1, top + 1), side="right")).tolist())
        self.reps = np.concatenate((self.reps, rows[first]))
        self.keys = np.concatenate((self.keys, keys[first]))
        self.built = top

    def _canonical(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
        """The canonical key, automorphism count and block count of each
        row of labels, any names; a name is a block when some position
        holds it.  A block's signature counts the segments where it holds
        each bit set of positions, packed in base m + 1 (modulo 2**62
        where that does not fit, which can only tie more blocks).  The key
        is the smallest value of the sorted segment words, read as digits,
        over the renamings that list the blocks by signature, every order
        inside a tie tried.  Signatures move with the blocks and the
        segments, so the renamings tried for two members of one orbit give
        the same words, and as many of them as there are automorphisms
        reach the smallest.  Names a row does not use are listed last,
        untied, and change no word."""
        count, d, m = len(rows), self.d, self.m
        r = int(rows.max()) + 1
        # bits[i, j, s]: the positions of segment s that hold block j of row i
        cell = (np.arange(count)[:, None] * r + rows) * m + np.repeat(np.arange(m), d)
        bits = np.bincount(cell.reshape(-1), np.tile(1 << np.arange(d), count * m),
                           count * r * m).astype(np.intp).reshape(count, r, m)
        used = bits.any(axis=2)
        code = np.append(0, (m + 1) ** np.arange((1 << d) - 1, dtype=np.int64))
        sig = np.where(used, code[bits].sum(axis=2) & (1 << 62) - 1,
                       (1 << 62) + np.arange(r))
        order = np.argsort(sig, axis=1, kind="stable")
        # each position's block by its place in the list
        place = np.argsort(order, axis=1)[np.arange(count)[:, None], rows]
        sig.sort(axis=1)
        # the rows of each tie pattern together, each pattern's renamings
        # tried on at most _CHUNK_CELLS labels at a time
        ties = (sig[:, 1:] == sig[:, :-1]) @ (1 << np.arange(r - 1))
        by = np.argsort(ties, kind="stable")
        heads = np.flatnonzero(np.diff(ties[by], prepend=-1))
        word = self.base ** np.arange(d - 1, -1, -1, dtype=np.int64)
        digit = (self.base ** d) ** np.arange(m - 1, -1, -1, dtype=np.int64)
        keys = np.empty(count, dtype=np.int64)
        auts = np.empty(count, dtype=np.int64)
        for c, group in zip(ties[by[heads]].tolist(), np.split(by, heads[1:])):
            names = _renamings(r, c)
            step = max(1, _CHUNK_CELLS // (self.l * len(names)))
            for at in range(0, len(group), step):
                who = group[at:at + step]
                tries = np.sort(names[:, place[who]].reshape(-1, len(who), m, d)
                                @ word, axis=2) @ digit
                key = tries.min(axis=0)
                keys[who], auts[who] = key, (tries == key).sum(axis=0)
        return keys, auts, used.sum(axis=1)

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
        with a partition tau of its blocks, of mu(tau) T(rep of sigma).
        tau o pi is a restricted-growth string whose key is linear in
        tau: sum_j tau[j] * (place values of pi's block j)."""
        total = self.start[top + 1]
        keys, owners, weights = [], [], []
        for r in range(1, top + 1):
            a, b = max(lo, self.start[r]), self.start[r + 1]
            if a >= b:
                continue
            tau, mu = _coarsenings(r)
            place = np.zeros((r, b - a), dtype=np.int64)
            np.add.at(place, (self.reps[a:b], np.arange(b - a)[:, None]),
                      self.base ** np.arange(self.l - 1, -1, -1))
            keys.append((tau @ place).reshape(-1))
            owners.append(np.tile(np.arange(a, b), len(tau)))
            weights.append(np.repeat(mu, b - a))
        keys, back = np.unique(np.concatenate(keys), return_inverse=True)
        found = self.find((keys[:, None] // self.base ** np.arange(
            self.l - 1, -1, -1) % self.base).astype(np.int8))[back]
        cell = np.concatenate(owners) * total + found
        weight = np.concatenate(weights)
        order = np.argsort(cell, kind="stable")
        cell, weight = cell[order], weight[order]
        head = np.flatnonzero(np.diff(cell, prepend=-1))
        coef = np.add.reduceat(weight, head)
        keep = coef != 0
        who, col = np.divmod(cell[head[keep]], total)
        self.cols = np.concatenate((self.cols, col))
        self.coefs = np.concatenate((self.coefs, coef[keep]))
        ends = self.row_start[-1] + np.searchsorted(who, np.arange(lo + 1, total + 1))
        self.row_start = np.concatenate((self.row_start, ends))

    def _factors(self, lo: int, top: int) -> None:
        """Connected components of the representatives lo.. with at most
        ``top`` blocks, each as the node of its value.  A component of c
        segments is a representative of the plan (d, c), compiled the
        first time it is met."""
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
        # the components of c < m segments, looked up in (d, c) at once
        parts = collections.defaultdict(list)
        for a, b in zip(heads, heads[1:] + [len(comps)]):
            comp, who = int(comps[a]), owners[a:b]
            cols = [s * d + t for s in range(m) if comp >> s & 1 for t in range(d)]
            parts[len(cols) // d].append((who, rows[who][:, cols]))
        out: list[list] = [[] for _ in range(count)]
        for c, found in parts.items():
            who = np.concatenate([w for w, _ in found]).tolist()
            if c == m:
                plan, ids = self, [lo + i for i in who]
            else:
                plan = _plan(d, c)
                plan.extend(top)
                ids = plan.find(np.concatenate([part for _, part in found])).tolist()
            for i, j in zip(who, ids):
                node = self.compiled.get((c, j))
                if node is None:
                    node = self.compiled[(c, j)] = _compile(
                        plan.reps[j].tolist(), d, self.nodes, self.node_index)
                out[i].append(node)
        factors = np.zeros((count, m), dtype=np.intp)
        for i, nodes in enumerate(out):
            factors[i, :len(nodes)] = nodes
        self.factors = np.concatenate((self.factors, factors))


def _plan(d: int, m: int) -> _Plan:
    plan = _plans.get((d, m))
    if plan is None:
        plan = _plans[(d, m)] = _load(d, m) if (d, m) in _SHIPPED else _Plan(d, m)
    return plan


# the fields of a complete plan that a moment or ``find`` reads, with
# their dtypes; every other field is derived or only used while building
_ARRAYS = {"reps": np.int8, "keys": np.int64, "factors": np.intp,
           "cols": np.intp, "coefs": np.int64, "row_start": np.intp}


def _plan_file(d: int, m: int) -> str:
    return os.path.join(_PLAN_DIR, f"d{d}-m{m}.json")


def _dumps(plan: _Plan) -> str:
    """The JSON text of a plan built to every block count, as shipped."""
    plan.extend_rows(plan.l)
    doc = {name: ",".join(map(str, getattr(plan, name).ravel().tolist()))
           for name in _ARRAYS}
    doc.update(start=plan.start, size=plan.size, nodes=plan.nodes)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _load(d: int, m: int) -> _Plan:
    """The shipped complete plan (d, m): nothing is left to build, so
    its components are never compiled and its rows never canonicalised."""
    with open(_plan_file(d, m), encoding="utf-8") as fh:
        doc = json.load(fh)
    plan = _Plan(d, m)
    for name, dtype in _ARRAYS.items():
        setattr(plan, name, np.fromstring(doc[name], dtype=dtype, sep=","))
    plan.reps = plan.reps.reshape(-1, plan.l)
    plan.factors = plan.factors.reshape(-1, m)
    plan.start, plan.size, plan.built = doc["start"], doc["size"], plan.l
    plan.nodes = [None] + [tuple(v) for v in doc["nodes"][1:]]
    return plan


def _key_base(l: int) -> int:
    """Base of the partition keys of l positions: l, or less when l**l
    would leave int64."""
    base = max(l, 2)
    while base ** l > _INT64_MAX:
        base -= 1
    return base


def check_budget(n: int, d: int, m: int, budget: int) -> None:
    """Refuse more than ``budget`` plan terms (``plan_terms``, counted
    before the plan is built) plus the multiply-adds of both sides'
    contractions at min(n, l) blocks (read off the plan before any
    tensor is touched), and partitions whose keys would not fit in
    int64."""
    l = m * d
    top = min(n, l)
    if top > _key_base(l):
        raise BudgetError(
            f"partition keys need {top ** l} values (n={n}, d={d}, 2k={m}), "
            f"int64 holds {_INT64_MAX}",
            required=top ** l, budget=_INT64_MAX, k=m // 2)
    required = plan_terms(d, m, top)
    if required <= budget:
        plan = _plan(d, m)
        required += 2 * sum(n ** plan.nodes[v][3] for v in plan.limit(top)[0])
    if required > budget:
        raise BudgetError(
            f"partition moments need at least {required} plan terms and "
            f"multiply-adds (n={n}, d={d}, 2k={m}), budget is {budget}",
            required=required, budget=budget, k=m // 2)


def moment(flat_a: Sequence[int], flat_b: Sequence[int], n: int, d: int,
           m: int, budget: int) -> Fraction:
    """Average of <B, gA>**m over S_n for integer tensors at d >= 2, each
    side's S read at min(n, l) blocks (``_Plan.side``)."""
    check_budget(n, d, m, budget)
    plan = _plan(d, m)
    top = min(n, m * d)
    sa, sb = (plan.side(top, flat) for flat in (flat_a, flat_b))
    total = 0
    for r in range(1, top + 1):
        w = math.perm(n - r, top - r)
        for i in range(plan.start[r], plan.start[r + 1]):
            total += plan.size[i] * sa[i] * sb[i] * w
    return Fraction(total, math.perm(n, top))


if __name__ == "__main__":
    # rewrite every shipped plan, each built from scratch, reading none
    shipped, _SHIPPED = _SHIPPED, frozenset()
    for d, m in sorted(shipped):
        with open(_plan_file(d, m), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_dumps(_plan(d, m)))
