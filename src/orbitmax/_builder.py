"""Internal: the builder of the partition plans that ``_contract`` evaluates.

A plan per (d, m) (``_contract._Plan``) holds, per block count r, one
representative per orbit of the set partitions of m segments of d
positions under the m! segment orders, its member with the smallest
restricted-growth string.  Those of (d, m) extend each representative
of (d, m - 1) by one segment word over its block names and new names
in first-use order (those of (d, 1) are the restricted-growth strings
of d positions), one kept per canonical key; dropping the last segment
of any member leaves a member of a (d, m - 1) orbit, so every orbit is
reached (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  The key is the smallest value of the sorted segment words over
the block renamings that list the blocks by an invariant signature,
every order inside a tie tried, one table of renamings per pattern of
ties; a partition is looked up by canonicalising it, whatever names its
blocks carry (a component keeps the names it has in the larger
partition).  Each representative then gets its orbit size, its Moebius
row folded onto representatives, and its connected components as
contraction nodes.

The builder compiles each distinct connected component once, into one
list of contraction nodes shared by every block limit, equal nodes
stored once.  Every segment takes its diagonals and sums the blocks no
other segment holds; then the pair of operands that loops over the
fewest indices is contracted, until one is left.  Each node is one
unoptimised ``np.einsum`` of operands that share an index (see
``_contract`` for how a side evaluates them).

``_contract._Plan.limit`` imports this module only when a block limit
reaches past what its plan holds: never for the complete plans of
``_contract._SHIPPED``, which are read from package data.  Those files
are this module's output, never edited by hand: after any change to
how a plan is built, rewrite them with ``python -m orbitmax._builder``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import string
from typing import Sequence

import numpy as np

from . import _contract
from ._contract import _ARRAYS, _Plan
from .exact import _INT64_MAX

_LETTERS = string.ascii_letters
# array cells built at a time
_CHUNK_CELLS = 1 << 23


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


def find(plan: _Plan, rows: np.ndarray) -> np.ndarray:
    """Representative numbers of rows of labels, any names: each
    distinct row is canonicalised, and its key found among the keys of
    the representatives with its block count.  Rows are told apart in
    the base of their own largest label, which may exceed the plan's."""
    _, first, back = np.unique(_rgs_keys(rows, int(rows.max()) + 1),
                               return_index=True, return_inverse=True)
    keys, _, blocks = _canonical(plan, rows[first])
    out = np.empty(len(keys), dtype=np.intp)
    for r in set(blocks.tolist()):
        mine = blocks == r
        lo = plan.start[r]
        out[mine] = lo + np.searchsorted(plan.keys[lo:plan.start[r + 1]],
                                         keys[mine])
    return out[back]


def extend(plan: _Plan, top: int) -> None:
    """Add the orbits with built < r <= top blocks: every
    representative of (d, m - 1) with at most ``top`` blocks (of
    (d, 1), the empty row), extended by each word over its names and
    new ones, one extension kept per canonical key.  The smallest
    string of an orbit starts with the smallest of its (d, m - 1)
    orbit, so keeping the smallest extension keeps it.  An orbit's
    size is m! / (automorphisms * the orders of its equal words)."""
    top = min(top, plan.l)
    if top <= plan.built:
        return
    d, m = plan.d, plan.m
    if m == 1:
        heads = [(np.zeros((1, 0), dtype=np.int8), 0)]
    else:
        prev = _contract._plan(d, m - 1)
        extend(prev, top)
        heads = [(prev.reps[prev.start[r]:prev.start[r + 1]], r)
                 for r in range(1, min(top, prev.l) + 1)]
    rows = []
    for head, r in heads:
        words = _rgs(d, r)
        count = np.maximum(r, words.max(axis=1) + 1)
        words = words[(count > plan.built) & (count <= top)]
        if len(words):  # each head with each kept word
            at, word = np.divmod(np.arange(len(head) * len(words)), len(words))
            rows.append(np.hstack((head[at], words[word])))
    rows = np.concatenate(rows)
    keys, auts, blocks = _canonical(plan, rows)
    # the smallest extension of each orbit, by block count, then key
    order = np.lexsort((_rgs_keys(rows, plan.base), keys, blocks))
    first = order[np.flatnonzero(np.diff(keys[order], prepend=-1))]
    # m! / (automorphisms * prod (multiplicity of each word)!), the
    # product taken over each word's place in its run of equal words
    words = np.sort(_rgs_keys(rows[first].reshape(-1, m, d), plan.base),
                    axis=1)
    run = np.ones(len(first), dtype=np.int64)
    div = auts[first].astype(
        np.int64 if math.factorial(m) <= _INT64_MAX else object)
    for s in range(1, m):
        run = np.where(words[:, s] == words[:, s - 1], run + 1, 1)
        div = div * run
    plan.size.extend((math.factorial(m) // div).tolist())
    plan.start.extend((len(plan.reps) + np.searchsorted(
        blocks[first], np.arange(plan.built + 1, top + 1), side="right")).tolist())
    plan.reps = np.concatenate((plan.reps, rows[first]))
    plan.keys = np.concatenate((plan.keys, keys[first]))
    plan.built = top


def _canonical(plan: _Plan, rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    count, d, m = len(rows), plan.d, plan.m
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
    word = plan.base ** np.arange(d - 1, -1, -1, dtype=np.int64)
    digit = (plan.base ** d) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    keys = np.empty(count, dtype=np.int64)
    auts = np.empty(count, dtype=np.int64)
    for c, group in zip(ties[by[heads]].tolist(), np.split(by, heads[1:])):
        names = _renamings(r, c)
        step = max(1, _CHUNK_CELLS // (plan.l * len(names)))
        for at in range(0, len(group), step):
            who = group[at:at + step]
            tries = np.sort(names[:, place[who]].reshape(-1, len(who), m, d)
                            @ word, axis=2) @ digit
            key = tries.min(axis=0)
            keys[who], auts[who] = key, (tries == key).sum(axis=0)
    return keys, auts, used.sum(axis=1)


def extend_rows(plan: _Plan, top: int) -> None:
    """Moebius rows and factors of the representatives with at most
    ``top`` blocks."""
    extend(plan, top)
    done = len(plan.factors)
    if done >= plan.start[top + 1]:
        return
    _moebius_rows(plan, done, top)
    _factors(plan, done, top)


def _moebius_rows(plan: _Plan, lo: int, top: int) -> None:
    """S(pi) = sum over the coarsenings sigma of pi, each pi composed
    with a partition tau of its blocks, of mu(tau) T(rep of sigma).
    tau o pi is a restricted-growth string whose key is linear in
    tau: sum_j tau[j] * (place values of pi's block j)."""
    total = plan.start[top + 1]
    keys, owners, weights = [], [], []
    for r in range(1, top + 1):
        a, b = max(lo, plan.start[r]), plan.start[r + 1]
        if a >= b:
            continue
        tau, mu = _coarsenings(r)
        place = np.zeros((r, b - a), dtype=np.int64)
        np.add.at(place, (plan.reps[a:b], np.arange(b - a)[:, None]),
                  plan.base ** np.arange(plan.l - 1, -1, -1))
        keys.append((tau @ place).reshape(-1))
        owners.append(np.tile(np.arange(a, b), len(tau)))
        weights.append(np.repeat(mu, b - a))
    keys, back = np.unique(np.concatenate(keys), return_inverse=True)
    found = find(plan, (keys[:, None] // plan.base ** np.arange(
        plan.l - 1, -1, -1) % plan.base).astype(np.int8))[back]
    cell = np.concatenate(owners) * total + found
    weight = np.concatenate(weights)
    order = np.argsort(cell, kind="stable")
    cell, weight = cell[order], weight[order]
    head = np.flatnonzero(np.diff(cell, prepend=-1))
    coef = np.add.reduceat(weight, head)
    keep = coef != 0
    who, col = np.divmod(cell[head[keep]], total)
    plan.cols = np.concatenate((plan.cols, col))
    plan.coefs = np.concatenate((plan.coefs, coef[keep]))
    ends = plan.row_start[-1] + np.searchsorted(who, np.arange(lo + 1, total + 1))
    plan.row_start = np.concatenate((plan.row_start, ends))


def _factors(plan: _Plan, lo: int, top: int) -> None:
    """Connected components of the representatives lo.. with at most
    ``top`` blocks, each as the node of its value.  A component of c
    segments is a representative of the plan (d, c), compiled the
    first time it is met."""
    d, m = plan.d, plan.m
    rows = plan.reps[lo:plan.start[top + 1]]
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
            owner, ids = plan, [lo + i for i in who]
        else:
            owner = _contract._plan(d, c)
            extend(owner, top)
            ids = find(owner, np.concatenate([part for _, part in found])).tolist()
        for i, j in zip(who, ids):
            node = plan.compiled.get((c, j))
            if node is None:
                node = plan.compiled[(c, j)] = _compile(
                    owner.reps[j].tolist(), d, plan.nodes, plan.node_index)
            out[i].append(node)
    factors = np.zeros((count, m), dtype=np.intp)
    for i, nodes in enumerate(out):
        factors[i, :len(nodes)] = nodes
    plan.factors = np.concatenate((plan.factors, factors))


def _dumps(plan: _Plan) -> str:
    """The JSON text of a plan built to every block count, as shipped."""
    extend_rows(plan, plan.l)
    doc = {name: ",".join(map(str, getattr(plan, name).ravel().tolist()))
           for name in _ARRAYS}
    doc.update(start=plan.start, size=plan.size, nodes=plan.nodes)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    # rewrite every shipped plan, each built from scratch, reading none
    shipped, _contract._SHIPPED = _contract._SHIPPED, frozenset()
    for d, m in sorted(shipped):
        with open(_contract._plan_file(d, m), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(_dumps(_contract._plan(d, m)))
