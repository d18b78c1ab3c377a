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

* per block count r, one representative per orbit (a restricted-growth
  string) and its canonical key;
* the orbit sizes, and the Moebius rows folded onto representatives;
* each representative's connected components, as the contraction
  nodes of their values: node 0 is the tensor, any other node one
  unoptimised ``np.einsum`` of one node or of two that share an index
  (numpy's optimised einsum paths silently wrap on object arrays when
  operands are disconnected, and are never used).

Representatives are numbered by block count, so a block limit reads a
prefix of one plan, and the nodes that prefix's components reach.
``_builder`` finds the orbits and compiles the components; this module
keeps only what a moment over a complete plan reads.

A block limit evaluates its nodes by the plan's one schedule
(``_Schedule``), built when a plan is first asked for a limit and
rebuilt only when the builder adds rows to it: the nodes of equal depth
in the node graph and equal subscripts form a group, evaluated by one
``np.einsum`` over a leading batch axis, in order of depth.  Inside a
group, nodes are ordered by the smallest block limit that reaches them,
so a block limit reads the leading nodes of each group, a prefix of the
one schedule as it reads a prefix of the one plan (``_Schedule.limit``).
Node values live in one array per output rank, indexed by slot (views
of one array per side, which also holds the operands a group gathers);
a group's operands are read as slices of those arrays when their slots
allow (always for a one-node group) and gathered by slot otherwise.  A
side runs in int64 when n**F * top**m, top its largest absolute entry,
is at most ``exact._INT64_MAX``, and on Python ints otherwise: that
bound holds every component value, every T(sigma) and every
|S(pi)| <= (n)_r * top**m, so the int64 rule beside ``_INT64_MAX``
keeps the side exact, whatever its Moebius products wrap to on the way.
Grouping changes no value: each node is the same einsum as on its own.

The plans of (d, m) = (2, 2), (2, 4) and (3, 2) (``_SHIPPED``) ship
complete, every block count up to l, as package data in ``plans/``: a
process reads one the first time it asks for that (d, m), never at
import, and builds every other plan; a plan that extends or looks up a
shipped one reads it too.  ``_Plan.limit`` imports ``_builder`` only
when a block limit reaches past what its plan holds, so a process whose
moments are all at shipped shapes never compiles the builder.  The files
are JSON written by the builder itself, never edited by hand: after any
change to how a plan is built, rewrite them with
``python -m orbitmax._builder``.

Tensors are passed in as flat sequences of integers: the cleared
entries ``assign.DenseTensor`` holds from the moment it is built, whose
one scale ``assign`` applies to the result.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError
from .exact import _INT64_MAX

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
        # how a side evaluates the nodes of the rows with factors, rebuilt
        # whenever the builder has added rows
        self.schedule: _Schedule | None = None

    def limit(self, top: int) -> "_Limit":
        """What a side at block limit ``top`` evaluates: the view of the
        plan's one schedule at that limit (``_Schedule.limit``).  The
        plan builder (``_builder``) is imported only when the limit
        reaches past what the plan holds, and the schedule is rebuilt
        only when the plan holds rows that it does not."""
        if top > self.built or len(self.factors) < self.start[top + 1]:
            from ._builder import extend_rows

            extend_rows(self, top)
        if self.schedule is None or len(self.schedule.factors) < len(self.factors):
            self.schedule = _Schedule(self)
        return self.schedule.limit(top)

    def side(self, top: int, flat: Sequence[int], n: int) -> list[int]:
        """S of every representative with at most ``top`` blocks for one
        side's integer tensor of n**d entries, flattened, in int64 when
        n**top * max|entry|**m is at most ``_INT64_MAX`` and on Python ints
        otherwise (see the module docstring); numpy widens the int64
        coefficients in the Moebius products of a Python-int side.

        One array holds every node value, ``values[r]`` the nodes of
        output rank r by slot, and after them the room for the operands
        that a group gathers: one allocation per side, which the
        allocator reuses from call to call, where several large ones
        alive together can be mapped afresh on every call."""
        schedule = self.limit(top)
        count, d = self.start[top + 1], self.d
        fits = n ** top * max(map(abs, flat), default=0) ** self.m <= _INT64_MAX
        dtype = np.int64 if fits else object
        cells = [size * n ** rank for rank, size in enumerate(schedule.sizes)]
        room = max((sum(len(index) * n ** rank for rank, index in operands
                        if not isinstance(index, slice))
                    for _, operands, _, _ in schedule.groups), default=0)
        work = np.empty(sum(cells) + room, dtype=dtype)
        values, at = [], 0
        for rank, size in enumerate(schedule.sizes):
            values.append(work[at:at + cells[rank]].reshape((size,) + (n,) * rank))
            at += cells[rank]
        values[0][0] = 1
        values[d][0] = np.array(flat, dtype=dtype).reshape((n,) * d)
        for sub, operands, rank, out in schedule.groups:
            args, free = [], at
            for r, index in operands:
                if isinstance(index, slice):
                    args.append(values[r][index])
                    continue
                size = len(index) * n ** r
                gathered = work[free:free + size].reshape((len(index),) + (n,) * r)
                free += size
                # "clip" writes straight into ``gathered``; every slot is in range
                np.take(values[r], index, axis=0, out=gathered, mode="clip")
                args.append(gathered)
            np.einsum(sub, *args, out=values[rank][out])
        hom = values[0][schedule.factors].prod(axis=1)
        end = self.row_start[count]
        return np.add.reduceat(self.coefs[:end] * hom[self.cols[:end]],
                               self.row_start[:count]).tolist()


class _Limit(NamedTuple):
    """The part of a schedule (``_Schedule``) that a block limit reads.

    ``groups`` lists (batched subscripts, operands as (rank, slice or
    slots), output rank, output slots); ``sizes`` the slots of each rank
    up to the last one the limit's nodes use; ``factors`` the rank-0
    slots of the component values of each representative in the prefix;
    ``widths`` (width, nodes) pairs, for the multiply-adds the budget
    charges."""

    groups: list
    sizes: list
    factors: np.ndarray
    widths: tuple


class _Schedule:
    """How ``_Plan.side`` evaluates the nodes that the plan's factors
    reach, one per plan, rebuilt when the builder adds rows: in groups
    of the nodes with equal depth in the node graph (the tensor at depth
    0) and equal subscripts, one ``np.einsum`` per group over a leading
    batch axis, in order of depth.  Inside a group, nodes are ordered by
    the smallest block limit whose representatives reach them, so a
    block limit evaluates the leading nodes of each group: its view
    (``limit``, kept per limit) skips the groups it does not reach.
    Each node has a slot among the nodes of its output rank; slot 0 of
    rank d is the tensor, and slot 0 of rank 0 holds 1, the value of
    the factors' padding.  A group's nodes take consecutive slots, and
    each operand is read by a slice when the slots that a limit reads
    of it are one slot or consecutive (a one-node group's always are),
    else gathered.

    ``groups`` lists (batched subscripts, output rank, first output
    slot, the block limit of each node, operands); an operand is (rank,
    first slot, how many leading nodes read that one slot, how many
    read consecutive slots, and its slots unless all are consecutive).
    ``sizes`` counts the slots of each rank, ``factors`` the rank-0
    slots of the component values of each representative with factors,
    and ``widths_by_limit[r]`` the nodes of block limit r by width.  A node that
    no representative reaches has block limit l + 1, which no view
    reads."""

    def __init__(self, plan: _Plan):
        nodes, self.start = plan.nodes, plan.start
        # the smallest block limit whose representatives reach each node,
        # set from the most blocks down and passed on to the operands
        need = np.full(len(nodes), plan.l + 1, dtype=np.intp)
        for r in range(len(plan.start) - 2, 0, -1):
            need[plan.factors[plan.start[r]:plan.start[r + 1]]] = r
        need = need.tolist()
        for v in range(len(nodes) - 1, 0, -1):  # operands have smaller numbers
            _, x, y, _ = nodes[v]
            for operand in (x,) if y is None else (x, y):
                if need[v] < need[operand]:
                    need[operand] = need[v]
        depth = [0] * len(nodes)
        groups: dict[tuple[int, str], list[int]] = {}
        self.widths_by_limit: list[dict[int, int]] = [{} for _ in range(plan.l + 2)]
        for v in range(1, len(nodes)):
            sub, x, y, width = nodes[v]
            depth[v] = 1 + max(depth[x], 0 if y is None else depth[y])
            groups.setdefault((depth[v], sub), []).append(v)
            counts = self.widths_by_limit[need[v]]
            counts[width] = counts.get(width, 0) + 1
        self.sizes = [1] + [0] * (plan.d - 1) + [1]
        slot = [0] * len(nodes)
        self.groups = []
        for (_, sub), members in sorted(groups.items()):
            members.sort(key=need.__getitem__)
            inputs, output = sub.split("->")
            rank = len(output)
            self.sizes.extend([0] * (rank + 1 - len(self.sizes)))
            lo = self.sizes[rank]
            self.sizes[rank] += len(members)
            for i, v in enumerate(members):
                slot[v] = lo + i
            operands = []
            for j, labels in enumerate(inputs.split(",")):
                slots = [slot[nodes[v][1 + j]] for v in members]
                head, count = slots[0], len(slots)
                same = run = 1
                while same < count and slots[same] == head:
                    same += 1
                while run < count and slots[run] == head + run:
                    run += 1
                gathered = np.array(slots, dtype=np.intp) if run < count else None
                operands.append((len(labels), head, same, run, gathered))
            batched = "..." + sub.replace(",", ",...").replace("->", "->...")
            self.groups.append((batched, rank, lo, [need[v] for v in members],
                                tuple(operands)))
        # the slots every limit uses: the factors' padding and the tensor
        self.base = [1] + [0] * (len(self.sizes) - 1)
        self.base[plan.d] = 1
        self.factors = np.array(slot, dtype=np.intp)[plan.factors]
        self.views: dict[int, _Limit] = {}

    def limit(self, top: int) -> _Limit:
        """The view of the schedule at block limit ``top``: the leading
        nodes of each group that the limit reaches, empty groups skipped,
        and the factors of the first ``start[top + 1]`` representatives."""
        hit = self.views.get(top)
        if hit is None:
            groups, sizes = [], self.base[:]
            for sub, rank, lo, needs, operands in self.groups:
                c = bisect.bisect_right(needs, top)
                if c:
                    reads = tuple((r, slice(head, head + 1) if c <= same else
                                   slice(head, head + c) if c <= run else slots[:c])
                                  for r, head, same, run, slots in operands)
                    groups.append((sub, reads, rank, slice(lo, lo + c)))
                    sizes[rank] = max(sizes[rank], lo + c)
            widths: dict[int, int] = {}
            for counts in self.widths_by_limit[1:top + 1]:
                for width, count in counts.items():
                    widths[width] = widths.get(width, 0) + count
            hit = self.views[top] = _Limit(groups, sizes,
                                           self.factors[:self.start[top + 1]],
                                           tuple(widths.items()))
        return hit


def _plan(d: int, m: int) -> _Plan:
    plan = _plans.get((d, m))
    if plan is None:
        plan = _plans[(d, m)] = _load(d, m) if (d, m) in _SHIPPED else _Plan(d, m)
    return plan


# the fields of a complete plan that a moment or ``_builder.find``
# reads, with their dtypes; every other field is derived or only used
# while building
_ARRAYS = {"reps": np.int8, "keys": np.int64, "factors": np.intp,
           "cols": np.intp, "coefs": np.int64, "row_start": np.intp}


def _plan_file(d: int, m: int) -> str:
    return os.path.join(_PLAN_DIR, f"d{d}-m{m}.json")


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
        required += 2 * sum(nodes * n ** width
                            for width, nodes in _plan(d, m).limit(top).widths)
    BudgetError.check(required, budget, "partition moments need at least {} plan "
                      "terms and multiply-adds (n={}, d={}, 2k={})",
                      required, n, d, m, k=m // 2)


def moment(flat_a: Sequence[int], flat_b: Sequence[int], n: int, d: int,
           m: int, budget: int) -> Fraction:
    """Average of <B, gA>**m over S_n for integer tensors at d >= 2, each
    side's S read at min(n, l) blocks (``_Plan.side``)."""
    check_budget(n, d, m, budget)
    plan = _plan(d, m)
    top = min(n, m * d)
    sa, sb = (plan.side(top, flat, n) for flat in (flat_a, flat_b))
    total = 0
    for r in range(1, top + 1):
        w = math.perm(n - r, top - r)
        for i in range(plan.start[r], plan.start[r + 1]):
            total += plan.size[i] * sa[i] * sb[i] * w
    return Fraction(total, math.perm(n, top))

