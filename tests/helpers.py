"""Independent oracles and random-instance generators for the test suite.

Everything here is deliberately coded against different derivations than
the library paths it checks: the monomial integrator uses the
integration-by-parts recurrence, polynomial powers are expanded by
literal repeated distribution, and group averages enumerate all n!
permutations.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from orbitmax import _residue, _typesweep, assign, sphere
from orbitmax.exact import root_2k
from orbitmax.hypergraph import Hypergraph
from orbitmax.sphere import SparsePoly


def oracle_monomial_moment(alpha, n: int) -> Fraction:
    """Sphere average of a monomial via the recurrence
    m(alpha) = m(alpha - 2 e_i) * (alpha_i - 1) / (n + |alpha| - 2)."""
    alpha = list(alpha)
    if any(a % 2 for a in alpha):
        return Fraction(0)
    total = sum(alpha)
    if total == 0:
        return Fraction(1)
    i = next(j for j, a in enumerate(alpha) if a)
    ai = alpha[i]
    alpha[i] -= 2
    return oracle_monomial_moment(alpha, n) * Fraction(ai - 1, n + total - 2)


def naive_poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def naive_pow(p: SparsePoly, m: int) -> dict:
    """p**m by literal repeated distribution (no multinomial shortcut)."""
    acc = {(0,) * p.n: Fraction(1)}
    # degree bookkeeping is irrelevant here; only the term map matters
    for _ in range(m):
        acc = naive_poly_mul(acc, p.terms)
    return acc


def oracle_sphere_moment_2k(p: SparsePoly, k: int) -> Fraction:
    """Integral of p**(2k): naive expansion + recurrence integrator."""
    total = Fraction(0)
    for exps, coef in naive_pow(p, 2 * k).items():
        total += coef * oracle_monomial_moment(exps, p.n)
    return total


def leaf_sphere_moment(p: SparsePoly, k: int) -> Fraction:
    """Integral of p**(2k) over the sphere, one composition r of 2k over
    the monomials at a time: with the coefficients cleared to integers
    c_i over L, each adds multinomial(r) * prod c_i**r_i * prod_j
    (a_j - 1)!! for its exponent vector a when every a_j is even, and the
    sum is divided by L**(2k) * prod_{j<kd} (n + 2j).  The oracle for
    ``sphere.moment_2k``'s line steps."""
    exps = list(p.terms)
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = [c.numerator * (lcm // c.denominator) for c in p.terms.values()]
    weights = [math.prod(range(1, a, 2)) for a in range(2 * k * p.d + 1)]
    total = 0

    def walk(i: int, rem: int, acc: int, alpha: list[int]) -> None:
        nonlocal total
        if i == len(exps) - 1:
            alpha = [a + rem * e for a, e in zip(alpha, exps[i])]
            if not any(a & 1 for a in alpha):
                total += acc * ints[i] ** rem * math.prod(weights[a] for a in alpha)
            return
        for r in range(rem + 1):
            walk(i + 1, rem - r, acc * math.comb(rem, r) * ints[i] ** r,
                 [a + r * e for a, e in zip(alpha, exps[i])])

    if exps:
        walk(0, 2 * k, 1, [0] * p.n)
    return Fraction(total, lcm ** (2 * k)
                    * math.prod(range(p.n, p.n + 2 * k * p.d, 2)))


def wallis_circle_average(a: int, b: int) -> Fraction:
    """Average of cos**a * sin**b over the full circle, by the Wallis
    recursion W(a, b) = (a-1)/(a+b) * W(a-2, b)."""
    if a % 2 or b % 2:
        return Fraction(0)
    if a == 0 and b == 0:
        return Fraction(1)
    if a >= 2:
        return wallis_circle_average(a - 2, b) * Fraction(a - 1, a + b)
    return wallis_circle_average(b, a)


def identity(n: int) -> assign.Permutation:
    return assign.Permutation(tuple(range(n)))


def inverse(g: assign.Permutation) -> assign.Permutation:
    inv = [0] * g.n
    for i, j in enumerate(g.images):
        inv[j] = i
    return assign.Permutation(tuple(inv))


def compose(g: assign.Permutation, h: assign.Permutation) -> assign.Permutation:
    """(g h)(i) = g(h(i))."""
    return assign.Permutation(tuple(g.images[h.images[i]] for i in range(g.n)))


def apply_perm(g: assign.Permutation, x: assign.DenseTensor) -> assign.DenseTensor:
    """Relabelled tensor gX with (gX)[g(i1),...,g(id)] = X[i1,...,id]."""
    if g.n != x.n:
        raise ValueError(f"permutation on {g.n} points, tensor side {x.n}")
    return assign.DenseTensor.from_sparse(x.n, x.d, {
        g.apply_index(idx): x.get(idx)
        for idx in itertools.product(range(x.n), repeat=x.d)})


def norm_2k(p: SparsePoly, k: int, term_budget: int | None = None) -> float:
    """The 2k-norm of p on the sphere: moment_2k(p, k) ** (1/(2k))."""
    return root_2k(sphere.moment_2k(p, k, term_budget), k)


def nonzero_side(flat) -> tuple[list[int], list[int]]:
    """A flat integer tensor as the sweep reads a side: the positions of
    its nonzero entries and their values."""
    return [i for i, v in enumerate(flat) if v], [v for v in flat if v]


def nonzero_digit_entries(flat, n: int, d: int) -> list[tuple]:
    """(index, value) of each nonzero entry of a row-major flat tensor."""
    return [(idx, val) for idx, val
            in zip(itertools.product(range(n), repeat=d), flat) if val]


def fraction_matrix_element(a: assign.DenseTensor, b: assign.DenseTensor,
                            g: assign.Permutation) -> Fraction:
    """<B, gA> as a sum of ``Fraction`` products over the entries: the
    oracle for ``assign.matrix_element``, which sums cleared integers."""
    entries_b = b.entries
    total = Fraction(0)
    for idx, x in nonzero_digit_entries(a.entries, a.n, a.d):
        pos = 0
        for i in g.apply_index(idx):
            pos = pos * a.n + i
        total += x * entries_b[pos]
    return total


def fraction_adjacency_tensor(h: Hypergraph, role: str) -> assign.DenseTensor:
    """The adjacency tensor as a dense list of ``Fraction``s, each edge's
    value at each of its arrangements: the oracle for
    ``hypergraph.adjacency_tensor``, which clears the per-edge values."""
    flat = [Fraction(0)] * h.n ** h.d
    for edge, w in zip(h.edges, h.weights):
        value = w
        if role == "target":
            mult = math.prod(math.factorial(edge.count(v)) for v in set(edge))
            value = w * Fraction(mult, math.factorial(h.d))
        for arrangement in itertools.permutations(edge):
            pos = 0
            for v in arrangement:
                pos = pos * h.n + v
            flat[pos] = value
    return assign.DenseTensor(h.n, h.d, flat)


def node_loop_side(plan, top: int, flat, n: int) -> list[int]:
    """``_contract._Plan.side`` one ``np.einsum`` per node, as it was
    before nodes were grouped: the nodes that the prefix's factors reach,
    operands first, each evaluated on its own, in the same int64 or
    Python-int tier."""
    count, d = plan.start[top + 1], plan.d
    roots = sorted(set(plan.factors[:count].ravel().tolist()) - {0})
    reach, stack = set(), roots[:]
    while stack:
        v = stack.pop()
        if v and v not in reach:
            reach.add(v)
            _, x, y, _ = plan.nodes[v]
            stack.extend((x,) if y is None else (x, y))
    fits = n ** top * max(map(abs, flat), default=0) ** plan.m <= 2 ** 63 - 1
    dtype = np.int64 if fits else object
    values = {0: np.array(flat, dtype=dtype).reshape((n,) * d)}
    for v in sorted(reach):
        sub, x, y, _ = plan.nodes[v]
        values[v] = np.einsum(sub, values[x]) if y is None \
            else np.einsum(sub, values[x], values[y])
    scalars = np.ones(len(plan.nodes), dtype=dtype)
    scalars[roots] = [int(values[v]) for v in roots]
    hom = scalars[plan.factors[:count]].prod(axis=1)
    end = plan.row_start[count]
    return np.add.reduceat(plan.coefs[:end] * hom[plan.cols[:end]],
                           plan.row_start[:count]).tolist()


def brute_group_moment(a: assign.DenseTensor, b: assign.DenseTensor,
                       k: int) -> Fraction:
    total = Fraction(0)
    count = 0
    for images in itertools.permutations(range(a.n)):
        g = assign.Permutation(images)
        total += assign.matrix_element(a, b, g) ** (2 * k)
        count += 1
    return total / count


def brute_coset_average(a: assign.DenseTensor, b: assign.DenseTensor, k: int,
                        prefix: assign.PartialAssignment) -> Fraction:
    """Average of <B, gA>**(2k) over the (n - len(prefix))! completions
    of ``prefix``, one ``assign.matrix_element`` in Fractions each."""
    images = dict(prefix.pairs)
    free_pos = [p for p in range(a.n) if p not in images]
    free_val = [v for v in range(a.n) if v not in prefix.images]
    total = Fraction(0)
    for perm in itertools.permutations(free_val):
        images.update(zip(free_pos, perm))
        g = assign.Permutation(tuple(images[p] for p in range(a.n)))
        total += assign.matrix_element(a, b, g) ** (2 * k)
    return total / math.factorial(len(free_val))


def combinatorial_matched(h1: Hypergraph, h2: Hypergraph,
                          g: assign.Permutation) -> Fraction:
    """Map each h1 edge through g and look it up among h2's edges."""
    h2_weight = {e: w for e, w in zip(h2.edges, h2.weights)}
    total = Fraction(0)
    for e, w in zip(h1.edges, h1.weights):
        image = tuple(sorted(g.images[v] for v in e))
        if image in h2_weight:
            total += w * h2_weight[image]
    return total


def random_fraction(rng: random.Random, lo: int = -9, hi: int = 9,
                    max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_poly(rng: random.Random, n: int, d: int, max_terms: int,
                nonzero: bool = True) -> SparsePoly:
    items = []
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        coef = random_fraction(rng)
        if coef == 0:
            coef = Fraction(1)
        items.append((tuple(exps), coef))
    p = SparsePoly.from_terms(n, d, items)
    if nonzero and p.is_zero:
        exps = [d] + [0] * (n - 1)
        p = SparsePoly.from_terms(n, d, [(tuple(exps), 1)])
    return p


def random_int_tensor(rng: random.Random, n: int, d: int,
                      lo: int = -9, hi: int = 9) -> assign.DenseTensor:
    return assign.DenseTensor.from_entries(
        n, d, [rng.randint(lo, hi) for _ in range(n ** d)])


def random_rational_tensor(rng: random.Random, n: int, d: int) -> assign.DenseTensor:
    return assign.DenseTensor.from_entries(
        n, d, [random_fraction(rng, -5, 5, 6) for _ in range(n ** d)])


def random_hypergraph(rng: random.Random, n: int, d: int,
                      max_edges: int) -> Hypergraph:
    pool = list(itertools.combinations_with_replacement(range(n), d))
    rng.shuffle(pool)
    count = rng.randint(0, min(max_edges, len(pool)))
    return Hypergraph.from_edges(n, d, pool[:count])


def random_permutation(rng: random.Random, n: int) -> assign.Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return assign.Permutation(tuple(images))


def _set_partitions(size: int):
    """Every set partition of range(size) as a restricted-growth tuple,
    grown one position at a time."""
    rows = [()]
    for _ in range(size):
        rows = [row + (lab,) for row in rows
                for lab in range(max(row, default=-1) + 2)]
    return rows


def _first_use(labels) -> tuple:
    """Labels renamed in order of first use."""
    names: dict = {}
    return tuple(names.setdefault(lab, len(names)) for lab in labels)


def brute_orbit_form(rgs, d: int, m: int) -> tuple:
    """The smallest restricted-growth string over all m! orders of the
    m segments of d positions, relabelled after each reorder."""
    segs = [rgs[s * d:(s + 1) * d] for s in range(m)]
    return min(_first_use([x for s in order for x in segs[s]])
               for order in itertools.permutations(range(m)))


def brute_partition_orbits(d: int, m: int):
    """The orbits of the set partitions of m segments of d positions under
    the m! segment orders, by brute force: (orbit of every
    restricted-growth string, members of each orbit), orbits in order of
    their first member in lexicographic order."""
    orbit_of: dict = {}
    members: list = []
    for rgs in _set_partitions(m * d):
        if rgs not in orbit_of:
            segs = [rgs[s * d:(s + 1) * d] for s in range(m)]
            orbit = {_first_use([x for s in order for x in segs[s]])
                     for order in itertools.permutations(range(m))}
            for q in orbit:
                orbit_of[q] = len(members)
            members.append(orbit)
    return orbit_of, members


def brute_moebius_row(rgs, orbit_of) -> dict:
    """S(pi) = sum over the coarsenings sigma of pi of mu(pi, sigma)
    T(sigma), folded onto orbits: {orbit of sigma: coefficient}, with
    mu(pi, sigma) = prod over the blocks of sigma of (-1)**(c - 1) (c - 1)!,
    c the blocks of pi it merges."""
    row: dict = {}
    for tau in _set_partitions(max(rgs) + 1):
        mu = 1
        for block in set(tau):
            c = tau.count(block)
            mu *= (-1) ** (c - 1) * math.factorial(c - 1)
        key = orbit_of[_first_use([tau[x] for x in rgs])]
        row[key] = row.get(key, 0) + mu
    return {k: v for k, v in row.items() if v}


def loop_coset_power_sums(nz_a, flat_b, n: int, d: int, m: int, pairs,
                          split_pos):
    """Sum of <B, gA>**m over the coset fixed by ``pairs`` (one sum per
    value of g(split_pos) when it is set), one permutation at a time in
    Python: the oracle for ``assign._enumerate_coset_power_sums``."""
    fixed = dict(pairs)
    free_pos = [p for p in range(n) if p not in fixed]
    used = set(fixed.values())
    free_val = [v for v in range(n) if v not in used]
    img = [0] * n
    for p, q in fixed.items():
        img[p] = q
    split: dict[int, int] = {}
    total = 0
    for perm in itertools.permutations(free_val):
        for p, v in zip(free_pos, perm):
            img[p] = v
        f = 0
        for digits, val in nz_a:
            gflat = 0
            for dig in digits:
                gflat = gflat * n + img[dig]
            f += val * flat_b[gflat]
        if split_pos is None:
            total += f ** m
        else:
            split[img[split_pos]] = split.get(img[split_pos], 0) + f ** m
    return split if split_pos is not None else total


def mask_build_chunk(digits, vals, n: int, m: int, start: int, stop: int):
    """Type keys, block values and products of the sweep rows
    start..stop-1, each position labelled by boolean-mask assignment over
    row-major columns: the oracle for ``_typesweep._build_chunk``."""
    nnz, d = digits.shape
    l = m * d
    rmax = min(l, n)
    count = stop - start
    ix = digits.dtype
    entries = np.unravel_index(np.arange(start, stop), (nnz,) * m)
    cols = np.concatenate([digits[e] for e in entries], axis=1)
    prods = math.prod(vals[e] for e in entries)
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
    powers = (max(rmax, 2) ** np.arange(l)).astype(np.int64)
    return labels.astype(np.int64) @ powers, blockvals, prods


def _pins_first(flat, n: int, d: int, pins) -> list:
    """Entries re-read entry by entry with ``pins`` as coordinates
    0..len(pins)-1 and the other coordinates after them in order."""
    order = list(pins) + [v for v in range(n) if v not in pins]
    out = []
    for idx in itertools.product(range(n), repeat=d):
        flat_index = 0
        for i in idx:
            flat_index = flat_index * n + order[i]
        out.append(flat[flat_index])
    return out


def sweep_coset_moment(a: assign.DenseTensor, b: assign.DenseTensor, k: int,
                       prefix: assign.PartialAssignment) -> Fraction:
    """Coset average of <B, gA>**(2k) by the greedy scorer's type sweep
    alone, at any d, with the scales put back.  A prefix of length T is
    moved to coordinates 0..T-1 on both sides, which makes its coset the
    one candidate T-1 of a step that pins positions 0..T-1 and has
    chosen 0..T-2; an empty prefix sums the n children of position 0,
    which share the denominator n * perm(n - 1, F)."""
    m = 2 * k
    n, d = a.n, a.d
    ints_a, la = a.ints, a.den
    ints_b, lb = b.ints, b.den
    t = len(prefix)
    if t:
        ints_a = _pins_first(ints_a, n, d, prefix.positions)
        ints_b = _pins_first(ints_b, n, d, prefix.images)
        chosen, cands, children = tuple(range(t - 1)), (t - 1,), 1
    else:
        t, chosen, cands, children = 1, (), tuple(range(n)), n
    scores, den = _typesweep.PinnedScorer(
        nonzero_side(ints_a), nonzero_side(ints_b), n, d, m).scores(
        tuple(enumerate(chosen)), t - 1, cands)
    total = Fraction(sum(scores.values()), children * den)
    return total / (Fraction(la) ** m * Fraction(lb) ** m)


def enumerated_coset_moment(a: assign.DenseTensor, b: assign.DenseTensor,
                            k: int, prefix: assign.PartialAssignment) -> Fraction:
    """Coset average of <B, gA>**(2k) by the numpy coset enumeration
    alone, at any d, with the scales put back: the sums split by the
    image of position 0, added up."""
    m = 2 * k
    # residues that hold the whole coset's sum, added up before rebuilding
    moduli = _residue.Moduli.for_bound(
        math.factorial(a.n - len(prefix)) * _residue.f_bound(a.ints, b.ints) ** m)
    sums = assign._enumerate_coset_power_sums(
        assign._coset_inputs(a, b), m, prefix.pairs, 0, moduli)
    total, = moduli.values(moduli.reduce(sums.sum(axis=1, keepdims=True)))
    return (Fraction(total, math.factorial(a.n - len(prefix)))
            / (Fraction(a.den) ** m * Fraction(b.den) ** m))


def pinned_coset_moment(a: assign.DenseTensor, b: assign.DenseTensor, k: int,
                        prefix: assign.PartialAssignment) -> Fraction:
    """Coset average of <B, gA>**(2k) over {g : g(p_i) = q_i}, by the
    pinned form of the partition expansion, with no engine code: the
    oracle for ``coset_moment`` at sizes brute force cannot reach.

    With T pins, N = n - T free coordinates and l = 2kd index slots,
    M = sum over subsets P of the slots and partitions pi of the other
    slots with |pi| <= N of <U_A(P, pi), U_B(P, pi)> / (N)_|pi|, where
    U_X(P, pi) = sum over coarsenings sigma of pi of mu(pi, sigma)
    T_X(P, sigma), mu = prod over blocks of sigma of (-1)**(c-1) (c-1)!,
    c the blocks of pi merged.  T_X(P, sigma) is an einsum of the 2k
    copies of X: each slot in P is its own open axis over the pinned
    coordinates (p_1..p_T for A, q_1..q_T for B), each block of sigma
    one index summed over the free coordinates.  The entries are
    cleared to integers and summed in Python ints (object arrays)."""
    n, d, m = a.n, a.d, 2 * k
    l = m * d
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    sides = []
    for x, pins in ((a, prefix.positions), (b, prefix.images)):
        lcm = math.lcm(*(v.denominator for v in x.entries))
        arr = np.array([int(v * lcm) for v in x.entries],
                       dtype=object).reshape((n,) * d)
        free = [i for i in range(n) if i not in pins]
        sides.append((arr, list(pins), free, lcm))
    nfree = n - len(prefix)
    cache: dict = {}

    def contract(side, opened, labels):
        # labels: the block of sigma of each slot not in ``opened``
        key = (side, opened, labels)
        if key not in cache:
            arr, pins, free, _ = sides[side]
            block = dict(zip([s for s in range(l) if s not in opened], labels))
            subs, ops = [], []
            for j in range(m):
                slots = range(j * d, (j + 1) * d)
                ops.append(arr[np.ix_(*[pins if s in opened else free
                                        for s in slots])])
                subs.append("".join(letters[s] if s in opened
                                    else letters[l + block[s]] for s in slots))
            out = "".join(letters[s] for s in opened)
            cache[key] = np.einsum(",".join(subs) + "->" + out, *ops)
        return cache[key]

    total = Fraction(0)
    for size in range(l + 1):
        for opened in itertools.combinations(range(l), size):
            for pi in _set_partitions(l - size):
                r = max(pi, default=-1) + 1
                if r > nfree:
                    continue
                coarsenings = [
                    (math.prod((-1) ** (tau.count(blk) - 1)
                               * math.factorial(tau.count(blk) - 1)
                               for blk in set(tau)),
                     _first_use([tau[x] for x in pi]))
                    for tau in _set_partitions(r)]
                u_a, u_b = (sum(mu * contract(side, opened, labels)
                                for mu, labels in coarsenings)
                            for side in (0, 1))
                total += Fraction(int(np.sum(u_a * u_b)), math.perm(nfree, r))
    return total / (Fraction(sides[0][3]) ** m * Fraction(sides[1][3]) ** m)


def loop_brute_max(a: assign.DenseTensor,
                   b: assign.DenseTensor) -> assign.BruteResult:
    """First maximum of |<B, gA>| in ``itertools.permutations`` order, one
    ``matrix_element`` per permutation: the oracle for ``brute_max``."""
    best = None
    for images in itertools.permutations(range(a.n)):
        g = assign.Permutation(images)
        val = abs(assign.matrix_element(a, b, g))
        if best is None or val > best.abs_value:
            best = assign.BruteResult(g, val)
    return best


def fraction_sandwich_sums(v, ell, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(sup |f|, average f**2, average f**(2k)) for f(g) = <ell, gv>, one
    ``Fraction`` sum per permutation: the oracle for the values
    ``sandwich.verify_sandwich`` reports."""
    vv = [Fraction(x) for x in v]
    ll = [Fraction(x) for x in ell]
    s2 = s2k = sup = Fraction(0)
    count = 0
    for g in itertools.permutations(range(len(vv))):
        # <ell, gv> with (gv)[g(i)] = v[i]
        f = sum((vv[i] * ll[g[i]] for i in range(len(vv))), Fraction(0))
        s2 += f * f
        s2k += f ** (2 * k)
        sup = max(sup, abs(f))
        count += 1
    return sup, s2 / count, s2k / count


def walk_cor16_k0(eps: float) -> int:
    """Smallest k >= 1 with k! * eps**(2k) > 2**k, walking k up from 1
    with both sides' products kept in integers: the oracle for
    ``sandwich.cor16_factor_check``'s k0."""
    num, den = Fraction(eps).as_integer_ratio()
    k0, lhs, rhs = 1, num * num, 2 * den * den
    while not lhs > rhs:
        k0 += 1
        lhs *= k0 * num * num
        rhs *= 2 * den * den
    return k0
