"""Independent reference values for the benchmark's output checks.

Nothing here imports orbitmax: inputs are read from their JSON form and
every value is derived by a different route than the library takes.

* Sphere moments: one integer multinomial sum over compositions of 2k,
  with denominators cleared once, a parity-mask test per composition and
  the double-factorial weights of Folland's formula.  The library
  expands the power into a collected dict of Fractions instead.
* Assignment moments at d = 1: a closed form at k = 1, and a power-sum
  evaluator with Moebius inversion over set partitions at k >= 2.
* Assignment moments at d >= 2: full n! enumeration when n <= 7, which
  also yields the true maximum; above that, a sum over tuples of nonzero
  entries grouped by the exact equality pattern of their indices.
* Hypergraph alignment at k = 1: a count of edge pairs by intersection
  size, and matched edges counted by mapping each edge through g.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

ENUMERATION_MAX_N = 7


# -- inputs ---------------------------------------------------------------

def poly_terms(obj: dict) -> tuple[int, int, dict[tuple[int, ...], Fraction]]:
    terms: dict[tuple[int, ...], Fraction] = {}
    for t in obj["terms"]:
        e = tuple(int(x) for x in t["exps"])
        terms[e] = terms.get(e, Fraction(0)) + Fraction(t["coef"])
    return obj["n"], obj["d"], {e: c for e, c in terms.items() if c}


def tensor_flat(obj: dict) -> tuple[int, int, list[Fraction]]:
    n, d = obj["n"], obj["d"]
    flat = [Fraction(0)] * n ** d
    for ent in obj["entries"]:
        pos = 0
        for i in ent["index"]:
            pos = pos * n + int(i) - 1
        flat[pos] = Fraction(ent["value"])
    return n, d, flat


def hypergraph_edges(obj: dict) -> tuple[int, int, set[tuple[int, ...]]]:
    return obj["n"], obj["d"], {tuple(sorted(int(v) - 1 for v in e))
                                for e in obj["edges"]}


def _clear(values) -> tuple[list[int], int]:
    """Integers L*v and the common denominator L."""
    den = 1
    for v in values:
        den = math.lcm(den, v.denominator)
    return [int(v * den) for v in values], den


# -- sphere ---------------------------------------------------------------

def poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def norm_power(n: int, d: int) -> dict:
    """(x_1**2 + ... + x_n**2)**d, expanded by the multinomial theorem."""
    out = {}
    for comp in itertools.product(range(d + 1), repeat=n):
        if sum(comp) == d:
            coef = math.factorial(d)
            for c in comp:
                coef //= math.factorial(c)
            out[tuple(2 * c for c in comp)] = Fraction(coef)
    return out


def sphere_moment(n: int, terms: dict, k: int) -> Fraction:
    """Average of p**(2k) over the unit sphere in R^n, exactly.

    Sums multinomial(2k; r) * prod c_i**r_i * prod_j (alpha_j - 1)!! over
    compositions r of 2k, where alpha = sum r_i e_i must be all even,
    then divides by prod_{j < D/2} (n + 2j) with D the degree of p**(2k).
    """
    if not terms:
        return Fraction(0)
    m = 2 * k
    exps = list(terms)
    coefs, den = _clear(terms.values())
    masks = [sum(1 << j for j, x in enumerate(e) if x % 2) for e in exps]
    degree = sum(exps[0])
    dfact = [1]
    for b in range(1, m * degree // 2 + 1):
        dfact.append(dfact[-1] * (2 * b - 1))
    pows = [[c ** r for r in range(m + 1)] for c in coefs]
    last = len(exps) - 1
    total = 0

    def visit(i: int, rem: int, alpha: list[int], mask: int, coef: int) -> None:
        nonlocal total
        if i == last:
            if rem % 2:
                mask ^= masks[i]
            if mask:
                return
            w = coef * pows[i][rem]
            for a, e in zip(alpha, exps[i]):
                w *= dfact[(a + rem * e) // 2]
            total += w
            return
        e, mi, row = exps[i], masks[i], pows[i]
        for r in range(rem + 1):
            nxt = [a + r * x for a, x in zip(alpha, e)] if r else alpha
            visit(i + 1, rem - r, nxt, mask ^ mi if r % 2 else mask,
                  coef * math.comb(rem, r) * row[r])

    visit(0, m, [0] * n, 0, 1)
    denominator = den ** m
    for j in range(m * degree // 2):
        denominator *= n + 2 * j
    return Fraction(total, denominator)


def sphere_factor(n: int, d: int, k: int) -> int:
    """C(kd + n - 1, kd): the exact 2k-th power of the sphere bound factor."""
    return math.comb(k * d + n - 1, k * d)


# -- assignment -----------------------------------------------------------

def set_partitions(items: list):
    """All set partitions of ``items`` as lists of blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def _integer_partitions(m: int, largest: int | None = None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _integer_partitions(m - first, first):
            yield (first,) + rest


def _injective_power_sum(lam: tuple[int, ...], psum: list[int]) -> int:
    """sum over distinct i_1..i_r of prod_j a_{i_j}**lam_j, by Moebius
    inversion of the unrestricted sums prod_blocks p_{|block|}."""
    total = 0
    for part in set_partitions(list(range(len(lam)))):
        term = 1
        for block in part:
            size = len(block)
            term *= (-1) ** (size - 1) * math.factorial(size - 1)
            term *= psum[sum(lam[j] for j in block)]
        total += term
    return total


def moment_d1(a: list[Fraction], b: list[Fraction], k: int) -> Fraction:
    """E_g[(sum_i a_i b_g(i))**(2k)] over S_n for vectors a, b: the mean
    and variance of f give the closed form at k = 1."""
    n = len(a)
    if k > 1 or n == 1:
        return moment_d1_power_sums(a, b, k)
    sa, sb = sum(a), sum(b)
    va = sum(x * x for x in a) - sa * sa / n
    vb = sum(x * x for x in b) - sb * sb / n
    return (sa * sb / n) ** 2 + va * vb / (n - 1)


def moment_d1_power_sums(a: list[Fraction], b: list[Fraction], k: int) -> Fraction:
    """E_g[f**(2k)] = sum over integer partitions lam of 2k of
    #set partitions of shape lam * A_inj(lam) * B_inj(lam) / (n)_{len(lam)}."""
    n = len(a)
    m = 2 * k
    ia, la = _clear(a)
    ib, lb = _clear(b)
    pa = [sum(x ** j for x in ia) for j in range(m + 1)]
    pb = [sum(x ** j for x in ib) for j in range(m + 1)]
    total = Fraction(0)
    for lam in _integer_partitions(m):
        r = len(lam)
        if r > n:
            continue
        count = math.factorial(m)          # set partitions of [m] of shape lam
        for part in lam:
            count //= math.factorial(part)
        for mult in (lam.count(v) for v in set(lam)):
            count //= math.factorial(mult)
        total += Fraction(count * _injective_power_sum(lam, pa)
                          * _injective_power_sum(lam, pb), math.perm(n, r))
    return total / (Fraction(la) ** m * Fraction(lb) ** m)


def _nonzero(flat: list, n: int, d: int) -> list[tuple[tuple[int, ...], object]]:
    out = []
    for pos, v in enumerate(flat):
        if v:
            idx, rem = [], pos
            for _ in range(d):
                rem, dig = divmod(rem, n)
                idx.append(dig)
            out.append((tuple(idx[::-1]), v))
    return out


def objective(a: list[Fraction], b: list[Fraction], n: int, d: int,
              images) -> Fraction:
    """f(g) = sum_I a_I * b_{g(I)} with g(i) = images[i]."""
    total = Fraction(0)
    for idx, v in _nonzero(a, n, d):
        pos = 0
        for i in idx:
            pos = pos * n + images[i]
        total += v * b[pos]
    return total


def moment_enumerated(a: list[Fraction], b: list[Fraction], n: int, d: int,
                      k: int) -> tuple[Fraction, Fraction]:
    """(E_g[f(g)**(2k)], max_g |f(g)|) by enumerating all n! permutations."""
    ia, la = _clear(a)
    ib, lb = _clear(b)
    nz = _nonzero(ia, n, d)
    weights = [n ** (d - 1 - t) for t in range(d)]
    total, best = 0, 0
    for g in itertools.permutations(range(n)):
        f = 0
        for idx, v in nz:
            f += v * ib[sum(g[i] * w for i, w in zip(idx, weights))]
        total += f ** (2 * k)
        best = max(best, abs(f))
    scale = Fraction(la * lb)
    return (Fraction(total, math.factorial(n)) / scale ** (2 * k),
            best / scale)


def _kernel(seq: tuple[int, ...]) -> tuple[int, ...]:
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in seq)


def _pattern_sums(flat: list[Fraction], n: int, d: int, m: int) -> dict:
    ints, den = _clear(flat)
    nz = _nonzero(ints, n, d)
    sums: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(nz, repeat=m):
        seq = tuple(i for idx, _ in combo for i in idx)
        prod = 1
        for _, v in combo:
            prod *= v
        key = _kernel(seq)
        sums[key] = sums.get(key, 0) + prod
    return {key: Fraction(s, den ** m) for key, s in sums.items()}


def moment_patterns(a: list[Fraction], b: list[Fraction], n: int, d: int,
                    k: int) -> Fraction:
    """E_g[f(g)**(2k)] as sum over equality patterns pi of the 2kd index
    positions of S_A(pi) * S_B(pi) / (n)_{|pi|}, where S_X(pi) sums the
    products of 2k nonzero entries whose joined indices have pattern pi
    exactly.  Costs nnz**(2k) per side, so it serves small k."""
    m = 2 * k
    sa = _pattern_sums(a, n, d, m)
    sb = _pattern_sums(b, n, d, m)
    total = Fraction(0)
    for key, s in sa.items():
        if key in sb:
            total += s * sb[key] / math.perm(n, max(key) + 1)
    return total


def assign_moment(a: list[Fraction], b: list[Fraction], n: int, d: int,
                  k: int) -> tuple[Fraction, Fraction | None]:
    """(moment, true max or None) by the route the module docstring names."""
    if d == 1:
        return moment_d1(a, b, k), None
    if n <= ENUMERATION_MAX_N:
        return moment_enumerated(a, b, n, d, k)
    return moment_patterns(a, b, n, d, k), None


def assign_factor(a: list[Fraction], b: list[Fraction], n: int, d: int,
                  k: int) -> int:
    """Exact 2k-th power of the assignment bound factor: sum_{j<=k}
    C(n**d, j) when either tensor is 0/1-valued, else C(n**d + k - 1, k)."""
    nd = n ** d
    if all(v in (0, 1) for v in a) or all(v in (0, 1) for v in b):
        return sum(math.comb(nd, j) for j in range(1, k + 1))
    return math.comb(nd + k - 1, k)


# -- hypergraphs ----------------------------------------------------------

def _overlap_counts(edges: set, d: int) -> list[int]:
    counts = [0] * (d + 1)
    for e, f in itertools.product(edges, repeat=2):
        counts[len(set(e) & set(f))] += 1
    return counts


def align_moment(n: int, d: int, edges1: set, edges2: set) -> Fraction:
    """E_g[M(g)**2] for M(g) = number of edges of h1 that g maps onto edges
    of h2 (edges of d distinct vertices).  An ordered edge pair (e, e')
    meeting in s vertices lands on an ordered pair (f, f') meeting in s
    vertices with probability s! ((d - s)!)**2 / (n)_{2d - s}."""
    c1 = _overlap_counts(edges1, d)
    c2 = _overlap_counts(edges2, d)
    total = Fraction(0)
    for s in range(d + 1):
        if c1[s] and c2[s]:  # pairs meeting in s vertices span 2d - s <= n
            ways = math.factorial(s) * math.factorial(d - s) ** 2
            total += Fraction(c1[s] * c2[s] * ways, math.perm(n, 2 * d - s))
    return total


def matched_edges(edges1: set, edges2: set, images) -> int:
    return sum(tuple(sorted(images[v] for v in e)) in edges2 for e in edges1)
