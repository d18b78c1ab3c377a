"""Seeded op lists for the four benchmark workloads.

Every workload is a fixed schedule of cells: op kind, shape and entry
tier.  The seed draws every tensor entry, coefficient numerator and sign,
and hypergraph edge, so one seed always yields the same inputs.  A form's
monomials and coefficient denominators are fixed by its cell, so that
different seeds yield different forms of the same cost; hypergraph
alignment costs differ between draws, so each align cell is drawn
several times.  Shapes are fixed rather than drawn because op costs grow
steeply with n (greedy at d = 1, k = 2 costs about n**5), and a drawn n
would move the timings more than any change worth measuring.  Ops carry
their inputs in the library's JSON formats only; the program under test
never sees the seed.

Cells whose ops run for more than about 2 s at the seed commit are left
out; ``layers.json`` lists them.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("sphere-bounds", "assign-moments", "assign-greedy", "cli-batch")

# fewnomial cells are kept when the expansion visits at most this many
# compositions (about 0.3 s at the seed commit)
FEWNOMIAL_COMPOSITION_CAP = 14_000
WITNESS_TRIALS = 4096
SYSTEM_DELTA = 0.01
# forms (supports and denominators) per sphere cell, and hypergraph pairs
# per align cell: op costs differ between draws, and more draws put the
# latency percentiles in a denser spread of op costs
SPHERE_DRAWS = 2
ALIGN_DRAWS = 5
# d=1, k=1 ops at n >= 129 return wrong moments at the seed commit
# (int8 index wrap); they run as an untimed probe, not in the timed list
DEFECT_PROBE_NS = (129, 200, 1000, 2048)


def _fewnomial_k(n: int, d: int, eps: float) -> int:
    """The moment order ``sphere.choose_k`` documents for a fewnomial:
    the smallest k with (n-1)/(2k) * ln(kd+1) < ln(1+eps).  Used only to
    bound each cell's cost."""
    k = 1
    while (n - 1) / (2 * k) * math.log(k * d + 1) >= math.log1p(eps):
        k += 1
    return k


def fewnomial_cells() -> list[tuple[int, int, int, float]]:
    cells = []
    for n, d, t in itertools.product(range(3, 7), range(2, 5), range(3, 6)):
        if math.comb(n + d - 1, d) < t:
            continue
        for eps in (0.5, 0.25, 0.1):
            k = _fewnomial_k(n, d, eps)
            if math.comb(2 * k + t - 1, t - 1) <= FEWNOMIAL_COMPOSITION_CAP:
                cells.append((n, d, t, eps))
    return cells


# (variables, forms, form degree, k); degree-2 forms have two terms
SYSTEM_CELLS = ((3, 2, 1, 2), (3, 3, 1, 3), (4, 2, 1, 3), (4, 3, 1, 2),
                (3, 2, 2, 2), (3, 3, 2, 2), (4, 2, 2, 2), (3, 2, 2, 3))


def _rational(rng: random.Random, top: int, max_den: int) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-top, top)
    return Fraction(num, rng.randint(1, max_den))


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _random_form(rng: random.Random, n: int, d: int, t: int, support: str) -> dict:
    """A form with exactly t distinct monomials and nonzero coefficients.
    The ``support`` key fixes the monomials and each coefficient's
    denominator (1 to 4); ``rng`` draws the numerators (coprime to it, up
    to 9) and signs.  The number of collected terms of a power and the
    size of the rationals in it, and so the op's cost, depend on the
    support key, not on the seed."""
    pick = random.Random(support)
    monos: set[tuple[int, ...]] = set()
    while len(monos) < t:
        exps = [0] * n
        for _ in range(d):
            exps[pick.randrange(n)] += 1
        monos.add(tuple(exps))
    terms = []
    for e in sorted(monos):
        den = pick.randint(1, 4)
        num = rng.choice([v for v in range(1, 10) if math.gcd(v, den) == 1])
        terms.append({"exps": list(e), "coef": _fmt(Fraction(rng.choice((-num, num)), den))})
    return {"n": n, "d": d, "terms": terms}


def _sphere_ops(rng: random.Random) -> list[dict]:
    ops = []
    for draw in range(SPHERE_DRAWS):
        for n, d, t, eps in fewnomial_cells():
            label = f"fewnomial n={n} d={d} t={t} eps={eps} #{draw}"
            ops.append({"kind": "fewnomial", "label": label,
                        "poly": _random_form(rng, n, d, t, label), "eps": eps,
                        "trials": WITNESS_TRIALS, "sample_seed": rng.randrange(2 ** 31)})
        for n, forms, d, k in SYSTEM_CELLS:
            label = f"system n={n} forms={forms} d={d} k={k} #{draw}"
            system = [_random_form(rng, n, d, 2 if d == 2 else n, f"{label}:{i}")
                      for i in range(forms)]
            ops.append({"kind": "system", "label": label, "system": system, "k": k,
                        "delta": SYSTEM_DELTA})
    # interleave the two op kinds in one fixed order
    random.Random("sphere-order").shuffle(ops)
    return ops


def _iroot(x: int, m: int) -> int:
    """floor(x ** (1/m)) for non-negative integers."""
    r = int(round(x ** (1.0 / m)))
    while r ** m > x:
        r -= 1
    while (r + 1) ** m <= x:
        r += 1
    return r


def _tier_top(n: int, d: int, k: int, tier: str) -> int:
    """Largest entry magnitude that lands a tensor in the given arithmetic
    tier of the type sweep: products of 2k entries times perm(n, r) stay
    below 2**53 ("float") or 2**62 ("int64"); "object" exceeds both."""
    m = 2 * k
    perm = math.perm(n, min(m * d, n))
    if tier == "float":
        return max(1, _iroot(2 ** 53 // perm, m) // 16)
    if tier == "int64":
        lo = _iroot(2 ** 53 // perm, m) + 1
        hi = _iroot(2 ** 62 // perm, m)
        return (lo + hi) // 2
    return 10 ** 12


def _tensor(rng: random.Random, n: int, d: int, k: int, tier: str,
            rational: bool) -> dict:
    """Dense random tensor whose largest cleared entry sits in ``tier``.
    Rational entries (denominators up to 4) are used only in the float
    and object tiers, where clearing denominators cannot cross a tier."""
    top = _tier_top(n, d, k, tier)
    if rational and tier == "float":
        top = max(1, top // 12)
    flat = [_rational(rng, top, 4 if rational else 1) for _ in range(n ** d)]
    flat[rng.randrange(len(flat))] = Fraction(rng.choice((-top, top)))
    entries = []
    for pos, v in enumerate(flat):
        idx, rem = [], pos
        for _ in range(d):
            rem, dig = divmod(rem, n)
            idx.append(dig + 1)
        entries.append({"index": idx[::-1], "value": _fmt(v)})
    return {"n": n, "d": d, "entries": entries}


def _log_grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread log-uniformly over [lo, hi] (stratum midpoints)."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


# tensor tiers per pair: (tier, rational entries)
_F, _FR, _I, _OR = ("float", False), ("float", True), ("int64", False), ("object", True)


def _assign_group(rng: random.Random, kind: str, n: int, d: int, k: int,
                  tiers) -> list[dict]:
    """Several pairs of one shape, back to back."""
    ops = []
    for tier, rational in tiers:
        a, b = (_tensor(rng, n, d, k, tier, rational) for _ in range(2))
        ops.append({"kind": kind, "a": a, "b": b, "k": k,
                    "label": f"{kind} n={n} d={d} k={k} tier={tier}"
                             + (" rational" if rational else "")})
    return ops


def _assign_moment_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n in (24, 32):
        ops += _assign_group(rng, "moments", n, 1, 2, (_F, _I, _OR))
    # above the sweep's cache size: one pair keeps the op near 1 s
    ops += _assign_group(rng, "moments", 42, 1, 2, (_I,))
    ops += _assign_group(rng, "moments", 9, 1, 3, (_F, _I, _OR))
    for n in _log_grid(64, 128, 4):
        ops += _assign_group(rng, "moments", n, 1, 1, (_F, _I, _OR))
    ops += _assign_group(rng, "moments", 4, 2, 2, (_F, _I, _OR))
    # the smallest shapes also extract a greedy witness (as `orbitmax assign
    # --greedy` does), so greedy_log_gap is measured here too; at these n
    # greedy takes its coset-enumeration path and stays cheap
    ops += _assign_group(rng, "greedy", 5, 2, 2, (_F, _I, _OR))
    for n in (4, 5):
        ops += _assign_group(rng, "greedy", n, 3, 1, (_F, _I, _OR))
    ops += _assign_group(rng, "moments", 6, 3, 1, (_F, _I, _OR))
    return ops


def _hypergraph(rng: random.Random, n: int, d: int) -> dict:
    """3n/2 random edges of d distinct vertices (the edge count sets the cost)."""
    pool = list(itertools.combinations(range(1, n + 1), d))
    rng.shuffle(pool)
    return {"n": n, "d": d, "edges": [list(e) for e in pool[:3 * n // 2]]}


def _assign_greedy_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n, tiers in ((10, (_F, _I, _OR)), (11, (_F, _I, _OR)), (12, (_F, _I))):
        ops += _assign_group(rng, "greedy", n, 1, 2, tiers)
    for n in (8, 9, 10, 11):
        ops += _assign_group(rng, "greedy", n, 2, 1, (_F, _OR))
    for n, d in ([(n, 2) for n in range(8, 15)] + [(8, 3), (9, 3)]) * ALIGN_DRAWS:
        ops.append({"kind": "align", "k": 1,
                    "h1": _hypergraph(rng, n, d), "h2": _hypergraph(rng, n, d),
                    "label": f"align n={n} d={d} k=1"})
    return ops


CLI_CYCLES = 5


# per-cycle shapes of the cli-batch ops
_CLI_POLY_NORM = ((3, 2, 3, 3), (4, 2, 4, 2), (3, 3, 3, 3), (4, 3, 3, 2), (3, 2, 4, 3))
_CLI_ASSIGN = ((6, 1, 2, _F), (7, 1, 1, _FR), (4, 2, 1, _I), (5, 2, 1, _F), (6, 1, 2, _FR))
_CLI_VERIFY = ((4, 1), (4, 2), (5, 1), (5, 2), (4, 2))


def _cli_ops(rng: random.Random) -> list[dict]:
    ops = []
    for cycle in range(CLI_CYCLES):
        n, d, t, k = _CLI_POLY_NORM[cycle]
        ops.append({"kind": "cli", "command": "poly-norm", "k": k,
                    "files": {"--poly": _random_form(rng, n, d, t, f"poly-norm:{cycle}")},
                    "args": ["--k", str(k)], "label": f"cli poly-norm n={n} d={d} k={k}"})
        d = 2 + cycle % 2
        ops.append({"kind": "cli", "command": "poly-bounds", "eps": 0.5,
                    "files": {"--poly": _random_form(rng, 3, d, 3, f"poly-bounds:{cycle}")},
                    "args": ["--eps", "0.5"], "label": f"cli poly-bounds n=3 d={d} eps=0.5"})
        system = [_random_form(rng, 3, 1, 2 + cycle % 2, f"system-test:{cycle}:{i}")
                  for i in range(2)]
        ops.append({"kind": "cli", "command": "system-test", "k": 2,
                    "delta": SYSTEM_DELTA, "files": {"--system": system},
                    "args": ["--k", "2", "--delta", str(SYSTEM_DELTA)],
                    "label": "cli system-test n=3 forms=2 d=1 k=2"})
        n, d, k, (tier, rational) = _CLI_ASSIGN[cycle]
        ops.append({"kind": "cli", "command": "assign", "k": k,
                    "files": {"--a": _tensor(rng, n, d, k, tier, rational),
                              "--b": _tensor(rng, n, d, k, tier, rational)},
                    "args": ["--k", str(k), "--greedy", "--brute"],
                    "label": f"cli assign n={n} d={d} k={k} tier={tier}"})
        n = 6 + cycle % 3
        ops.append({"kind": "cli", "command": "hyper-align", "k": 1,
                    "files": {"--h1": _hypergraph(rng, n, 2), "--h2": _hypergraph(rng, n, 2)},
                    "args": ["--k", "1"], "label": f"cli hyper-align n={n} d=2 k=1"})
        n, k = _CLI_VERIFY[cycle]
        ops.append({"kind": "cli", "command": "verify", "n": n, "k": k, "files": {},
                    "args": ["--n", str(n), "--k", str(k), "--trials", "5",
                             "--seed", str(rng.randrange(1000))],
                    "label": f"cli verify n={n} k={k}"})
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one workload; the same (workload, seed) always gives
    the same list."""
    rng = random.Random(f"{workload}:{seed}")
    builders = {"sphere-bounds": _sphere_ops, "assign-moments": _assign_moment_ops,
                "assign-greedy": _assign_greedy_ops, "cli-batch": _cli_ops}
    ops = builders[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def defect_probe(seed: int) -> list[dict]:
    """d=1, k=1 moment ops at n >= 129, run untimed beside assign-moments."""
    rng = random.Random(f"defect-probe:{seed}")
    ops = []
    for n in DEFECT_PROBE_NS:
        ops += _assign_group(rng, "moments", n, 1, 1, (_F,))
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
