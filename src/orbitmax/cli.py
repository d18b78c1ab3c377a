"""Batch command-line front end with JSON input and output.

One JSON document per invocation on stdout; diagnostics on stderr.
Exit codes: 0 success, 2 input/validation error, 3 resource budget
exceeded or out of memory.  Output is deterministic for identical inputs
and seeds (sorted keys, canonical num/den rationals, printed in full
whatever their length).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .errors import BudgetError
from .exact import format_rational, parse_budget, parse_positive, root_2k

__all__ = ["main"]

BUDGET_ENV_VAR = "ORBITMAX_BUDGET"


def _resolve_budget(flag_value: int | None) -> int | None:
    """Explicit --budget wins; else the environment default; else None
    (module defaults apply).  Either is read with ``parse_budget``, so a
    negative budget is invalid input."""
    if flag_value is not None:
        return parse_budget(flag_value)
    env = os.environ.get(BUDGET_ENV_VAR)
    try:
        return parse_budget(env)
    except ValueError as exc:
        raise ValueError(
            f"{BUDGET_ENV_VAR} must be a non-negative integer, got {env!r}") from exc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Each command imports only the engine it runs, so that a process compiles
# only the modules it uses; numpy is loaded only by the d >= 2 assignment
# engines, when first called.  The engines read --k themselves.
def _cmd_poly_norm(args) -> dict:
    from . import sphere
    p = sphere.poly_from_json(_load_json(args.poly))
    moment = sphere.moment_2k(p, args.k, _resolve_budget(args.budget))
    return {
        "moment_2k": format_rational(moment),
        "norm_2k": root_2k(moment, args.k),
    }


def _cmd_poly_bounds(args) -> dict:
    from . import sphere
    p = sphere.poly_from_json(_load_json(args.poly))
    budget = _resolve_budget(args.budget)
    if (args.k is None) == (args.eps is None):
        raise ValueError("exactly one of --k and --eps is required")
    if args.k is not None:
        interval = sphere.sup_bounds(p, args.k, budget)
    else:
        interval = sphere.fewnomial_sup(p, args.eps, budget)
    return interval.to_json()


def _cmd_system_test(args) -> dict:
    from . import sphere
    raw = _load_json(args.system)
    if not isinstance(raw, list):
        raise ValueError("system file must be a JSON array of polynomials")
    system = [sphere.poly_from_json(obj) for obj in raw]
    result = sphere.system_reduce(system, args.k, args.delta,
                                  _resolve_budget(args.budget))
    return result.to_json()


def _cmd_assign(args) -> dict:
    from . import assign
    a = assign.tensor_from_json(_load_json(args.a))
    b = assign.tensor_from_json(_load_json(args.b))
    k, budget = args.k, _resolve_budget(args.budget)
    bounds = assign.sup_bounds(a, b, k, budget)
    out = {"bounds": bounds.to_json()}
    if args.greedy:
        g = assign.greedy_extract(a, b, k, budget)
        out["greedy"] = {
            "permutation": assign.permutation_to_json(g.permutation),
            "value": format_rational(g.value),
            "abs_value": g.abs_value,
        }
    if args.brute:
        bm = assign.brute_max(a, b)
        out["brute"] = {
            "permutation": assign.permutation_to_json(bm.permutation),
            "abs_value_exact": format_rational(bm.abs_value),
            "abs_value": float(bm.abs_value),
        }
    return out


def _cmd_hyper_align(args) -> dict:
    from . import assign, hypergraph
    h1 = hypergraph.hypergraph_from_json(_load_json(args.h1))
    h2 = hypergraph.hypergraph_from_json(_load_json(args.h2))
    result = hypergraph.align(h1, h2, args.k, _resolve_budget(args.budget))
    matched = result.matched
    return {
        "permutation": assign.permutation_to_json(result.permutation),
        "matched": int(matched) if matched.denominator == 1
        else format_rational(matched),
        "bounds": result.bounds.to_json(),
    }


def _random_rational_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


def _cmd_verify(args) -> dict:
    from . import sandwich
    k, n = parse_positive(args.k, "k"), parse_positive(args.n, "n")
    if args.trials < 0:
        raise ValueError("trials must be >= 0")
    # the point-mass case (v = ell = e_1), tight for n = 2, k = 1
    e1 = [Fraction(1)] + [Fraction(0)] * (n - 1)
    delta_case = sandwich.verify_sandwich(e1, e1, k)
    rng = random.Random(args.seed)
    worst: dict[str, Fraction] = {}
    failures = 0
    for _ in range(args.trials):
        v = _random_rational_vector(rng, n)
        ell = _random_rational_vector(rng, n)
        if all(x == 0 for x in v):
            v[0] = Fraction(1)
        report = sandwich.verify_sandwich(v, ell, k)
        if not report.all_hold:
            failures += 1
        for check in report.checks:
            prev = worst.get(check.inequality)
            if prev is None or check.margin < prev:
                worst[check.inequality] = check.margin
    return {
        "n": n,
        "k": k,
        "trials": args.trials,
        "seed": args.seed,
        "delta_case": delta_case.to_json(),
        "failures": failures,
        "all_hold": failures == 0,
        "worst_margins": {name: format_rational(m)
                          for name, m in sorted(worst.items())},
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitmax",
        description="Certified bounds on maxima from exact even-power moments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None,
                       help="override the enumeration budget "
                            f"(default from ${BUDGET_ENV_VAR} if set)")

    p = sub.add_parser("poly-norm", help="exact even moment and norm of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, required=True)
    add_budget(p)
    p.set_defaults(func=_cmd_poly_norm)

    p = sub.add_parser("poly-bounds", help="certified interval around max |p| on the sphere")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, default=None,
                   help="pick k automatically for ratio <= 1+eps")
    add_budget(p)
    p.set_defaults(func=_cmd_poly_bounds)

    p = sub.add_parser("system-test", help="feasibility gap test for a polynomial system")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    add_budget(p)
    p.set_defaults(func=_cmd_system_test)

    p = sub.add_parser("assign", help="bounds (and extraction) for a tensor assignment problem")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--brute", action="store_true")
    add_budget(p)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("hyper-align", help="align two hypergraphs by a vertex bijection")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--k", type=int, required=True)
    add_budget(p)
    p.set_defaults(func=_cmd_hyper_align)

    p = sub.add_parser("verify", help="exact sandwich verification over S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def _run(args) -> int:
    try:
        payload = args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"budget exceeded: out of memory running {args.command}",
              file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # exact ends are printed in full, whatever their number of digits;
    # the interpreter's limit (0 when there is none) is put back after
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
