"""Per-op output checks against the independent references in
``reference``, all on exact rationals.

``Checker.check(op, result)`` returns ``(ok, reason, quality)``.  An op
fails when it raised (including ``BudgetError``), when its output is
malformed, or when any check below does not hold; a failure is never
dropped.  ``quality`` holds the op's ``interval_log_ratio``
(ln(upper_exact / lower_exact) / 2k) and ``greedy_log_gap``
(ln(upper / |witness|)) where the op has them.

References are computed outside the timed region and memoised by
instance content, so repeated passes over one op list compute each once.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as ref

# sample_lower_bound evaluates p in float64; its value may exceed the
# exact maximum by rounding, far below this relative margin
WITNESS_REL_TOL = Fraction(1, 10 ** 9)


class CheckFailure(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailure(reason)


def ln(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


class Checker:
    def __init__(self) -> None:
        self._memo: dict[str, object] = {}

    def _cached(self, key_parts, fn):
        key = json.dumps(key_parts, sort_keys=True, default=str)
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def check(self, op: dict, result: dict) -> tuple[bool, str, dict]:
        if result.get("error"):
            return False, result["error"], {}
        try:
            quality = getattr(self, "_" + op["kind"])(op, result["out"])
        except CheckFailure as exc:
            return False, str(exc), {}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return False, f"malformed output: {type(exc).__name__}: {exc}", {}
        return True, "", quality

    # -- shared pieces ------------------------------------------------------

    @staticmethod
    def _interval(iv: dict, moment: Fraction, factor: int, k: int) -> dict:
        lower, upper = Fraction(iv["lower_exact"]), Fraction(iv["upper_exact"])
        require(iv["k"] == k, f"interval k={iv['k']}, expected {k}")
        require(lower == moment, f"lower_exact {lower} != reference moment {moment}")
        require(upper == moment * factor,
                f"upper_exact {upper} != reference moment * factor {factor}")
        require(iv["degenerate"] == (moment == 0), "degenerate flag wrong")
        return {"interval_log_ratio": (ln(upper) - ln(lower)) / (2 * k)} if moment else {}

    @staticmethod
    def _gap(iv: dict, witness: Fraction) -> dict:
        upper = Fraction(iv["upper_exact"])
        if not upper or not witness:
            return {}
        return {"greedy_log_gap": ln(upper) / (2 * iv["k"]) - ln(abs(witness))}

    def _sphere_moment(self, n: int, terms: dict, k: int) -> Fraction:
        return self._cached(["sphere", n, sorted(terms.items()), k],
                            lambda: ref.sphere_moment(n, terms, k))

    def _assign_reference(self, op: dict):
        n, d, a = ref.tensor_flat(op["a"])
        _, _, b = ref.tensor_flat(op["b"])
        k = op["k"]
        moment, best = self._cached(["assign", op["a"], op["b"], k],
                                    lambda: ref.assign_moment(a, b, n, d, k))
        return n, d, a, b, k, moment, best, ref.assign_factor(a, b, n, d, k)

    def _bounded_interval(self, poly: dict, iv: dict, eps: float) -> tuple[dict, Fraction]:
        """A fewnomial interval: exact ends and ratio <= (1 + eps)**(2k)."""
        n, d, terms = ref.poly_terms(poly)
        k = iv["k"]
        require(isinstance(k, int) and k >= 1, f"bad moment order {k!r}")
        factor = ref.sphere_factor(n, d, k)
        quality = self._interval(iv, self._sphere_moment(n, terms, k), factor, k)
        require(factor <= (1 + Fraction(eps)) ** (2 * k),
                f"ratio factor {factor} exceeds (1+eps)^(2k) at k={k}")
        return quality, Fraction(iv["upper_exact"])

    def _system_check(self, system: list, k: int, delta: float, out: dict) -> dict:
        polys = [ref.poly_terms(p) for p in system]
        n, d = polys[0][0], polys[0][1]
        q: dict = {}
        for _, _, terms in polys:
            for e, c in ref.poly_mul(terms, terms).items():
                q[e] = q.get(e, Fraction(0)) + c
        q = {e: c for e, c in q.items() if c}
        factor = ref.sphere_factor(n, 2 * d, k)
        gamma = Fraction(out["gamma_exact"])
        require(gamma ** (2 * k) >= self._sphere_moment(n, q, k) * factor,
                "gamma**(2k) is below the certified bound on max q")
        p = {e: gamma * c for e, c in ref.norm_power(n, d).items()}
        for e, c in q.items():
            p[e] = p.get(e, Fraction(0)) - c
        p = {e: c for e, c in p.items() if c}
        require(ref.poly_terms(out["p"])[2] == p, "p != gamma*|x|^(2d) - q")
        iv = out["interval"]
        quality = self._interval(iv, self._sphere_moment(n, p, k), factor, k)
        gap = Fraction(iv["upper_exact"]) < (gamma * (1 - Fraction(delta))) ** (2 * k)
        require((out["verdict"] == "certified gap") == gap,
                f"verdict {out['verdict']!r} disagrees with the exact comparison")
        return quality

    def _permutation(self, images, n: int) -> list[int]:
        require(sorted(images) == list(range(n)), f"not a permutation: {images}")
        return list(images)

    def _greedy_check(self, op: dict, iv: dict, images, value: Fraction) -> dict:
        n, d, a, b, k, moment, _, factor = self._assign_reference(op)
        quality = self._interval(iv, moment, factor, k)
        images = self._permutation(images, n)
        require(value == ref.objective(a, b, n, d, images), "greedy value != f(g)")
        require(value ** (2 * k) >= moment, "greedy value**(2k) < moment")
        return {**quality, **self._gap(iv, value)}

    def _align_check(self, op: dict, iv: dict, images, matched: Fraction) -> dict:
        n, d, e1 = ref.hypergraph_edges(op["h1"])
        _, _, e2 = ref.hypergraph_edges(op["h2"])
        k = op["k"]
        require(k == 1, "the alignment reference covers k = 1")
        moment = self._cached(["align", op["h1"], op["h2"]],
                              lambda: ref.align_moment(n, d, e1, e2))
        quality = self._interval(iv, moment, n ** d, k)
        images = self._permutation(images, n)
        require(matched == ref.matched_edges(e1, e2, images),
                "matched != combinatorial count")
        require(matched ** 2 >= moment, "matched**2 < moment")
        return {**quality, **self._gap(iv, matched)}

    # -- op kinds -------------------------------------------------------------

    def _fewnomial(self, op: dict, out: dict) -> dict:
        quality, upper = self._bounded_interval(op["poly"], out["interval"], op["eps"])
        witness = Fraction(out["witness"])
        k = out["interval"]["k"]
        require(0 <= witness, "negative witness")
        require(witness ** (2 * k) <= upper * (1 + WITNESS_REL_TOL) ** (2 * k),
                "sampled value exceeds the certified upper bound")
        return {**quality, **self._gap(out["interval"], witness)}

    def _system(self, op: dict, out: dict) -> dict:
        return self._system_check(op["system"], op["k"], op["delta"], out)

    def _moments(self, op: dict, out: dict) -> dict:
        n, d, a, b, k, moment, best, factor = self._assign_reference(op)
        quality = self._interval(out["interval"], moment, factor, k)
        if best is not None:
            require(Fraction(out["interval"]["lower_exact"]) <= best ** (2 * k)
                    <= Fraction(out["interval"]["upper_exact"]),
                    "true max outside [lower, upper]")
        return quality

    def _greedy(self, op: dict, out: dict) -> dict:
        return self._greedy_check(op, out["interval"], out["images"],
                                  Fraction(out["value"]))

    def _align(self, op: dict, out: dict) -> dict:
        return self._align_check(op, out["interval"], out["images"],
                                 Fraction(out["matched"]))

    def _cli(self, op: dict, out: dict) -> dict:
        require(out["returncode"] == 0,
                f"exit code {out['returncode']}: {out.get('stderr', '')[-200:]}")
        doc = out["stdout"]
        require(isinstance(doc, dict), "stdout is not one JSON object")
        files, cmd = op["files"], op["command"]
        if cmd == "poly-norm":
            n, _, terms = ref.poly_terms(files["--poly"])
            require(Fraction(doc["moment_2k"]) == self._sphere_moment(n, terms, op["k"]),
                    "moment_2k != reference")
            return {}
        if cmd == "poly-bounds":
            return self._bounded_interval(files["--poly"], doc, op["eps"])[0]
        if cmd == "system-test":
            return self._system_check(files["--system"], op["k"], op["delta"], doc)
        if cmd == "assign":
            sub = {"a": files["--a"], "b": files["--b"], "k": op["k"]}
            quality = self._greedy_check(
                sub, doc["bounds"], [i - 1 for i in doc["greedy"]["permutation"]["images"]],
                Fraction(doc["greedy"]["value"]))
            n, d, a = ref.tensor_flat(sub["a"])
            _, _, b = ref.tensor_flat(sub["b"])
            _, best = self._cached(["enum", sub],
                                   lambda: ref.moment_enumerated(a, b, n, d, op["k"]))
            brute = Fraction(doc["brute"]["abs_value_exact"])
            images = self._permutation([i - 1 for i in doc["brute"]["permutation"]["images"]], n)
            require(brute == best, f"brute max {brute} != enumerated max {best}")
            require(abs(ref.objective(a, b, n, d, images)) == brute,
                    "brute permutation does not attain its value")
            require(Fraction(doc["bounds"]["lower_exact"]) <= best ** (2 * op["k"])
                    <= Fraction(doc["bounds"]["upper_exact"]),
                    "true max outside [lower, upper]")
            return quality
        if cmd == "hyper-align":
            sub = {"h1": files["--h1"], "h2": files["--h2"], "k": op["k"]}
            return self._align_check(sub, doc["bounds"],
                                     [i - 1 for i in doc["permutation"]["images"]],
                                     Fraction(doc["matched"]))
        if cmd == "verify":
            n, k = op["n"], op["k"]
            delta = doc["delta_case"]
            require(doc["n"] == n and doc["k"] == k, "echoed n, k differ")
            require(doc["all_hold"] is True and doc["failures"] == 0,
                    "a sandwich inequality failed")
            # v = ell = e_1: f(g) = [g(0) = 0], so every moment is 1/n and
            # the orbit of e_1^(tensor k) spans n dimensions
            require(Fraction(delta["sup_abs"]) == 1, "delta case sup != 1")
            require(Fraction(delta["moment_2k"]) == Fraction(1, n), "delta case moment_2k")
            require(Fraction(delta["moment_2"]) == Fraction(1, n), "delta case moment_2")
            require(delta["span_dim"] == n, "delta case span_dim != n")
            require(all(Fraction(m) >= 0 for m in doc["worst_margins"].values()),
                    "negative sandwich margin")
            return {}
        raise CheckFailure(f"unknown CLI command {cmd!r}")
