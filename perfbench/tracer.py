"""Spans around the calls into each orbitmax layer, installed from outside
the library for the traced benchmark run.

``install`` replaces every target function, wherever an orbitmax module
binds it, with a wrapper that records a span (name, start, end, parent
span, op id) and the work counts named in ``layers.json``.  A target
that no longer exists is skipped, so it reports no span.  Spans stay in
memory; ``summary`` reduces them to additive per-name totals, so the
totals of several processes (the CLI children) can be summed.

A span's self time is its duration minus the durations of its child
spans.  The tracer's own bookkeeping, including computing counts from
the arguments, is timed and taken out of every enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _compositions(a: dict, counts) -> None:
    t = len(a["p"].terms)
    if t:
        counts["sphere.compositions"] += math.comb(a["m"] + t - 1, t - 1)


def _integrated(a: dict, counts) -> None:
    terms = a["p"].terms
    counts["sphere.terms_integrated"] += len(terms)
    counts["sphere.even_terms"] += sum(
        1 for e in terms if not any(x % 2 for x in e))


def _visits(a: dict, counts) -> None:
    counts["typesweep.visits"] += a["n"] ** (a["m"] * a["d"])


def _groups(a: dict, counts) -> None:
    counts["typesweep.groups"] += len(a["table_a"]) + len(a["table_b"])


def _greedy_positions(a: dict, counts) -> None:
    counts["assign.greedy_positions"] += a["a"].n


# (module, attribute, span name, counter)
TARGETS = (
    ("orbitmax.sphere", "pow_collect", "sphere.pow_collect", _compositions),
    ("orbitmax.sphere", "integrate_on_sphere", "sphere.integrate", _integrated),
    ("orbitmax.sphere", "moment_2k", "sphere.moment", None),
    ("orbitmax._typesweep", "moment_tables", "typesweep.moment_tables", _visits),
    ("orbitmax._typesweep", "side_table", "typesweep.side_table", _visits),
    ("orbitmax._typesweep", "candidate_side_tables",
     "typesweep.candidate_side_tables", _visits),
    ("orbitmax._typesweep", "combine", "typesweep.combine", _groups),
    ("orbitmax.assign", "moment_2k", "assign.moment", None),
    # the direct coset enumeration behind greedy_extract and coset_moment
    ("orbitmax.assign", "_enumerate_coset_power_sums", "assign.coset", None),
    ("orbitmax.assign", "greedy_extract", "assign.greedy", _greedy_positions),
    ("orbitmax.assign", "matrix_element", "assign.matrix_element", None),
    ("orbitmax.exact", "root_2k", "exact.root_2k", None),
    ("orbitmax.bounds", "Interval.from_moment", "bounds.from_moment", None),
    ("orbitmax.hypergraph", "adjacency_tensor", "hypergraph.adjacency", None),
    ("orbitmax.hypergraph", "align", "hypergraph.align", None),
    ("orbitmax.sandwich", "verify_sandwich", "sandwich.verify", None),
    ("orbitmax.sphere", "poly_from_json", "cli.parse", None),
    ("orbitmax.assign", "tensor_from_json", "cli.parse", None),
    ("orbitmax.hypergraph", "hypergraph_from_json", "cli.parse", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, paused at start, paused at end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._paused = 0.0

    def wrap(self, fn, name: str, counter):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            enter = perf_counter()
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = perf_counter()
            tracer._paused += start - enter
            span[1], span[5] = start, tracer._paused
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span[2], span[6] = end, tracer._paused
                tracer._stack.pop()
                if counter is not None:
                    try:
                        counter(signature.bind(*args, **kwargs).arguments,
                                tracer.counts)
                    except (TypeError, KeyError, AttributeError):
                        pass  # the signature changed; keep the span, drop the count
                tracer._paused += perf_counter() - end

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the counts."""
        durations = [(s[2] - s[1]) - (s[6] - s[5]) for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, dur in zip(self.spans, durations):
            if s[3] >= 0:
                child[s[3]] += dur
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s, dur, ch in zip(self.spans, durations, child):
            calls[s[0]] += 1
            total[s[0]] += dur
            self_s[s[0]] += dur - ch
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap every target that exists."""
    for modname, attr, name, counter in TARGETS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            continue
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        raw = inspect.getattr_static(holder, leaf, None) if holder else None
        if isinstance(raw, classmethod):
            setattr(holder, leaf, classmethod(tracer.wrap(raw.__func__, name, counter)))
        elif callable(raw):
            wrapped = tracer.wrap(raw, name, counter)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("orbitmax"):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)


def merge(summaries) -> dict:
    """Sum per-name totals over several summaries."""
    out: dict[str, dict] = {"calls": defaultdict(int), "total_s": defaultdict(float),
                            "self_s": defaultdict(float), "counts": defaultdict(int)}
    for s in summaries:
        for field, values in s.items():
            for key, v in values.items():
                out[field][key] += v
    return {field: dict(values) for field, values in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, cli_times: dict | None = None,
                  shape_repeat_share: float = 0.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by the names in
    BENCHMARK.json; layers that did not run report 0."""
    calls, total, self_s, counts = (s.get(f, {}) for f in
                                    ("calls", "total_s", "self_s", "counts"))
    out: dict[str, float] = {}
    sweep = ("moment_tables", "side_table", "candidate_side_tables")
    for fn in sweep + ("combine",):
        out[f"typesweep.{fn}.calls"] = calls.get(f"typesweep.{fn}", 0)
        out[f"typesweep.{fn}.self_s"] = self_s.get(f"typesweep.{fn}", 0.0)
    visits = counts.get("typesweep.visits", 0)
    out["typesweep.visits"] = visits
    out["typesweep.visits_per_s"] = _ratio(
        visits, sum(self_s.get(f"typesweep.{fn}", 0.0) for fn in sweep))
    out["typesweep.groups"] = counts.get("typesweep.groups", 0)

    comps = counts.get("sphere.compositions", 0)
    out["sphere.pow_collect.self_s"] = self_s.get("sphere.pow_collect", 0.0)
    out["sphere.compositions"] = comps
    out["sphere.compositions_per_s"] = _ratio(comps, out["sphere.pow_collect.self_s"])
    out["sphere.integrate.self_s"] = self_s.get("sphere.integrate", 0.0)
    out["sphere.terms_integrated"] = counts.get("sphere.terms_integrated", 0)
    out["sphere.even_term_ratio"] = _ratio(counts.get("sphere.even_terms", 0),
                                           out["sphere.terms_integrated"])
    out["sphere.moment.self_s"] = self_s.get("sphere.moment", 0.0)

    out["assign.moment.self_s"] = self_s.get("assign.moment", 0.0)
    out["assign.coset.calls"] = calls.get("assign.coset", 0)
    out["assign.coset.self_s"] = self_s.get("assign.coset", 0.0)
    out["assign.greedy.self_s"] = self_s.get("assign.greedy", 0.0)
    out["assign.greedy.step_s"] = _ratio(total.get("assign.greedy", 0.0),
                                         counts.get("assign.greedy_positions", 0))
    out["assign.matrix_element.self_s"] = self_s.get("assign.matrix_element", 0.0)
    out["assign.shape_repeat_share"] = shape_repeat_share

    out["exact.root_2k.calls"] = calls.get("exact.root_2k", 0)
    out["exact.root_2k.self_s"] = self_s.get("exact.root_2k", 0.0)
    out["bounds.from_moment.self_s"] = self_s.get("bounds.from_moment", 0.0)
    out["hypergraph.adjacency.self_s"] = self_s.get("hypergraph.adjacency", 0.0)
    out["hypergraph.align.self_s"] = self_s.get("hypergraph.align", 0.0)
    out["sandwich.verify.self_s"] = self_s.get("sandwich.verify", 0.0)

    cli_times = cli_times or {}
    for key in ("start_s", "import_s", "main_s"):
        out[f"cli.{key}"] = cli_times.get(key, 0.0)
    out["cli.parse_s"] = self_s.get("cli.parse", 0.0)
    return out
