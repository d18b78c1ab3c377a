"""Certified two-sided maximum estimates from exact even-power moments.

Two concrete engines share one idea: compute the exact integral (or
group average) of the 2k-th power of an objective, take a single
floating root, and multiply by an exact combinatorial factor to certify
``lower <= max <= upper``.

* :mod:`orbitmax.sphere` — homogeneous polynomials on the unit sphere,
  including the fewnomial (1+eps)-approximation and a feasibility
  reduction for polynomial systems.
* :mod:`orbitmax.assign` — the d-dimensional assignment problem over
  the symmetric group, with coset-conditional moments, greedy
  permutation extraction and a brute-force oracle.
* :mod:`orbitmax.hypergraph` — hypergraph alignment encoded as an
  assignment problem.
* :mod:`orbitmax.sandwich` — exact verification of the sandwich
  inequalities for finite orbits, including orbit span dimensions.

The engine modules and the names re-exported from them load on first
access, so ``import orbitmax`` imports none of them.  Importing any of
them loads no numpy either: the d >= 2 engines of
:mod:`~orbitmax.assign` (and so :mod:`~orbitmax.hypergraph`) load it
when first called, and :mod:`~orbitmax.sphere` inside
``sample_lower_bound``; :mod:`~orbitmax.sandwich` never does.  No
module imports the standard library's data class module, which would
load ``inspect``, ``ast``, ``dis`` and ``tokenize`` and ``exec`` the
methods it generates for each class: the value types share one
immutable ``__slots__`` base in :mod:`~orbitmax.exact`, and the result
records are ``NamedTuple`` classes.  That saves about 7.5 ms of the
19 ms a fresh process took to ``import orbitmax.cli``, and 1-3 ms on
each engine module's import.
"""

from .bounds import Interval
from .errors import BudgetError

__all__ = [
    "assign",
    "exact",
    "hypergraph",
    "sandwich",
    "sphere",
    "DenseTensor",
    "PartialAssignment",
    "Permutation",
    "Interval",
    "BudgetError",
    "Hypergraph",
    "SparsePoly",
]

__version__ = "0.1.0"

# name loaded on first access -> the submodule it is, or is defined in
_LAZY = {
    "assign": "assign",
    "exact": "exact",
    "hypergraph": "hypergraph",
    "sandwich": "sandwich",
    "sphere": "sphere",
    "DenseTensor": "assign",
    "PartialAssignment": "assign",
    "Permutation": "assign",
    "Hypergraph": "hypergraph",
    "SparsePoly": "sphere",
}


def __getattr__(name: str):
    """Import a submodule or re-exported name on first access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    # __import__ takes the path of an import statement, which -X importtime
    # reports; importlib.import_module would hide the module from it
    qualified = f"{__name__}.{_LAZY[name]}"
    __import__(qualified)
    module = sys.modules[qualified]
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
