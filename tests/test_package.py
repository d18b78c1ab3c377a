import copy
import importlib
import pickle
from fractions import Fraction

import pytest

import orbitmax
from orbitmax import assign, hypergraph, sandwich, sphere
from orbitmax.bounds import Interval

DEFINED_IN = {
    "DenseTensor": "orbitmax.assign",
    "PartialAssignment": "orbitmax.assign",
    "Permutation": "orbitmax.assign",
    "Interval": "orbitmax.bounds",
    "BudgetError": "orbitmax.errors",
    "Hypergraph": "orbitmax.hypergraph",
    "SparsePoly": "orbitmax.sphere",
}


@pytest.mark.parametrize("name", orbitmax.__all__)
def test_public_name_is_the_defining_object(name):
    if name in DEFINED_IN:
        expected = getattr(importlib.import_module(DEFINED_IN[name]), name)
    else:
        expected = importlib.import_module(f"orbitmax.{name}")
    assert getattr(orbitmax, name) is expected


def test_star_import_binds_all():
    namespace = {}
    exec("from orbitmax import *", namespace)
    for name in orbitmax.__all__:
        assert namespace[name] is getattr(orbitmax, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitmax.no_such_name
    assert not hasattr(orbitmax, "no_such_name")


def _poly():
    return sphere.SparsePoly(2, 2, {(2, 0): Fraction(3, 2), (1, 1): -1})


# each value and result type, built from fixed inputs, with one field to
# assign to; SparsePoly (a dict of terms) is unhashable, and so is a
# SystemReduction, which holds one
VALUE_TYPES = {
    "Interval": (lambda: Interval.from_moment(Fraction(5, 3), 6, 2), "lower"),
    "SparsePoly": (_poly, "terms"),
    "DenseTensor": (lambda: assign.DenseTensor(2, 2, ["1/2", 0, 3, -1]), "ints"),
    "Permutation": (lambda: assign.Permutation((2, 0, 1)), "images"),
    "PartialAssignment": (lambda: assign.PartialAssignment(((0, 2), (3, 1))), "pairs"),
    "Hypergraph": (lambda: hypergraph.Hypergraph(4, 2, ((1, 0), (2, 3)), (2, "1/3")),
                   "edges"),
    "SystemReduction": (lambda: sphere.system_reduce([_poly()], 1), "verdict"),
    "InequalityCheck": (lambda: sandwich.verify_sandwich([1, 2, 0], [1, -1, 0], 2).checks[0],
                        "holds"),
    "SandwichReport": (lambda: sandwich.verify_sandwich([1, 2, 0], [1, -1, 0], 2), "checks"),
    "Cor16Check": (lambda: sandwich.cor16_factor_check(40, 0.9).checks[0], "holds"),
    "Cor16Report": (lambda: sandwich.cor16_factor_check(40, 0.9), "k0"),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_type_contract(name):
    make, field = VALUE_TYPES[name]
    value = make()
    assert type(value).__name__ == name
    assert value == make()
    if name in ("SparsePoly", "SystemReduction"):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(make())
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
    assert repr(value).startswith(f"{name}(")
