import importlib

import pytest

import orbitmax

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
