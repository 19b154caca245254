import importlib

import numpy as np
import pytest

from divischeck import divisibility, generator, infoflow, superop

MODULES = ["divischeck"] + [f"divischeck.{name}" for name in
                            ("cli", "divisibility", "generator", "infoflow",
                             "linalg", "pauli_family", "superop")]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))


def _array_holders():
    """One factory per dataclass with array fields, each call building an
    equal-content twin."""
    return {
        "GeneratorSpec": lambda: generator.GeneratorSpec(2, np.array([0.6, 0.6, 0.6])),
        "PropagatedFamily": lambda: generator.PropagatedFamily(
            np.array([0.0, 1.0]), np.array([superop.identity(2)] * 2),
            superop.identity(2)[None]),
        "DivisibilityReport": lambda: divisibility.DivisibilityReport(
            "CP", divisibility.HOLDS, None, None, 0.0, witness=np.zeros(4)),
        "FirstOrderWitness": lambda: divisibility.FirstOrderWitness(
            1.0, np.eye(4), np.eye(4), np.zeros(4), np.zeros(4), -1.0, -1.0),
        "BackflowReport": lambda: infoflow.BackflowReport(
            0.0, "axis:z", 0.0, np.zeros((3, 2)), infoflow.pair_library(2)),
        "StatePairs": lambda: infoflow.pair_library(2),
        "PositivityProbeResult": lambda: superop.PositivityProbeResult(
            0.0, np.zeros(4), 1),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_dataclasses_compare_by_identity(name):
    # a field-wise == would ask an array for its truth value and raise
    make = _array_holders()[name]
    x = make()
    assert x == x
    assert not x == make()
