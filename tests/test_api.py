import importlib

import pytest

MODULES = ["divischeck"] + [f"divischeck.{name}" for name in
                            ("cli", "divisibility", "generator", "infoflow",
                             "linalg", "pauli_family", "superop")]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))
