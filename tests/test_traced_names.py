"""The names the traced benchmark wraps must exist in the package.

`perfbench/traced_stage.py` wraps each `(module, attr)` of
`LAYER_FUNCTIONS` and each `core` reader in `CORE_READERS` by name. A
refactor that drops or renames one of them would fail only the traced
benchmark run; this reads those tables with `ast`, without importing
the tracer, and fails here instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACED_STAGE = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"


def _tables():
    tree = ast.parse(TRACED_STAGE.read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("LAYER_FUNCTIONS", "CORE_READERS")
    }


TABLES = _tables()
NAMES = [(module, attr) for module, attr, _ in TABLES["LAYER_FUNCTIONS"]] + [
    ("core", attr) for attr in TABLES["CORE_READERS"]
]


def test_tables_found():
    assert TABLES["LAYER_FUNCTIONS"] and TABLES["CORE_READERS"]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"qvbench.{module}"), attr))
