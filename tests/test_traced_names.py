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


# A one-record input for each reader in CORE_READERS.
READER_INPUTS = {
    "parse_topics": ("topics.tsv", "t1\tseed query\n"),
    "parse_passages": ("passages.tsv", "p1\tpassage text\n"),
    "parse_qrels": ("qrels.txt", "t1 0 p1 2\n"),
    "parse_trec_run": ("sys.run", "t1 Q0 p1 1 2.0 sys\n"),
    "read_variants": (
        "variants.jsonl",
        '{"topic_id": "t1", "profile_id": "p", "index": 1, "text": "a variant"}\n',
    ),
    "read_annotations": (
        "annotations.jsonl",
        '{"pair_id": "g", "annotator_id": "a", "task": "similarity", "seed_query": "s",'
        ' "variant": "v", "answer": "yes"}\n',
    ),
    "read_jsonl": ("rows.jsonl", '{"key": 1}\n'),
}


@pytest.mark.parametrize("attr", TABLES["CORE_READERS"])
def test_core_reader_result_is_sized(attr, tmp_path):
    """The tracer counts `len()` of each reader's result as
    `core.records_parsed`: one per record, or per ranked list of a run."""
    from collections.abc import Sized

    name, text = READER_INPUTS[attr]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    result = getattr(importlib.import_module("qvbench.core"), attr)(path)
    assert isinstance(result, Sized)
    assert len(result) == 1
