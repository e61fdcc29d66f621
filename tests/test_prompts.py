"""Prompt bytes pinned by digest, and the public names each module exports."""

import ast
import hashlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import qvbench
from qvbench.core import Passage, Profile, Topic
from qvbench.genkit import build_neutral_prompt, build_prompt, generate_backstory
from qvbench.judge import build_label_prompt

# Placeholder-shaped text inside the inputs shows the substitution order:
# a value is filled in first, then scanned for the placeholders after it.
TOPIC = Topic(
    "t7",
    "tips for {profile_name} asthma {n_variants}",
    backstory='Worried parent {passage} of a {"json": 1} child.',
)
PROFILE = Profile("persona_emily", "persona", "Emily {seed_query}", "Emily is 8 {n_variants}.")
PASSAGE = Passage("p9", 'Wheezing {scale_description} at night {"json": 1} {backstory}.')


class Capture:
    def __init__(self):
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return "a story"


def backstory_prompt():
    provider = Capture()
    generate_backstory(provider, TOPIC)
    (prompt,) = provider.prompts
    return prompt


GOLDEN = {
    "variant": (
        lambda: build_prompt(TOPIC, PROFILE),
        "64dfbddd5949b9ab90c073e35b861111456a7356a811f80145800518e05d7742",
    ),
    "neutral": (
        lambda: build_neutral_prompt(TOPIC),
        "18cfd58737359b533e51e1f33ee2ce9ad6d7fb2cc5489f87cd17e4bd04da378c",
    ),
    "backstory": (
        backstory_prompt,
        "36d7378261181df02932e46b318026dc7ea395fca03ce2da10bfb100f94c63ff",
    ),
    "label": (
        lambda: build_label_prompt(TOPIC.backstory, PASSAGE.text),
        "a74b32dcdf8d77b43fde03f6f03e7453e15bd91166430a2cacbb614f0d406a93",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_prompt_bytes_unchanged(kind):
    build, digest = GOLDEN[kind]
    assert hashlib.sha256(build().encode("utf-8")).hexdigest() == digest


EXPORTING = sorted(
    info.name
    for info in pkgutil.walk_packages(qvbench.__path__, "qvbench.")
    if info.name != "qvbench.__main__"
    and hasattr(importlib.import_module(info.name), "__all__")
)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


# Public names that nothing else in the package reaches yet: the README
# entry point, the version, and library API the paper's analysis still
# has to wire into a stage (completeness check, feature comparison,
# effect-size labels, human-vs-LLM label agreement).
UNREFERENCED_ALLOWED = {
    "__version__",
    "write_toy_workspace",
    "expected_variant_count",
    "verify_complete",
    "mann_whitney_u",
    "classify_omega",
    "agreement_report",
    "paired_grades",
}


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_public_name_only_tests_reach():
    """Every public top-level name of `src/qvbench` is referenced by other code there.

    A reference is a name or attribute use outside the definition
    itself; imports and `__all__` lists do not count, so a name kept
    alive only by tests or re-exports shows up here.
    """
    defined = set()
    used = set()  # (name, module, top-level name the use sits in)
    for path in sorted(Path(qvbench.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _top_level_names(node)
            if names == ["__all__"]:
                continue
            for name in names:
                if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                    defined.add((name, path))
            owner = names[0] if len(names) == 1 else None
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    used.add((sub.id, path, owner))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    used.add((sub.attr, path, owner))
    unreferenced = sorted(
        name
        for name, path in defined
        if not any(u == name and (p, owner) != (path, name) for u, p, owner in used)
    )
    assert [n for n in unreferenced if n not in UNREFERENCED_ALLOWED] == []
    assert sorted(UNREFERENCED_ALLOWED - set(unreferenced)) == []
