"""Prompt bytes pinned by digest, the public names each module exports,
and guards against names, defaults and parameters nothing uses."""

import ast
import hashlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import qvbench
from qvbench.core import Passage, Profile, Topic
from qvbench.genkit import build_neutral_prompt, build_prompt, generate_backstory
from qvbench.judge import build_label_prompt, load_label_template

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
        lambda: build_label_prompt(TOPIC.backstory, PASSAGE.text, load_label_template()),
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
# entry point, the version, library API the paper's analysis still
# has to wire into a stage (completeness check, feature comparison,
# effect-size labels, human-vs-LLM label agreement), and `ndcg_at_k`,
# NDCG in one call for library callers and the release checks, which
# `evaluate` splits into one `ideal_dcg` per topic and one `ndcg` per
# ranking.
UNREFERENCED_ALLOWED = {
    "__version__",
    "write_toy_workspace",
    "expected_variant_count",
    "mann_whitney_u",
    "classify_omega",
    "agreement_report",
    "paired_grades",
    "ndcg_at_k",
}


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _members(node):
    """(name, node) of each public method and property of a public class."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return []
    return [
        (item.name, item)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def test_no_public_name_only_tests_reach():
    """Every public top-level name of `src/qvbench`, and every public
    method and property of a public class there, is referenced by other
    code there.

    A reference is a name or attribute use outside the definition
    itself; imports and `__all__` lists do not count, so a name kept
    alive only by tests or re-exports shows up here. A member is
    reached only as an attribute, and matches by name alone: a method
    shares its uses with every other member of its name.
    """
    defined = set()  # (name, module, top-level name, member name or None)
    used = set()  # (name, module, top-level name the use sits in)
    attrs = set()  # (name, module, top-level name, member name or None) of attribute uses
    for path in sorted(Path(qvbench.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _top_level_names(node)
            if names == ["__all__"]:
                continue
            for name in names:
                if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                    defined.add((name, path, name, None))
            owner = names[0] if len(names) == 1 else None
            member_of = {}
            for member, item in _members(node):
                defined.add((member, path, owner, member))
                member_of.update((id(sub), member) for sub in ast.walk(item))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    used.add((sub.id, path, owner))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    used.add((sub.attr, path, owner))
                    attrs.add((sub.attr, path, owner, member_of.get(id(sub))))
    unreferenced = sorted(
        f"{owner}.{name}" if member else name
        for name, path, owner, member in defined
        if not (
            any(u == name and (p, o) != (path, name) for u, p, o in used)
            if member is None
            else any(u == name and (p, o, m) != (path, owner, member) for u, p, o, m in attrs)
        )
    )
    assert [n for n in unreferenced if n not in UNREFERENCED_ALLOWED] == []
    assert sorted(UNREFERENCED_ALLOWED - set(unreferenced)) == []


# Defaulted parameters and fields that no call in the package passes,
# each with the reason it stays settable rather than a constant.
UNPASSED_DEFAULTS_ALLOWED = {
    "main.argv": "tests drive the CLI in-process; the console script passes none",
    "ProviderConfig.api_key": "credential; the CLI reads `QVBENCH_API_KEY`",
}


def _defaulted_params(fn, skip=0):
    """(name, call position or None) of fn's defaulted parameters, its
    first `skip` positional parameters dropped."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[skip:]
    defaulted = positional[len(positional) - len(args.defaults) :]
    keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(a.arg, positional.index(a) if a in positional else None) for a in defaulted + keyword]


def _field_defaults(cls):
    """(name, position) of a NamedTuple class's defaulted fields."""
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def _class_defaults(cls, classes):
    """Defaulted `__init__` or `__new__` parameters, and the defaulted
    fields of a NamedTuple class or of the private `_…Fields` NamedTuple
    base (among `classes`, its module's classes by name) that a
    `__new__(cls, *args, **kwargs)` builds through."""
    params = {}
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__new__"):
            params.update(_defaulted_params(node, skip=1))
    for base in cls.bases:
        if not isinstance(base, ast.Name):
            continue
        if base.id == "NamedTuple":
            params.update(_field_defaults(cls))
        elif base.id.startswith("_") and base.id.endswith("Fields") and base.id in classes:
            params.update(_field_defaults(classes[base.id]))
    return list(params.items())


def _unpassed_defaults(modules):
    """`Class.param` or `function.param` of each default that no call
    among `modules`, (module stem, parsed module) pairs, passes; see
    `test_every_default_is_passed_somewhere`."""
    defaults = {}  # name -> (module stem, [(param, call position or None)])
    calls = []  # (top-level name the call sits in, Call)
    classes = set()
    for stem, tree in modules:
        module_classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defaults[node.name] = (stem, _defaulted_params(node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defaults[node.name] = (stem, _class_defaults(node, module_classes))
                classes.add(node.name)
            owner = getattr(node, "name", None)
            calls.extend((owner, sub) for sub in ast.walk(node) if isinstance(sub, ast.Call))

    def callee(owner, call):
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "cls":
                return owner if owner in classes else None
            return func.id if func.id != owner else None
        if isinstance(func, ast.Attribute) and func.attr == "_replace":
            return "_replace"
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if defaults.get(func.attr, ("",))[0] == func.value.id and func.attr != owner:
                return func.attr
        return None

    def passes(call, param, position):
        return (
            any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg in (None, param) for kw in call.keywords)
            or (position is not None and position < len(call.args))
        )

    replaced = {
        kw.arg for owner, call in calls if callee(owner, call) == "_replace" for kw in call.keywords
    }
    unpassed = set()
    for name, (_, params) in defaults.items():
        if name in UNREFERENCED_ALLOWED:
            continue
        sites = [call for owner, call in calls if callee(owner, call) == name]
        for param, position in params:
            if any(passes(call, param, position) for call in sites):
                continue
            if not (name in classes and param in replaced):
                unpassed.add(f"{name}.{param}")
    return unpassed


def test_every_default_is_passed_somewhere():
    """Each defaulted parameter of a public top-level function of
    `src/qvbench`, and each defaulted `__init__` or `__new__` parameter or
    NamedTuple field of a public top-level class there (or of the
    `_…Fields` base it builds through), is passed by some call elsewhere
    there: by keyword, by position, or through a `*` or `**` argument.

    A default that only tests change is a constant with extra code
    paths. Calls match by bare name, or as `module.name` for the module
    that defines it; a call inside the function or class itself does not
    count, except `cls(...)` in a classmethod. A keyword of a
    `_replace` call passes the field of that name.
    """
    modules = [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(qvbench.__file__).parent.rglob("*.py"))
    ]
    unpassed = _unpassed_defaults(modules)
    assert sorted(unpassed - set(UNPASSED_DEFAULTS_ALLOWED)) == []
    assert sorted(set(UNPASSED_DEFAULTS_ALLOWED) - unpassed) == []


def test_defaults_of_a_fields_base_are_checked():
    """A record whose `__new__` takes `*args, **kwargs` and builds through
    its `_…Fields` NamedTuple, as `PipelineConfig` does, states its
    defaults there; one that no call passes is still found."""
    source = (
        "class _XFields(NamedTuple):\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: int = 2\n"
        "    d: int = 3\n"
        "class X(_Validated, _XFields):\n"
        "    def __new__(cls, *args, **kwargs):\n"
        "        return _XFields.__new__(cls, *args, **kwargs)\n"
        "def make():\n"
        "    return X(0, 1, d=4)\n"
    )
    assert _unpassed_defaults([("m", ast.parse(source))]) == {"X.c"}


def test_no_module_imports_dataclasses():
    """Records are NamedTuples: importing `dataclasses` also loads
    inspect, ast, dis and tokenize, a cost every stage process paid."""
    importers = []
    for path in sorted(Path(qvbench.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                importers.append(f"{path.stem}:{node.lineno}")
    assert importers == []


def _only_ellipsis(body):
    """True for a body of `...`, after an optional docstring."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            body = body[1:]
    return bool(body) and all(
        isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant) and s.value.value is ...
        for s in body
    )


def test_every_parameter_is_read():
    """Each parameter of each function, method and lambda of `src/qvbench`
    is read in its body, nested functions included. `self` and `cls`
    are exempt, and so is a body of only `...`, as in a Protocol."""
    unread = []
    for path in sorted(Path(qvbench.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            if _only_ellipsis(body):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", "<lambda>")
            unread += [
                f"{path.stem}.{name}:{fn.lineno} {p}"
                for p in params
                if p not in ("self", "cls") and p not in read
            ]
    assert unread == []
