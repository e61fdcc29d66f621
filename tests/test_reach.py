"""Every function and method of `src/qvbench` is entered by a pipeline
run, or named in ALLOWED with the reason no run enters it.

The traced runs go through `cli.main`, one after another in a fresh
interpreter, so no cache that an earlier test filled hides a call:
- the README's toy workspace written, then its nine stages run twice,
  the second pass on what the first left (resume and cache paths)
- `validate` with an annotations file that holds non-ASCII text
- `generate --methods neutral` on the HTTP provider against the
  localhost chat server, whose first answer is a 429 with Retry-After
  and whose second is sent chunked

`sys.settrace` sees the main thread and `threading.settrace` the worker
threads `run_in_order` starts for the HTTP provider; both are set before
the package is imported. The code objects are found by compiling the
package's sources, so a function no stage imports is found too. Class
bodies, which run at import, and comprehensions are left out. A function
is known by its `co_qualname`, which Python 3.11 added.
"""

import ast
import itertools
import json
import re
import subprocess
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import pytest

import qvbench
from qvbench.genkit import MockProvider

SRC = Path(qvbench.__file__).parent
COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}

# Functions no traced run enters, as `module.qualname`, each with why it
# stays. A `tests/...::...` id names the test that enters it instead.
AGREEMENT = (
    "the paper's human-vs-LLM label agreement, library-only until a stage"
    " writes it; tests/test_judge.py::TestAgreementReport and c7 check it"
)
ALLOWED = {
    "judge.binarize": AGREEMENT,
    "judge._checked_pairs": AGREEMENT,
    "judge.mae": AGREEMENT,
    "judge.cohen_kappa": AGREEMENT,
    "judge.krippendorff_alpha": AGREEMENT,
    "judge.krippendorff_alpha.<locals>.delta_sq": AGREEMENT,
    "judge.agreement_report": AGREEMENT,
    "judge.paired_grades": AGREEMENT,
    "evalstats.metrics.ndcg_at_k": (
        "NDCG in one call: the tests' oracle for `ideal_dcg` plus `ndcg`, and the"
        " name perfbench/traced_stage.py wraps (tests/test_traced_names.py)"
    ),
    "core.Provider.complete": "a Protocol's stub; providers define their own",
    "core.GenerationError.__init__": (
        "a provider answer that never parses;"
        " tests/test_genkit.py::TestGenerateVariants::test_persistent_failure_carries_raw_responses"
    ),
    "evalstats.matrix._imbalance": (
        "an unbalanced ndcg.csv; tests/test_cli.py::test_imbalanced_ndcg_exits_4_with_its_message"
    ),
    "validate.osa_distance": (
        "a typo two edits from the nearest word, which the mock does not make;"
        " tests/test_validate.py::TestOsaDistance::test_matches_recursive_definition"
    ),
    "porter._ion_condition": (
        "step 4's -ion rule, for a word the toy corpus lacks;"
        " tests/test_textkit.py::test_porter_golden_pairs"
    ),
}


def functions() -> dict:
    """{(file, first line, qualname): name} of every function, method and
    lambda compiled from the package's sources; name is `module.qualname`."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while pending:
            code = pending.pop()
            pending += [c for c in code.co_consts if isinstance(c, CodeType)]
            # a function's frame has fast locals; a module's and a class body's do not
            if code.co_flags & CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
                found[str(path), code.co_firstlineno, code.co_qualname] = (
                    f"{module}.{code.co_qualname}"
                )
    return found


# argv: the directory to run in, the chat endpoint, the file to write
# the entered functions' [file, first line, qualname] to.
TRACE_SNIPPET = """
import json, sys, threading

entered = set()


def trace(frame, event, arg):
    entered.add(frame.f_code)  # no local trace function: calls only


threading.settrace(trace)
sys.settrace(trace)
from pathlib import Path

from qvbench.cli import STAGES, main
from qvbench.core import write_jsonl
from qvbench.toydata import write_toy_workspace

root, chat_url, result = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
config = str(write_toy_workspace(root / "toy"))
for _ in range(2):
    for stage in STAGES:
        assert main([stage, "--config", config]) == 0, stage
annotations = root / "ann.jsonl"
write_jsonl(
    [
        {"pair_id": "t01__persona_emily__1", "annotator_id": a, "task": "similarity",
         "seed_query": "q", "variant": "caf\\u00e9", "answer": "similar"}
        for a in ("a1", "a2")
    ],
    annotations,
)
assert main(["validate", "--config", config, "--annotations", str(annotations)]) == 0
http = ["--provider", "http", "--endpoint", chat_url, "--model", "m"]
config = str(write_toy_workspace(root / "http"))
assert main(["generate", "--config", config, "--methods", "neutral", *http]) == 0
sys.settrace(None)
threading.settrace(None)
keys = sorted({(c.co_filename, c.co_firstlineno, c.co_qualname) for c in entered})
result.write_text(json.dumps(keys), encoding="utf-8")
"""


def reply_from(mock: MockProvider):
    """The chat server's reply: the mock's answer to the prompt, after a 429
    for the first request and sent chunked for the second."""
    count = itertools.count()

    def reply(request):
        n = next(count)
        if n == 0:
            return 429, {"Retry-After": "0"}, b""
        content = mock.complete(json.loads(request.body)["messages"][0]["content"])
        if n > 1:
            return content
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        return 200, {"Transfer-Encoding": "chunked"}, chunked

    return reply


def where(key) -> str:
    path, line, qualname = key
    return f"{Path(path).relative_to(SRC.parent)}:{line} {qualname}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_every_function_is_entered_or_allowed(tmp_path, chat_server):
    chat_server.reply = reply_from(MockProvider(seed_material="1"))
    result = tmp_path / "entered.json"
    run = subprocess.run(
        [sys.executable, "-c", TRACE_SNIPPET, str(tmp_path), chat_server.url, str(result)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    entered = {tuple(key) for key in json.loads(result.read_text(encoding="utf-8"))}
    found = functions()
    unentered = [where(k) for k, name in found.items() if k not in entered and name not in ALLOWED]
    assert not unentered, "entered by no run, and not in ALLOWED:\n" + "\n".join(unentered)
    stale = [where(k) for k, name in found.items() if k in entered and name in ALLOWED]
    assert not stale, "in ALLOWED, yet entered:\n" + "\n".join(stale)
    assert sorted(set(ALLOWED) - set(found.values())) == []


def test_tests_named_in_allowed_exist():
    root = Path(__file__).resolve().parents[1]
    reasons = " ".join(ALLOWED.values())
    missing = []
    for name in sorted(set(re.findall(r"tests/\S+\.py(?:::\w+)*", reasons))):
        path, *chain = name.split("::")
        found = (root / path).is_file()
        scope = ast.parse((root / path).read_text(encoding="utf-8")).body if found else []
        for part in chain:
            scope = next((n.body for n in scope if getattr(n, "name", None) == part), None)
            found = scope is not None
            if not found:
                break
        if not found:
            missing.append(name)
    assert missing == []
