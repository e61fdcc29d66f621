"""Counts provider completions in an untraced stage process.

The interpreter imports this module at start-up when this directory is
on PYTHONPATH. If PERFBENCH_CALLS_FILE is set, `MockProvider.complete`
and `HttpProvider.complete` gain a call counter as soon as
`qvbench.genkit` is imported (so the package's import order is left as
it is), and the count is written to that file at exit. Nothing is timed.
"""

import atexit
import os
import sys
from importlib.machinery import PathFinder


def _install(path: str) -> None:
    calls = [0]

    def count(genkit) -> None:
        for cls in (genkit.MockProvider, genkit.HttpProvider):
            def complete(self, prompt, _original=cls.complete):
                calls[0] += 1
                return _original(self, prompt)

            cls.complete = complete

    class GenkitHook:
        def find_spec(self, name, path=None, target=None):
            if name != "qvbench.genkit":
                return None
            sys.meta_path.remove(self)
            spec = PathFinder.find_spec(name, path)
            load = spec.loader.exec_module

            def exec_module(module):
                load(module)
                count(module)

            spec.loader.exec_module = exec_module
            return spec

    def write() -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{calls[0]}\n")

    sys.meta_path.insert(0, GenkitHook())
    atexit.register(write)


if os.environ.get("PERFBENCH_CALLS_FILE"):
    _install(os.environ["PERFBENCH_CALLS_FILE"])
