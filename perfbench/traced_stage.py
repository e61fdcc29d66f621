"""Run one qvbench stage with a span around each layer's public functions.

Usage: python3 perfbench/traced_stage.py SPANS_JSON STAGE [qvbench flags...]

It imports `qvbench.cli` (timed as the import), replaces every reference
inside the package to the functions listed in `install` with a wrapper
that records a span, calls `qvbench.cli.main`, and writes the spans and
counts to SPANS_JSON when the stage returns. The exit code is the
stage's. Nothing in the package itself is edited.
"""

import importlib
import json
import sys
import time

from spans import Tracer

CORE_READERS = (
    "parse_topics",
    "parse_passages",
    "parse_qrels",
    "parse_trec_run",
    "read_variants",
    "read_annotations",
    "read_jsonl",
)
WRITER_MODULES = ("core", "judge", "textkit", "validate")

# (module, function, span name)
LAYER_FUNCTIONS = (
    ("retrieval", "index_tokens", "textkit.tokenize_stem"),
    ("retrieval", "build_index", "retrieval.build_index"),
    ("retrieval", "search", "retrieval.search"),
    ("textkit", "variant_features", "textkit.variant_features"),
    ("validate", "validate_variants", "validate.validate_variants"),
    ("genkit", "generate_sweep", "genkit.generate_sweep"),
    ("genkit", "parse_variant_response", "genkit.parse_variants"),
    ("judge", "_parse_grade", "judge.parse_grade"),
    ("judge", "load_label_template", "judge.load_label_template"),
    ("judge", "coverage", "judge.coverage"),
    ("judge", "merge_qrels", "judge.merge"),
    ("evalstats.metrics", "ndcg_at_k", "metrics.ndcg"),
    ("evalstats.metrics", "kendall_tau", "metrics.kendall_tau"),
    ("evalstats.anova", "anova", "anova.anova"),
    ("evalstats.anova", "marginal_means", "anova.marginal_means"),
    ("evalstats.agreement", "system_verdicts", "agreement.system_verdicts"),
    ("evalstats.tukey", "studentized_range_quantile", "tukey.quantile"),
    ("evalstats.tukey", "studentized_range_cdf", "tukey.cdf"),
)


def _module(name: str):
    return importlib.import_module(f"qvbench.{name}")


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind every package-level reference."""
    replacements = {}

    def wrap(module, attr, name, on_result=None, wrapper=None):
        original = getattr(module, attr)
        replacements[id(original)] = wrapper or tracer.wrap(original, name, on_result)

    core = _module("core")
    for attr in CORE_READERS:
        wrap(core, attr, f"core.{attr}",
             on_result=lambda rows: tracer.count("core.records_parsed", len(rows)))
    for mod_name in WRITER_MODULES:
        module = _module(mod_name)
        for attr, value in vars(module).items():
            if attr.startswith("write_") and getattr(value, "__module__", None) == module.__name__:
                wrap(module, attr, f"write.{attr}")
    for mod_name, attr, name in LAYER_FUNCTIONS:
        wrap(_module(mod_name), attr, name)

    judge = _module("judge")
    traced_label = tracer.wrap(judge.label, "judge.label")

    def label(provider, topic, passage, store, *args, **kwargs):
        hit = store.get(topic.topic_id, passage.passage_id) is not None
        tracer.count("judge.cache_hits" if hit else "judge.cache_misses")
        return traced_label(provider, topic, passage, store, *args, **kwargs)

    wrap(judge, "label", "judge.label", wrapper=label)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qvbench" or name.startswith("qvbench.")):
            continue
        for attr, value in list(vars(module).items()):
            replacement = replacements.get(id(value))
            if replacement is not None:
                setattr(module, attr, replacement)

    genkit = _module("genkit")
    genkit.MockProvider.complete = tracer.wrap(genkit.MockProvider.complete, "genkit.mock.complete")
    genkit.HttpProvider.complete = tracer.wrap(genkit.HttpProvider.complete, "genkit.http.complete")
    store = judge.LabelStore
    store.load = classmethod(tracer.wrap(store.load.__func__, "judge.store_load"))
    store.save = tracer.wrap(store.save, "judge.store_save")


def main(argv) -> int:
    out_path, stage_args = argv[0], argv[1:]
    start = time.perf_counter()
    import qvbench.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    stage = stage_args[0]
    code = tracer.wrap(cli.main, f"cli.{stage}")(stage_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"stage": stage, "import_s": import_s, "counts": tracer.counts, "spans": tracer.spans},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
