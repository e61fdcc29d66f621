"""Self-tests of the benchmark's own arithmetic, stub and output check."""

import math

import outcheck
import run
import spans as sp
from stub import ProviderStub

from qvbench.genkit import HttpProvider, MockProvider, ProviderConfig


def _tree():
    # stage [0, 10]
    #   a [1, 4]       b [3, 6] overlaps a (another thread)
    #     a1 [2, 3]
    #   c [8, 9]
    return [
        sp.Span(1, None, "stage", 0.0, 10.0),
        sp.Span(2, 1, "a", 1.0, 4.0),
        sp.Span(3, 2, "a1", 2.0, 3.0),
        sp.Span(4, 1, "b", 3.0, 6.0),
        sp.Span(5, 1, "c", 8.0, 9.0),
        sp.Span(6, None, "a", 20.0, 21.0),
    ]


def test_self_time_subtracts_union_of_children():
    own = sp.self_times(_tree())
    assert own[1] == 10.0 - 6.0  # children cover [1, 6] and [8, 9]
    assert own[2] == 3.0 - 1.0
    assert own[3] == 1.0
    assert sp.self_time(_tree(), "a") == 2.0 + 1.0
    assert sp.covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_outer_time_skips_nested_spans_of_the_same_layer():
    spans = [
        sp.Span(1, None, "read", 0.0, 4.0),
        sp.Span(2, 1, "other", 1.0, 3.0),
        sp.Span(3, 2, "read", 1.5, 2.5),
        sp.Span(4, None, "read", 5.0, 6.0),
    ]
    assert sp.outer_time(spans, {"read"}) == 5.0
    assert sp.total_time(spans, "read") == 6.0
    assert sp.calls(spans, "read") == 3


def test_peak_overlap_counts_concurrent_spans_only():
    assert sp.peak_overlap(_tree(), "a") == 1
    spans = [sp.Span(i, None, "x", s, e) for i, (s, e) in enumerate([(0, 2), (1, 3), (2, 4), (1.5, 1.6)])]
    assert sp.peak_overlap(spans, "x") == 3


def test_tracer_records_parent_and_errors():
    tracer = sp.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")

    def fail():
        raise ValueError("no")

    outer = tracer.wrap(lambda: inner(1), "outer")
    failing = tracer.wrap(fail, "fail")
    assert outer() == 2
    try:
        failing()
    except ValueError:
        pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert tracer.counts["fail.errors"] == 1


def test_stub_round_trip_equals_mock_provider():
    mock = MockProvider(seed_material="7")
    prompts = [
        "Seed query: cheap flights to bangkok\nWrite a backstory for this need.",
        "Backstory: you want to fly.\nPassage: Cheap flights leave daily.\nAnswer with a single integer.",
    ]
    with ProviderStub(MockProvider(seed_material="7"), service_s=0.0) as stub:
        client = HttpProvider(ProviderConfig(endpoint=stub.url, model_name="stub", api_key=""))
        answers = [client.complete(p) for p in prompts]
        counts = stub.counts()
    assert answers == [mock.complete(p) for p in prompts]
    assert counts["requests"] == 2
    assert counts["connections"] == 2
    assert counts["concurrency_peak"] == 1


RUN = (
    "t01 Q0 p007 1 12.82824131391662 bm25\n"
    "t01 Q0 p003 2 11.536923698794599 bm25\n"
    "t01 Q0 p001 3 9.0 bm25\n"
)


def test_output_check_accepts_last_ulp_float_change():
    ref = outcheck.sketch_text(RUN.encode())
    nudged = math.nextafter(12.82824131391662, math.inf)
    cur = outcheck.sketch_text(RUN.replace("12.82824131391662", repr(nudged)).encode())
    assert outcheck.compare_one(ref, cur) == "equivalent"
    assert outcheck.compare_one(ref, outcheck.sketch_text(RUN.encode())) == "identical"


def test_output_check_rejects_swapped_rank_and_changed_score():
    ref = outcheck.sketch_text(RUN.encode())
    swapped = RUN.replace("p007 1", "pXXX 1").replace("p003 2", "p007 2").replace("pXXX 1", "p003 1")
    assert outcheck.compare_one(ref, outcheck.sketch_text(swapped.encode())) == "different"
    changed = RUN.replace("9.0 bm25", "9.0001 bm25")
    assert outcheck.compare_one(ref, outcheck.sketch_text(changed.encode())) == "different"


def test_output_check_reports_missing_and_extra_artifacts():
    status = outcheck.compare({"a": outcheck.sketch_text(b"x")}, {"b": outcheck.sketch_text(b"x")})
    assert status == {"a": "missing", "b": "extra"}
    assert outcheck.stage_of("runs/bm25_k12_b075.run") == "search"
    assert outcheck.stage_of("runs/fixture_a.run") == "import-runs"
    assert outcheck.stage_of("anova.csv") == "analyze"


def test_end_to_end_scales_times_but_not_counts_or_memory():
    samples = {
        "judge": [run.StageRun("judge", 1.0, 0.8, 60.0, 0, provider_calls=5),
                  run.StageRun("judge", 2.0, 1.0, 62.0, 0, provider_calls=5)],
        "report": [run.StageRun("report", 0.5, 0.4, 50.0, 0)],
    }
    plain = run.end_to_end(samples, setup_s=3.0, scale=1.0)
    assert plain["judge_s"] == 1.5  # the mean of the samples
    assert plain["pipeline_s"] == 2.0
    scaled = run.end_to_end(samples, setup_s=3.0, scale=0.5)
    for name in ("setup_s", "pipeline_s", "pipeline_cpu_s", "judge_s", "report_s"):
        assert scaled[name] == plain[name] * 0.5
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"] == 61.0
    assert scaled["provider_calls"] == plain["provider_calls"] == 5
