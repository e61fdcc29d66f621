"""Prompt assembly, response parsing, providers, and sweep behavior."""

import hashlib
import json
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qvbench.genkit as genkit
from qvbench.core import ParseError, Passage, Profile, QueryVariant, RunRecord, Topic, ValidationError
from qvbench.genkit import (
    GenerationError,
    HttpProvider,
    MockProvider,
    ProviderConfig,
    TransportError,
    build_neutral_prompt,
    build_prompt,
    generate_backstory,
    generate_backstories,
    generate_sweep,
    generate_variants,
    load_profiles,
    parse_variant_response,
    run_in_order,
)
from qvbench.judge import (
    LabelStore,
    build_label_prompt,
    label_topk,
    load_label_template,
    pool_topk,
)
from qvbench.validate import load_dictionary, validate_misspelling, validate_order

TOPIC = Topic("t1", "asthma symptoms in children")
EMILY = Profile("persona_emily", "persona", "Emily", "Emily is an 8-year-old child.")
ORDER = Profile("textual_order", "textual", "Order", "Shuffle the words.")
MISSPELLING = Profile("textual_misspelling", "textual", "Misspelling", "Introduce typos.")
NEUTRAL = Profile("neutral", "neutral", "Neutral", "")


class ScriptedProvider:
    """Replays canned responses; repeats the last one when exhausted."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return self.responses[min(self.calls - 1, len(self.responses) - 1)]


PARTS = "[part 1]\nx\n[part 2]\ny\n[part 3a]\nz\n[part 3b]\nw\n"


class TestPromptTemplate:
    def test_default_template_has_all_parts(self):
        parts = genkit._variant_parts()
        assert list(parts) == ["1", "2", "3a", "3b"]
        assert all(text and text == text.strip() for text in parts.values())

    def test_build_prompt_fills_slots(self):
        prompt = build_prompt(TOPIC, EMILY)
        assert TOPIC.seed_query in prompt
        assert EMILY.description in prompt
        assert EMILY.name in prompt
        assert "3" in prompt
        assert "JSON array" in prompt

    def test_neutral_prompt_has_no_profile_text(self):
        prompt = build_neutral_prompt(TOPIC)
        assert TOPIC.seed_query in prompt
        assert "profile" not in prompt.lower()
        assert "JSON array" in prompt

    def test_neutral_profile_rejected_by_build_prompt(self):
        with pytest.raises(ValidationError):
            build_prompt(TOPIC, NEUTRAL)

    def test_empty_description_rejected(self):
        hollow = Profile("p", "persona", "Hollow", "")
        with pytest.raises(ValidationError):
            build_prompt(TOPIC, hollow)

    def test_text_before_first_marker_rejected(self):
        with pytest.raises(ParseError, match="before the first"):
            genkit._parse_parts("stray text\n" + PARTS)

    def test_duplicate_marker_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            genkit._parse_parts(PARTS + "[part 1]\nv\n")

    def test_unknown_marker_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            genkit._parse_parts(PARTS + "[part 4]\nv\n")

    def test_missing_part_rejected(self):
        with pytest.raises(ParseError, match="missing or empty: 3b"):
            genkit._parse_parts(PARTS.replace("[part 3b]\nw\n", ""))
        with pytest.raises(ParseError, match="missing or empty: 2"):
            genkit._parse_parts(PARTS.replace("\ny\n", "\n \n"))

    def test_literal_braces_survive_substitution(self):
        text = 'Like {"not": "a placeholder"}, exactly {n_variants} for {seed_query}.'
        assert genkit._substitute(text, {"seed_query": "q", "n_variants": 3}) == (
            'Like {"not": "a placeholder"}, exactly 3 for q.'
        )


class TestResponseParsing:
    def test_json_array(self):
        assert parse_variant_response('["a", "b", "c"]') == ["a", "b", "c"]

    def test_json_embedded_in_prose(self):
        text = 'Sure! Here you go:\n["one", "two", "three"]\nHope that helps.'
        assert parse_variant_response(text) == ["one", "two", "three"]

    def test_numbered_list_fallback(self):
        text = "1. first query\n2) second query\n3: third query"
        assert parse_variant_response(text) == ["first query", "second query", "third query"]

    def test_numbered_list_strips_quotes(self):
        text = '1. "quoted one"\n2. "quoted two"\n3. "quoted three"'
        assert parse_variant_response(text) == ["quoted one", "quoted two", "quoted three"]

    def test_wrong_count_rejected(self):
        with pytest.raises(ParseError):
            parse_variant_response('["a", "b"]')
        with pytest.raises(ParseError):
            parse_variant_response('["a", "b", "c", "d"]')

    def test_non_string_items_rejected(self):
        with pytest.raises(ParseError):
            parse_variant_response("[1, 2, 3]")

    def test_blank_item_rejected(self):
        with pytest.raises(ParseError):
            parse_variant_response('["a", " ", "c"]')

    def test_prose_without_structure_rejected(self):
        with pytest.raises(ParseError):
            parse_variant_response("I could not think of any queries today.")


class TestGenerateVariants:
    def test_retries_then_succeeds(self):
        provider = ScriptedProvider(["garbage", "also garbage", '["a", "b", "c"]'])
        logs = []
        variants = generate_variants(provider, TOPIC, EMILY, logs=logs)
        assert [v.text for v in variants] == ["a", "b", "c"]
        assert [v.index for v in variants] == [1, 2, 3]
        assert provider.calls == 3
        assert len(logs) == 1
        assert logs[0].attempts == 3
        assert logs[0].parsed == ("a", "b", "c")

    def test_persistent_failure_carries_raw_responses(self):
        provider = ScriptedProvider(['["only", "two"]'])
        with pytest.raises(GenerationError) as excinfo:
            generate_variants(provider, TOPIC, EMILY)
        assert provider.calls == 4
        assert len(excinfo.value.raw_responses) == 4
        assert excinfo.value.raw_responses[0] == '["only", "two"]'

    def test_neutral_profile_uses_neutral_prompt(self):
        seen = {}

        class Capture:
            def complete(self, prompt):
                seen["prompt"] = prompt
                return '["x", "y", "z"]'

        generate_variants(Capture(), TOPIC, NEUTRAL)
        assert "profile" not in seen["prompt"].lower()


class TestMockProvider:
    def test_same_prompt_same_bytes(self):
        mock = MockProvider(seed_material="s1")
        prompt = build_prompt(TOPIC, EMILY)
        assert mock.complete(prompt) == mock.complete(prompt)
        assert MockProvider(seed_material="s1").complete(prompt) == mock.complete(prompt)

    def test_seed_material_changes_output(self):
        prompt = build_prompt(TOPIC, EMILY)
        a = MockProvider(seed_material="s1").complete(prompt)
        b = MockProvider(seed_material="s2").complete(prompt)
        assert a != b

    def test_emits_parseable_json(self):
        raw = MockProvider().complete(build_prompt(TOPIC, EMILY))
        items = json.loads(raw)
        assert isinstance(items, list) and len(items) == 3
        assert all(isinstance(s, str) and s for s in items)

    def test_order_variants_pass_validator(self):
        mock = MockProvider(seed_material="order-check")
        for seed in ("asthma symptoms in children", "best travel guide bangkok", "blue red green"):
            topic = Topic("t", seed)
            for v in generate_variants(mock, topic, ORDER):
                assert validate_order(seed, v.text), v.text

    def test_misspelling_variants_pass_validator(self):
        mock = MockProvider(seed_material="typo-check")
        dictionary = load_dictionary()
        for seed in ("asthma symptoms in children", "best chocolate cake recipe", "climate change causes"):
            topic = Topic("t", seed)
            for v in generate_variants(mock, topic, MISSPELLING):
                assert validate_misspelling(seed, v.text, dictionary), v.text

    def test_backstory_mentions_seed_and_respects_cap(self):
        mock = MockProvider(seed_material="bs")
        story = generate_backstory(mock, TOPIC)
        assert TOPIC.seed_query in story
        assert len(story.split()) <= 120
        assert generate_backstory(mock, TOPIC) == story

    def test_prompt_without_seed_marker_rejected(self):
        with pytest.raises(ValidationError):
            MockProvider().complete("tell me a joke")

    def test_grades_are_the_weighted_draw(self):
        """A label prompt's grade is `choices` with the 35/25/22/18 weights
        from a Random seeded by the prompt's digest."""
        template = load_label_template()
        prompts = [
            build_label_prompt(f"Backstory {b}.", f"passage text {p}", template)
            for b in range(4)
            for p in range(50)
        ]
        grades = []
        for seed in ("", "1", "j"):
            mock = MockProvider(seed_material=seed)
            for prompt in prompts:
                digest = hashlib.sha256((seed + "\x00" + prompt).encode("utf-8")).digest()
                draw = random.Random(digest).choices((0, 1, 2, 3), weights=(35, 25, 22, 18))
                grades.append(mock.complete(prompt))
                assert grades[-1] == str(draw[0])
        assert set(grades) == {"0", "1", "2", "3"}
        assert mock._dictionary is None  # labelling loads no spelling dictionary


# The mock's label-prompt test as it was, kept as the oracle for
# `genkit._is_label_prompt`: "integer" in the lowered prompt, and a line
# found by the capturing pattern it first searched for, or by the
# presence-only pattern that replaced it.
_PASSAGE_FIELD = re.compile(r"^Passage:\s*(.+?)\s*$", re.MULTILINE)
_PASSAGE_LINE = re.compile(r"^Passage:\s*.", re.MULTILINE)


def _passage_line_agrees(prompt):
    for text in (prompt, "integer\n" + prompt):  # a line start stays one
        has_integer = "integer" in text.lower()
        field = has_integer and genkit._prompt_field(text, _PASSAGE_FIELD) is not None
        line = has_integer and _PASSAGE_LINE.search(text) is not None
        if not genkit._is_label_prompt(text) == field == line:
            return False
    return True


@pytest.mark.parametrize(
    "prompt",
    ["Passage: x", "Passage:", "a\nPassage:\n", "Passage:   ", "Passage:\n\nx", " Passage: x",
     "Passage:\t\r\n", "x\nPassage:\ty\n", "Passage: x\nINTEGER", "Passage: x\nİnteger"],
)
def test_passage_line_matches_where_the_field_pattern_did(prompt):
    assert _passage_line_agrees(prompt)


@given(
    st.lists(
        st.sampled_from(
            ["Passage:", "Passage", " ", "\t", "\n", "\r", "x", "integer", "INTEGER", "İnteger"]
        ),
        max_size=8,
    )
)
def test_passage_line_agrees_on_generated_prompts(pieces):
    assert _passage_line_agrees("".join(pieces))


class TestBackstories:
    def test_truncation_at_word_cap(self):
        provider = ScriptedProvider([" ".join(f"w{i}" for i in range(200))])
        story = generate_backstory(provider, TOPIC)
        assert len(story.split()) == 120
        assert story.split()[-1] == "w119"

    def test_empty_responses_exhaust_retries(self):
        provider = ScriptedProvider(["", "   \n", ""])
        with pytest.raises(GenerationError) as excinfo:
            generate_backstory(provider, TOPIC)
        assert len(excinfo.value.raw_responses) == 4

    def test_existing_backstories_pass_through(self):
        done = Topic("t1", "q one", backstory="already written")
        todo = Topic("t2", "q two")
        out = generate_backstories(MockProvider(), [done, todo])
        assert out[0].backstory == "already written"
        assert out[1].backstory and "q two" in out[1].backstory


class TestSweep:
    TOPICS = [Topic("t1", "asthma symptoms in children"), Topic("t2", "best travel guide bangkok")]
    PROFILES = [EMILY, ORDER, NEUTRAL]

    def test_full_coverage_in_stable_order(self):
        variants = generate_sweep(MockProvider(), self.TOPICS, self.PROFILES)
        assert len(variants) == 2 * 3 * 3
        keys = [(v.topic_id, v.profile_id, v.index) for v in variants]
        expected = [
            (t.topic_id, p.profile_id, i)
            for t in self.TOPICS
            for p in self.PROFILES
            for i in (1, 2, 3)
        ]
        assert keys == expected

    def test_bit_reproducible(self):
        a = generate_sweep(MockProvider(seed_material="m"), self.TOPICS, self.PROFILES)
        b = generate_sweep(MockProvider(seed_material="m"), self.TOPICS, self.PROFILES)
        assert a == b

    def test_resume_keeps_complete_pairs_untouched(self):
        existing = [
            QueryVariant("t1", "persona_emily", 1, "kept one"),
            QueryVariant("t1", "persona_emily", 2, "kept two"),
            QueryVariant("t1", "persona_emily", 3, "kept three"),
        ]
        calls = []

        class Counting(MockProvider):
            def complete(self, prompt):
                calls.append(prompt)
                return super().complete(prompt)

        variants = generate_sweep(Counting(), self.TOPICS, self.PROFILES, existing=existing)
        assert len(variants) == 18
        kept = [v for v in variants if v.topic_id == "t1" and v.profile_id == "persona_emily"]
        assert [v.text for v in kept] == ["kept one", "kept two", "kept three"]
        assert len(calls) == 5  # six pairs minus the completed one

    def test_partial_pair_regenerated_whole(self):
        existing = [QueryVariant("t1", "persona_emily", 1, "half done")]
        variants = generate_sweep(MockProvider(), self.TOPICS, self.PROFILES, existing=existing)
        regenerated = [v for v in variants if v.topic_id == "t1" and v.profile_id == "persona_emily"]
        assert len(regenerated) == 3
        assert all(v.text != "half done" for v in regenerated)

    @pytest.mark.parametrize("indices", [(1, 1, 3), (2, 3, 3)])
    def test_pair_with_duplicate_index_regenerated_whole(self, indices):
        existing = [QueryVariant("t1", "persona_emily", i, "stored") for i in indices]
        variants = generate_sweep(MockProvider(), self.TOPICS, self.PROFILES, existing=existing)
        regenerated = [v for v in variants if v.topic_id == "t1" and v.profile_id == "persona_emily"]
        assert [v.index for v in regenerated] == [1, 2, 3]
        assert all(v.text != "stored" for v in regenerated)

    def test_reuses_a_shuffled_stored_pair_in_index_order(self):
        existing = [
            QueryVariant("t1", "persona_emily", 3, "three"),
            QueryVariant("t2", "textual_order", 2, "other pair"),
            QueryVariant("t1", "persona_emily", 1, "one"),
            QueryVariant("t1", "persona_emily", 2, "two"),
        ]
        variants = generate_sweep(MockProvider(), self.TOPICS, self.PROFILES, existing=existing)
        kept = [v for v in variants if v.topic_id == "t1" and v.profile_id == "persona_emily"]
        assert [(v.index, v.text) for v in kept] == [(1, "one"), (2, "two"), (3, "three")]

    def test_returns_exactly_the_grid_over_random_stored_sets(self):
        """Whatever the stored set holds (missing, duplicate or out-of-range
        indices, foreign topics and profiles), the sweep returns exactly
        topics x profiles x 1..3, in order, and keeps a pair's stored
        texts only when its indices are exactly 1..3."""
        rng = random.Random(24)
        grid = [
            (t.topic_id, p.profile_id, i)
            for t in self.TOPICS
            for p in self.PROFILES
            for i in (1, 2, 3)
        ]
        topic_ids = [t.topic_id for t in self.TOPICS] + ["t_foreign"]
        profile_ids = [p.profile_id for p in self.PROFILES] + ["p_foreign"]
        for trial in range(30):
            stored = {}
            for pair in ((t, p) for t in topic_ids for p in profile_ids):
                if rng.random() < 0.5:
                    stored[pair] = rng.sample([1, 2, 3], 3)
                else:
                    stored[pair] = [rng.randint(0, 4) for _ in range(rng.randint(0, 4))]
            # built as plain tuples: QueryVariant itself rejects indices outside 1..3
            existing = [
                tuple.__new__(QueryVariant, (t, p, i, f"stored#{trial}#{i}"))
                for (t, p), indices in stored.items()
                for i in indices
            ]
            rng.shuffle(existing)
            variants = generate_sweep(MockProvider(), self.TOPICS, self.PROFILES, existing=existing)
            assert [(v.topic_id, v.profile_id, v.index) for v in variants] == grid
            for v in variants:
                kept = sorted(stored[(v.topic_id, v.profile_id)]) == [1, 2, 3]
                assert (v.text == f"stored#{trial}#{v.index}") == kept, (trial, v)

    def test_logs_cover_generated_pairs(self):
        logs = []
        generate_sweep(MockProvider(), self.TOPICS, self.PROFILES, logs=logs)
        assert len(logs) == 6
        assert {(entry.topic_id, entry.profile_id) for entry in logs} == {
            (t.topic_id, p.profile_id) for t in self.TOPICS for p in self.PROFILES
        }


class TestProviderConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("QVBENCH_API_KEY", raising=False)
        config = ProviderConfig(endpoint="https://api.example/v1/chat", model_name="m")
        assert config.api_key is None

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("QVBENCH_API_KEY", "sk-test")
        config = ProviderConfig(endpoint="https://api.example", model_name="m")
        assert config.api_key == "sk-test"

    def test_explicit_key_wins(self, monkeypatch):
        monkeypatch.setenv("QVBENCH_API_KEY", "sk-env")
        config = ProviderConfig(endpoint="e", model_name="m", api_key="sk-given")
        assert config.api_key == "sk-given"

    def test_make_and_replace_read_the_environment(self, monkeypatch):
        monkeypatch.setenv("QVBENCH_API_KEY", "sk-env")
        config = ProviderConfig("e", "m", "sk-given")
        assert config._replace(api_key=None) == ("e", "m", "sk-env")
        assert ProviderConfig._make(["e", "m", None]) == ("e", "m", "sk-env")


class TestHttpProvider:
    @staticmethod
    def provider(url):
        return HttpProvider(ProviderConfig(endpoint=url, model_name="test-model", api_key="sk-1"))

    def test_success_path_and_payload(self, chat_server):
        chat_server.reply = lambda request: "hello"
        assert self.provider(chat_server.url).complete("prompt text") == "hello"
        (request,) = chat_server.seen
        assert request.path == "/v1/chat/completions"
        assert request.headers["Authorization"] == "Bearer sk-1"
        assert request.headers["Content-Type"] == "application/json"
        assert json.loads(request.body) == {
            "model": "test-model",
            "temperature": 1.0,
            "messages": [{"role": "user", "content": "prompt text"}],
        }

    def test_http_error_status(self, chat_server):
        chat_server.reply = lambda request: (401, {}, b"denied: bad key")
        with pytest.raises(TransportError, match="provider returned HTTP 401: denied: bad key"):
            self.provider(chat_server.url).complete("p")
        assert len(chat_server.seen) == 1

    def test_connection_failure(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        url = f"http://127.0.0.1:{port}/v1/chat/completions"
        with pytest.raises(TransportError, match=f"request to {url} failed"):
            self.provider(url).complete("p")

    def test_malformed_body(self, chat_server):
        for body in (b"not json", b'{"unexpected": true}', b'{"choices": []}'):
            chat_server.reply = lambda request: (200, {}, body)
            with pytest.raises(TransportError, match="malformed provider response"):
                self.provider(chat_server.url).complete("p")

    def test_non_string_content(self, chat_server):
        chat_server.reply = lambda request: 5
        with pytest.raises(TransportError, match="provider message content is not text"):
            self.provider(chat_server.url).complete("p")


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(genkit.time, "sleep", slept.append)
    return slept


class TestHttpBackoff:
    @staticmethod
    def script(server, answers):
        """Answer the n-th request with answers[n], the last one thereafter."""
        server.reply = lambda request: answers[min(len(server.seen), len(answers)) - 1]

    def test_5xx_retried_with_jittered_backoff(self, chat_server, sleeps):
        date = {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}
        self.script(chat_server, [(503, date, b""), (500, {}, b""), "fine"])
        assert TestHttpProvider.provider(chat_server.url).complete("p") == "fine"
        assert len(chat_server.seen) == 3
        assert len(sleeps) == 2
        assert 0 <= sleeps[0] <= genkit._BACKOFF_BASE_S
        assert 0 <= sleeps[1] <= 2 * genkit._BACKOFF_BASE_S

    def test_retry_after_seconds_honoured_and_capped(self, chat_server, sleeps):
        self.script(
            chat_server,
            [(429, {"Retry-After": "7"}, b""), (429, {"Retry-After": "100000"}, b""), "fine"],
        )
        assert TestHttpProvider.provider(chat_server.url).complete("p") == "fine"
        assert sleeps == [7.0, genkit._BACKOFF_CAP_S]

    def test_gives_up_after_three_retries(self, chat_server, sleeps):
        self.script(chat_server, [(502, {}, b"busy")])
        with pytest.raises(TransportError, match="provider returned HTTP 502: busy"):
            TestHttpProvider.provider(chat_server.url).complete("p")
        assert len(chat_server.seen) == 4
        assert len(sleeps) == 3
        for retry, delay in enumerate(sleeps):
            assert 0 <= delay <= genkit._BACKOFF_BASE_S * 2**retry

    def test_timeout_retried_with_backoff(self, chat_server, sleeps, monkeypatch):
        def reply(request):
            if len(chat_server.seen) == 1:
                threading.Event().wait(0.5)  # time.sleep is patched out
            return "fine"

        chat_server.reply = reply
        monkeypatch.setattr(genkit, "_TIMEOUT_S", 0.1)
        config = ProviderConfig(endpoint=chat_server.url, model_name="m")
        assert HttpProvider(config).complete("p") == "fine"
        assert len(chat_server.seen) == 2
        assert len(sleeps) == 1
        assert 0 <= sleeps[0] <= genkit._BACKOFF_BASE_S

    def test_timeouts_share_the_retry_budget(self, chat_server, sleeps, monkeypatch):
        chat_server.reply = lambda request: threading.Event().wait(0.3) and "late"
        monkeypatch.setattr(genkit, "_TIMEOUT_S", 0.1)
        config = ProviderConfig(endpoint=chat_server.url, model_name="m")
        with pytest.raises(TransportError, match="timed out"):
            HttpProvider(config).complete("p")
        assert len(chat_server.seen) == 4
        assert len(sleeps) == 3

    def test_connection_refused_not_retried(self, sleeps):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(TransportError, match="failed"):
            TestHttpProvider.provider(f"http://127.0.0.1:{port}/v1").complete("p")
        assert sleeps == []

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_other_4xx_not_retried(self, chat_server, sleeps, status):
        self.script(chat_server, [(status, {"Retry-After": "1"}, b"no")])
        with pytest.raises(TransportError, match=f"HTTP {status}: no"):
            TestHttpProvider.provider(chat_server.url).complete("p")
        assert len(chat_server.seen) == 1
        assert sleeps == []



def _chat_body(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


class CannedServer:
    """Localhost server that answers the n-th connection with
    ``answers[n]``, the last one thereafter: a list of byte pieces sent
    one send at a time, 5 ms apart, before the connection is closed.
    Every request read, head and body, is kept in ``seen``. With a
    server-side SSLContext it speaks TLS."""

    def __init__(self, answers, tls=None):
        self.answers = answers
        self.tls = tls
        self.seen = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.02)
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self.listener.getsockname()[1]}/v1/chat/completions"
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(5)
            try:
                if self.tls is not None:
                    conn = self.tls.wrap_socket(conn, server_side=True)
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(4096)
                head = request.partition(b"\r\n\r\n")[0].decode("latin-1")
                length = int(re.search(r"Content-Length: (\d+)", head)[1])
                while len(request) - len(head) - 4 < length:
                    request += conn.recv(4096)
                self.seen.append(request)
                for piece in self.answers[min(len(self.seen), len(self.answers)) - 1]:
                    conn.sendall(piece)
                    self.stop.wait(0.005)  # time.sleep may be patched out
            except OSError:
                pass  # a client that gave up, or failed the TLS handshake
            finally:
                conn.close()

    def close(self):
        self.stop.set()
        self.thread.join(timeout=10)
        self.listener.close()


@pytest.fixture
def canned():
    """canned(*answers, tls=None) starts a CannedServer; all are closed
    after the test."""
    servers = []

    def start(*answers, tls=None):
        servers.append(CannedServer(list(answers), tls))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def _ok(body: bytes) -> list:
    return [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body), body]


class TestHttpFraming:
    def test_request_head_and_chunked_body_split_across_sends(self, canned):
        body = _chat_body("hello")
        server = canned(
            [
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                b"a;name=value\r\n" + body[:5],
                body[5:10] + b"\r\n%x\r\n" % (len(body) - 10),
                body[10:] + b"\r\n0\r\n",
                b"Trailer-Field: x\r\n\r\n",
            ]
        )
        assert TestHttpProvider.provider(server.url).complete("prompt text") == "hello"
        (request,) = server.seen
        head, _, data = request.partition(b"\r\n\r\n")
        port = server.url.split(":")[2].split("/")[0]
        assert head.split(b"\r\n") == [
            b"POST /v1/chat/completions HTTP/1.1",
            b"Host: 127.0.0.1:" + port.encode(),
            b"Content-Type: application/json",
            b"Authorization: Bearer sk-1",
            b"User-Agent: qvbench",
            b"Accept-Encoding: identity",
            b"Connection: close",
            b"Content-Length: %d" % len(data),
        ]
        assert json.loads(data)["messages"] == [{"role": "user", "content": "prompt text"}]

    def test_interim_100_continue_skipped(self, canned):
        server = canned([b"HTTP/1.1 100 Continue\r\n\r\n", *_ok(_chat_body("after"))])
        assert TestHttpProvider.provider(server.url).complete("p") == "after"

    def test_body_without_content_length_runs_to_the_close(self, canned):
        server = canned([b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n", _chat_body("all")])
        assert TestHttpProvider.provider(server.url).complete("p") == "all"

    def test_short_body_fails_unretried(self, canned, sleeps):
        body = _chat_body("cut")
        server = canned([b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (len(body) + 1), body])
        with pytest.raises(TransportError, match=f"ended after {len(body)} of {len(body) + 1} bytes"):
            TestHttpProvider.provider(server.url).complete("p")
        assert len(server.seen) == 1
        assert sleeps == []

    def test_lower_case_retry_after_honoured(self, canned, sleeps):
        server = canned(
            [b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 7\r\ncontent-length: 0\r\n\r\n"],
            _ok(_chat_body("fine")),
        )
        assert TestHttpProvider.provider(server.url).complete("p") == "fine"
        assert len(server.seen) == 2
        assert sleeps == [7.0]

    @pytest.mark.parametrize(
        "answer, message",
        [
            ([b"ICY 200 OK\r\n\r\n", _chat_body("x")], "bad status line b'ICY 200 OK'"),
            ([b"HTTP/1.1 200 OK\r\nContent-Le"], "connection closed before the response headers ended"),
        ],
    )
    def test_malformed_response_fails_unretried(self, canned, sleeps, answer, message):
        server = canned(answer)
        with pytest.raises(TransportError, match=re.escape(f"request to {server.url} failed: {message}")):
            TestHttpProvider.provider(server.url).complete("p")
        assert len(server.seen) == 1
        assert sleeps == []


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A self-signed certificate for IP 127.0.0.1 and its key, made by
    the openssl command line."""
    if shutil.which("openssl") is None:
        pytest.skip("no openssl command to make a certificate with")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "2",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True,
        capture_output=True,
        timeout=60,
    )
    return cert, key


class TestHttps:
    @staticmethod
    def tls_server(canned, certificate):
        import ssl

        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(*certificate)
        return canned(_ok(_chat_body("secret")), tls=context)

    def test_untrusted_certificate_fails_unretried(self, canned, certificate, sleeps, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        server = self.tls_server(canned, certificate)
        with pytest.raises(TransportError, match="certificate verify failed"):
            TestHttpProvider.provider(server.url).complete("p")
        assert server.seen == []
        assert sleeps == []

    def test_trusted_certificate_answers_as_http(self, canned, certificate, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(certificate[0]))
        server = self.tls_server(canned, certificate)
        plain = canned(_ok(_chat_body("secret")))
        answers = [TestHttpProvider.provider(s.url).complete("p") for s in (server, plain)]
        assert answers == ["secret", "secret"]
        bodies = [request.partition(b"\r\n\r\n")[2] for request in server.seen + plain.seen]
        assert len(bodies) == 2 and bodies[0] == bodies[1]

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:8000/v1", "ftp://example.org/v1", "http:///v1", "http://h/a b", "http://h:x/v1"],
    )
    def test_malformed_endpoint_rejected_before_any_call(self, endpoint):
        with pytest.raises(ValidationError, match=re.escape(f"bad endpoint {endpoint!r}")):
            TestHttpProvider.provider(endpoint)


class TestRunInOrder:
    TOPICS = [Topic(f"t{i}", f"best travel guide city {i}") for i in range(1, 5)]
    PROFILES = [EMILY, ORDER, MISSPELLING, NEUTRAL]
    OVERLAPPING = SimpleNamespace(in_flight=4)  # a provider as run_in_order sees it

    def test_results_in_item_order(self):
        threads = set()

        def fn(item):
            threads.add(threading.get_ident())
            time.sleep(item * 7 % 4 / 1000)
            return item * item

        assert run_in_order(self.OVERLAPPING, fn, range(40)) == [i * i for i in range(40)]
        assert len(threads) > 1

    def test_first_error_in_item_order_propagates(self):
        started = []
        lock = threading.Lock()

        def fn(item):
            with lock:
                started.append(item)
            if item == 3:
                time.sleep(0.05)
                raise ValueError("item 3")
            if item >= 4:
                raise ValueError(f"item {item}")
            return item

        threads = threading.active_count()
        with pytest.raises(ValueError, match="item 3"):
            run_in_order(self.OVERLAPPING, fn, range(20))
        # no item more than in_flight - 1 past the failed one starts
        assert sorted(started) == list(range(7))
        assert threading.active_count() == threads  # every worker has ended

    def test_never_more_than_in_flight_running_at_once(self):
        """At most in_flight items run at once, and item i starts only once
        item i - in_flight has finished, with threads switching often."""
        lock = threading.Lock()
        running, peak, finished = set(), [0], set()

        def fn(item):
            with lock:
                assert item < 4 or item - 4 in finished
                running.add(item)
                peak[0] = max(peak[0], len(running))
            time.sleep(item % 3 / 1000)
            with lock:
                running.discard(item)
                finished.add(item)
            return item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_in_order(self.OVERLAPPING, fn, range(200)) == list(range(200))
        finally:
            sys.setswitchinterval(interval)
        assert 1 < peak[0] <= 4

    def test_mock_provider_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        provider = MockProvider()
        assert len(generate_sweep(provider, self.TOPICS, self.PROFILES)) == 48
        topics = generate_backstories(provider, self.TOPICS)
        passages = [Passage(f"p{i}", f"passage text {i}") for i in range(1, 4)]
        runs = [RunRecord("s1", "t1", p.passage_id, i + 1, 9.0 - i) for i, p in enumerate(passages)]
        pairs = sorted(pool_topk(runs, {"t1"}, {p.passage_id for p in passages}))
        assert len(label_topk(provider, pairs, topics, passages, LabelStore())) == 3


class TestProfilesFile:
    def test_bundled_profiles(self):
        profiles = load_profiles()
        assert len(profiles) == 19
        by_method = {}
        for p in profiles:
            by_method.setdefault(p.method, []).append(p)
        assert len(by_method["persona"]) == 6
        assert len(by_method["group"]) == 8
        assert len(by_method["textual"]) == 4
        assert len(by_method["neutral"]) == 1
        assert len({p.profile_id for p in profiles}) == 19
        names = {p.name for p in profiles}
        assert {"Emily", "Ahmed", "Anne", "Antonio", "Priya", "Noah"} <= names
        assert {"Order", "Misspelling", "Paraphrasing", "Naturality"} <= names

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_profiles(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'[\n{"profile_id": "p\xe9"}]', "2: not valid UTF-8 (invalid continuation byte)"),
            (b'[\n{"a" 1}', "2: invalid JSON (Expecting ':' delimiter)"),
            (b'{"profile_id": "p"}', " expected a JSON array of profiles"),
        ],
        ids=["bytes", "json", "object"],
    )
    def test_bad_file_named_with_its_line(self, tmp_path, data, message):
        path = tmp_path / "profiles.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            load_profiles(path)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize("key", ["profile_id", "method", "name", "description"])
    @pytest.mark.parametrize("value", [5, None, ["x"]])
    def test_non_string_field_rejected(self, tmp_path, key, value):
        entry = {"profile_id": "p", "method": "persona", "name": "P", "description": "d"}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([entry, {**entry, "profile_id": "q", key: value}]))
        with pytest.raises(ParseError) as info:
            load_profiles(path)
        assert str(info.value) == f"{path}: profiles entry 1: {key} must be a string"

    def test_rejected_profile_named_with_file_and_entry(self, tmp_path):
        entry = {"profile_id": "p", "method": "persona", "name": "P", "description": "d"}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([entry, {**entry, "profile_id": "q", "method": "crowd"}]))
        with pytest.raises(ParseError) as info:
            load_profiles(path)
        assert str(info.value) == f"{path}: profiles entry 1: unknown profile method 'crowd'"

    def test_duplicate_id_rejected(self, tmp_path):
        entry = {"profile_id": "p", "method": "persona", "name": "P", "description": "d"}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([entry, entry]))
        with pytest.raises(ParseError):
            load_profiles(path)

