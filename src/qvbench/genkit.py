"""Query variant and backstory generation over a pluggable completion provider.

Every provider call, for variants, backstories and relevance labels,
goes through one path: a template read by ``load_template``,
placeholders filled in ``core._substitute``'s order (a label prompt in
the two steps ``judge`` takes), and ``core.complete_parsed`` asking the
provider until a response parses. The provider contract
(``Provider``, ``GenerationError``, ``TransportError``) lives in
``core`` too, as does ``load_profiles``, so stages that make no
provider call never load this module; they are re-exported here.
Every batch of calls goes through ``run_in_order``, which keeps the
provider's ``in_flight`` calls running at once and hands back results
in submission order, so the artifacts do not depend on which call
finished first. The variant template has four numbered sections;
neutral variants drop the two profile sections. Providers expose a
``complete(prompt) -> text`` method. The HTTP provider speaks a
chat-completion API in HTTP/1.1 messages it frames itself over
``socket`` (and ``ssl`` for https), one connection per call and six
calls in flight. The mock provider has no ``in_flight`` and so runs
inline, one call at a time; it derives every response from a hash of
the prompt and a fixed seed string, so sweeps are bit-reproducible and
need no network.

The mock reads the seed query and profile name back out of the rendered
prompt, which couples it to the template's "Seed query:" and
"Transformation profile:" lines. Editing those labels breaks the mock
but not the HTTP provider.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
from bisect import bisect
from collections import deque
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar

from .core import (
    GRADES,
    VARIANTS_PER_PAIR,
    GenerationError,
    ParseError,
    Profile,
    Provider,
    QueryVariant,
    Topic,
    TransportError,
    ValidationError,
    _Validated,
    _substitute,
    complete_parsed,
    load_profiles,
)

__all__ = [
    "ProviderConfig",
    "GenerationLog",
    "GenerationError",
    "TransportError",
    "Provider",
    "MockProvider",
    "HttpProvider",
    "complete_parsed",
    "run_in_order",
    "load_profiles",
    "load_template",
    "build_prompt",
    "build_neutral_prompt",
    "parse_variant_response",
    "generate_variants",
    "generate_backstory",
    "generate_backstories",
    "generate_sweep",
]

_DATA = Path(__file__).parent / "data"

_PART_KEYS = ("1", "2", "3a", "3b")
_PART_MARKER = re.compile(r"^\[part (\w+)\]$")

API_KEY_ENV = "QVBENCH_API_KEY"

# A generated backstory keeps at most this many words.
BACKSTORY_WORDS = 120

# HttpProvider samples at this temperature and gives each request this
# many seconds to answer.
_TEMPERATURE = 1.0
_TIMEOUT_S = 60.0

# HttpProvider retries HTTP 429 and 5xx this many times; each wait is the
# server's Retry-After (seconds form) or a full-jitter exponential
# backoff, capped either way.
_HTTP_RETRIES = 3
_BACKOFF_BASE_S = 1.0
_BACKOFF_CAP_S = 30.0

# HttpProvider reads a response this many bytes at a time, and refuses an
# endpoint or API key holding a space, a control or a non-ASCII
# character, any of which would break the request head.
_RECV_BYTES = 65536
_UNSAFE_IN_HEAD = re.compile(r"[^\x21-\x7e]")

# HTTP/1.x response framing: the blank line that ends a head, the status
# line, and the size line of a chunk with any extension.
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS_LINE = re.compile(rb"HTTP/1\.[0-9] ([0-9]{3})(?: .*)?")
_CHUNK_HEAD = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")


class _Timeout(TransportError):
    """The endpoint did not answer within _TIMEOUT_S seconds."""


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Bundled prompt template text, ``data/templates/<name>_prompt.txt``,
    without its leading block of ``#`` comment and blank lines."""
    lines = (_DATA / "templates" / f"{name}_prompt.txt").read_text("utf-8").splitlines()
    start = 0
    while start < len(lines) and (
        not lines[start].strip() or lines[start].lstrip().startswith("#")
    ):
        start += 1
    body = "\n".join(lines[start:]).strip()
    if not body:
        raise ParseError(f"{name} template is empty")
    return body


def _parse_parts(text: str) -> dict[str, str]:
    """Split on [part N] marker lines into the four variant-prompt
    sections: task, profile slot, output format, profile-adherence
    reminder. Each must appear once and be non-empty."""
    parts: dict[str, list[str]] = {}
    current: Optional[str] = None
    for line in text.splitlines():
        marker = _PART_MARKER.match(line.strip())
        if marker:
            key = marker.group(1)
            if key not in _PART_KEYS:
                raise ParseError(f"unknown template part [{key}]")
            if key in parts:
                raise ParseError(f"duplicate template part [{key}]")
            current = key
            parts[key] = []
        elif current is not None:
            parts[current].append(line)
        elif line.strip():
            raise ParseError("template text before the first [part] marker")
    joined = {key: "\n".join(lines).strip() for key, lines in parts.items()}
    missing = [key for key in _PART_KEYS if not joined.get(key)]
    if missing:
        raise ParseError(f"template parts missing or empty: {', '.join(missing)}")
    return joined


@lru_cache(maxsize=1)
def _variant_parts() -> dict[str, str]:
    return _parse_parts(load_template("variant"))


def build_prompt(topic: Topic, profile: Profile) -> str:
    """Full four-part prompt for a profile-conditioned generation call."""
    if profile.method == "neutral":
        raise ValidationError("neutral profiles take build_neutral_prompt")
    if not profile.description.strip():
        raise ValidationError(f"profile {profile.profile_id} has an empty description")
    mapping = {
        "seed_query": topic.seed_query,
        "profile_name": profile.name,
        "profile_description": profile.description,
        "n_variants": VARIANTS_PER_PAIR,
    }
    parts = _variant_parts()
    return "\n\n".join(_substitute(parts[k], mapping) for k in _PART_KEYS)


def build_neutral_prompt(topic: Topic) -> str:
    """Parts 1 and 3a only: no profile text at all."""
    parts = _variant_parts()
    mapping = {"seed_query": topic.seed_query, "n_variants": VARIANTS_PER_PAIR}
    return "\n\n".join(_substitute(parts[k], mapping) for k in ("1", "3a"))


_NUMBERED_LINE = re.compile(r"^\s*\d+\s*[.):]\s*(.+?)\s*$")


def _as_string_list(value) -> Optional[list[str]]:
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return value
    return None


def parse_variant_response(text: str) -> list[str]:
    """JSON array of strings, else numbered lines; exactly VARIANTS_PER_PAIR of them.

    The JSON route also accepts an array embedded in surrounding prose.
    """
    items: Optional[list[str]] = None
    try:
        items = _as_string_list(json.loads(text.strip()))
    except ValueError:
        items = None
    if items is None:
        embedded = re.search(r"\[.*\]", text, re.DOTALL)
        if embedded:
            try:
                items = _as_string_list(json.loads(embedded.group(0)))
            except ValueError:
                items = None
    if items is None:
        numbered = []
        for line in text.splitlines():
            m = _NUMBERED_LINE.match(line)
            if m:
                numbered.append(m.group(1).strip("\"'"))
        if numbered:
            items = numbered
    if items is None:
        raise ParseError("response is neither a JSON array of strings nor a numbered list")
    cleaned = [item.strip() for item in items]
    if len(cleaned) != VARIANTS_PER_PAIR:
        raise ParseError(f"expected {VARIANTS_PER_PAIR} variant strings, got {len(cleaned)}")
    if any(not item for item in cleaned):
        raise ParseError("variant strings must be non-empty")
    return cleaned


class GenerationLog(NamedTuple):
    topic_id: str
    profile_id: str
    raw_response: str
    parsed: tuple[str, ...]
    attempts: int


T = TypeVar("T")
Item = TypeVar("Item")


def run_in_order(provider: Provider, fn: Callable[[Item], T], items: Iterable[Item]) -> list[T]:
    """[fn(item) for item in items], with up to ``provider.in_flight``
    calls of fn running at once (1 when the provider has no such
    attribute).

    At 1, fn runs inline in the calling thread and no thread is started.
    Above it, worker threads run fn over a sliding window of that many
    items: the next item starts only when the oldest has finished. The
    results come back in item order, and so does the first exception,
    as in a serial run; once it is raised no further item starts, the
    ones already running finish, and their results or errors are
    dropped. Every worker has ended when this returns or raises. fn
    must be safe to call from several threads at once, and any side
    effect whose order matters belongs in its return value.
    """
    width = getattr(provider, "in_flight", 1)
    if width <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # mock-only stages never load it

    pending = iter(items)
    results: list[T] = []
    with ThreadPoolExecutor(max_workers=width) as pool:
        window = deque(pool.submit(fn, item) for item in islice(pending, width))
        while window:
            results.append(window.popleft().result())
            for item in islice(pending, 1):
                window.append(pool.submit(fn, item))
    return results


def generate_variants(
    provider: Provider,
    topic: Topic,
    profile: Profile,
    logs: Optional[list[GenerationLog]] = None,
) -> list[QueryVariant]:
    """One generation call, retried on parse failures with the same prompt."""
    if profile.method == "neutral":
        prompt = build_neutral_prompt(topic)
    else:
        prompt = build_prompt(topic, profile)
    parsed, raw, attempt = complete_parsed(
        provider,
        prompt,
        parse_variant_response,
        f"variant list for topic {topic.topic_id}, profile {profile.profile_id}",
    )
    if logs is not None:
        logs.append(GenerationLog(topic.topic_id, profile.profile_id, raw, tuple(parsed), attempt))
    return [
        QueryVariant(topic.topic_id, profile.profile_id, i, text)
        for i, text in enumerate(parsed, start=1)
    ]


def generate_backstory(provider: Provider, topic: Topic) -> str:
    """One-paragraph backstory, whitespace-collapsed, truncated to BACKSTORY_WORDS."""
    prompt = _substitute(
        load_template("backstory"), {"seed_query": topic.seed_query, "max_words": BACKSTORY_WORDS}
    )

    def parse(text: str) -> str:
        words = text.split()
        if not words:
            raise ParseError("empty backstory response")
        return " ".join(words[:BACKSTORY_WORDS])

    story, _, _ = complete_parsed(provider, prompt, parse, f"backstory for topic {topic.topic_id}")
    return story


def generate_backstories(provider: Provider, topics: Sequence[Topic]) -> list[Topic]:
    """Fill in missing backstories; topics that already have one pass through."""

    def fill(topic: Topic) -> Topic:
        if topic.backstory:
            return topic
        story = generate_backstory(provider, topic)
        return topic._replace(backstory=story)

    return run_in_order(provider, fill, topics)


class _ProviderConfigFields(NamedTuple):
    endpoint: str
    model_name: str
    api_key: Optional[str]


class ProviderConfig(_Validated, _ProviderConfigFields):
    __slots__ = ()

    def __new__(cls, endpoint, model_name, api_key=None):
        if api_key is None:
            api_key = os.environ.get(API_KEY_ENV)
        return tuple.__new__(cls, (endpoint, model_name, api_key))


class HttpProvider:
    """Chat-completion client: one user message in, first choice text out.

    Each call is one HTTP/1.1 POST on a connection of its own, framed
    here over ``socket``: the request head, built once, says
    ``Connection: close``, and the client reads until the server closes
    the connection, so every byte of the answer is in hand before it is
    parsed. An ``https`` endpoint is verified against the system trust
    store, or the file ``SSL_CERT_FILE`` names; no proxy variable is
    read. HTTP 429 and 5xx answers and timeouts are retried up to
    ``_HTTP_RETRIES`` times; any other status but 200, and any other
    transport error, fails at once. ``run_in_order`` keeps
    ``in_flight`` calls overlapping.
    """

    # A fixed overlap, chosen on throughput. Against a localhost endpoint
    # with four handler threads and a 2 ms service time, a call took 3.4
    # ms with eight in flight against 2.1 ms with four, yet eight complete
    # 8 / 3.4 = 2.35 calls a ms against 4 / 2.1 = 1.9: the extra calls
    # wait in the server's accept queue, which hides connection set-up.
    # That queue is bounded: a Python server's default listen backlog of
    # 5 holds 6 connections on Linux, and at eight in flight it overflowed
    # and each dropped connect waited out a 1 s SYN retransmission. Six
    # calls never overflow it and were as fast as eight.
    in_flight = 6

    def __init__(self, config: ProviderConfig):
        """Split the endpoint and build the request head once; a
        malformed endpoint or API key is a ValidationError."""
        from urllib.parse import urlsplit

        self.config = config
        endpoint = config.endpoint
        try:
            parts = urlsplit(endpoint)
            port = parts.port
        except ValueError as exc:
            raise ValidationError(f"bad endpoint {endpoint!r}: {exc}") from None
        if (
            parts.scheme not in ("http", "https")
            or not parts.hostname
            or "@" in parts.netloc
            or _UNSAFE_IN_HEAD.search(endpoint)
        ):
            raise ValidationError(
                f"bad endpoint {endpoint!r}: need http:// or https:// and a host,"
                " with no user info or spaces"
            )
        self._tls = None
        if parts.scheme == "https":
            import ssl  # here, so plain-http runs never load it

            self._tls = ssl.create_default_context()
        self._address = (parts.hostname, port or (443 if self._tls else 80))
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        lines = [
            f"POST {target} HTTP/1.1",
            f"Host: {parts.netloc}",
            "Content-Type: application/json",
        ]
        if config.api_key:
            if _UNSAFE_IN_HEAD.search(config.api_key):
                raise ValidationError(f"{API_KEY_ENV} must be printable ASCII without spaces")
            lines.append(f"Authorization: Bearer {config.api_key}")
        lines += ["User-Agent: qvbench", "Accept-Encoding: identity", "Connection: close", ""]
        self._head = "\r\n".join(lines).encode("ascii")

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.config.model_name,
            "temperature": _TEMPERATURE,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = json.dumps(payload).encode("utf-8")
        for retry in range(_HTTP_RETRIES + 1):
            try:
                status, retry_after, body = self._post(data)
            except _Timeout:
                if retry == _HTTP_RETRIES:
                    raise
                time.sleep(_retry_delay(None, retry))
                continue
            if status == 200:
                break
            if retry == _HTTP_RETRIES or not (status == 429 or status >= 500):
                text = body.decode("utf-8", "replace")
                raise TransportError(f"provider returned HTTP {status}: {text[:200]}")
            time.sleep(_retry_delay(retry_after, retry))
        try:
            text = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed provider response: {exc!r}") from exc
        if not isinstance(text, str):
            raise TransportError("provider message content is not text")
        return text

    def _post(self, data: bytes) -> tuple[int, Optional[str], bytes]:
        """One POST, read to the server's close: status, Retry-After
        header and body, error statuses included."""
        import socket  # here, so stages on the mock provider never load it

        try:
            sock = socket.create_connection(self._address, timeout=_TIMEOUT_S)
            try:
                if self._tls is not None:
                    sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
                sock.sendall(b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(data), data))
                chunks = []
                while chunk := sock.recv(_RECV_BYTES):
                    chunks.append(chunk)
            finally:
                sock.close()
            return _parse_response(b"".join(chunks))
        except (OSError, ValueError) as exc:
            error = _Timeout if isinstance(exc, TimeoutError) else TransportError
            raise error(f"request to {self.config.endpoint} failed: {exc}") from exc


def _parse_response(raw: bytes) -> tuple[int, Optional[str], bytes]:
    """Status, Retry-After and body of one HTTP/1.x response that ran to
    the connection's close, after any 1xx interim responses. The body is
    decoded when chunked, cut to Content-Length when that is given, and
    a ValueError when it is shorter than either says."""
    status = 100
    while status < 200:
        end = _HEAD_END.search(raw)
        if end is None:
            raise ValueError("connection closed before the response headers ended")
        status_line, _, fields = raw[: end.start()].partition(b"\n")
        status_line = status_line.rstrip(b"\r")
        match = _STATUS_LINE.fullmatch(status_line)
        if match is None:
            raise ValueError(f"bad status line {status_line[:80]!r}")
        status = int(match[1])
        raw = raw[end.end() :]
    headers = {}
    for field in fields.splitlines():
        name, colon, value = field.partition(b":")
        if not colon:
            raise ValueError(f"bad header line {field[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get(b"transfer-encoding", b"").lower().endswith(b"chunked"):
        body = _dechunk(raw)
    elif b"content-length" in headers:
        length = headers[b"content-length"]
        if not length.isdigit():
            raise ValueError(f"bad Content-Length {length[:80]!r}")
        if len(raw) < int(length):
            raise ValueError(f"response body ended after {len(raw)} of {int(length)} bytes")
        body = raw[: int(length)]
    else:
        body = raw
    return status, headers.get(b"retry-after", b"").decode("latin-1") or None, body


def _dechunk(data: bytes) -> bytes:
    """The payload of a chunked transfer coding; extensions and trailers
    are dropped."""
    chunks = []
    pos = 0
    while match := _CHUNK_HEAD.match(data, pos):
        size = int(match[1], 16)
        if size == 0:
            return b"".join(chunks)
        pos = match.end() + size
        if not data.startswith(b"\r\n", pos):
            break
        chunks.append(data[match.end() : pos])
        pos += 2
    raise ValueError("chunked response body is malformed or ended early")


def _retry_delay(retry_after: Optional[str], retry: int) -> float:
    """Seconds to wait before retry number retry + 1 (from 0): a
    Retry-After in seconds, else a uniform draw below the exponential
    backoff; both capped at _BACKOFF_CAP_S."""
    seconds = (retry_after or "").strip()
    if seconds.isascii() and seconds.isdigit():
        return min(float(seconds), _BACKOFF_CAP_S)
    return random.Random().uniform(0, min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**retry))


_SYNONYMS = {
    "best": "top",
    "big": "large",
    "buy": "purchase",
    "cheap": "budget",
    "cost": "price",
    "easy": "simple",
    "fast": "quick",
    "find": "locate",
    "fix": "repair",
    "good": "great",
    "home": "house",
    "kids": "children",
    "learn": "study",
    "make": "create",
    "near": "nearby",
    "new": "latest",
    "old": "ancient",
    "small": "little",
    "start": "begin",
    "symptoms": "signs",
    "top": "best",
    "use": "apply",
}

_FRAMES = (
    "what is {q}",
    "tell me about {q}",
    "{q} explained",
    "{q} guide",
    "{q} tips",
    "{q} basics",
    "{q} overview",
    "everything about {q}",
    "i want to know about {q}",
    "please tell me about {q}",
    "{q} information",
    "how does {q} work",
    "{q} facts",
    "learn about {q}",
)

_BACKSTORY_OPENERS = (
    "You have recently become curious about",
    "For a while now you have been meaning to understand",
    "A conversation with a friend left you wondering about",
    "Something you read last week made you want to look into",
)

_BACKSTORY_MIDDLES = (
    "You have only a rough picture so far and want a clear, plain explanation.",
    "You know a few scattered facts and would like to see how they fit together.",
    "You tried asking around but the answers you got were vague.",
)

_BACKSTORY_CLOSERS = (
    "A trustworthy overview would settle the question for you.",
    "You hope to find something concrete enough to act on.",
    "Even a short, reliable summary would help you decide what to do next.",
)


class MockProvider:
    """Deterministic provider: responses are a pure function of the prompt
    and a fixed seed string.

    Variant responses are rule-based rewrites of the seed query parsed
    back out of the prompt. The Order profile gets word shuffles that
    keep the token multiset, the Misspelling profile gets injected typos
    whose spell correction recovers the original word, and every other
    profile gets synonym swaps inside templated rephrasings, so the
    downstream validators see realistic signal. Only misspelling variants
    spell, so only they load `validate` (and `textkit`, `porter`).
    Relevance-labeling prompts (a "Passage:" line plus an integer-answer
    instruction, told apart by ``_is_label_prompt``) get a single grade
    drawn from a fixed distribution over 0..3, from a generator of the
    call's own, so threads may call at once.
    """

    def __init__(self, seed_material: str = ""):
        self.seed_material = str(seed_material)
        self._dictionary = None  # loaded by the first misspelling variant

    def complete(self, prompt: str) -> str:
        digest = hashlib.sha256(
            (self.seed_material + "\x00" + prompt).encode("utf-8")
        ).digest()
        rng = random.Random(digest)
        if _is_label_prompt(prompt):
            # weights 35, 25, 22, 18: the draw `choices` makes from their sums
            return _GRADE_TEXTS[bisect(_GRADE_CUM_WEIGHTS, rng.random() * 100.0, 0, 3)]
        seed_query = _prompt_field(prompt, _SEED_QUERY_FIELD)
        if seed_query is None:
            raise ValidationError("mock provider needs a 'Seed query:' line in the prompt")
        if "backstory" in prompt.lower():
            return self._backstory(seed_query, rng)
        profile_name = _prompt_field(prompt, _PROFILE_FIELD)
        return json.dumps(self._variants(seed_query, profile_name, rng))

    def _backstory(self, seed_query: str, rng: random.Random) -> str:
        return (
            f"{rng.choice(_BACKSTORY_OPENERS)} {seed_query}. "
            f"{rng.choice(_BACKSTORY_MIDDLES)} {rng.choice(_BACKSTORY_CLOSERS)}"
        )

    def _variants(
        self, seed_query: str, profile_name: Optional[str], rng: random.Random
    ) -> list[str]:
        kind = (profile_name or "").strip().lower()
        if kind == "order":
            return [self._shuffled(seed_query, rng) for _ in range(VARIANTS_PER_PAIR)]
        if kind == "misspelling":
            return [self._misspelled(seed_query, rng) for _ in range(VARIANTS_PER_PAIR)]
        frames = rng.sample(_FRAMES, VARIANTS_PER_PAIR)
        return [self._paraphrased(seed_query, frame, rng) for frame in frames]

    def _shuffled(self, seed_query: str, rng: random.Random) -> str:
        words = seed_query.split()
        if len(set(w.lower() for w in words)) < 2:
            return seed_query
        shuffled = words[:]
        for _ in range(20):
            rng.shuffle(shuffled)
            if [w.lower() for w in shuffled] != [w.lower() for w in words]:
                break
        return " ".join(shuffled)

    def _misspelled(self, seed_query: str, rng: random.Random) -> str:
        if self._dictionary is None:
            from .validate import load_dictionary, spell_correct
            self._dictionary, self._spell_correct = load_dictionary(), spell_correct
        tokens = seed_query.split()
        order = sorted(range(len(tokens)), key=lambda i: (-len(tokens[i]), i))
        for i in order:
            word = tokens[i].lower()
            if not word.isalpha() or len(word) < 4 or word not in self._dictionary:
                continue
            typo = self._typo_for(word, rng)
            if typo is not None:
                out = tokens[:]
                out[i] = typo
                return " ".join(out)
        if tokens:
            # no safe typo found; double a letter and accept the risk
            out = tokens[:]
            out[0] = out[0][:1] + out[0][:1] + out[0][1:]
            return " ".join(out)
        return seed_query

    def _typo_for(self, word: str, rng: random.Random) -> Optional[str]:
        candidates = []
        for j in range(len(word)):
            candidates.append(word[:j] + word[j + 1 :])
        for j in range(len(word) - 1):
            if word[j] != word[j + 1]:
                candidates.append(word[:j] + word[j + 1] + word[j] + word[j + 2 :])
        for j in range(len(word)):
            candidates.append(word[: j + 1] + word[j] + word[j + 1 :])
        rng.shuffle(candidates)
        for candidate in candidates:
            if (
                candidate
                and candidate not in self._dictionary
                and self._spell_correct(candidate, self._dictionary) == word
            ):
                return candidate
        return None

    def _paraphrased(self, seed_query: str, frame: str, rng: random.Random) -> str:
        words = []
        for token in seed_query.split():
            swap = _SYNONYMS.get(token.lower())
            if swap is not None and rng.random() < 0.5:
                words.append(swap)
            else:
                words.append(token)
        return frame.replace("{q}", " ".join(words))


# The prompt lines the mock reads back, compiled once rather than looked
# up in re's cache on every call.
_SEED_QUERY_FIELD, _PROFILE_FIELD = (
    re.compile(rf"^{re.escape(label)}:\s*(.+?)\s*$", re.MULTILINE)
    for label in ("Seed query", "Transformation profile")
)
# A label prompt's "Passage:" line, of which only the presence is read,
# matched at the start of a line.
_PASSAGE_LINE = re.compile(r"Passage:\s*.")
_GRADE_TEXTS = tuple(map(str, GRADES))
_GRADE_CUM_WEIGHTS = (35, 60, 82, 100)


def _is_label_prompt(prompt: str) -> bool:
    """Whether the prompt has a line starting "Passage:" with something
    other than line ends after it, and "integer" in any case.

    It accepts exactly what ``"integer" in prompt.lower()`` and a
    multiline search for ``^Passage:\\s*.`` accept, without lowering the
    prompt or running the pattern over all of it. Only the first
    "Passage:" at a line start is tried, since a later one would put a
    character other than a line end after the first; the lowered prompt
    is made only when "integer" is not there as written.
    """
    # find gives 0 when no line starts "Passage:", and the match fails there
    start = 0 if prompt.startswith("Passage:") else prompt.find("\nPassage:") + 1
    if not _PASSAGE_LINE.match(prompt, start):
        return False
    return "integer" in prompt or "integer" in prompt.lower()


def _prompt_field(prompt: str, pattern: re.Pattern) -> Optional[str]:
    match = pattern.search(prompt)
    return match.group(1) if match else None


def generate_sweep(
    provider: Provider,
    topics: Sequence[Topic],
    profiles: Sequence[Profile],
    existing: Iterable[QueryVariant] = (),
    logs: Optional[list[GenerationLog]] = None,
) -> list[QueryVariant]:
    """Every (topic, profile) combination, reusing complete existing pairs.

    A stored pair is complete when its indices are exactly
    1..VARIANTS_PER_PAIR; any other pair (one missing, or one index held
    twice) is regenerated whole. Provider calls are submitted, and the
    output and logs are assembled, topics-major, profiles-minor,
    index-ascending.
    """
    stored: dict[tuple[str, str], list[QueryVariant]] = {}
    for v in sorted(existing, key=lambda v: v.index):
        stored.setdefault((v.topic_id, v.profile_id), []).append(v)
    complete = list(range(1, VARIANTS_PER_PAIR + 1))
    done = {pair: group for pair, group in stored.items() if [v.index for v in group] == complete}

    def generate(pair: tuple[Topic, Profile]) -> tuple[list[QueryVariant], list[GenerationLog]]:
        pair_logs: list[GenerationLog] = []
        group = generate_variants(provider, *pair, pair_logs)
        return group, pair_logs

    missing = [
        (topic, profile)
        for topic in topics
        for profile in profiles
        if (topic.topic_id, profile.profile_id) not in done
    ]
    for (topic, profile), (group, pair_logs) in zip(
        missing, run_in_order(provider, generate, missing)
    ):
        done[(topic.topic_id, profile.profile_id)] = group
        if logs is not None:
            logs.extend(pair_logs)
    return [
        variant
        for topic in topics
        for profile in profiles
        for variant in done[(topic.topic_id, profile.profile_id)]
    ]
