"""Chat-completion client with live, cached-live, and replay backends.

Every request is identified by the SHA-256 of its canonical JSON form, so
the disk cache and replay fixtures key on content, not on call order.
Replay runs never open a network connection, which is what makes the
evaluation pipeline reproducible offline.
"""

from __future__ import annotations

import json
import hashlib
import logging
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from .corpus import json_field, read_jsonl, write_whole

log = logging.getLogger(__name__)

BACKENDS = ("live", "cached-live", "replay")
DEFAULT_MODEL = "gpt-3.5-turbo-0613"
DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_API_KEY_ENV = "SEEDQA_API_KEY"

# (status, body) tuple returned by a transport callable
Transport = Callable[[str, dict, dict, float], "tuple[int, str]"]

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class ClientError(RuntimeError):
    """Base class for completion client failures."""


class TransportError(ClientError):
    """Network failure or retryable status that survived all retries."""


class ApiStatusError(ClientError):
    """Non-retryable HTTP status from the completion endpoint."""

    def __init__(self, status: int, body: str):
        super().__init__(f"completion endpoint returned status {status}")
        self.status = status
        self.body = body


class ReplayMissError(ClientError):
    """The replay fixture has no entry for a request digest."""

    def __init__(self, digest: str):
        super().__init__(f"replay fixture has no response for digest {digest}")
        self.digest = digest


@dataclass
class CompletionRequest:
    """One chat-completion call, identified by ``request_digest``."""

    model: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256
    system: str | None = None


@dataclass
class CompletionResponse:
    """The reply text, why it stopped, and the token counts when known."""

    text: str
    finish_reason: str = "stop"
    prompt_tokens: int | None = None
    response_tokens: int | None = None


def _response_from(data: dict) -> CompletionResponse:
    """Inverse of ``dataclasses.asdict`` for a response, as replay fixture
    lines, cache entries and live replies give it.  Only ``text`` is
    required, and it must be a string; ``finish_reason`` is a string or
    null (absent reads as "stop"), and each token count an integer or null.
    Any other type raises ValueError."""
    return CompletionResponse(
        json_field(data, "text", "a string"),
        json_field(data, "finish_reason", "a string or null", "stop"),
        json_field(data, "prompt_tokens", "an integer or null", None),
        json_field(data, "response_tokens", "an integer or null", None),
    )


@dataclass
class RetryPolicy:
    """Attempts per live request, and the backoff that doubles after each."""

    max_attempts: int = 3
    backoff_base: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")


@dataclass
class ClientConfig:
    """Backend choice and the settings each backend reads."""

    backend: str = "replay"
    model: str = DEFAULT_MODEL
    base_url: str = DEFAULT_BASE_URL
    api_key_env: str = DEFAULT_API_KEY_ENV
    temperature: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: float = 60.0
    cache_dir: str | None = None
    fixture_path: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "cached-live" and not self.cache_dir:
            raise ValueError("cached-live backend requires cache_dir")
        if self.backend == "replay" and not self.fixture_path:
            raise ValueError("replay backend requires fixture_path")


def _request_fields(request: CompletionRequest) -> dict:
    """The request fields a digest covers.  A system message is included
    only when present, so fixtures recorded without one stay valid."""
    fields = {
        "model": request.model,
        "prompt": request.prompt,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }
    if request.system is not None:
        fields["system"] = request.system
    return fields


def request_digest(request: CompletionRequest) -> str:
    """SHA-256 over the canonical JSON form of ``_request_fields``."""
    canonical = json.dumps(
        _request_fields(request), sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _default_transport(url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, str]:
    import requests

    resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    return resp.status_code, resp.text


class _ReplayBackend:
    def __init__(self, fixture_path: str):
        self._responses: dict[str, CompletionResponse] = {}
        read_jsonl(fixture_path, self._add)

    def _add(self, rec: dict) -> None:
        digest = json_field(rec, "digest", "a string")
        response = _response_from(rec)
        if self._responses.setdefault(digest, response) != response:
            raise ValueError(f"digest {digest} repeats with a different response")

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request_digest(request)
        response = self._responses.get(digest)
        if response is None:
            raise ReplayMissError(digest)
        return response


class _LiveBackend:
    def __init__(
        self,
        config: ClientConfig,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] | None = None,
    ):
        self._config = config
        self._transport = transport or _default_transport
        self._sleep = sleeper if sleeper is not None else time.sleep

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        cfg = self._config
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        # the key is read from the environment at call time and is never
        # logged or persisted anywhere
        api_key = os.environ.get(cfg.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        messages = []
        if request.system is not None:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.prompt})
        payload = {
            "model": request.model,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        last_error = "no attempt made"
        for attempt in range(cfg.retry.max_attempts):
            if attempt:
                self._sleep(cfg.retry.backoff_base * (2 ** (attempt - 1)))
            try:
                status, body = self._transport(url, headers, payload, cfg.timeout)
            except Exception as exc:
                last_error = f"transport failure: {exc}"
                log.warning("attempt %d/%d failed: %s", attempt + 1, cfg.retry.max_attempts, last_error)
                continue
            if status == 200:
                return _parse_completion_body(body)
            if status in _RETRYABLE_STATUS:
                last_error = f"retryable status {status}"
                log.warning("attempt %d/%d failed: %s", attempt + 1, cfg.retry.max_attempts, last_error)
                continue
            raise ApiStatusError(status, body)
        raise TransportError(
            f"gave up after {cfg.retry.max_attempts} attempts ({last_error})"
        )


def _parse_completion_body(body: str) -> CompletionResponse:
    """The response in a 200 body; a malformed body, JSON nested past the
    recursion limit included, or a field of the wrong type (``"content":
    null``, ``"usage": "x"``), is ``ApiStatusError(200)``."""
    try:
        data = json.loads(body)
        choice = data["choices"][0]
        text = choice["message"]["content"]
        usage = json_field(data, "usage", "an object or null", None) or {}
        return _response_from({
            "text": text,
            "finish_reason": choice.get("finish_reason", "stop"),
            "prompt_tokens": usage.get("prompt_tokens"),
            "response_tokens": usage.get("completion_tokens"),
        })
    except (LookupError, RecursionError, TypeError, ValueError) as exc:
        raise ApiStatusError(200, body[:2000]) from exc


class _DiskCache:
    """One JSON file per request digest, mode 0o600 under the umask.

    Each entry is written whole by ``write_whole``, so a reader never sees
    a partial entry; unparseable files, JSON nested past the recursion
    limit included, are treated as misses and rewritten.
    """

    def __init__(self, cache_dir: str):
        self._dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    def lock_for(self, digest: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(digest, threading.Lock())

    def _path(self, digest: str) -> str:
        return os.path.join(self._dir, f"{digest}.json")

    def get(self, digest: str) -> CompletionResponse | None:
        try:
            with open(self._path(digest), encoding="utf-8") as fh:
                data = json.load(fh)
            return _response_from(data["response"])
        except (FileNotFoundError, KeyError, RecursionError, TypeError, ValueError):
            return None

    def put(self, digest: str, request: CompletionRequest, response: CompletionResponse) -> None:
        entry = {
            "digest": digest,
            "request": _request_fields(request),
            "response": asdict(response),
        }
        write_whole(self._path(digest), (json.dumps(entry, ensure_ascii=False),), 0o600)


class ChatClient:
    """Thread-safe completion client.

    Callers bound concurrency (``run_eval`` and ``annotate_dataset`` call
    it from at most ``workers`` threads).  With the cached-live backend,
    concurrent identical requests are serialized per digest so the
    upstream call happens once.
    """

    def __init__(
        self,
        config: ClientConfig,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] | None = None,
    ):
        self.config = config
        self._cache = _DiskCache(config.cache_dir) if config.backend == "cached-live" else None
        if config.backend == "replay":
            self._backend = _ReplayBackend(config.fixture_path)
        else:
            self._backend = _LiveBackend(config, transport, sleeper)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request_digest(request)
        log.debug("request %s (%d chars)", digest[:12], len(request.prompt))
        if self._cache is None:
            return self._backend.complete(request)
        with self._cache.lock_for(digest):
            cached = self._cache.get(digest)
            if cached is not None:
                log.debug("request %s served from cache", digest[:12])
                return cached
            response = self._backend.complete(request)
            self._cache.put(digest, request, response)
            return response
