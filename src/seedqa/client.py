"""Chat-completion client with live, cached-live, and replay backends.

``ChatClient`` answers a replay request from the fixture file and sends a
live one itself, through its transport, with retries and backoff; the
cached-live backend keeps each live reply on disk.  Every request is
identified by the SHA-256 of its canonical JSON form, so the disk cache
and replay fixtures key on content, not on call order.  The digest is
``corpus.sha256``, the graph checksum's hash too.  Replay runs never open
a network connection, which is what makes the evaluation pipeline
reproducible offline.  The client's errors are RuntimeErrors.

The default transport is the standard library's ``urllib.request``,
imported at the first live call: it reads proxies from the ``*_proxy``
variables, trusts the system's CA store, decodes every reply as UTF-8 and
follows no redirect.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from .corpus import json_field, lone_surrogate, read_jsonl, sha256, write_whole

log = logging.getLogger(__name__)

BACKENDS = ("live", "cached-live", "replay")

# (status, body) tuple returned by a transport callable
Transport = Callable[[str, dict, dict, float], "tuple[int, str]"]

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class TransportError(RuntimeError):
    """Network failure or retryable status that survived all retries."""


class ApiStatusError(RuntimeError):
    """Non-retryable HTTP status from the completion endpoint."""

    def __init__(self, status: int, body: str):
        super().__init__(f"completion endpoint returned status {status}")
        self.status = status
        self.body = body


class ReplayMissError(RuntimeError):
    """The replay fixture has no entry for a request digest."""

    def __init__(self, digest: str):
        super().__init__(f"replay fixture has no response for digest {digest}")
        self.digest = digest


@dataclass
class CompletionRequest:
    """One chat-completion call.  ``digest`` is its ``request_digest``,
    taken once at construction: a request is built anew, never assigned to,
    so the digest always matches its fields."""

    model: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256
    system: str | None = None
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.digest = request_digest(self)


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
class ClientConfig:
    """Backend choice and the settings each backend reads.  The live
    backends make up to ``max_attempts`` attempts per request, waiting
    ``backoff_base`` seconds before the second and doubling after each."""

    backend: str = "replay"
    model: str = "gpt-3.5-turbo-0613"
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = "SEEDQA_API_KEY"
    temperature: float = 0.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    timeout: float = 60.0
    cache_dir: str | None = None
    fixture_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # written so that NaN fails each check too
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be finite and >= 0")
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and > 0")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "cached-live" and not self.cache_dir:
            raise ValueError("cached-live backend requires cache_dir")
        if self.backend == "replay" and not self.fixture_path:
            raise ValueError("replay backend requires fixture_path")
        # the transport would open file: and data: URLs too
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ValueError("base_url must be an http:// or https:// URL")


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
    return sha256(canonical.encode("utf-8")).hexdigest()


def _default_transport(url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, str]:
    """POST ``payload`` as JSON and return the status and the body, decoded
    as strict UTF-8, for every HTTP status.  A redirect is not followed: it
    comes back as its 3xx status.  A body that is not UTF-8 raises
    ``ApiStatusError``; timeouts and connection errors raise as they are."""
    import urllib.request
    from urllib.error import HTTPError

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        # the default handler would resend the POST as a GET, and send the
        # Authorization header to whatever host Location names
        def redirect_request(self, *args):
            return None

    data = json.dumps(payload, allow_nan=False).encode()
    request = urllib.request.Request(url, data, headers)
    opener = urllib.request.build_opener(NoRedirect)
    try:
        # by keyword: the write-site check in tests/test_corpus.py reads a
        # positional argument to .open() as Path.open's mode
        with opener.open(fullurl=request, timeout=timeout) as resp:
            status, body = resp.status, resp.read()
    except HTTPError as exc:  # every status outside 2xx
        with exc:
            status, body = exc.code, exc.read()
    try:
        return status, body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ApiStatusError(status, body.decode("utf-8", "backslashreplace")) from exc


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
        response = self._responses.get(request.digest)
        if response is None:
            raise ReplayMissError(request.digest)
        return response


def _parse_completion_body(body: str) -> CompletionResponse:
    """The response in a 200 body; a malformed body, JSON nested past the
    recursion limit or a string with an unpaired surrogate
    (``lone_surrogate``) included, or a field of the wrong type
    (``"content": null``, ``"usage": "x"``), is ``ApiStatusError(200)``."""
    try:
        data = json.loads(body)
        if lone_surrogate(body) is not None:
            raise ValueError("unpaired surrogate")
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
    limit and a string with an unpaired surrogate included, are treated as
    misses and rewritten.
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
                text = fh.read()
            data = json.loads(text)
            if lone_surrogate(text) is not None:
                return None
            return _response_from(data["response"])
        except (FileNotFoundError, KeyError, RecursionError, TypeError, ValueError):
            return None

    def put(self, request: CompletionRequest, response: CompletionResponse) -> None:
        entry = {
            "digest": request.digest,
            "request": _request_fields(request),
            "response": asdict(response),
        }
        write_whole(self._path(request.digest), (json.dumps(entry, ensure_ascii=False),), 0o600)


class ChatClient:
    """Thread-safe completion client.

    Callers bound concurrency (``run_eval`` and ``annotate_stream`` call
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
        self._transport = transport or _default_transport
        self._sleep = sleeper if sleeper is not None else time.sleep
        self._cache = _DiskCache(config.cache_dir) if config.backend == "cached-live" else None
        self._replay = _ReplayBackend(config.fixture_path) if config.backend == "replay" else None

    def request(self, prompt: str, max_tokens: int, system: str | None = None) -> CompletionRequest:
        """A request for ``prompt`` at this client's model and temperature."""
        return CompletionRequest(self.config.model, prompt, self.config.temperature,
                                 max_tokens, system)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request.digest
        log.debug("request %s (%d chars)", digest[:12], len(request.prompt))
        if self._replay is not None:
            return self._replay.complete(request)
        if self._cache is None:
            return self._complete_live(request)
        with self._cache.lock_for(digest):
            cached = self._cache.get(digest)
            if cached is not None:
                log.debug("request %s served from cache", digest[:12])
                return cached
            response = self._complete_live(request)
            self._cache.put(request, response)
            return response

    def _complete_live(self, request: CompletionRequest) -> CompletionResponse:
        cfg = self.config
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        # the key is read from the environment at call time and is never
        # logged or persisted anywhere; a key the header cannot carry, such
        # as one ending in the \r of a CRLF .env file, is refused here,
        # since the HTTP client's error would quote it
        api_key = os.environ.get(cfg.api_key_env)
        if api_key:
            if not (api_key.isascii() and api_key.isprintable()):
                raise ValueError(f"the API key in ${cfg.api_key_env} is not printable ASCII")
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
        for attempt in range(cfg.max_attempts):  # at least one
            if attempt:
                self._sleep(cfg.backoff_base * (2 ** (attempt - 1)))
            try:
                status, body = self._transport(url, headers, payload, cfg.timeout)
            except ApiStatusError:
                raise
            except Exception as exc:
                last_error = f"transport failure: {exc}"
            else:
                if status == 200:
                    return _parse_completion_body(body)
                if status not in _RETRYABLE_STATUS:
                    raise ApiStatusError(status, body)
                last_error = f"retryable status {status}"
            log.warning("attempt %d/%d failed: %s", attempt + 1, cfg.max_attempts, last_error)
        raise TransportError(f"gave up after {cfg.max_attempts} attempts ({last_error})")
