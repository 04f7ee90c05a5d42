from __future__ import annotations

import hashlib
import json
import logging
import os
import threading

import pytest

from seedqa.client import (
    ApiStatusError,
    ChatClient,
    ClientConfig,
    CompletionRequest,
    CompletionResponse,
    ReplayMissError,
    TransportError,
    request_digest,
)
from seedqa.corpus import DatasetFormatError

from conftest import DEEP_JSON

REQ = CompletionRequest(model="m1", prompt="hello", temperature=0.0, max_tokens=64)


def ok_body(text="hi", finish="stop", usage=None):
    body = {"choices": [{"message": {"content": text}, "finish_reason": finish}]}
    if usage:
        body["usage"] = usage
    return json.dumps(body)


def make_transport(script):
    """Transport that pops (status, body) pairs or raises an exception
    instance; records every payload it sees."""
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append({"url": url, "headers": headers, "payload": payload})
        action = script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action

    return transport, calls


def live_client(script, max_attempts=3, backoff=1.0, **kwargs):
    transport, calls = make_transport(script)
    sleeps = []
    config = ClientConfig(backend="live", max_attempts=max_attempts, backoff_base=backoff,
                          **kwargs)
    client = ChatClient(config, transport=transport, sleeper=sleeps.append)
    return client, calls, sleeps


# --- digest -----------------------------------------------------------------

def test_digest_is_canonical_sha256():
    expected = hashlib.sha256(
        '{"max_tokens":64,"model":"m1","prompt":"hello","temperature":0.0}'.encode()
    ).hexdigest()
    assert request_digest(REQ) == expected


def test_digest_sensitive_to_every_field():
    base = request_digest(REQ)
    variants = [
        CompletionRequest("m2", "hello", 0.0, 64),
        CompletionRequest("m1", "hello!", 0.0, 64),
        CompletionRequest("m1", "hello", 0.5, 64),
        CompletionRequest("m1", "hello", 0.0, 65),
    ]
    digests = {base} | {request_digest(v) for v in variants}
    assert len(digests) == 5


def test_digest_stable_across_calls():
    assert request_digest(REQ) == request_digest(
        CompletionRequest(model="m1", prompt="hello", temperature=0.0, max_tokens=64)
    )


# --- replay -----------------------------------------------------------------

def test_replay_hit_and_miss(tmp_path):
    fixture = tmp_path / "fix.jsonl"
    fixture.write_text(
        json.dumps({"digest": request_digest(REQ), "text": "答案：B", "finish_reason": "stop"})
        + "\n",
        encoding="utf-8",
    )
    client = ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))
    assert client.complete(REQ).text == "答案：B"
    other = CompletionRequest("m1", "different", 0.0, 64)
    with pytest.raises(ReplayMissError) as err:
        client.complete(other)
    assert err.value.digest == request_digest(other)


def test_replay_complete_is_looked_up_on_the_class(tmp_path, monkeypatch):
    # a wrap of the method on the class, installed after the client is
    # built, sees every replay request
    from seedqa.client import _ReplayBackend

    fixture = tmp_path / "fix.jsonl"
    fixture.write_text(json.dumps({"digest": REQ.digest, "text": "答案：B"}) + "\n",
                       encoding="utf-8")
    client = ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))
    seen = []
    unwrapped = _ReplayBackend.complete

    def wrapped(self, request):
        seen.append(request.digest)
        return unwrapped(self, request)

    monkeypatch.setattr(_ReplayBackend, "complete", wrapped)
    assert client.complete(REQ).text == "答案：B"
    assert seen == [REQ.digest]


def test_replay_duplicate_digests(tmp_path):
    line = {"digest": request_digest(REQ), "text": "答案：B"}
    fixture = tmp_path / "fix.jsonl"
    fixture.write_text(
        "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in (line, line)),
        encoding="utf-8",
    )
    client = ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))
    assert client.complete(REQ).text == "答案：B"

    with open(fixture, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line | {"text": "答案：C"}, ensure_ascii=False) + "\n")
    with pytest.raises(DatasetFormatError, match=rf"fix\.jsonl:3: digest {line['digest']}"):
        ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))


@pytest.mark.parametrize("text", [None, 5, ["答案：B"]])
def test_replay_fixture_text_must_be_a_string(tmp_path, text):
    fixture = tmp_path / "fix.jsonl"
    lines = [{"digest": "d1", "text": "答案：B"}, {"digest": request_digest(REQ), "text": text}]
    fixture.write_text("".join(json.dumps(rec) + "\n" for rec in lines), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"fix\.jsonl:2: 'text' must be a string"):
        ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))


@pytest.mark.parametrize("fields, reason", [
    ({"prompt_tokens": "many", "finish_reason": ["x"]}, "'finish_reason' must be a string or null"),
    ({"finish_reason": 7}, "'finish_reason' must be a string or null"),
    ({"prompt_tokens": "many"}, "'prompt_tokens' must be an integer or null"),
    ({"response_tokens": 1.5}, "'response_tokens' must be an integer or null"),
    ({"response_tokens": True}, "'response_tokens' must be an integer or null"),
    # a digest that is not a string could never match a request
    ({"digest": 5}, "'digest' must be a string, got 5"),
    ({"digest": ["d1"]}, r"'digest' must be a string, got \['d1'\]"),
], ids=["list-finish-reason", "integer-finish-reason", "string-prompt-tokens",
        "float-response-tokens", "bool-response-tokens", "integer-digest", "list-digest"])
def test_replay_fixture_field_types(tmp_path, fields, reason):
    fixture = tmp_path / "fix.jsonl"
    lines = [{"digest": "d1", "text": "答案：B"},
             {"digest": request_digest(REQ), "text": "A"} | fields]
    fixture.write_text("".join(json.dumps(rec) + "\n" for rec in lines), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=rf"fix\.jsonl:2: {reason}"):
        ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))


def test_replay_fixture_null_fields_load(tmp_path):
    fixture = tmp_path / "fix.jsonl"
    line = {"digest": request_digest(REQ), "text": "A", "finish_reason": None,
            "prompt_tokens": None, "response_tokens": 3}
    fixture.write_text(json.dumps(line) + "\n", encoding="utf-8")
    client = ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))
    assert client.complete(REQ) == CompletionResponse("A", None, None, 3)


def test_replay_requires_fixture():
    with pytest.raises(ValueError, match="fixture"):
        ClientConfig(backend="replay")


# --- live -------------------------------------------------------------------

def test_live_success_parses_response():
    client, calls, sleeps = live_client(
        [(200, ok_body("text", "length", {"prompt_tokens": 10, "completion_tokens": 5}))]
    )
    response = client.complete(REQ)
    assert response == CompletionResponse("text", "length", 10, 5)
    assert sleeps == []
    payload = calls[0]["payload"]
    assert payload["model"] == "m1"
    assert payload["messages"] == [{"role": "user", "content": "hello"}]
    assert payload["temperature"] == 0.0
    assert payload["max_tokens"] == 64
    assert calls[0]["url"].endswith("/chat/completions")


def _warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def test_live_retries_429_then_succeeds(caplog):
    client, calls, sleeps = live_client([(429, "slow down"), (200, ok_body())])
    assert client.complete(REQ).text == "hi"
    assert len(calls) == 2
    assert sleeps == [1.0]
    assert _warnings(caplog) == ["attempt 1/3 failed: retryable status 429"]


def test_live_retries_transport_exception(caplog):
    client, calls, _ = live_client([ConnectionError("boom"), (200, ok_body())])
    assert client.complete(REQ).text == "hi"
    assert len(calls) == 2
    assert _warnings(caplog) == ["attempt 1/3 failed: transport failure: boom"]


def test_live_exponential_backoff_then_gives_up(caplog):
    client, calls, sleeps = live_client(
        [(503, ""), (503, ""), (503, ""), (503, "")], max_attempts=4, backoff=0.5
    )
    with pytest.raises(TransportError, match="4 attempts"):
        client.complete(REQ)
    assert len(calls) == 4
    assert sleeps == [0.5, 1.0, 2.0]
    assert _warnings(caplog) == [f"attempt {i}/4 failed: retryable status 503" for i in (1, 2, 3, 4)]


def test_live_non_retryable_status_fails_fast():
    client, calls, sleeps = live_client([(400, "bad request"), (200, ok_body())])
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert err.value.status == 400
    assert err.value.body == "bad request"
    assert len(calls) == 1
    assert sleeps == []


def test_live_malformed_success_body():
    client, _, _ = live_client([(200, '{"nope": 1}')])
    with pytest.raises(ApiStatusError):
        client.complete(REQ)


def test_live_body_nested_past_the_recursion_limit_is_status_error():
    body = '{"choices": ' + DEEP_JSON + "}"
    client, calls, _ = live_client([(200, body)])
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert err.value.status == 200
    assert len(calls) == 1


def test_live_reply_with_an_unpaired_surrogate_is_status_error():
    # UTF-8 cannot encode the reply, so no record or cache entry could hold
    # it; an escaped surrogate pair is one character, and reads
    body = ok_body("x").replace('"x"', '"x\\ud800"')
    client, calls, _ = live_client([(200, body)])
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert err.value.status == 200
    assert len(calls) == 1
    client, _, _ = live_client([(200, ok_body("x").replace('"x"', '"\\ud83d\\ude00"'))])
    assert client.complete(REQ).text == "\U0001f600"


@pytest.mark.parametrize("content", [None, 5, ["hi"]])
def test_live_non_string_content_is_status_error(content):
    # the same failure as a malformed body, never a response without text
    client, calls, _ = live_client([(200, ok_body(content))])
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert err.value.status == 200
    assert len(calls) == 1


@pytest.mark.parametrize("usage, finish", [
    ("x", "stop"),
    ([], "stop"),
    ({"prompt_tokens": "many"}, "stop"),
    ({"completion_tokens": True}, "stop"),
    ({"prompt_tokens": 1.5}, "stop"),
    (None, 7),
    (None, ["stop"]),
], ids=["string-usage", "list-usage", "string-prompt-tokens", "bool-completion-tokens",
        "float-prompt-tokens", "integer-finish-reason", "list-finish-reason"])
def test_live_mistyped_reply_field_is_status_error(usage, finish):
    body = json.loads(ok_body(finish=finish))
    if usage is not None:
        body["usage"] = usage
    client, calls, _ = live_client([(200, json.dumps(body))])
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert err.value.status == 200
    assert err.value.body == json.dumps(body)
    assert len(calls) == 1


def test_live_null_usage_and_finish_reason_are_kept():
    body = {"choices": [{"message": {"content": "hi"}, "finish_reason": None}], "usage": None}
    client, _, _ = live_client([(200, json.dumps(body))])
    assert client.complete(REQ) == CompletionResponse("hi", None, None, None)


def test_api_key_header_from_env_only(monkeypatch):
    monkeypatch.setenv("SEEDQA_API_KEY", "sk-secret-123")
    client, calls, _ = live_client([(200, ok_body())])
    client.complete(REQ)
    assert calls[0]["headers"]["Authorization"] == "Bearer sk-secret-123"

    monkeypatch.delenv("SEEDQA_API_KEY")
    client2, calls2, _ = live_client([(200, ok_body())])
    client2.complete(REQ)
    assert "Authorization" not in calls2[0]["headers"]


def test_api_key_never_logged(monkeypatch, caplog):
    monkeypatch.setenv("SEEDQA_API_KEY", "sk-super-secret")
    with caplog.at_level(logging.DEBUG):
        client, _, _ = live_client([(200, ok_body())])
        client.complete(REQ)
    assert "sk-super-secret" not in caplog.text


@pytest.mark.parametrize("key", ["sk-SECRET123\r", "sk-SECRET123\n", "sk-\tSECRET123",
                                 "sk-SECRET123\u00e9", "sk-SECRET123\u2028"])
def test_a_key_the_header_cannot_carry_is_refused_before_any_attempt(monkeypatch, caplog, key):
    # the HTTP client's own error quotes the header value, and the run
    # stores that error in records.jsonl
    monkeypatch.setenv("SEEDQA_API_KEY", key)
    client, calls, sleeps = live_client([(200, ok_body())])
    with caplog.at_level(logging.DEBUG), pytest.raises(ValueError) as err:
        client.complete(REQ)
    assert str(err.value) == "the API key in $SEEDQA_API_KEY is not printable ASCII"
    assert not isinstance(err.value, TransportError)
    assert calls == [] and sleeps == []
    assert "SECRET123" not in caplog.text


def test_custom_api_key_env(monkeypatch):
    monkeypatch.setenv("OTHER_KEY", "sk-other")
    client, calls, _ = live_client([(200, ok_body())], api_key_env="OTHER_KEY")
    client.complete(REQ)
    assert calls[0]["headers"]["Authorization"] == "Bearer sk-other"


# --- cached-live --------------------------------------------------------------

def cached_client(tmp_path, script):
    transport, calls = make_transport(script)
    config = ClientConfig(backend="cached-live", cache_dir=str(tmp_path / "cache"))
    return ChatClient(config, transport=transport, sleeper=lambda s: None), calls


def test_cache_second_call_is_local(tmp_path):
    client, calls = cached_client(tmp_path, [(200, ok_body("cached-text"))])
    assert client.complete(REQ).text == "cached-text"
    assert client.complete(REQ).text == "cached-text"
    assert len(calls) == 1


def test_cache_files_keyed_by_digest(tmp_path):
    client, _ = cached_client(tmp_path, [(200, ok_body())])
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    assert cache_file.exists()
    entry = json.loads(cache_file.read_text(encoding="utf-8"))
    assert entry["digest"] == request_digest(REQ)
    assert entry["request"]["prompt"] == "hello"
    assert entry["response"]["text"] == "hi"
    # no stray temp files once the write is done
    assert list((tmp_path / "cache").glob("*.tmp")) == []


def test_cache_entry_on_disk_contract(tmp_path, monkeypatch):
    # an entry is mode 0600 under a umask of 0o022, holds exactly the JSON
    # text of digest, request fields and response, and a failed put leaves
    # no temp file behind
    client, _ = cached_client(tmp_path, [(200, ok_body("hi 你好")), (200, ok_body("second"))])
    old_mask = os.umask(0o022)
    try:
        client.complete(REQ)
    finally:
        os.umask(old_mask)
    cache_dir = tmp_path / "cache"
    cache_file = cache_dir / f"{request_digest(REQ)}.json"
    assert os.stat(cache_file).st_mode & 0o777 == 0o600
    entry = {
        "digest": request_digest(REQ),
        "request": {"model": "m1", "prompt": "hello", "temperature": 0.0, "max_tokens": 64},
        "response": {"text": "hi 你好", "finish_reason": "stop", "prompt_tokens": None,
                     "response_tokens": None},
    }
    assert cache_file.read_bytes() == json.dumps(entry, ensure_ascii=False).encode("utf-8")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    other = CompletionRequest(model="m1", prompt="other", max_tokens=64)
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        client.complete(other)
    monkeypatch.undo()
    assert sorted(p.name for p in cache_dir.iterdir()) == [cache_file.name]


def test_cache_survives_new_client(tmp_path):
    client, calls = cached_client(tmp_path, [(200, ok_body("persisted"))])
    client.complete(REQ)
    client2, calls2 = cached_client(tmp_path, [])
    assert client2.complete(REQ).text == "persisted"
    assert calls2 == []


def test_corrupt_cache_entry_refetched(tmp_path):
    client, calls = cached_client(
        tmp_path, [(200, ok_body("first")), (200, ok_body("second"))]
    )
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    cache_file.write_text("{ not json", encoding="utf-8")
    assert client.complete(REQ).text == "second"
    assert len(calls) == 2


def test_non_utf8_cache_entry_refetched_and_rewritten(tmp_path):
    client, calls = cached_client(
        tmp_path, [(200, ok_body("first")), (200, ok_body("second"))]
    )
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    cache_file.write_bytes(cache_file.read_bytes().replace(b"first", b"fir\xffst"))
    assert client.complete(REQ).text == "second"
    assert json.loads(cache_file.read_text(encoding="utf-8"))["response"]["text"] == "second"
    assert client.complete(REQ).text == "second"
    assert len(calls) == 2


def test_cache_entry_nested_past_the_recursion_limit_refetched(tmp_path):
    client, calls = cached_client(
        tmp_path, [(200, ok_body("first")), (200, ok_body("second"))]
    )
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    cache_file.write_text('{"response": ' + DEEP_JSON + "}", encoding="utf-8")
    assert client.complete(REQ).text == "second"
    assert len(calls) == 2


def test_cache_entry_with_an_unpaired_surrogate_refetched(tmp_path):
    client, calls = cached_client(
        tmp_path, [(200, ok_body("first")), (200, ok_body("second"))]
    )
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    text = cache_file.read_text(encoding="utf-8")
    cache_file.write_text(text.replace('"first"', '"fir\\udc00st"'), encoding="utf-8")
    assert client.complete(REQ).text == "second"
    assert json.loads(cache_file.read_text(encoding="utf-8"))["response"]["text"] == "second"
    assert len(calls) == 2


def test_cache_entry_without_string_text_refetched(tmp_path):
    client, calls = cached_client(
        tmp_path, [(200, ok_body("first")), (200, ok_body("second"))]
    )
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    entry = json.loads(cache_file.read_text(encoding="utf-8"))
    entry["response"]["text"] = None
    cache_file.write_text(json.dumps(entry), encoding="utf-8")
    assert client.complete(REQ).text == "second"
    assert len(calls) == 2


@pytest.mark.parametrize("field, value", [
    ("finish_reason", 7), ("prompt_tokens", "many"), ("response_tokens", False),
])
def test_cache_entry_with_mistyped_field_refetched(tmp_path, field, value):
    client, calls = cached_client(
        tmp_path, [(200, ok_body("first")), (200, ok_body("second"))]
    )
    client.complete(REQ)
    cache_file = tmp_path / "cache" / f"{request_digest(REQ)}.json"
    entry = json.loads(cache_file.read_text(encoding="utf-8"))
    entry["response"][field] = value
    cache_file.write_text(json.dumps(entry), encoding="utf-8")
    assert client.complete(REQ).text == "second"
    assert len(calls) == 2


@pytest.mark.parametrize("system", [None, "you are terse"])
def test_cache_entry_request_hashes_to_its_digest(tmp_path, system):
    request = CompletionRequest(model="m1", prompt="hello", max_tokens=64, system=system)
    client, _ = cached_client(tmp_path, [(200, ok_body("hi"))])
    client.complete(request)
    (entry_file,) = (tmp_path / "cache").iterdir()
    entry = json.loads(entry_file.read_text(encoding="utf-8"))
    assert entry["digest"] == request_digest(request)
    assert request_digest(CompletionRequest(**entry["request"])) == entry["digest"]
    assert ("system" in entry["request"]) == (system is not None)


@pytest.mark.concurrency
def test_concurrent_identical_requests_single_upstream(tmp_path):
    started = threading.Event()

    def transport(url, headers, payload, timeout):
        started.wait(timeout=5)
        return 200, ok_body("once")

    config = ClientConfig(backend="cached-live", cache_dir=str(tmp_path / "c"))
    calls = []

    def counting_transport(*a, **kw):
        calls.append(1)
        return transport(*a, **kw)

    client = ChatClient(config, transport=counting_transport)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(client.complete(REQ).text))
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    started.set()
    for t in threads:
        t.join(timeout=10)
    assert results == ["once"] * 4
    assert len(calls) == 1


# --- config validation ---------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="backend"):
        ClientConfig(backend="offline")
    with pytest.raises(ValueError, match="cache_dir"):
        ClientConfig(backend="cached-live")
    with pytest.raises(ValueError):
        ClientConfig(backend="live", max_attempts=0)
    with pytest.raises(ValueError):
        ClientConfig(backend="live", backoff_base=-1)


@pytest.mark.parametrize("setting, value", [
    ("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")), ("timeout", float("inf")),
    ("backoff_base", float("nan")), ("backoff_base", float("inf")),
    ("temperature", float("nan")), ("temperature", float("inf")),
    ("temperature", float("-inf")), ("base_url", "file:///etc"), ("base_url", "ftp://x"),
])
def test_config_refuses_settings_the_transport_or_sleep_cannot_take(setting, value):
    # each one failed only at request time, as a transport failure or an
    # error from time.sleep; the standard library's opener would read a
    # file: URL as the reply
    refusal = "an http:// or https:// URL" if setting == "base_url" else "finite"
    with pytest.raises(ValueError, match=f"^{setting} must be {refusal}"):
        ClientConfig(backend="live", **{setting: value})


def test_config_takes_http_and_https_base_urls_in_any_case():
    for url in ("http://127.0.0.1:8000/v1", "https://api.openai.com/v1", "HTTPS://X/v1"):
        assert ClientConfig(backend="live", base_url=url).base_url == url


# --- system message --------------------------------------------------------

def test_system_message_in_digest_only_when_set():
    plain = request_digest(REQ)
    explicit_none = request_digest(
        CompletionRequest(model="m1", prompt="hello", temperature=0.0,
                          max_tokens=64, system=None)
    )
    with_system = request_digest(
        CompletionRequest(model="m1", prompt="hello", temperature=0.0,
                          max_tokens=64, system="you are terse")
    )
    assert plain == explicit_none
    assert with_system != plain


def test_system_message_sent_first_on_wire():
    client, calls, _ = live_client([(200, ok_body())])
    client.complete(
        CompletionRequest(model="m1", prompt="hello", system="you are terse")
    )
    assert calls[0]["payload"]["messages"] == [
        {"role": "system", "content": "you are terse"},
        {"role": "user", "content": "hello"},
    ]
