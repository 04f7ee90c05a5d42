"""The default transport against HTTP servers on the loopback interface.

Each server runs in a thread of the test process, on a port the kernel
picks, and answers from a script of replies; nothing leaves the machine.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from seedqa.client import (
    ApiStatusError, ChatClient, ClientConfig, CompletionRequest, TransportError,
    _default_transport,
)

REQ = CompletionRequest(model="m1", prompt="高血压的并发症", temperature=0.0, max_tokens=64)


def ok_body(text="hi"):
    return json.dumps({"choices": [{"message": {"content": text}, "finish_reason": "stop"}]},
                      ensure_ascii=False).encode()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append({"method": self.command, "path": self.path,
                                     "headers": dict(self.headers), "body": body})
        reply = self.server.replies.pop(0)
        if isinstance(reply, threading.Event):
            reply.wait(10)  # the test sets it once the client has given up
            return
        status, headers, body = reply
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST  # a redirected POST arrives as a GET

    def log_message(self, *args):
        pass


@pytest.fixture()
def serve():
    """Starts a server on 127.0.0.1 for a list of replies, each
    ``(status, headers, body)`` or an Event to wait on without replying,
    and returns it; ``server.url`` is its /v1 base URL."""
    running = []

    def start(replies):
        server = HTTPServer(("127.0.0.1", 0), _Handler)
        server.replies, server.received = list(replies), []
        server.url = f"http://127.0.0.1:{server.server_port}/v1"
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        running.append((server, thread))
        return server

    yield start
    for server, thread in running:
        server.shutdown()
        thread.join(10)
        server.server_close()
        assert not thread.is_alive()


def client_for(server, max_attempts=3, timeout=5.0, transport=None):
    sleeps = []
    config = ClientConfig(backend="live", base_url=server.url, max_attempts=max_attempts,
                          timeout=timeout)
    return ChatClient(config, transport=transport, sleeper=sleeps.append), sleeps


def counting(calls):
    def transport(*args):
        calls.append(args)
        return _default_transport(*args)
    return transport


def test_a_200_reply_is_the_status_and_the_body(serve):
    server = serve([(200, {"Content-Type": "application/json"}, ok_body())])
    assert _default_transport(f"{server.url}/chat/completions", {}, {"a": 1}, 5.0) == (
        200, ok_body().decode())


def test_the_server_receives_the_json_body_and_headers_the_client_sends(serve, monkeypatch):
    monkeypatch.setenv("SEEDQA_API_KEY", "sk-loopback")
    server = serve([(200, {"Content-Type": "application/json"}, ok_body())])
    client, _ = client_for(server)
    assert client.complete(REQ).text == "hi"
    [received] = server.received
    assert (received["method"], received["path"]) == ("POST", "/v1/chat/completions")
    # the bytes requests sent for json=payload: ASCII-escaped JSON, NaN refused
    assert received["body"] == json.dumps({
        "model": "m1", "messages": [{"role": "user", "content": "高血压的并发症"}],
        "temperature": 0.0, "max_tokens": 64,
    }, allow_nan=False).encode()
    assert received["headers"]["Content-Type"] == "application/json"
    assert received["headers"]["Authorization"] == "Bearer sk-loopback"


def test_429_and_503_are_retried_with_backoff(serve):
    server = serve([(429, {}, b"slow down"), (503, {}, b"busy"),
                    (200, {"Content-Type": "application/json"}, ok_body("好"))])
    client, sleeps = client_for(server)
    assert client.complete(REQ).text == "好"
    assert sleeps == [1.0, 2.0]
    assert len(server.received) == 3


def test_a_400_raises_api_status_error_with_the_body(serve):
    server = serve([(400, {"Content-Type": "application/json"}, b'{"error": "bad model"}')])
    client, sleeps = client_for(server)
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert (err.value.status, err.value.body) == (400, '{"error": "bad model"}')
    assert sleeps == [] and len(server.received) == 1


def test_a_text_plain_reply_without_charset_is_read_as_utf8(serve):
    # requests decoded it as ISO-8859-1, without an error
    server = serve([(200, {"Content-Type": "text/plain"}, ok_body("高血压"))] * 2)
    url = f"{server.url}/chat/completions"
    assert _default_transport(url, {}, {}, 5.0) == (200, ok_body("高血压").decode())
    client, _ = client_for(server)
    assert client.complete(REQ).text == "高血压"


@pytest.mark.parametrize("status", [200, 503])
def test_a_body_that_is_not_utf8_is_one_api_status_error(serve, status):
    server = serve([(status, {"Content-Type": "application/json"}, b'{"x": "\xff\xfe"}')] * 3)
    calls = []
    client, sleeps = client_for(server, transport=counting(calls))
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert err.value.status == status
    assert err.value.body == '{"x": "\\xff\\xfe"}'
    assert isinstance(err.value.__cause__, UnicodeDecodeError)
    assert len(calls) == 1 and sleeps == [] and len(server.received) == 1


def test_a_read_timeout_is_a_retried_transport_failure(serve):
    release = threading.Event()
    server = serve([release, release])
    client, sleeps = client_for(server, max_attempts=2, timeout=0.2)
    try:
        with pytest.raises(TransportError, match="gave up after 2 attempts"):
            client.complete(REQ)
    finally:
        release.set()
    assert sleeps == [1.0]


@pytest.mark.parametrize("status", [302, 307])
def test_a_redirect_is_not_followed(serve, monkeypatch, status):
    # the standard library's default opener would resend the POST to the
    # other host, with the Authorization header
    monkeypatch.setenv("SEEDQA_API_KEY", "sk-loopback")
    other = serve([(200, {"Content-Type": "application/json"}, ok_body())])
    location = other.url.replace("127.0.0.1", "localhost") + "/chat/completions"
    server = serve([(status, {"Location": location}, b"moved")])
    client, sleeps = client_for(server)
    with pytest.raises(ApiStatusError) as err:
        client.complete(REQ)
    assert (err.value.status, err.value.body) == (status, "moved")
    assert sleeps == [] and len(server.received) == 1
    assert other.received == []


def test_a_live_call_needs_no_third_party_http_client(serve, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    server = serve([(200, {"Content-Type": "application/json"}, ok_body())])
    client, _ = client_for(server)
    assert client.complete(REQ).text == "hi"
