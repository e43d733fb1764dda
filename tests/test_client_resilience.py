"""Client-side resilience: retries and stream interruption.

Transport is stubbed (no sockets): tests monkeypatch
``RatatouilleClient._open`` and inject a recording sleeper, so retry
schedules run instantly and deterministically.
"""

import io
import json
import socket
from urllib.error import HTTPError, URLError

import pytest

from repro.webapp import (ApiError, RatatouilleClient, RetryPolicy,
                          StreamInterrupted)


def _http_error(code, message="boom", retry_after=None):
    headers = {}
    if retry_after is not None:
        headers["Retry-After"] = str(retry_after)
    body = json.dumps({"error": message}).encode("utf-8")
    return HTTPError("http://test/api", code, message, headers,
                     io.BytesIO(body))


class _FakeResponse:
    def __init__(self, body=b"{}"):
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _ScriptedTransport:
    """Each call pops the next step: an exception to raise or a body."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.calls = 0

    def __call__(self, method, path, payload):
        self.calls += 1
        step = self.steps.pop(0)
        if isinstance(step, BaseException):
            raise step
        return _FakeResponse(step)


def _client(steps, retry=RetryPolicy(max_retries=2, backoff_seconds=0.1)):
    slept = []
    client = RatatouilleClient("http://test", retry=retry, sleep=slept.append)
    transport = _ScriptedTransport(steps)
    client._open = transport
    return client, transport, slept


class TestRetries:
    def test_get_retries_5xx_then_succeeds(self):
        client, transport, slept = _client(
            [_http_error(500), _http_error(502), b'{"status": "ok"}'])
        assert client.health() == {"status": "ok"}
        assert transport.calls == 3
        # capped exponential backoff: 0.1 then 0.2
        assert slept == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_get_retries_transport_errors(self):
        client, transport, _ = _client(
            [URLError("refused"), socket.timeout(), b'{"status": "ok"}'])
        assert client.health() == {"status": "ok"}
        assert transport.calls == 3

    def test_post_not_retried_on_500(self):
        client, transport, _ = _client([_http_error(500), b"{}"])
        with pytest.raises(ApiError) as excinfo:
            client.generate(["garlic"])
        assert excinfo.value.status == 500
        assert transport.calls == 1  # a non-idempotent POST ran once

    def test_post_retried_on_503_honoring_retry_after(self):
        client, transport, slept = _client(
            [_http_error(503, "overloaded", retry_after=1), b'{"ok": true}'])
        assert client.generate(["garlic"]) == {"ok": True}
        assert transport.calls == 2
        assert slept == [pytest.approx(1.0)]  # the server's hint won

    def test_post_retried_on_502_replica_death(self):
        # 502 = a serving replica died mid-request (EngineCrashedError
        # at the backend).  Generation is deterministic, so the resend
        # is idempotent: exactly one logical response comes back across
        # two transport calls.
        client, transport, slept = _client(
            [_http_error(502, "engine thread died"), b'{"title": "Soup"}'])
        assert client.generate(["garlic"]) == {"title": "Soup"}
        assert transport.calls == 2
        assert len(slept) == 1

    def test_502_budget_exhausts_with_the_status(self):
        client, transport, _ = _client([_http_error(502)] * 5)
        with pytest.raises(ApiError) as excinfo:
            client.generate(["garlic"])
        assert excinfo.value.status == 502
        assert transport.calls == 3  # 1 attempt + max_retries=2

    def test_retry_budget_exhausts(self):
        client, transport, slept = _client([_http_error(503)] * 5)
        with pytest.raises(ApiError) as excinfo:
            client.generate(["garlic"])
        assert excinfo.value.status == 503
        assert transport.calls == 3  # 1 attempt + max_retries=2
        assert len(slept) == 2

    def test_backoff_is_capped(self):
        policy = RetryPolicy(max_retries=4, backoff_seconds=1.0,
                             backoff_multiplier=10.0, max_backoff_seconds=2.0)
        client, _, slept = _client([_http_error(503)] * 5, retry=policy)
        with pytest.raises(ApiError):
            client.generate(["garlic"])
        assert max(slept) == pytest.approx(2.0)

    def test_retries_disabled(self):
        client, transport, _ = _client([_http_error(503), b"{}"], retry=None)
        with pytest.raises(ApiError):
            client.generate(["garlic"])
        assert transport.calls == 1

    def test_4xx_never_retried(self):
        client, transport, _ = _client([_http_error(429), b"{}"])
        with pytest.raises(ApiError) as excinfo:
            client.health()
        assert excinfo.value.status == 429
        assert transport.calls == 1


class _FakeStream:
    """Iterable SSE response; optionally dies mid-iteration."""

    def __init__(self, events, die_with=None, terminal=False):
        lines = []
        for event in events:
            lines.append(f"data: {json.dumps(event)}\n".encode("utf-8"))
        self._lines = lines
        self._die_with = die_with
        self.terminal = terminal

    def __iter__(self):
        yield from self._lines
        if self._die_with is not None:
            raise self._die_with

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestStreamInterrupted:
    def _stream_client(self, stream):
        client = RatatouilleClient("http://test", retry=None)
        client._open = lambda method, path, payload: stream
        return client

    def test_eof_without_terminal_event_raises_typed(self):
        stream = _FakeStream([{"token": 4, "text": "a"},
                              {"token": 9, "text": "b"}])
        client = self._stream_client(stream)
        received = []
        with pytest.raises(StreamInterrupted) as excinfo:
            for event in client.generate_stream(["garlic"]):
                received.append(event)
        assert excinfo.value.tokens == [4, 9]  # partial, surfaced
        assert len(received) == 2  # events before the cut still arrived

    def test_connection_error_mid_stream_raises_typed(self):
        stream = _FakeStream([{"token": 7, "text": "x"}],
                             die_with=ConnectionResetError("gone"))
        client = self._stream_client(stream)
        with pytest.raises(StreamInterrupted) as excinfo:
            list(client.generate_stream(["garlic"]))
        assert excinfo.value.tokens == [7]

    def test_done_event_is_a_clean_end(self):
        stream = _FakeStream([{"token": 1, "text": "x"},
                              {"done": True, "recipe": {}}])
        client = self._stream_client(stream)
        events = list(client.generate_stream(["garlic"]))
        assert events[-1]["done"] is True

    def test_error_event_is_a_clean_end(self):
        stream = _FakeStream([{"error": "deadline", "deadline_exceeded": True}])
        client = self._stream_client(stream)
        events = list(client.generate_stream(["garlic"]))
        assert events == [{"error": "deadline", "deadline_exceeded": True}]
