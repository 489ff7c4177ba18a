"""The serve HTTP request reader on untrusted bytes.

``repro.serve.app._read_request`` is the only code that parses what a
client sends.  Every input must end in a parsed request, ``None``
(closed or idle connection), :class:`BadRequest` (answered 400) or
``asyncio.IncompleteReadError`` (cut mid-body) -- never another
exception and never a hang.  The unit and property tests feed bytes
through ``asyncio.StreamReader.feed_data``/``feed_eof``; the end-to-end
tests speak raw sockets to a :class:`ServerThread`.
"""

import asyncio
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve import app
from repro.serve.app import (
    MAX_BODY,
    MAX_REQUEST_LINE,
    BadRequest,
    _read_request,
    _Request,
)

#: Upper bound on one parse of already-buffered bytes [s].
PARSE_BOUND_S = 5.0

GATE_BODY = b'{"gate": "xor", "bits": [0, 1]}'
VALID_REQUESTS = [
    b"POST /v1/gate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(GATE_BODY), GATE_BODY),
    b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
    b"GET /metrics?x=1 HTTP/1.0\n\n",
]


@pytest.fixture(autouse=True)
def _clean_observer():
    obs.disable()
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


def _parse(data, limit=None):
    """Outcome of reading ``data`` (then EOF) as one request: the
    ``_Request``, ``None`` or the exception raised."""

    async def main():
        reader = (asyncio.StreamReader() if limit is None
                  else asyncio.StreamReader(limit=limit))
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(_read_request(reader), PARSE_BOUND_S)

    try:
        return asyncio.run(main())
    except Exception as exc:  # classified by the caller
        return exc


def _assert_typed(outcome):
    assert outcome is None or isinstance(
        outcome, (_Request, BadRequest, asyncio.IncompleteReadError)), (
        f"untyped outcome {outcome!r}")


class TestRequestReader:
    def test_valid_requests_parse(self):
        post = _parse(VALID_REQUESTS[0])
        assert isinstance(post, _Request)
        assert (post.method, post.path) == ("POST", "/v1/gate")
        assert post.body == GATE_BODY
        assert post.json() == {"gate": "xor", "bits": [0, 1]}
        metrics = _parse(VALID_REQUESTS[2])
        assert (metrics.method, metrics.path) == ("GET", "/metrics")
        assert metrics.body == b""

    def test_empty_input_is_a_closed_connection(self):
        assert _parse(b"") is None

    @pytest.mark.parametrize("value", [
        "-5", "-1", "+5", "1_0", "0x10", "5a", " ", "1 2", "²",
        "١"])
    def test_non_decimal_content_length_is_bad_request(self, value):
        data = (b"POST /v1/gate HTTP/1.1\r\nContent-Length: "
                + value.encode("utf-8") + b"\r\n\r\n")
        outcome = _parse(data)
        assert isinstance(outcome, BadRequest), outcome
        assert "Content-Length" in str(outcome)

    def test_huge_content_length_is_bad_request(self):
        for value in (str(MAX_BODY + 1), "9" * 5000):
            outcome = _parse(b"POST / HTTP/1.1\r\nContent-Length: "
                             + value.encode() + b"\r\n\r\n")
            assert isinstance(outcome, BadRequest), outcome
            assert "too large" in str(outcome)

    def test_leading_zeros_are_decimal(self):
        outcome = _parse(b"POST / HTTP/1.1\r\nContent-Length: 0003\r\n"
                         b"\r\nabc")
        assert isinstance(outcome, _Request) and outcome.body == b"abc"

    def test_header_line_over_max_is_bad_request(self):
        line = b"X-Long: " + b"a" * MAX_REQUEST_LINE + b"\r\n"
        outcome = _parse(b"GET / HTTP/1.1\r\n" + line + b"\r\n")
        assert isinstance(outcome, BadRequest)
        assert "header line too long" in str(outcome)

    def test_lines_over_reader_limit_are_bad_request(self):
        """Past the StreamReader limit readline raises ValueError
        itself; that too is a 400, for the request and header lines."""
        long = b"a" * (70 * 1024)
        request_line = _parse(b"GET /" + long + b" HTTP/1.1\r\n\r\n")
        assert isinstance(request_line, BadRequest)
        assert "request line too long" in str(request_line)
        header = _parse(b"GET / HTTP/1.1\r\nX: " + long + b"\r\n\r\n")
        assert isinstance(header, BadRequest)
        assert "header line too long" in str(header)

    def test_truncated_body_is_incomplete_read(self):
        outcome = _parse(VALID_REQUESTS[0][:-3])
        assert isinstance(outcome, asyncio.IncompleteReadError)

    def test_stalled_client_times_out(self, monkeypatch):
        """The idle timeout bounds the headers and body too, not only
        the wait for the request line."""
        monkeypatch.setattr(app, "IDLE_TIMEOUT", 0.2)

        async def stalled(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)  # ...and never EOF
            t0 = time.monotonic()
            outcome = await asyncio.wait_for(_read_request(reader),
                                             PARSE_BOUND_S)
            return outcome, time.monotonic() - t0

        for data in (b"", b"POST /v1/gate HTTP/1.1\r\n",
                     b"POST /v1/gate HTTP/1.1\r\nContent-Length: 10\r\n"
                     b"\r\nabc"):
            outcome, elapsed = asyncio.run(stalled(data))
            assert outcome is None
            assert elapsed < 2.0


#: Fragments a mutation may splice in: framing, signs and long runs.
FRAGMENTS = [b"\r\n", b"\n", b":", b" ", b"-", b"+", b"\x00", b"\xff",
             b"Content-Length: -1\r\n", b"Content-Length: 99999999\r\n",
             b"X: " + b"y" * 9000 + b"\r\n", b"9" * 40, b"HTTP/1.1"]


@st.composite
def mutated_requests(draw):
    data = bytearray(draw(st.sampled_from(VALID_REQUESTS)))
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete",
                                   "truncate"]))
        if op == "replace" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.one_of(st.sampled_from(FRAGMENTS),
                                           st.binary(max_size=16)))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif op == "truncate":
            del data[pos:]
    return bytes(data)


class TestRequestReaderFuzz:
    @given(st.binary(max_size=4096))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_end_typed(self, data):
        _assert_typed(_parse(data))

    @given(mutated_requests())
    @settings(max_examples=300, deadline=None)
    def test_mutated_requests_end_typed(self, data):
        _assert_typed(_parse(data))

    @given(st.binary(max_size=64).filter(
        lambda b: b"\r" not in b and b"\n" not in b))
    @settings(max_examples=200, deadline=None)
    def test_content_length_is_decimal_or_rejected(self, value):
        body = b"z" * 64
        outcome = _parse(b"POST / HTTP/1.1\r\nContent-Length: " + value
                         + b"\r\n\r\n" + body)
        _assert_typed(outcome)
        if isinstance(outcome, _Request):
            text = value.decode("latin-1").strip()
            assert text.isascii() and text.isdigit()
            assert outcome.body == body[:int(text)]

    @given(st.binary(max_size=2048), st.integers(16, 256))
    @settings(max_examples=100, deadline=None)
    def test_small_reader_limit_ends_typed(self, data, limit):
        """A reader limit below the line caps exercises readline's own
        overrun error on every long line."""
        _assert_typed(_parse(data, limit=limit))


# -- end to end over raw sockets -----------------------------------------


def _exchange(port, data, timeout=10.0):
    """Send ``data``, then read until the server closes; returns the
    bytes received."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture()
def server(tmp_path):
    with ServerThread(ServeConfig(port=0,
                                  cache_dir=str(tmp_path / "cache"))) as srv:
        yield srv


class TestHttpRejects:
    @pytest.mark.parametrize("value", [b"-5", b"-1", b"5a", b"+5"])
    def test_bad_content_length_answers_400(self, server, value):
        reply = _exchange(server.port, b"POST /v1/gate HTTP/1.1\r\n"
                          b"Host: x\r\nContent-Length: " + value
                          + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert "Content-Length" in body["error"]
        assert ServeClient(server.base_url).health()["status"] == "ok"

    def test_over_long_header_line_answers_400(self, server):
        reply = _exchange(server.port, b"GET /healthz HTTP/1.1\r\nX-Long: "
                          + b"a" * (MAX_REQUEST_LINE + 1) + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"header line too long" in reply
        assert ServeClient(server.base_url).health()["status"] == "ok"

    def test_stalled_client_is_disconnected(self, server, monkeypatch):
        monkeypatch.setattr(app, "IDLE_TIMEOUT", 0.3)
        t0 = time.monotonic()
        reply = _exchange(server.port, b"POST /v1/gate HTTP/1.1\r\n")
        assert reply == b""  # closed without a response
        assert time.monotonic() - t0 < 5.0
        assert ServeClient(server.base_url).health()["status"] == "ok"


async def _wait_closed_3_12(self):
    """``asyncio.Server.wait_closed`` as of Python 3.12.1: it returns
    only once every connection the server accepted has closed."""
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter


class TestShutdown:
    @pytest.fixture(params=["native", "3.12-wait-closed"])
    def wait_closed(self, request, monkeypatch):
        if request.param != "native":
            monkeypatch.setattr(asyncio.base_events.Server, "wait_closed",
                                _wait_closed_3_12)

    def test_idle_keep_alive_connection_closes_cleanly(
            self, tmp_path, caplog, capfd, wait_closed):
        srv = ServerThread(ServeConfig(
            port=0, cache_dir=str(tmp_path / "cache"))).start()
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 200 "), reply
            assert b"Connection: keep-alive" in reply
            # The answered connection is still open; the drain must
            # close it well inside the keep-alive idle timeout.
            srv.stop(timeout=app.IDLE_TIMEOUT / 3)
            assert sock.recv(65536) == b""  # the drain closed it
        for text in (caplog.text, capfd.readouterr().err):
            assert "Traceback" not in text
            assert "CancelledError" not in text


def _counter(text, name):
    """A Prometheus counter's value; an absent counter is 0."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


class TestReaderErrorsAccounted:
    def test_reader_400s_are_logged_and_counted(self, tmp_path):
        log = tmp_path / "access.jsonl"
        with ServerThread(ServeConfig(port=0, access_log=str(log),
                                      cache_dir=str(tmp_path / "c"))) as srv:
            for raw in (b"POST /v1/gate?x=1 HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: -1\r\n\r\n",
                        b"NONSENSE\r\n\r\n"):
                reply = _exchange(srv.port, raw)
                assert reply.startswith(b"HTTP/1.1 400 "), reply
                assert b"Connection: close" in reply
            text = ServeClient(srv.base_url).metrics()
        # Both 400s and the /metrics request itself.
        assert _counter(text, "repro_serve_requests_total") == 3
        assert _counter(text, "repro_serve_http_4xx_total") == 2
        records = [json.loads(line) for line in log.read_text().splitlines()]
        bad = [r for r in records if r["status"] == 400]
        assert [(r["method"], r["path"]) for r in bad] \
            == [("POST", "/v1/gate"), (None, None)]
        assert all(r["request_id"] and r["bytes_out"] > 0 for r in bad)


class TestSpanCollector:
    def test_no_spans_held_without_a_trace_file(self, server):
        client = ServeClient(server.base_url)
        assert client.gate("maj3", [0, 1, 1])["result"]["correct"] is True
        assert obs.spans() == []
        assert client.gate("maj3", [0, 1, 1])["served"]["source"] \
            in ("cached", "coalesced")
        assert obs.spans() == []
        # The observer stays on: /metrics is live.
        text = client.metrics()
        assert _counter(text, "repro_serve_requests_total") == 3
        assert obs.spans() == []
