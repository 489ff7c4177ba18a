"""Fuzz the cluster's byte boundary: frame and chunk-header decoding.

Every byte string a peer can send must end, within a bounded time, in
a decoded frame, a clean EOF (None) or a typed
:class:`~repro.errors.ClusterError` -- never another exception and
never a hang.  The wire is an in-memory stand-in for a socket that
hands out at most ``piece`` bytes per ``recv``.
"""

import hashlib
import json
import struct
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.protocol import recv_message, send_frame
from repro.errors import ClusterError

#: Wall-time bound on decoding one fuzzed input [s].
DECODE_BOUND_S = 2.0

_LENGTH = struct.Struct(">I")


class _Wire:
    """Socket stand-in: ``recv`` serves the buffered bytes, then EOF."""

    def __init__(self, data=b"", piece=1 << 20):
        self.data = bytearray(data)
        self.piece = piece

    def recv(self, n):
        chunk = bytes(self.data[:min(n, self.piece)])
        del self.data[:len(chunk)]
        return chunk

    def sendall(self, data):
        self.data += data


def _frame(payload):
    return _LENGTH.pack(len(payload)) + payload


def _decode(data, piece=1 << 20):
    """recv_message over ``data``: the message, None or a ClusterError."""
    t0 = time.monotonic()
    try:
        outcome = recv_message(_Wire(data, piece))
    except ClusterError as exc:
        outcome = exc
    assert time.monotonic() - t0 < DECODE_BOUND_S
    assert outcome is None or isinstance(outcome, (dict, ClusterError))
    return outcome


def _chunk_stream(payload, chunk_bytes):
    """A valid result_chunk header followed by its raw chunks."""
    chunks = [payload[i:i + chunk_bytes]
              for i in range(0, len(payload), chunk_bytes)]
    header = {"type": "result_chunk", "bytes": len(payload),
              "chunks": len(chunks), "chunk_bytes": chunk_bytes,
              "sha256": hashlib.sha256(payload).hexdigest()}
    return (_frame(json.dumps(header).encode("utf-8"))
            + b"".join(_frame(chunk) for chunk in chunks))


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False), st.text(max_size=20))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner,
                                            max_size=4)),
    max_leaves=12)
messages = st.dictionaries(st.text(max_size=8), json_values, max_size=6)

#: Header field values a hostile peer may announce.
header_values = st.one_of(
    json_scalars, st.sampled_from([float("inf"), float("-inf"),
                                   float("nan"), 2 ** 64, -1, 0]),
    st.lists(json_scalars, max_size=2))

#: Fragments a mutation may splice in: lengths, brackets, escapes.
FRAGMENTS = [b"\x00\x00\x00\x00", b"\xff\xff\xff\xff", b"\x10\x00\x00\x00",
             b"[" * 64, b"{" * 64, b"\"", b"\\ud800", b"1e400", b"NaN",
             b"\"result_chunk\"", b"\xc3\x28"]


@st.composite
def mutated_streams(draw):
    """A valid frame or chunk stream with a few byte-level mutations."""
    message = draw(messages)
    payload = json.dumps(message).encode("utf-8")
    if draw(st.booleans()):
        data = bytearray(_frame(payload))
    else:
        data = bytearray(_chunk_stream(payload,
                                       draw(st.integers(1, 64))))
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


class TestFrameFuzz:
    @given(st.binary(max_size=4096), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_end_typed(self, data, piece):
        _decode(data, piece)

    @given(st.binary(max_size=2048))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_payload_in_a_frame_ends_typed(self, payload):
        outcome = _decode(_frame(payload))
        assert outcome is not None  # a whole frame is never an EOF

    @given(mutated_streams(), st.integers(1, 64))
    @settings(max_examples=400, deadline=None)
    def test_mutated_streams_end_typed(self, data, piece):
        _decode(data, piece)

    @given(messages, st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_valid_frames_round_trip(self, message, piece):
        wire = _Wire()
        send_frame(wire, message)
        wire.piece = piece
        assert recv_message(wire) == message

    def test_deep_nesting_is_a_typed_error(self):
        for opener in (b"[", b"{\"a\":"):
            outcome = _decode(_frame(opener * 200000))
            assert isinstance(outcome, ClusterError)


class TestChunkHeaderFuzz:
    @given(messages, st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_valid_chunk_streams_reassemble(self, message, chunk_bytes,
                                            piece):
        payload = json.dumps(message).encode("utf-8")
        stream = _chunk_stream(payload, chunk_bytes)
        assert recv_message(_Wire(stream, piece)) == message

    @given(st.dictionaries(st.sampled_from(["bytes", "chunks", "sha256",
                                            "chunk_bytes"]),
                           header_values),
           st.binary(max_size=512))
    @settings(max_examples=400, deadline=None)
    def test_hostile_headers_end_typed(self, fields, tail):
        header = {"type": "result_chunk", **fields}
        _decode(_frame(json.dumps(header).encode("utf-8")) + tail)

    @given(messages, st.integers(1, 16), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_tampered_chunk_is_rejected(self, message, chunk_bytes, junk):
        payload = json.dumps(message).encode("utf-8")
        stream = bytearray(_chunk_stream(payload, chunk_bytes))
        stream[-1:] = junk  # the last chunk's tail, maybe its length
        outcome = _decode(bytes(stream))
        assert not isinstance(outcome, dict) or outcome == message
