"""Wire protocol of the cluster: frames, handshake, value codec.

Everything on a cluster socket is a *frame*: a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON (one object per
frame).  Numpy arrays inside job results ride as a base64-encoded
in-memory ``.npz`` attached to the JSON object -- the same tagged-JSON
codec the disk cache uses (:mod:`repro.runtime.cache`), so anything
cacheable is shippable and decodes bit-identically on the other side.

Connections authenticate *mutually* with an HMAC-SHA256
challenge-response over a shared secret before any job data flows:

1. server -> client: ``{"type": "challenge", "nonce": <hex>}``
2. client -> server: ``{"type": "auth", "role": ..., "nonce": <hex>,
   "mac": HMAC(secret, "client:" + server_nonce)}``
3. server -> client: ``{"type": "welcome",
   "mac": HMAC(secret, "server:" + client_nonce)}``

A peer that cannot produce the MAC is dropped with
:class:`~repro.errors.ClusterAuthError`; because the *server* must
answer the client's nonce too, a client never sends job parameters to
a coordinator that does not hold the secret.  The secret comes from
the ``REPRO_CLUSTER_SECRET`` environment variable (see
``docs/CLUSTER.md`` for the security model and its limits -- the
payload itself is not encrypted).

Message types after the handshake:

======================  =====================================================
frame                   direction and meaning
======================  =====================================================
``hello``               worker -> coordinator: register, with ``capacity``
``job``                 coordinator -> worker: run one job (ref, params,
                        timeout, optional fault plan and trace context)
``result``              worker -> coordinator: one job's outcome
``heartbeat``           worker -> coordinator: liveness, every interval
``submit``              client -> coordinator: a batch of jobs
``outcome``             coordinator -> client: one job's final outcome
``status``              client -> coordinator and back: cluster snapshot
``ping`` / ``pong``     client -> coordinator and back: reachability probe
``shutdown``            client -> coordinator: stop serving; coordinator ->
                        worker: exit
``result_chunk``        either direction: header announcing a large message
                        streamed as raw binary chunks (see below)
``error``               either direction: protocol-level failure report
======================  =====================================================

Messages larger than :data:`CHUNK_THRESHOLD` do not travel as one
giant frame (the 256 MiB frame cap exists to stop hostile lengths
from allocating unbounded memory, and it must not become a
correctness cliff for big fdtd/llg field dumps).  Instead
:func:`send_message` emits a small ``result_chunk`` header frame
declaring the total byte count, the chunk count and a SHA-256 digest,
followed by that many *raw* length-prefixed binary chunks of at most
:data:`CHUNK_BYTES` each.  :func:`recv_message` reassembles them
under a running digest check: a short stream, an overrun or a digest
mismatch raises :class:`~repro.errors.ClusterError` and the caller
drops the connection -- a corrupt gigabyte never decodes into a
plausible-looking result.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import io
import json
import os
import re
import secrets as _secrets
import socket
import ssl
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import ClusterAuthError, ClusterError
from ..resilience import faults
from ..runtime.cache import _decode, _encode

#: Environment variable holding the cluster shared secret.
SECRET_ENV = "REPRO_CLUSTER_SECRET"

#: Secret used when ``REPRO_CLUSTER_SECRET`` is unset -- fine for
#: localhost development and the test suite, NOT for shared networks
#: (anyone can read this file); see the security note in
#: ``docs/CLUSTER.md``.
DEV_SECRET = "repro-dev-cluster-secret"

#: Hard ceiling on one frame's payload: a malformed or hostile length
#: prefix never makes a peer allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Messages above this size are streamed as chunks by
#: :func:`send_message` instead of one frame.  Well under the frame
#: cap so the threshold is a performance knob, never a correctness
#: one.
CHUNK_THRESHOLD = 32 * 1024 * 1024

#: Size of one raw chunk inside a streamed message.
CHUNK_BYTES = 8 * 1024 * 1024

#: Ceiling on a *streamed* message's total size.  Large enough for
#: multi-gigabyte field dumps, small enough that a hostile header
#: still cannot ask for unbounded memory.
MAX_STREAM_BYTES = 8 * 1024 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def resolve_secret(secret: Optional[str] = None) -> str:
    """Explicit secret, else ``REPRO_CLUSTER_SECRET``, else the
    development secret."""
    if secret:
        return secret
    return os.environ.get(SECRET_ENV) or DEV_SECRET


# -- framing ----------------------------------------------------------------

def _send_payload(sock: socket.socket, payload: bytes) -> int:
    """Write one length-prefixed payload (fault site + cap + counters)."""
    if faults.active():
        fault = faults.trip("cluster.frame.send")
        if fault is not None and fault.kind == "corrupt":
            try:
                sock.close()
            finally:
                raise ClusterError(
                    "fault injection dropped a frame (cluster.frame.send)")
    if len(payload) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    data = _LENGTH.pack(len(payload)) + payload
    sock.sendall(data)
    if obs.enabled():
        obs.counter("cluster.bytes_sent").inc(len(data))
        obs.counter("cluster.frames_sent").inc()
    return len(data)


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> int:
    """Serialize ``message`` and write one length-prefixed frame.

    Returns the bytes written (prefix included).  The fault site
    ``cluster.frame.send`` supports ``slow`` (the frame is delayed, by
    :func:`~repro.resilience.faults.trip` itself), ``error``/``crash``
    (fired inside ``trip``) and ``corrupt`` (the frame is *dropped*:
    the connection is torn down so both peers see a clean EOF rather
    than a desynchronized stream).
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _send_payload(sock, payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes, or None on a clean EOF."""
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except OSError:
            return None  # peer reset / socket closed under us
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_payload(sock: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed payload; None on EOF (peer gone)."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ClusterError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES}); dropping the connection")
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    if obs.enabled():
        obs.counter("cluster.bytes_received").inc(_LENGTH.size + length)
        obs.counter("cluster.frames_received").inc()
    return payload


def _parse_frame(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        # RecursionError: a hostile peer nesting arrays thousands deep.
        raise ClusterError(f"undecodable frame: {exc}")
    if not isinstance(message, dict):
        raise ClusterError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; None on EOF (peer gone).

    A syntactically broken frame (bad length, bad JSON, non-object
    payload) raises :class:`~repro.errors.ClusterError` -- the caller
    drops the connection rather than guessing at re-synchronisation.
    """
    payload = _recv_payload(sock)
    if payload is None:
        return None
    return _parse_frame(payload)


# -- chunked streaming ------------------------------------------------------

def send_message(sock: socket.socket, message: Dict[str, Any]) -> int:
    """Send ``message``, streaming it in chunks when it is large.

    Messages up to :data:`CHUNK_THRESHOLD` go through
    :func:`send_frame` unchanged -- the common case pays nothing.
    Bigger ones are announced by a ``result_chunk`` header frame
    (total bytes, chunk count, SHA-256) and streamed as raw
    length-prefixed chunks of :data:`CHUNK_BYTES`, so a result larger
    than the frame cap still crosses the wire -- and arrives
    digest-verified.  Returns the bytes written.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) <= CHUNK_THRESHOLD:
        return _send_payload(sock, payload)
    if len(payload) > MAX_STREAM_BYTES:
        raise ClusterError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_STREAM_BYTES}-byte streaming limit")
    chunks = (len(payload) + CHUNK_BYTES - 1) // CHUNK_BYTES
    sent = send_frame(sock, {
        "type": "result_chunk",
        "bytes": len(payload),
        "chunks": chunks,
        "chunk_bytes": CHUNK_BYTES,
        "sha256": hashlib.sha256(payload).hexdigest(),
    })
    view = memoryview(payload)
    for i in range(chunks):
        chunk = view[i * CHUNK_BYTES:(i + 1) * CHUNK_BYTES]
        sock.sendall(_LENGTH.pack(len(chunk)))
        sock.sendall(chunk)
        sent += _LENGTH.size + len(chunk)
    if obs.enabled():
        obs.counter("cluster.chunked_messages_sent").inc()
        obs.counter("cluster.chunk_frames_sent").inc(chunks)
        obs.counter("cluster.bytes_sent").inc(len(payload)
                                             + chunks * _LENGTH.size)
    return sent


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one message, reassembling a chunk stream transparently.

    The inverse of :func:`send_message`: an ordinary frame is returned
    as-is; a ``result_chunk`` header makes this call consume the
    announced raw chunks under a running SHA-256.  A short stream, an
    overrun past the declared size or a digest mismatch raises
    :class:`~repro.errors.ClusterError`; None means EOF.
    """
    frame = recv_frame(sock)
    if frame is None or frame.get("type") != "result_chunk":
        return frame
    expected_digest = frame.get("sha256")
    try:
        total = int(frame.get("bytes", -1))
        chunks = int(frame.get("chunks", -1))
    except (TypeError, ValueError, OverflowError):
        raise ClusterError("malformed result_chunk header")
    if not (isinstance(expected_digest, str)
            and _SHA256_HEX.fullmatch(expected_digest)):
        raise ClusterError("malformed result_chunk header: no SHA-256")
    if not 0 < total <= MAX_STREAM_BYTES:
        raise ClusterError(
            f"peer announced a {total}-byte chunked message (limit "
            f"{MAX_STREAM_BYTES}); dropping the connection")
    if not 0 < chunks <= total:
        raise ClusterError(
            f"implausible chunk count {chunks} for {total} bytes")
    digest = hashlib.sha256()
    parts = []
    received = 0
    for _ in range(chunks):
        chunk = _recv_payload(sock)
        if chunk is None:
            return None  # peer died mid-stream; same as any other EOF
        received += len(chunk)
        if received > total:
            raise ClusterError(
                f"chunked message overran its declared {total} bytes")
        digest.update(chunk)
        parts.append(chunk)
    if received != total:
        raise ClusterError(
            f"chunked message ended at {received} of {total} declared "
            "bytes")
    if not hmac.compare_digest(digest.hexdigest(), expected_digest):
        raise ClusterError(
            "chunked message failed its SHA-256 digest check; "
            "dropping the connection")
    if obs.enabled():
        obs.counter("cluster.chunked_messages_received").inc()
    return _parse_frame(b"".join(parts))


# -- value codec ------------------------------------------------------------

def encode_value(value: Any) -> Dict[str, Any]:
    """Encode a job result for a frame: tagged JSON plus an optional
    base64 in-memory npz carrying the ndarrays."""
    arrays: Dict[str, np.ndarray] = {}
    node = _encode(value, arrays)
    encoded: Dict[str, Any] = {"value": node}
    if arrays:
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        encoded["npz"] = base64.b64encode(buffer.getvalue()).decode("ascii")
    return encoded


def decode_value(encoded: Dict[str, Any]) -> Any:
    """Invert :func:`encode_value` (bit-identical arrays included)."""
    arrays = None
    blob = encoded.get("npz")
    if blob:
        with np.load(io.BytesIO(base64.b64decode(blob))) as npz:
            arrays = {name: npz[name] for name in npz.files}
    return _decode(encoded.get("value"), arrays)


# -- HMAC handshake ---------------------------------------------------------

def _mac(secret: str, role: str, nonce: str) -> str:
    return hmac.new(secret.encode("utf-8"),
                    f"{role}:{nonce}".encode("utf-8"),
                    hashlib.sha256).hexdigest()


def server_handshake(sock: socket.socket, secret: str) -> Dict[str, Any]:
    """Coordinator side: challenge the peer, verify, answer its nonce.

    Returns the peer's ``auth`` frame (the ``role`` field tells worker
    from client).  Raises :class:`~repro.errors.ClusterAuthError` on a
    missing or wrong MAC; the caller closes the socket.
    """
    nonce = _secrets.token_hex(16)
    send_frame(sock, {"type": "challenge", "nonce": nonce})
    reply = recv_frame(sock)
    if reply is None or reply.get("type") != "auth":
        raise ClusterAuthError("peer hung up before authenticating")
    expected = _mac(secret, "client", nonce)
    if not hmac.compare_digest(str(reply.get("mac", "")), expected):
        raise ClusterAuthError("peer failed the HMAC challenge")
    peer_nonce = str(reply.get("nonce", ""))
    send_frame(sock, {"type": "welcome",
                      "mac": _mac(secret, "server", peer_nonce)})
    return reply


def client_handshake(sock: socket.socket, secret: str,
                     role: str = "client",
                     extra: Optional[Dict[str, Any]] = None) -> None:
    """Worker/client side: answer the challenge, verify the server.

    ``extra`` fields (e.g. a worker's ``capacity``) ride on the auth
    frame so registration needs no extra round trip.
    """
    challenge = recv_frame(sock)
    if challenge is None or challenge.get("type") != "challenge":
        raise ClusterAuthError("coordinator did not send a challenge")
    nonce = _secrets.token_hex(16)
    auth: Dict[str, Any] = {
        "type": "auth", "role": role, "nonce": nonce,
        "mac": _mac(secret, "client", str(challenge.get("nonce", "")))}
    auth.update(extra or {})
    send_frame(sock, auth)
    welcome = recv_frame(sock)
    if welcome is None or welcome.get("type") != "welcome":
        raise ClusterAuthError(
            "coordinator rejected the HMAC credential (wrong "
            f"{SECRET_ENV}?)")
    if not hmac.compare_digest(str(welcome.get("mac", "")),
                               _mac(secret, "server", nonce)):
        raise ClusterAuthError(
            "coordinator failed to prove knowledge of the shared "
            "secret; refusing to send it any work")


def parse_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` -> (host, port); raises
    :class:`~repro.errors.ClusterConfigError` on anything else."""
    from ..errors import ClusterConfigError

    if not url.startswith("tcp://"):
        raise ClusterConfigError(
            f"cluster URL must start with tcp://, got {url!r}")
    rest = url[len("tcp://"):]
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host:
        raise ClusterConfigError(
            f"cluster URL must be tcp://host:port, got {url!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterConfigError(
            f"cluster URL port must be an integer, got {url!r}")
    if not 0 < port < 65536:
        raise ClusterConfigError(
            f"cluster URL port out of range, got {url!r}")
    return host, port


# -- optional TLS -----------------------------------------------------------

@dataclass(frozen=True)
class TlsConfig:
    """PEM paths for optional TLS on cluster sockets.

    Built by :func:`tls_config` (which validates partial
    configurations with a typed error) and turned into
    ``ssl.SSLContext`` objects by :func:`server_tls_context` /
    :func:`client_tls_context`.  TLS encrypts the transport; peer
    *authentication* remains the HMAC handshake (certificates add a
    second, independent factor when ``ca`` is given).
    """

    cert: Optional[str] = None
    key: Optional[str] = None
    ca: Optional[str] = None


def tls_config(cert: Optional[str] = None, key: Optional[str] = None,
               ca: Optional[str] = None) -> Optional[TlsConfig]:
    """Normalize ``--tls-*`` flags: None when all unset, a validated
    :class:`TlsConfig` otherwise.

    A certificate without its key (or vice versa) is a configuration
    mistake, reported as :class:`~repro.errors.ClusterConfigError`
    rather than an ``ssl`` traceback at first connection.
    """
    from ..errors import ClusterConfigError

    if not (cert or key or ca):
        return None
    if bool(cert) != bool(key):
        raise ClusterConfigError(
            "--tls-cert and --tls-key must be given together "
            f"(got cert={cert!r}, key={key!r})")
    for label, path in (("--tls-cert", cert), ("--tls-key", key),
                        ("--tls-ca", ca)):
        if path and not os.path.isfile(path):
            raise ClusterConfigError(f"{label} file not found: {path}")
    return TlsConfig(cert=cert, key=key, ca=ca)


def server_tls_context(config: TlsConfig) -> ssl.SSLContext:
    """Coordinator-side context: requires a cert+key pair; with a CA,
    client certificates are demanded and verified too."""
    from ..errors import ClusterConfigError

    if not config.cert:
        raise ClusterConfigError(
            "serving TLS needs --tls-cert and --tls-key")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    try:
        context.load_cert_chain(config.cert, config.key)
        if config.ca:
            context.load_verify_locations(config.ca)
            context.verify_mode = ssl.CERT_REQUIRED
    except (ssl.SSLError, OSError) as exc:
        raise ClusterConfigError(f"bad TLS material: {exc}") from exc
    return context


def client_tls_context(config: TlsConfig) -> ssl.SSLContext:
    """Worker/client-side context.

    With ``ca`` the coordinator's certificate is verified against it
    (hostname checking stays off: cluster URLs are routinely raw IPs
    and the HMAC handshake already authenticates the peer); without
    ``ca`` the channel is encrypted but the certificate unverified.
    An optional cert+key pair is presented for mutual TLS.
    """
    from ..errors import ClusterConfigError

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.check_hostname = False
    try:
        if config.ca:
            context.load_verify_locations(config.ca)
            context.verify_mode = ssl.CERT_REQUIRED
        else:
            context.verify_mode = ssl.CERT_NONE
        if config.cert:
            context.load_cert_chain(config.cert, config.key)
    except (ssl.SSLError, OSError) as exc:
        raise ClusterConfigError(f"bad TLS material: {exc}") from exc
    return context


def wrap_client_socket(sock: socket.socket,
                       tls: Optional[TlsConfig],
                       host: str) -> socket.socket:
    """Wrap an outbound socket when ``tls`` is configured (no-op
    otherwise).  A failed TLS handshake surfaces as
    :class:`~repro.errors.ClusterError` so callers' reconnect loops
    treat it like any other connection failure."""
    if tls is None:
        return sock
    context = client_tls_context(tls)
    try:
        return context.wrap_socket(sock, server_hostname=host)
    except (ssl.SSLError, OSError) as exc:
        try:
            sock.close()
        except OSError:
            pass
        raise ClusterError(f"TLS handshake failed: {exc}") from exc
