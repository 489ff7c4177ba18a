"""repro.cluster: distributed execution across worker processes.

The single-host runtime tops out at one machine's process pool; this
package turns the same :class:`~repro.runtime.Executor` into a
multi-host one with three stdlib-only pieces:

* :class:`Coordinator` -- a threaded TCP server that shards jobs to
  workers, deduplicates identical submissions cluster-wide
  (coordinator-brokered single-flight: 64 identical jobs from any
  number of hosts execute once), owns the shared content-addressed
  cache and the write-ahead journal, and reschedules the in-flight
  jobs of workers that die (socket EOF) or go silent (missed
  heartbeats) -- a ``kill -9``'d worker costs nothing but latency;
* :class:`Worker` -- ``python -m repro worker tcp://host:port``: one
  process executing jobs with the same fault-injection, tracing and
  resource accounting as local pool workers;
* :class:`TcpClusterBackend` -- the
  :class:`~repro.runtime.ExecutorBackend` that makes any executor --
  sweeps, serve, the compiler's characterization runs -- ship its
  cache misses to a coordinator: ``sweep --backend tcp://...``.

All connections are mutually authenticated with an HMAC-SHA256
shared-secret handshake (``REPRO_CLUSTER_SECRET``); frames are
length-prefixed JSON with ndarrays in base64 npz sidecars, so results
decode bit-identically to local execution.  See ``docs/CLUSTER.md``
for the protocol, the failure model and the security notes.

Quickstart (three shells)::

    python -m repro cluster start --port 7421          # coordinator
    python -m repro worker tcp://127.0.0.1:7421        # n of these
    python -m repro sweep xor --tier fdtd \\
        --backend tcp://127.0.0.1:7421
"""

from .backend import ClusterClient, TcpClusterBackend
from .coordinator import Coordinator
from .protocol import (
    DEV_SECRET,
    SECRET_ENV,
    TlsConfig,
    decode_value,
    encode_value,
    parse_url,
    recv_frame,
    recv_message,
    resolve_secret,
    send_frame,
    send_message,
    tls_config,
)
from .supervise import run_supervised, serve_coordinator
from .worker import Worker, run_worker

__all__ = [
    "ClusterClient",
    "Coordinator",
    "DEV_SECRET",
    "SECRET_ENV",
    "TcpClusterBackend",
    "TlsConfig",
    "Worker",
    "decode_value",
    "encode_value",
    "parse_url",
    "recv_frame",
    "recv_message",
    "resolve_secret",
    "run_supervised",
    "run_worker",
    "send_frame",
    "send_message",
    "serve_coordinator",
    "tls_config",
]
