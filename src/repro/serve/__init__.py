"""repro.serve: the network-facing gate-evaluation service.

The paper's workload is request-shaped -- every truth-table row,
fan-out variant and ablation point is an independent gate evaluation --
and :mod:`repro.runtime` already provides the executor and the
content-addressed result cache.  This subsystem turns them into a
long-lived asyncio HTTP service with production semantics:

* **single-flight coalescing** -- concurrent identical requests share
  one computation (keyed on :meth:`JobSpec.key`);
* **micro-batching** -- compatible network-tier requests are grouped
  into one vectorized executor batch;
* **backpressure** -- a bounded admission queue and a token-bucket
  rate limiter answer overload with ``429 Retry-After``;
* **observability** -- Prometheus ``/metrics`` from the
  :mod:`repro.obs` registry, JSONL access logs with request/trace ids;
* **graceful drain** -- SIGTERM/SIGINT stops accepting, finishes
  in-flight work and flushes artifacts;
* **resilience** -- per-tier circuit breakers (``503 Retry-After``
  while open, ``/healthz`` reports ``degraded``) and request deadlines
  (``x-deadline-ms`` header or ``--deadline-s``, ``504`` on expiry);
  see ``docs/RESILIENCE.md``.

Endpoints: ``POST /v1/gate``, ``POST /v1/sweep``, ``GET /healthz``,
``GET /metrics``.  Start one with ``python -m repro serve [--port
--workers --max-queue --rate]``, host one in-process with
:class:`ServerThread`, and talk to either with :class:`ServeClient`.
See ``docs/SERVING.md``.
"""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    "..defaults": ("ServeConfig",),
    "..errors": ("CircuitOpen", "JobTimeout"),
    ".app": ("AccessLog", "GateService", "ServerThread"),
    ".client": ("ServeClient", "ServeError"),
    ".prefork": ("run_prefork",),
    ".pipeline": ("GatePipeline", "Overloaded", "ServedResult", "TokenBucket"),
})

__all__ = [
    "AccessLog",
    "CircuitOpen",
    "GatePipeline",
    "GateService",
    "JobTimeout",
    "Overloaded",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServedResult",
    "ServerThread",
    "TokenBucket",
    "run_prefork",
]
