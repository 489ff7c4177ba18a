"""The asyncio HTTP gate-evaluation service.

A stdlib-only (``asyncio`` streams + ``http``-module primitives) JSON
API over the reproduction:

* ``POST /v1/gate``  -- evaluate one input pattern of a gate;
* ``POST /v1/sweep`` -- the full 2^n truth table in one request
  (fanned through the pipeline, so patterns coalesce/batch/cache
  individually);
* ``POST /v1/compile`` -- the spin-wave circuit compiler
  (:mod:`repro.compiler`): spec in, placed + DRC-checked (optionally
  characterized) fabric out; compiles are content-addressed jobs, so
  identical requests coalesce in flight and repeat requests hit the
  result cache;
* ``GET /healthz``   -- liveness + drain state;
* ``GET /metrics``   -- Prometheus text format rendered from the
  :mod:`repro.obs` metrics registry.

Production semantics live in :class:`repro.serve.pipeline.GatePipeline`
(single-flight coalescing, micro-batching, bounded admission queue,
token-bucket rate limiting); this module adds the HTTP mechanics:
keep-alive connection handling with bounded request sizes, JSONL
access logs with request/trace-id propagation, ``429 Retry-After``
overload responses, and graceful drain on SIGTERM/SIGINT (stop
accepting, finish in-flight requests, flush logs and span artifacts).

Two executors back the pipeline: a serial in-process one for the
analytic network tier (microseconds per evaluation -- a process pool
would only add latency) and a pooled one for the fdtd/llg solver
tiers, both sharing one result cache.

Embedding: :class:`ServerThread` runs a service on a daemon thread
with its own event loop -- how the tests, the throughput benchmark and
notebook users host it in-process.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..defaults import ServeConfig
from ..errors import CircuitOpen, JobTimeout
from ..micromag.experiments import (
    SURROGATE_ONLY_KNOBS,
    TIERS,
    check_gate_case,
    gate_arity,
)
from ..runtime.cache import DiskCache, ResultCache
from ..runtime.executor import Executor, JobFailed
from ..runtime.report import utc_now_iso
from ..runtime.spec import JobSpec
from .pipeline import GatePipeline, Overloaded, ServedResult

_LOG = obs.get_logger("serve.app")

MAX_REQUEST_LINE = 8192
MAX_HEADERS = 64
MAX_BODY = 1 << 20          # 1 MiB of JSON is plenty for any request
IDLE_TIMEOUT = 30.0         # keep-alive read timeout [s]
SPAN_FLUSH_INTERVAL = 5.0   # background span-drain period [s]


class BadRequest(Exception):
    """Client error; maps to a 400 response with the message.  A reader
    error names the request's method and path once they were parsed."""

    method: Optional[str] = None
    path: Optional[str] = None


class AccessLog:
    """Structured JSONL access log (one object per request)."""

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":"))
                           + "\n")
        # Flush per record so the log survives a non-graceful death --
        # it is an operational artifact, not a best-effort trace.
        self._handle.flush()

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        try:
            self._handle.flush()
        finally:
            self._handle.close()


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, Any]:
        if not self.body:
            raise BadRequest("request body required")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload


async def _read_request(
        reader: "asyncio.StreamReader") -> Optional[_Request]:
    """Read one request off a keep-alive connection; None when the
    client closed it or sent nothing whole within ``IDLE_TIMEOUT``.

    The timeout bounds the whole read -- the wait for the request line,
    the headers and the body -- so a client that stalls mid-request
    cannot hold its connection.  Malformed or oversized input raises
    :class:`BadRequest`; a connection cut mid-body raises
    ``asyncio.IncompleteReadError``.
    """
    try:
        return await asyncio.wait_for(_parse_request(reader), IDLE_TIMEOUT)
    except asyncio.TimeoutError:
        return None  # idle keep-alive connection or stalled client


async def _read_line(reader: "asyncio.StreamReader", what: str) -> bytes:
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        # The line outgrew the reader's buffer limit before its newline.
        raise BadRequest(f"{what} too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise BadRequest(f"{what} too long")
    return line


async def _parse_request(
        reader: "asyncio.StreamReader") -> Optional[_Request]:
    line = await _read_line(reader, "request line")
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise BadRequest("malformed request line")
    method, target, version = parts
    path = target.split("?", 1)[0]
    try:
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await _read_line(reader, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                raise BadRequest("too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise BadRequest("malformed header")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        # Decimal digits only: int() would also take "-5", "+5", "1_0".
        if not (length_text.isascii() and length_text.isdigit()):
            raise BadRequest(f"bad Content-Length {length_text!r}")
        digits = length_text.lstrip("0") or "0"
        # Count digits first: int() refuses strings over 4300 digits long.
        length = (int(digits) if len(digits) <= len(str(MAX_BODY))
                  else MAX_BODY + 1)
        if length > MAX_BODY:
            raise BadRequest(f"body too large ({length_text} bytes)")
        body = await reader.readexactly(length) if length else b""
    except BadRequest as exc:
        exc.method, exc.path = method, path
        raise
    headers["_http_version"] = version
    return _Request(method=method, path=path, headers=headers, body=body)


class GateService:
    """The service: owns the executors, pipeline, server and lifecycle."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.cache: Optional[ResultCache] = (
            DiskCache(root=self.config.cache_dir)
            if self.config.cache_dir else None)
        # Network-tier jobs are microsecond-scale: keep them serial and
        # in-process.  Solver tiers get the pool -- or, with
        # ``--backend tcp://...``, the cluster -- and the job timeout.
        from ..runtime.backend import create_backend

        self.fast_executor = Executor(workers=1, cache=self.cache)
        self.heavy_executor = Executor(workers=self.config.workers,
                                       cache=self.cache,
                                       timeout=self.config.timeout,
                                       backend=create_backend(
                                           self.config.backend))
        self.pipeline = GatePipeline(
            self.fast_executor, cache=self.cache,
            max_queue=self.config.max_queue, rate=self.config.rate,
            burst=self.config.burst, batch_max=self.config.batch_max,
            breaker_threshold=self.config.breaker_threshold,
            breaker_reset_s=self.config.breaker_reset_s)
        self.access_log: Optional[AccessLog] = None
        self.port: Optional[int] = None  # actual port once bound
        self._started = time.time()
        self._draining = False
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._stop: Optional["asyncio.Event"] = None
        self._own_observer = False
        self._routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/v1/gate"): self._handle_gate,
            ("POST", "/v1/sweep"): self._handle_sweep,
            ("POST", "/v1/compile"): self._handle_compile,
        }

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> int:
        """Blocking entry point (the CLI): serve until SIGTERM/SIGINT,
        then drain; returns 0 on a clean shutdown."""
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:  # loops without signal handlers
            pass
        return 0

    def request_shutdown(self) -> None:
        """Begin graceful drain; safe to call from any thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def serve(self,
                    ready: Optional[threading.Event] = None) -> None:
        """Bind, serve until shutdown is requested, then drain."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started = time.time()
        # Own the observer unless the caller (e.g. ``--trace``) already
        # attached one; owning it means metrics like cache.hit are live
        # on /metrics.  Spans go to the trace file every
        # SPAN_FLUSH_INTERVAL, or without one are dropped as each
        # request is answered, so the collector cannot grow.
        self._own_observer = not obs.enabled()
        if self._own_observer:
            obs.enable()
        if self.config.access_log:
            self.access_log = AccessLog(self.config.access_log)
        self._install_signal_handlers()

        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            reuse_port=self.config.reuse_port or None)
        self.port = server.sockets[0].getsockname()[1]
        _LOG.info("serving on http://%s:%d (pid=%d, workers=%s, "
                  "max_queue=%d, rate=%s, backend=%s)",
                  self.config.host, self.port, os.getpid(),
                  self.config.workers, self.config.max_queue,
                  self.config.rate, self.config.backend or "local")
        flusher = self._loop.create_task(self._span_flusher())
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            self._draining = True
            server.close()
            await server.wait_closed()
            try:
                await asyncio.wait_for(self.pipeline.drain(),
                                       self.config.drain_timeout)
            except asyncio.TimeoutError:
                _LOG.warning("drain timed out after %.1f s with %d jobs "
                             "in flight", self.config.drain_timeout,
                             self.pipeline.in_flight)
            flusher.cancel()
            try:
                await flusher
            except asyncio.CancelledError:
                pass
            self._flush_spans(final=True)
            if self.access_log is not None:
                self.access_log.close()
            if self._own_observer:
                obs.disable()
            _LOG.info("drained; goodbye")

    def _install_signal_handlers(self) -> None:
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self._stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without loop signals

    async def _span_flusher(self) -> None:
        while True:
            await asyncio.sleep(SPAN_FLUSH_INTERVAL)
            self._flush_spans()

    def _flush_spans(self, final: bool = False) -> None:
        """Bound the span collector: persist to the trace file if one
        is configured, else discard."""
        if not self._own_observer:
            return  # the enabling caller owns span collection
        spans = obs.drain_spans()
        if not spans or not self.config.trace:
            return
        try:
            with open(self.config.trace, "a", encoding="utf-8") as handle:
                for record in spans:
                    handle.write(json.dumps(record, default=str) + "\n")
        except OSError as exc:
            if final:
                _LOG.warning("could not flush %d spans: %s",
                             len(spans), exc)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: "asyncio.StreamReader",
                                 writer: "asyncio.StreamWriter") -> None:
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "?"
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer, client)
                if not keep_alive or self._draining:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError):
            pass  # client went away or idled out: routine
        except BadRequest as exc:
            # A reader 400 is answered and accounted like any other.
            try:
                await self._dispatch(
                    _Request(method=exc.method, path=exc.path,
                             headers={"connection": "close"}, body=b""),
                    writer, client, error=exc)
            except ConnectionError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, request: _Request,
                        writer: "asyncio.StreamWriter", client: str,
                        error: Optional[BadRequest] = None) -> bool:
        """Route, answer and account one request; ``error`` is a reader
        error to answer as this request's 400."""
        t0 = time.perf_counter()
        request_id = request.headers.get("x-request-id",
                                         os.urandom(8).hex())
        obs.counter("serve.requests").inc()
        status = HTTPStatus.INTERNAL_SERVER_ERROR
        body = b""
        content_type = "application/json"
        extra: List[Tuple[str, str]] = []
        served: Optional[Dict[str, Any]] = None
        with obs.span("serve.request", method=request.method,
                      path=request.path, request_id=request_id):
            try:
                if error is not None:
                    raise error
                handler = self._routes.get((request.method, request.path))
                if handler is None:
                    if any(path == request.path
                           for _m, path in self._routes):
                        status = HTTPStatus.METHOD_NOT_ALLOWED
                        body = self._json_body(
                            {"error": f"method {request.method} not "
                                      f"allowed on {request.path}"})
                    else:
                        status = HTTPStatus.NOT_FOUND
                        body = self._json_body(
                            {"error": f"no route {request.path}"})
                else:
                    status, payload, served = await handler(
                        request, request_id)
                    if request.path == "/metrics":
                        content_type = "text/plain; version=0.0.4"
                        body = payload.encode("utf-8")
                    else:
                        body = self._json_body(payload)
            except BadRequest as exc:
                status = HTTPStatus.BAD_REQUEST
                body = self._json_body({"error": str(exc)})
            except Overloaded as exc:
                status = HTTPStatus.TOO_MANY_REQUESTS
                retry_after = max(1, int(math.ceil(exc.retry_after)))
                extra.append(("Retry-After", str(retry_after)))
                body = self._json_body(
                    {"error": exc.reason,
                     "retry_after_s": round(exc.retry_after, 3)})
            except CircuitOpen as exc:
                status = HTTPStatus.SERVICE_UNAVAILABLE
                retry_after = max(1, int(math.ceil(exc.retry_after)))
                extra.append(("Retry-After", str(retry_after)))
                body = self._json_body(
                    {"error": str(exc),
                     "retry_after_s": round(exc.retry_after, 3)})
            except JobTimeout as exc:
                status = HTTPStatus.GATEWAY_TIMEOUT
                body = self._json_body({"error": str(exc)})
            except JobFailed as exc:
                status = HTTPStatus.INTERNAL_SERVER_ERROR
                body = self._json_body({"error": f"evaluation failed: {exc}"})
            except Exception as exc:  # never crash the connection loop
                _LOG.exception("unhandled error serving %s %s",
                               request.method, request.path)
                status = HTTPStatus.INTERNAL_SERVER_ERROR
                body = self._json_body(
                    {"error": f"{type(exc).__name__}: {exc}"})
        if not self.config.trace:
            self._flush_spans()  # no trace file: keep no spans

        duration_ms = (time.perf_counter() - t0) * 1e3
        # The request id doubles as the latency exemplar: a slow bucket
        # in the Prometheus export names a concrete request to chase.
        obs.histogram("serve.latency_ms").observe(duration_ms,
                                                  exemplar=request_id)
        obs.counter(f"serve.http_{status.value // 100}xx").inc()
        obs.flight.record("http", method=request.method, path=request.path,
                          status=status.value,
                          duration_ms=round(duration_ms, 3),
                          request_id=request_id)
        keep_alive = (request.headers.get("connection", "").lower()
                      != "close"
                      and request.headers.get("_http_version") != "HTTP/1.0"
                      and not self._draining)
        self._write_response(writer, status, body, content_type=content_type,
                             extra=extra, keep_alive=keep_alive,
                             request_id=request_id)
        await writer.drain()
        if self.access_log is not None:
            record = {"ts": utc_now_iso(), "client": client,
                      "method": request.method, "path": request.path,
                      "status": status.value,
                      "duration_ms": round(duration_ms, 3),
                      "bytes_out": len(body), "request_id": request_id,
                      "trace_id": obs.current_trace_id()}
            if served is not None:
                record.update(served)
            self.access_log.write(record)
        return keep_alive

    @staticmethod
    def _json_body(payload: Any) -> bytes:
        return (json.dumps(payload, separators=(",", ":"))
                + "\n").encode("utf-8")

    @staticmethod
    def _write_response(writer: "asyncio.StreamWriter", status: HTTPStatus,
                        body: bytes, content_type: str = "application/json",
                        extra: Optional[List[Tuple[str, str]]] = None,
                        keep_alive: bool = True,
                        request_id: Optional[str] = None) -> None:
        lines = [f"HTTP/1.1 {status.value} {status.phrase}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        if request_id:
            lines.append(f"X-Request-Id: {request_id}")
        for name, value in extra or []:
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)

    # -- request validation -------------------------------------------------

    def _build_spec(self, payload: Dict[str, Any],
                    pattern: Optional[List[int]] = None
                    ) -> Tuple[JobSpec, str]:
        """Check a gate request against the gate-case contract and build
        its JobSpec; returns the spec and its tier.  A null case
        parameter means its default and stays out of the key."""
        case = dict(payload)
        case["bits"] = pattern if pattern is not None else case.get("bits")
        try:
            check_gate_case(case)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        tier = case.get("tier", "network")
        params = {name: value for name, value in case.items()
                  if value is not None}
        params["bits"] = [int(b) for b in case["bits"]]
        params["tier"] = tier
        params.setdefault("calibrated", tier == "network")
        label = f"{case['gate']}:{''.join(map(str, params['bits']))}@{tier}"
        return JobSpec(fn="repro.micromag.experiments:run_gate_case",
                       params=params, label=label), tier

    def _build_compile_spec(self, payload: Dict[str, Any]
                            ) -> Tuple[JobSpec, str]:
        """Validate a compile request and build its JobSpec.

        The circuit spec and rule deck are fully validated *here* (the
        compiler front door runs in-process) so malformed requests are
        400s, and only well-formed compiles spend executor time.
        """
        from ..compiler import CircuitSpec, DesignRules, load_spec

        unknown = set(payload) - {"spec", "rules", "characterize", "tier"}
        if unknown:
            raise BadRequest(f"unknown parameter(s): {sorted(unknown)}")
        raw_spec = payload.get("spec")
        try:
            if isinstance(raw_spec, dict):
                spec = CircuitSpec.from_dict(raw_spec)
            elif isinstance(raw_spec, str):
                spec = load_spec(raw_spec)
            else:
                raise BadRequest(
                    "spec must be an object {name, inputs, outputs} or "
                    "a string (builtin name, inline JSON, equations)")
            rules = payload.get("rules")
            if rules is not None:
                if not isinstance(rules, dict):
                    raise BadRequest("rules must be an object of "
                                     "DesignRules fields")
                DesignRules.from_dict(rules)
        except BadRequest:
            raise
        except (TypeError, ValueError) as exc:
            raise BadRequest(str(exc))
        tier = payload.get("tier", "network")
        if tier not in TIERS:
            raise BadRequest(f"unknown tier {tier!r}; choose from "
                             f"{list(TIERS)}")
        characterize = bool(payload.get("characterize", False))
        params: Dict[str, Any] = {"spec": spec.to_dict(),
                                  "characterize": characterize,
                                  "tier": tier}
        if rules:
            params["rules"] = rules
        label = (f"compile:{spec.name}@{tier}"
                 + (":char" if characterize else ""))
        return JobSpec(fn="repro.compiler.api:compile_job",
                       params=params, label=label), tier

    def _deadline_for(self, request: _Request) -> Optional[float]:
        """Per-request deadline [s]: ``x-deadline-ms`` header, falling
        back to the configured default (None = unbounded)."""
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            return self.config.deadline_s
        try:
            value = float(raw)
        except ValueError:
            raise BadRequest(f"bad x-deadline-ms {raw!r}")
        if value <= 0 or not math.isfinite(value):
            raise BadRequest("x-deadline-ms must be a positive number")
        return value / 1e3

    async def _serve_spec(self, spec: JobSpec, tier: str,
                          deadline: Optional[float] = None) -> ServedResult:
        if tier == "surrogate":
            # Surrogate requests are answered in-process, ahead of the
            # pipeline's single-flight/DiskCache fast path: a fitted
            # model query is microseconds, cheaper than the cache's own
            # disk read.  Guardrail misses rewrite the request for the
            # network tier (dropping the axes only the surrogate
            # models) and annotate the answer with the degradation.
            case = self._surrogate_case(spec)
            if case is not None:
                return ServedResult(value=case, source="surrogate",
                                    key=spec.key())
            fallback, fallback_tier = self._surrogate_fallback_spec(spec)
            served = await self._serve_spec(fallback, fallback_tier,
                                            deadline)
            value = served.value
            if isinstance(value, dict):
                value = dict(value)
                value["degraded_from"] = "surrogate"
                value.setdefault("degradation_path",
                                 ["surrogate", fallback_tier])
            return ServedResult(value=value, source=served.source,
                                key=served.key,
                                batch_size=served.batch_size)
        breaker_key = f"tier:{tier}"
        if tier == "network":
            return await self.pipeline.submit(spec, batchable=True,
                                              deadline=deadline,
                                              breaker_key=breaker_key)
        return await self.pipeline.submit(spec,
                                          executor=self.heavy_executor,
                                          deadline=deadline,
                                          breaker_key=breaker_key)

    def _surrogate_case(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Answer a surrogate-tier spec from the fitted model, or None
        when the accuracy guardrails (or a chaos fault) say fall back."""
        from ..errors import FaultInjected, SurrogateDomainError
        from ..surrogate.tier import evaluate_surrogate, query_point

        params = spec.params
        point = query_point(
            phase_noise=params.get("phase_noise", 0.0),
            frequency=params.get("frequency"),
            geometry_jitter=params.get("geometry_jitter", 0.0),
            temperature=params.get("temperature", 0.0))
        try:
            return evaluate_surrogate(params["gate"], params["bits"],
                                      point,
                                      root=self.config.surrogate_dir)
        except (SurrogateDomainError, FaultInjected) as exc:
            _LOG.info("surrogate miss for %s (%s); falling back to the "
                      "network tier", spec.label, exc)
            return None

    @staticmethod
    def _surrogate_fallback_spec(spec: JobSpec) -> Tuple[JobSpec, str]:
        """The network-tier rewrite of a surrogate request."""
        params = {name: value for name, value in spec.params.items()
                  if name not in SURROGATE_ONLY_KNOBS}
        params["tier"] = "network"
        label = (spec.label or "").replace("@surrogate", "@network") \
            or None
        return JobSpec(fn=spec.fn, params=params, label=label), "network"

    # -- handlers -----------------------------------------------------------

    async def _handle_healthz(self, request: _Request, request_id: str):
        from .. import __version__

        circuits = self.pipeline.circuit_states()
        degraded = any(snap["state"] != "closed"
                       for snap in circuits.values())
        if self._draining:
            status, health = HTTPStatus.SERVICE_UNAVAILABLE, "draining"
        elif degraded:
            # Still 200: the service is alive and serving cached work;
            # orchestrators must not restart it for an open breaker.
            status, health = HTTPStatus.OK, "degraded"
        else:
            status, health = HTTPStatus.OK, "ok"
        payload = {"status": health,
                   "version": __version__,
                   "uptime_s": round(time.time() - self._started, 3),
                   "in_flight": self.pipeline.in_flight}
        if circuits:
            payload["circuits"] = circuits
        return status, payload, None

    async def _handle_metrics(self, request: _Request, request_id: str):
        obs.gauge("serve.uptime_s").set(
            round(time.time() - self._started, 3))
        # Materialise the latency quantiles as gauges at scrape time so
        # dashboards get p50/p95/p99 without server-side PromQL.
        latency = obs.histogram("serve.latency_ms")
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            value = latency.quantile(q)
            if value is not None:
                obs.gauge(f"serve.latency_{label}_ms").set(round(value, 3))
        return HTTPStatus.OK, obs.render_prometheus(), None

    async def _handle_gate(self, request: _Request, request_id: str):
        payload = request.json()
        spec, tier = self._build_spec(payload)
        deadline = self._deadline_for(request)
        t0 = time.perf_counter()
        served = await self._serve_spec(spec, tier, deadline)
        duration_ms = (time.perf_counter() - t0) * 1e3
        meta = {"source": served.source, "key": served.key,
                "batch_size": served.batch_size,
                "duration_ms": round(duration_ms, 3),
                "request_id": request_id}
        return (HTTPStatus.OK,
                {"result": served.value, "served": meta},
                {"source": served.source, "key": served.key})

    async def _handle_compile(self, request: _Request, request_id: str):
        payload = request.json()
        spec, tier = self._build_compile_spec(payload)
        deadline = self._deadline_for(request)
        # Compiles are not micro-batchable (they are not gate cases),
        # but they coalesce and cache exactly like any job: the spec's
        # content-addressed key is the single-flight and cache key.
        executor = (self.heavy_executor if tier != "network" else None)
        t0 = time.perf_counter()
        served = await self.pipeline.submit(
            spec, executor=executor, deadline=deadline,
            breaker_key=f"compile:{tier}")
        duration_ms = (time.perf_counter() - t0) * 1e3
        meta = {"source": served.source, "key": served.key,
                "duration_ms": round(duration_ms, 3),
                "request_id": request_id}
        return (HTTPStatus.OK,
                {"result": served.value, "served": meta},
                {"source": served.source, "key": served.key})

    async def _handle_sweep(self, request: _Request, request_id: str):
        from ..core.logic import input_patterns

        payload = request.json()
        try:
            arity = gate_arity(payload.get("gate"))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        specs = [self._build_spec(payload, pattern=list(bits))
                 for bits in input_patterns(arity)]
        deadline = self._deadline_for(request)
        t0 = time.perf_counter()
        results = await asyncio.gather(
            *[self._serve_spec(spec, tier, deadline)
              for spec, tier in specs])
        duration_ms = (time.perf_counter() - t0) * 1e3
        sources: Dict[str, int] = {}
        for served in results:
            sources[served.source] = sources.get(served.source, 0) + 1
        cases = [served.value for served in results]
        meta = {"sources": sources, "duration_ms": round(duration_ms, 3),
                "request_id": request_id}
        return (HTTPStatus.OK,
                {"gate": payload["gate"], "tier": specs[0][1],
                 "cases": cases,
                 "all_correct": all(case["correct"] for case in cases),
                 "served": meta},
                {"source": "+".join(sorted(sources)), "key": None})


class ServerThread:
    """Host a :class:`GateService` on a daemon thread (its own loop).

    >>> with ServerThread(ServeConfig(port=0)) as server:   # doctest: +SKIP
    ...     client = ServeClient(server.base_url)
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.service = GateService(config)
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self.service.serve(ready=self._ready))
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
        finally:
            self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service did not start within 30 s")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}") from self._error
        return self

    @property
    def port(self) -> int:
        if self.service.port is None:
            raise RuntimeError("service not started")
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        self.service.request_shutdown()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not drain in time")
        if self._error is not None:
            raise RuntimeError(
                f"service crashed: {self._error}") from self._error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
