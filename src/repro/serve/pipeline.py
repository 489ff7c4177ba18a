"""The service's request pipeline: coalescing, batching, backpressure.

Every gate evaluation entering the service flows through one
:class:`GatePipeline.submit` call, which applies -- in order:

1. **Single-flight coalescing.**  Requests are keyed by
   :meth:`JobSpec.key`, the same content address the result cache
   uses.  If an identical computation is already in flight, the new
   request simply awaits its future ("coalesced"); under a thundering
   herd of identical requests exactly one underlying job executes.
2. **Cache fast path.**  A key with a stored result returns straight
   from the :class:`ResultCache` ("cached") without touching the
   executor, the admission queue or the rate limiter -- hits are too
   cheap to be worth limiting.  This is the request's only cache
   lookup: the pipeline owns the cache, and the executors it runs
   jobs on have none of their own.
3. **Admission control.**  New work is bounded two ways: a counter of
   jobs queued-or-running (``max_queue``) and an optional token-bucket
   rate limiter.  Either limit raises :class:`Overloaded`, which the
   HTTP layer maps to ``429`` with a ``Retry-After`` hint -- load is
   shed at the door instead of growing an unbounded backlog.
4. **Micro-batching by group commit.**  Requests marked batchable
   (network-tier evaluations, which cost about a tenth of a
   millisecond each) share one fast lane that runs ONE
   ``Executor.run`` batch at a time, on the event loop itself -- one
   call and one report for the whole group ("batched").  A request
   that finds the lane idle leaves at the end of the current
   event-loop tick, together with whatever else arrived in that tick;
   requests that queue behind a running batch leave together as the
   next batch, at most ``batch_max`` at a time.  An idle lane adds no
   wait; batches form only under load, where they pay.  Requests not
   marked batchable (solver tiers, compiles) skip the lane and run as
   single-spec batches in a thread (:func:`repro.runtime.aio.run_async`),
   so a solver run never holds the loop ("computed").
5. **One put, after the answer.**  Each computed result is stored in
   the cache once, after its request future is resolved: a fast-lane
   batch after its waiters have had :data:`LANE_YIELD_TURNS` loop
   turns to write their responses, a single job as soon as it is
   answered.  The key stays in flight until its put has landed, so an
   identical request in that gap coalesces onto the answer instead of
   computing it again, and :meth:`drain` stores everything before
   shutdown.  A put that fails costs only that cache entry
   (``serve.cache_put_failed``): the answer has gone out.

The cache lookup, the fast lane and its puts run on the event loop: a
thread hop costs more than the work, and the GIL would serialise the
two anyway.  The loop is held for at most one batch of at most
``batch_max`` network jobs; after each batch the lane gives the loop
:data:`LANE_YIELD_TURNS` turns, enough to answer the batch's requests
and any that arrived during it (``/healthz``, a cache hit) or to
deliver an expired deadline's ``504``; then it stores the batch's
results and starts the next batch.  A running batch cannot be
interrupted.  Computations run as background tasks, so a
disconnecting client cannot cancel work that other coalesced requests
are waiting on.

Resilience (see ``docs/RESILIENCE.md``): each job family (the
``breaker_key`` the caller passes, normally the solver tier) gets a
:class:`~repro.resilience.CircuitBreaker`; once a family fails
repeatedly new work for it is rejected with
:class:`~repro.errors.CircuitOpen` (503 semantics) until a probe
succeeds.  The breaker check sits *after* the cache fast path, so an
open circuit still serves cached results -- degraded, not dead.  A
``deadline`` bounds how long one request waits; on expiry the caller
gets :class:`~repro.errors.JobTimeout` (504) while the computation
keeps running for coalesced waiters and the cache.  A queued
network-tier request whose deadline passes gets its 504 between
batches.

Metrics (``repro.obs`` registry, served by ``GET /metrics``):
``serve.coalesced``, ``serve.cache_fastpath``, ``serve.rejected_queue``,
``serve.rejected_rate``, ``serve.rejected_circuit``,
``serve.deadline_exceeded``, ``serve.batches``, ``serve.batched``,
``serve.cache_put_failed``, histogram ``serve.batch_size`` and gauge
``serve.in_flight``.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..errors import ClusterConfigError, CircuitOpen, JobTimeout, ReproError
from ..resilience.circuit import CircuitBreaker
from ..runtime.aio import run_async
from ..runtime.cache import ResultCache
from ..runtime.executor import Executor, JobFailed
from ..runtime.spec import JobSpec

_LOG = obs.get_logger("serve.pipeline")

#: ServedResult.source values.
SOURCE_CACHED = "cached"        # result cache, no computation
SOURCE_COMPUTED = "computed"    # executed as its own job
SOURCE_BATCHED = "batched"      # executed inside a micro-batch (> 1)
SOURCE_COALESCED = "coalesced"  # shared an in-flight identical request

#: Turns of the event loop after each fast-lane batch, before its puts
#: and the next batch.  What became ready while a batch held the loop
#: takes several turns to be answered: the batch's own requests, a
#: request on an open connection or an expired deadline two, a request
#: on a new connection seven (CPython 3.11).
LANE_YIELD_TURNS = 8


class Overloaded(Exception):
    """The service is shedding load; retry after ``retry_after`` s."""

    def __init__(self, reason: str, retry_after: float = 1.0):
        super().__init__(reason)
        self.reason = reason
        self.retry_after = max(0.0, retry_after)


class TokenBucket:
    """Classic token-bucket rate limiter (``rate`` tokens/s, burst
    capacity ``burst``; monotonic clock)."""

    def __init__(self, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.capacity = float(burst) if burst else max(1.0, self.rate)
        self.tokens = self.capacity
        self._last = time.monotonic()

    def _refill(self) -> None:
        now = time.monotonic()
        self.tokens = min(self.capacity,
                          self.tokens + (now - self._last) * self.rate)
        self._last = now

    def take(self, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; False means rate-limited."""
        self._refill()
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will have accumulated."""
        self._refill()
        return max(0.0, (n - self.tokens) / self.rate)


@dataclass
class ServedResult:
    """One pipeline answer: the job value plus how it was served."""

    value: Any
    source: str          # cached | computed | batched | coalesced
    key: str
    batch_size: int = 1


@dataclass
class _Resolved:
    """What an in-flight future resolves to (shared by coalescers)."""

    value: Any
    source: str
    batch_size: int = 1


def _retrieve(future: "asyncio.Future") -> None:
    """Done-callback marking exceptions retrieved (a leader abandoned
    by a disconnecting client must not log 'exception never
    retrieved')."""
    if not future.cancelled():
        future.exception()


class GatePipeline:
    """Single-flight + micro-batching + admission control (see module
    docstring).

    Parameters
    ----------
    executor:
        Default :class:`Executor` for single (non-batched) jobs.
    cache:
        The :class:`ResultCache` the pipeline owns: the fast-path
        lookup and the one put of every computed answer.  None
        disables both.  The executors should have no cache of their
        own, or every result is looked up and stored twice.
    max_queue:
        Upper bound on jobs queued-or-running; further new work is
        rejected with 429 semantics.
    rate / burst:
        Token-bucket admission rate in new jobs per second (None
        disables rate limiting) and its burst capacity.
    batch_max:
        Most jobs one fast-lane batch takes; the rest of the queue
        waits for the batch after it.
    salt:
        Cache-key salt override (defaults to the package version).
    breaker_threshold / breaker_reset_s:
        Consecutive-failure count that opens a job family's circuit
        breaker, and how long it stays open before admitting a probe.
    """

    def __init__(self, executor: Executor,
                 cache: Optional[ResultCache] = None,
                 max_queue: int = 64,
                 rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 batch_max: int = 16,
                 salt: Optional[str] = None,
                 breaker_threshold: int = 5,
                 breaker_reset_s: float = 30.0):
        self.executor = executor
        self.cache = cache
        self.max_queue = max(1, int(max_queue))
        self.bucket = TokenBucket(rate, burst) if rate else None
        self.batch_max = max(1, int(batch_max))
        self.salt = salt
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_reset_s = float(breaker_reset_s)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._pending = 0
        self._queue: List[Tuple[str, JobSpec, "asyncio.Future",
                                Executor]] = []
        self._lane: Optional["asyncio.Task"] = None
        self._tasks: set = set()

    # -- public API ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Jobs currently queued or running (not counting coalescers)."""
        return self._pending

    def breaker(self, key: str) -> CircuitBreaker:
        """The circuit breaker for job family ``key`` (created lazily)."""
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(key,
                                     fail_threshold=self.breaker_threshold,
                                     reset_timeout=self.breaker_reset_s)
            self._breakers[key] = breaker
        return breaker

    def circuit_states(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot of every breaker: ``{family: {state, failures,
        trips}}`` -- what ``/healthz`` reports."""
        return {name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())}

    async def submit(self, spec: JobSpec, batchable: bool = False,
                     executor: Optional[Executor] = None,
                     deadline: Optional[float] = None,
                     breaker_key: Optional[str] = None) -> ServedResult:
        """Serve one request; see the module docstring for the order of
        coalescing, cache fast path, admission and batching.

        ``deadline`` bounds the wait in seconds (``JobTimeout`` on
        expiry; the computation keeps running for coalesced waiters).
        ``breaker_key`` names the job family whose circuit breaker
        guards -- and is driven by -- this request.
        """
        key = spec.key(self.salt)
        existing = self._inflight.get(key)
        if existing is not None:
            obs.counter("serve.coalesced").inc()
            resolved = await self._await_resolved(existing, deadline)
            return ServedResult(resolved.value, SOURCE_COALESCED, key,
                                resolved.batch_size)

        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        future.add_done_callback(_retrieve)
        # Register BEFORE the first await so concurrent identical
        # requests coalesce deterministically.
        self._inflight[key] = future
        try:
            if self.cache is not None:
                found, value = self.cache.get(key)
                if found:
                    obs.counter("serve.cache_fastpath").inc()
                    resolved = _Resolved(value, SOURCE_CACHED)
                    self._inflight.pop(key, None)
                    future.set_result(resolved)
                    return ServedResult(value, SOURCE_CACHED, key)
        except Exception as exc:  # malformed key and kin: surface it
            self._inflight.pop(key, None)
            future.set_exception(exc)
            raise

        breaker = self.breaker(breaker_key) if breaker_key else None
        if breaker is not None:
            try:
                # After the cache fast path on purpose: an open circuit
                # rejects new COMPUTE work but cached answers still
                # flow -- the service degrades instead of going dark.
                breaker.allow()
            except CircuitOpen as exc:
                obs.counter("serve.rejected_circuit").inc()
                self._inflight.pop(key, None)
                future.set_exception(exc)  # coalescers get the 503 too
                raise

        try:
            self._admit()
        except Overloaded as exc:
            self._inflight.pop(key, None)
            future.set_exception(exc)  # coalescers get the 429 too
            raise

        self._pending += 1
        obs.gauge("serve.in_flight").set(self._pending)
        if batchable:
            self._enqueue(key, spec, future, executor or self.executor)
        else:
            self._track(loop.create_task(self._compute_single(
                key, spec, future, executor or self.executor)))
        try:
            resolved = await self._await_resolved(future, deadline)
        except JobTimeout:
            raise  # job still running: not a verdict on the family
        except asyncio.CancelledError:
            raise
        except ClusterConfigError:
            # "Coordinator unreachable" is not a poisoned job family:
            # under `cluster supervise` it is typically a restart in
            # progress.  Shed the queue behind a single half-open
            # probe instead of going dark for the full reset timeout.
            if breaker is not None:
                breaker.trip_probe()
            raise
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return ServedResult(resolved.value, resolved.source, key,
                            resolved.batch_size)

    @staticmethod
    async def _await_resolved(future: "asyncio.Future",
                              deadline: Optional[float]) -> _Resolved:
        """Await a result future, bounded by ``deadline``.

        Only this waiter gives up (on expiry or cancellation): the
        computation keeps running for coalesced waiters and the cache.
        An expired deadline raises two loop turns after it is due.
        """
        done, _pending = await asyncio.wait((future,), timeout=deadline)
        if not done:
            obs.counter("serve.deadline_exceeded").inc()
            raise JobTimeout(
                f"deadline of {deadline * 1e3:.0f} ms exceeded; the "
                "computation continues for coalesced waiters and the "
                "cache")
        return future.result()

    async def drain(self) -> None:
        """Wait for all in-flight work, including every queued batch
        (the fast lane runs its queue dry before it stops) and the put
        of every answer."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)

    # -- admission ----------------------------------------------------------

    def _admit(self) -> None:
        if self._pending >= self.max_queue:
            obs.counter("serve.rejected_queue").inc()
            raise Overloaded(
                f"admission queue full ({self._pending} jobs in flight)",
                retry_after=1.0)
        if self.bucket is not None and not self.bucket.take():
            obs.counter("serve.rejected_rate").inc()
            raise Overloaded("rate limit exceeded",
                             retry_after=self.bucket.retry_after())

    # -- execution ----------------------------------------------------------

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _release(self, key: str) -> None:
        self._inflight.pop(key, None)
        self._pending -= 1
        obs.gauge("serve.in_flight").set(self._pending)

    @staticmethod
    def _resolve(future: "asyncio.Future", outcome: Any,
                 batch_size: int) -> None:
        """Resolve a request future from one executor outcome."""
        if future.done():
            return
        if outcome.ok:
            source = SOURCE_BATCHED if batch_size > 1 else SOURCE_COMPUTED
            future.set_result(_Resolved(outcome.value, source, batch_size))
        else:
            future.set_exception(JobFailed(
                outcome.record.error or "job failed after retries"))

    def _put(self, key: str, value: Any) -> None:
        """Store one answered result.  Its request has been answered,
        so a failed put costs only the cache entry."""
        if self.cache is None:
            return
        try:
            self.cache.put(key, value)
        except Exception as exc:
            obs.counter("serve.cache_put_failed").inc()
            _LOG.warning("answered %s but could not cache it: %s",
                         key[:12], exc)

    async def _compute_single(self, key: str, spec: JobSpec,
                              future: "asyncio.Future",
                              executor: Executor) -> None:
        try:
            result = await run_async(executor, [spec])
            outcome = result.outcomes[0]
            self._resolve(future, outcome, 1)
            if outcome.ok:
                self._put(key, outcome.value)
        except ReproError as exc:  # typed failure: expected, not logged
            if not future.done():
                future.set_exception(exc)
        except Exception as exc:
            obs.counter("resilience.unexpected_error").inc()
            _LOG.exception("unexpected error computing %s", key)
            if not future.done():
                future.set_exception(exc)
        finally:
            self._release(key)

    # -- micro-batching -----------------------------------------------------

    def _enqueue(self, key: str, spec: JobSpec, future: "asyncio.Future",
                 executor: Executor) -> None:
        self._queue.append((key, spec, future, executor))
        if self._lane is None:
            # The lane's first step runs at the end of this loop tick
            # (``call_soon``), so requests of the same tick join it.
            # It serves every request that queues while it runs, so it
            # starts from an empty context, outside this request's span.
            self._lane = contextvars.Context().run(
                asyncio.get_running_loop().create_task, self._run_lane())
            self._track(self._lane)

    async def _run_lane(self) -> None:
        """Group commit: run the queue one batch at a time, each batch
        taking everything that queued behind the one before it.  The
        first batch starts at once; after each batch the loop gets
        :data:`LANE_YIELD_TURNS` turns, then the batch's results are
        stored and its keys leave flight."""
        try:
            while self._queue:
                batch = self._queue[:self.batch_max]
                del self._queue[:self.batch_max]
                try:
                    answered = self._run_batch(batch)
                    for _turn in range(LANE_YIELD_TURNS):
                        await asyncio.sleep(0)
                    for key, value in answered:
                        self._put(key, value)
                finally:
                    for key, _spec, _future, _e in batch:
                        self._release(key)
        finally:
            self._lane = None

    def _run_batch(self, batch: List[Tuple[str, JobSpec, "asyncio.Future",
                                           Executor]]
                   ) -> List[Tuple[str, Any]]:
        """Run one batch on the loop and resolve its futures; returns
        the ``(key, value)`` of every answered job, to be stored."""
        size = len(batch)
        obs.counter("serve.batches").inc()
        obs.histogram("serve.batch_size").observe(size)
        if size > 1:
            obs.counter("serve.batched").inc(size)
        executor = batch[0][3]  # batchable jobs share the fast executor
        answered: List[Tuple[str, Any]] = []
        try:
            result = executor.run([spec for _key, spec, _f, _e in batch])
            for (key, _spec, future, _e), outcome in zip(
                    batch, result.outcomes):
                self._resolve(future, outcome, size)
                if outcome.ok:
                    answered.append((key, outcome.value))
        except ReproError as exc:
            _LOG.warning("batch of %d failed: %s", size, exc)
            for _key, _spec, future, _e in batch:
                if not future.done():
                    future.set_exception(exc)
        except Exception as exc:
            obs.counter("resilience.unexpected_error").inc()
            _LOG.exception("unexpected error in batch of %d", size)
            for _key, _spec, future, _e in batch:
                if not future.done():
                    future.set_exception(exc)
        return answered
