"""Parallel job execution with caching, timeouts, retries and fallback.

The :class:`Executor` takes a batch of :class:`~repro.runtime.spec.JobSpec`
objects and returns a :class:`RunResult` whose values align with the
submitted specs.  Per job it:

1. looks the content key up in the :class:`ResultCache` (if any);
2. on a miss, hands the job to its
   :class:`~repro.runtime.backend.ExecutorBackend` -- by default the
   :class:`~repro.runtime.backend.LocalPoolBackend`, which uses a
   ``ProcessPoolExecutor`` when ``workers > 1`` and the spec is
   portable (addressable by ``module:qualname``), otherwise runs
   in-process; a ``tcp://`` backend ships it to a
   :mod:`repro.cluster` coordinator instead;
3. enforces an optional per-job ``timeout`` and retries failures up to
   ``retries`` times with exponential backoff;
4. records everything in a :class:`RunReport`.

Degradation is always graceful: if worker processes cannot be spawned
(sandboxes, restricted platforms), if the pool breaks mid-run, or if a
job or its result does not pickle, the affected jobs fall back to
serial in-process execution and the telemetry says so
(``mode="serial"``).

A job that exhausts its attempts yields ``value=None`` and a
``status="failed"`` record; :meth:`RunResult.raise_on_failure` turns
that into an exception for callers that need all results.

Timeout caveat: neither a busy worker process nor a busy thread can be
killed portably, so a timed-out attempt is *abandoned* (and retried)
while the stray worker finishes in the background; the executor then
shuts its pool down without waiting.
"""

from __future__ import annotations

import concurrent.futures as cf
import logging
import os
import pickle
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import JobFailed, JobTimeout
from ..resilience import faults
from ..resilience.journal import JobJournal
from .backend import ExecutorBackend, LocalPoolBackend
from .cache import ResultCache
from .report import (
    MODE_CACHED,
    MODE_POOL,
    MODE_SERIAL,
    STATUS_FAILED,
    STATUS_HIT,
    STATUS_OK,
    JobRecord,
    RunReport,
    utc_now_iso,
)
from .spec import JobSpec, resolve_ref

_LOG = obs.get_logger("runtime.executor")


def backoff_delay(base: float, retry_index: int,
                  cap: Optional[float] = None,
                  jitter: float = 0.0) -> float:
    """Exponential backoff before the ``retry_index``-th retry (1-based).

    ``base * 2**(retry_index - 1)`` seconds -- the executor's retry
    policy, shared by :class:`repro.serve.client.ServeClient` so a
    client backing off from an overloaded server paces itself the same
    way the engine paces failing jobs.

    ``cap`` bounds the delay (reconnect loops must not back off into
    minutes); ``jitter`` spreads it uniformly by ``+/- jitter``
    fraction so a fleet of workers orphaned by one coordinator death
    does not redial in lockstep (thundering herd).  Both default off,
    keeping retry pacing deterministic where it always was.
    """
    delay = base * 2 ** max(0, retry_index - 1)
    if cap is not None:
        delay = min(delay, cap)
    if jitter > 0.0:
        delay *= 1.0 + random.uniform(-jitter, jitter)
    return max(0.0, delay)


# JobTimeout / JobFailed historically lived here; they now sit in the
# typed hierarchy of :mod:`repro.errors` and are re-exported above for
# backward compatibility.

#: (index into the submitted batch, spec, content key).
_Job = Tuple[int, JobSpec, str]


@dataclass
class _ShippedResult:
    """A worker's return value bundled with the telemetry it collected.

    Workers run in their own process, so spans they record and the
    CPU/RSS their job consumed cannot reach the parent directly --
    they ride back with the result (standard distributed-tracing span
    shipping) and the executor unbundles them via :func:`_unship`.
    """

    value: Any
    spans: List[Dict[str, Any]]
    resources: Optional[Dict[str, Any]] = None


def _invoke(ref: str, params: Dict[str, Any],
            ctx: Optional[obs.TraceContext] = None,
            fault_plan: Optional[str] = None) -> Any:
    """Worker-side entry point: resolve the callable and run it.

    Module-level (not a closure) so it pickles to worker processes.
    Every pool job is bracketed with a
    :class:`~repro.obs.ResourceProbe` (CPU seconds, max RSS, opt-in
    tracemalloc peak) -- two ``getrusage`` calls, noise next to the
    process round-trip -- so run reports carry per-job resource
    accounting even with tracing off.  When a
    :class:`~repro.obs.TraceContext` is shipped along, the worker
    additionally collects spans under the parent's trace id and
    returns them bundled with the value.  A serialized fault plan (or
    the ``REPRO_FAULTS`` environment variable, which worker processes
    inherit) is armed once per worker so chaos tests reach pool
    workers too; hit counters persist across jobs within one worker.
    """
    if fault_plan is not None and not faults.active():
        faults.install(faults.FaultPlan.from_json(fault_plan))
    elif not faults.active():
        faults.install_from_env()
    if faults.active():
        faults.trip("executor.invoke")
    probe = obs.ResourceProbe()
    if ctx is None:
        value = resolve_ref(ref)(**params)
        return _ShippedResult(value, [], probe.finish())
    obs.activate(ctx)
    try:
        with obs.span("executor.job", ref=ref, mode="pool"):
            value = resolve_ref(ref)(**params)
    finally:
        shipped_spans = obs.deactivate()
    return _ShippedResult(value, shipped_spans, probe.finish())


def _unship(value: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Merge spans shipped back from a worker; return the bare value
    and the worker-side resource accounting (None when not shipped)."""
    if isinstance(value, _ShippedResult):
        obs.ingest(value.spans)
        return value.value, value.resources
    return value, None


def _call_with_timeout(fn: Callable, params: Dict[str, Any],
                       timeout: Optional[float]) -> Any:
    """Run ``fn(**params)``, bounding wall time with a worker thread."""
    if timeout is None:
        return fn(**params)
    pool = cf.ThreadPoolExecutor(max_workers=1)
    future = pool.submit(fn, **params)
    try:
        value = future.result(timeout=timeout)
    except cf.TimeoutError:
        future.cancel()
        pool.shutdown(wait=False)
        raise JobTimeout(f"job exceeded timeout of {timeout} s")
    pool.shutdown(wait=False)
    return value


def _is_pickle_error(exc: BaseException) -> bool:
    return isinstance(exc, (pickle.PicklingError, pickle.UnpicklingError,
                            TypeError)) and "pickle" in str(exc).lower()


@dataclass
class JobOutcome:
    """One spec's result paired with its telemetry record."""

    spec: JobSpec
    key: str
    value: Any
    record: JobRecord

    @property
    def ok(self) -> bool:
        return self.record.status != STATUS_FAILED


class RunResult:
    """Ordered outcomes of one :meth:`Executor.run` call."""

    def __init__(self, outcomes: List[JobOutcome], report: RunReport):
        self.outcomes = outcomes
        self.report = report

    @property
    def values(self) -> List[Any]:
        """Job return values, aligned with the submitted specs
        (``None`` for failed jobs)."""
        return [o.value for o in self.outcomes]

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def raise_on_failure(self) -> "RunResult":
        failures = self.failures
        if failures:
            details = "; ".join(
                f"{o.record.label}: {o.record.error}" for o in failures[:5])
            raise JobFailed(
                f"{len(failures)} of {len(self.outcomes)} jobs failed "
                f"after retries: {details}")
        return self

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


class Executor:
    """Fan jobs out over processes, with caching and bounded retries.

    Parameters
    ----------
    workers:
        Process count.  ``None`` or 1 means serial in-process
        execution; ``0`` means one per CPU.
    cache:
        A :class:`ResultCache`, or None to always recompute.
    timeout:
        Per-job attempt wall-time bound [s]; None disables it.
    retries:
        Extra attempts after the first failure (``retries=2`` means at
        most 3 attempts per job).
    backoff:
        Base of the exponential backoff slept before retry round *n*:
        ``backoff * 2**(n - 1)`` seconds.
    salt:
        Cache-key salt override; defaults to the package version salt.
    journal:
        Optional :class:`~repro.resilience.journal.JobJournal`.  When
        set, every job writes a ``start`` record before executing and
        a ``done`` record at its outcome, and jobs the replayed
        journal marks interrupted are flagged in their telemetry
        (``python -m repro sweep --resume`` builds on this).
    backend:
        An :class:`~repro.runtime.backend.ExecutorBackend` that runs
        the cache misses, or None for the default
        :class:`~repro.runtime.backend.LocalPoolBackend` (the
        pool/serial behaviour described above).  Pass a
        :class:`repro.cluster.TcpClusterBackend` (or use
        :func:`~repro.runtime.backend.create_backend` with a
        ``tcp://host:port`` URL) to shard the batch across worker
        processes on any number of hosts.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.1,
                 salt: Optional[str] = None,
                 journal: Optional[JobJournal] = None,
                 backend: Optional[ExecutorBackend] = None):
        if workers == 0:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers or 1))
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.salt = salt
        self.journal = journal
        self.backend = backend if backend is not None else LocalPoolBackend()
        self._interrupted_now: set = set()

    # -- public API ---------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> RunResult:
        """Execute a batch of specs; returns outcomes in input order."""
        with obs.span("executor.run", n_jobs=len(specs),
                      workers=self.workers):
            return self._run(specs)

    def _run(self, specs: Sequence[JobSpec]) -> RunResult:
        report = RunReport(workers=self.workers)
        outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
        pending: List[_Job] = []
        trace_id = obs.current_trace_id()
        self._interrupted_now = set()
        if obs.enabled():
            obs.counter("executor.jobs").inc(len(specs))

        for index, spec in enumerate(specs):
            key = spec.key(self.salt)
            started = utc_now_iso()
            t0 = time.perf_counter()
            if self.cache is not None:
                found, value = self.cache.get(key)
                if found:
                    record = JobRecord(
                        label=spec.display_label, key=key,
                        status=STATUS_HIT, mode=MODE_CACHED, attempts=0,
                        wall_time=time.perf_counter() - t0,
                        started_at=started, trace_id=trace_id)
                    if (self.journal is not None
                            and self.journal.completed_status(key) is not None
                            and obs.enabled()):
                        obs.counter("resilience.resumed_skipped").inc()
                    outcomes[index] = JobOutcome(spec, key, value, record)
                    self._commit(outcomes[index])
                    continue
            if (self.journal is not None
                    and self.journal.was_interrupted(key)):
                self._interrupted_now.add(key)
                _LOG.warning("job %s was interrupted in a previous run; "
                             "re-executing", spec.display_label)
                if obs.enabled():
                    obs.counter("resilience.resumed_interrupted").inc()
            pending.append((index, spec, key))

        if pending:
            self.backend.execute(self, pending, outcomes)

        for outcome in outcomes:
            assert outcome is not None
            report.add(outcome.record)
        finished = report.finish()
        if _LOG.isEnabledFor(logging.INFO):
            _LOG.info("run finished: %s",
                      finished.summary().replace("\n", "; "))
        return RunResult(list(outcomes), finished)

    def _commit(self, outcome: JobOutcome) -> None:
        """Durably commit one outcome the moment it is known.

        Write-through semantics where the executor owns the cache (CLI
        sweeps, cluster workers): the result cache entry and the
        journal ``done`` record land as each job finishes, not when
        the whole batch does -- a run killed mid-batch keeps every
        completed result, which is what makes ``--resume`` cheap.  The
        service's executors have no cache; its pipeline stores each
        answer instead.
        """
        if outcome.key in self._interrupted_now:
            outcome.record.notes = "resumed-after-interrupt"
        if (self.cache is not None
                and outcome.record.status == STATUS_OK):
            self.cache.put(outcome.key, outcome.value)
        if (self.journal is not None
                and outcome.record.status != STATUS_HIT):
            self.journal.done(outcome.key, outcome.record.status,
                              attempts=outcome.record.attempts)

    def map(self, fn: Any, params_list: Sequence[Dict[str, Any]],
            label: str = "") -> RunResult:
        """Convenience: one spec per params dict over a shared callable."""
        name = label or getattr(fn, "__name__", "job")
        specs = [JobSpec(fn=fn, params=params, label=f"{name}[{i}]")
                 for i, params in enumerate(params_list)]
        return self.run(specs)

    # -- pool path ----------------------------------------------------------

    def _run_pool(self, jobs: List[_Job],
                  outcomes: List[Optional[JobOutcome]]) -> List[_Job]:
        """Run portable jobs on a process pool.

        Fills ``outcomes`` in place; returns the jobs that must degrade
        to the serial path (pool unavailable, pool broke mid-run, or a
        result refused to pickle).
        """
        if not jobs:
            return []
        try:
            pool = cf.ProcessPoolExecutor(
                max_workers=min(self.workers, len(jobs)))
        except (OSError, PermissionError, NotImplementedError, ValueError) \
                as exc:
            _LOG.warning("cannot spawn worker processes (%s); running "
                         "serially", self._describe(exc))
            return jobs

        attempts = {index: 0 for index, _spec, _key in jobs}
        spent = {index: 0.0 for index, _spec, _key in jobs}
        started: Dict[int, str] = {}
        errors: Dict[int, str] = {}
        degraded: List[_Job] = []
        remaining = list(jobs)
        abandoned = False
        round_number = 0
        trace_id = obs.current_trace_id()
        ctx = obs.current_context()
        plan = faults.installed_plan()
        plan_json = plan.to_json() if plan is not None else None

        try:
            while remaining:
                round_number += 1
                if round_number > 1:
                    delay = backoff_delay(self.backoff, round_number - 1)
                    with obs.span("executor.backoff", round=round_number,
                                  delay_s=delay, jobs=len(remaining)):
                        time.sleep(delay)
                submitted: List[Tuple[cf.Future, _Job]] = []
                for job in remaining:
                    index, spec, key = job
                    attempts[index] += 1
                    if attempts[index] == 1:
                        if self.journal is not None:
                            self.journal.start(key, spec.display_label)
                        if obs.enabled():
                            obs.counter("executor.executed").inc()
                    started.setdefault(index, utc_now_iso())
                    submitted.append(
                        (pool.submit(_invoke, spec.ref, spec.param_dict(),
                                     ctx, plan_json),
                         job))
                retry_round: List[_Job] = []
                for future, job in submitted:
                    index, spec, key = job
                    t0 = time.perf_counter()
                    try:
                        value, resources = _unship(
                            future.result(timeout=self.timeout))
                    except cf.BrokenExecutor:
                        raise  # the outer handler degrades survivors
                    except cf.TimeoutError:
                        future.cancel()
                        abandoned = True
                        spent[index] += time.perf_counter() - t0
                        errors[index] = (f"timeout after {self.timeout} s "
                                         f"(attempt {attempts[index]})")
                        _LOG.warning("job %s: %s", spec.display_label,
                                     errors[index])
                        if obs.enabled():
                            obs.counter("executor.timeout").inc()
                        self._retry_or_fail(job, attempts, spent, errors,
                                            outcomes, retry_round, MODE_POOL,
                                            started)
                    except Exception as exc:
                        spent[index] += time.perf_counter() - t0
                        if _is_pickle_error(exc):
                            degraded.append(job)
                            continue
                        errors[index] = self._describe(exc)
                        _LOG.warning("job %s attempt %d failed: %s",
                                     spec.display_label, attempts[index],
                                     errors[index])
                        self._retry_or_fail(job, attempts, spent, errors,
                                            outcomes, retry_round, MODE_POOL,
                                            started)
                    else:
                        spent[index] += time.perf_counter() - t0
                        record = JobRecord(
                            label=spec.display_label, key=key,
                            status=STATUS_OK, mode=MODE_POOL,
                            attempts=attempts[index],
                            wall_time=spent[index],
                            started_at=started.get(index),
                            trace_id=trace_id)
                        record.set_resources(resources)
                        outcomes[index] = JobOutcome(spec, key, value,
                                                     record)
                        self._commit(outcomes[index])
                remaining = retry_round
        except cf.BrokenExecutor:
            # BrokenProcessPool's base: naming it keeps
            # concurrent.futures.process (and multiprocessing) unloaded
            # until a pool is created.
            _LOG.warning("worker pool broke mid-run; surviving jobs "
                         "degrade to serial execution")
        finally:
            try:
                pool.shutdown(wait=not abandoned, cancel_futures=True)
            except (OSError, RuntimeError):
                pass  # a broken pool may refuse a clean shutdown

        return [job for job in jobs
                if outcomes[job[0]] is None
                and not any(job[0] == d[0] for d in degraded)] + \
               [job for job in degraded if outcomes[job[0]] is None]

    def _retry_or_fail(self, job: _Job, attempts: Dict[int, int],
                       spent: Dict[int, float], errors: Dict[int, str],
                       outcomes: List[Optional[JobOutcome]],
                       retry_round: List[_Job], mode: str,
                       started: Optional[Dict[int, str]] = None) -> None:
        index, spec, key = job
        if attempts[index] <= self.retries:
            if obs.enabled():
                obs.counter("executor.retry").inc()
            retry_round.append(job)
        else:
            if obs.enabled():
                obs.counter("executor.failed").inc()
            obs.flight.record("job.failed", label=spec.display_label,
                              mode=mode, attempts=attempts[index],
                              error=errors.get(index))
            obs.flight.auto_dump(reason="job.failed")
            outcomes[index] = JobOutcome(
                spec, key, None,
                JobRecord(label=spec.display_label, key=key,
                          status=STATUS_FAILED, mode=mode,
                          attempts=attempts[index],
                          wall_time=spent[index], error=errors.get(index),
                          started_at=(started or {}).get(index),
                          trace_id=obs.current_trace_id()))
            self._commit(outcomes[index])

    # -- serial path --------------------------------------------------------

    def _run_serial(self, spec: JobSpec, key: str) -> JobOutcome:
        fn = spec.resolve()
        params = spec.param_dict()
        spent = 0.0
        error: Optional[str] = None
        started = utc_now_iso()
        trace_id = obs.current_trace_id()
        if self.journal is not None:
            self.journal.start(key, spec.display_label)
        if obs.enabled():
            obs.counter("executor.executed").inc()
        with obs.span("executor.job", label=spec.display_label,
                      mode="serial"):
            for attempt in range(1, self.retries + 2):
                if attempt > 1:
                    delay = backoff_delay(self.backoff, attempt - 1)
                    with obs.span("executor.backoff", attempt=attempt,
                                  delay_s=delay):
                        time.sleep(delay)
                    if obs.enabled():
                        obs.counter("executor.retry").inc()
                t0 = time.perf_counter()
                probe = obs.ResourceProbe() if obs.enabled() else None
                try:
                    if faults.active():
                        faults.trip("executor.invoke")
                    with obs.span("executor.attempt", attempt=attempt):
                        value = _call_with_timeout(fn, params, self.timeout)
                except Exception as exc:
                    spent += time.perf_counter() - t0
                    error = self._describe(exc)
                    if isinstance(exc, JobTimeout) and obs.enabled():
                        obs.counter("executor.timeout").inc()
                    _LOG.warning("job %s attempt %d failed: %s",
                                 spec.display_label, attempt, error)
                else:
                    spent += time.perf_counter() - t0
                    record = JobRecord(label=spec.display_label, key=key,
                                       status=STATUS_OK, mode=MODE_SERIAL,
                                       attempts=attempt, wall_time=spent,
                                       started_at=started,
                                       trace_id=trace_id)
                    if probe is not None:
                        record.set_resources(probe.finish())
                    return JobOutcome(spec, key, value, record)
        if obs.enabled():
            obs.counter("executor.failed").inc()
        obs.flight.record("job.failed", label=spec.display_label,
                          mode=MODE_SERIAL, attempts=self.retries + 1,
                          error=error)
        obs.flight.auto_dump(reason="job.failed")
        return JobOutcome(
            spec, key, None,
            JobRecord(label=spec.display_label, key=key,
                      status=STATUS_FAILED, mode=MODE_SERIAL,
                      attempts=self.retries + 1, wall_time=spent,
                      error=error, started_at=started, trace_id=trace_id))

    @staticmethod
    def _describe(exc: BaseException) -> str:
        text = f"{type(exc).__name__}: {exc}"
        return text.strip() or traceback.format_exception_only(
            type(exc), exc)[-1].strip()
