"""The cluster coordinator: shards jobs to workers, owns the cache.

One coordinator process fronts the whole cluster.  Workers (``python
-m repro worker``) dial in, authenticate, and announce a capacity;
clients (a :class:`~repro.cluster.TcpClusterBackend` behind any
executor, or ``python -m repro cluster status``) dial in and submit
batches.  The coordinator:

* **shards** -- queued tasks go to the least-loaded live worker with
  free capacity, one ``job`` frame each;
* **deduplicates** -- tasks are keyed by the job's content key, so 64
  identical submissions (same client or many) become *one* execution
  whose result fans out to every waiter (cross-host single-flight;
  later duplicates count into ``cluster.coalesced_jobs``);
* **caches** -- it owns the shared :class:`~repro.runtime.DiskCache`:
  submissions are answered from it without touching a worker, and
  every computed result is written through, so workers on different
  hosts see one content-addressed store;
* **journals** -- the PR-4 write-ahead journal records ``start`` at
  first dispatch (with the full job descriptor) and ``done`` at the
  outcome; a coordinator restarted on the same journal *replays* it,
  requeueing interrupted jobs and serving completed keys from the
  shared cache, which is what makes ``repro cluster supervise``'s
  kill -9 recovery transparent to clients;
* **survives workers** -- a worker that disappears (socket EOF) or
  goes silent past the heartbeat timeout (partition, SIGSTOP, kernel
  OOM) has its in-flight tasks requeued on the survivors
  (``cluster.rescheduled_jobs``), with per-task attempt counting so a
  *failing* job still stops after ``retries`` genuine attempts;
* **enforces deadlines** -- a dispatched task whose worker neither
  answers nor dies within ``timeout + deadline_grace`` is requeued
  (the stuck worker keeps heartbeating, so only the deadline catches
  a wedged job).

Everything is plain threads and blocking sockets: an accept loop, one
reader thread per connection, a scheduler thread woken by a condition
variable, and a monitor thread ticking heartbeat ages and deadlines.
"""

from __future__ import annotations

import collections
import socket
import ssl
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from .. import obs
from ..defaults import DEFAULT_HEARTBEAT_TIMEOUT
from ..errors import ClusterAuthError, ClusterError
from ..resilience.journal import JobJournal
from ..runtime.cache import ResultCache
from . import protocol

_LOG = obs.get_logger("cluster.coordinator")

#: Heartbeat interval workers are told to use (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 0.5


def _shutdown_socket(sock: socket.socket) -> None:
    """Tear a connection down from a *different* thread than its
    reader: ``shutdown()`` wakes a blocked ``recv()`` and sends the
    peer a FIN; ``close()`` alone does neither while the reader still
    holds the fd."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    def __init__(self, worker_id: int, sock: socket.socket,
                 addr: Tuple[str, int], capacity: int, name: str):
        self.id = worker_id
        self.sock = sock
        self.addr = addr
        self.capacity = max(1, capacity)
        self.name = name or f"worker-{worker_id}"
        self.inflight: Dict[str, "_Task"] = {}
        self.last_beat = time.monotonic()
        self.alive = True
        self.send_lock = threading.Lock()
        self.jobs_done = 0

    def send(self, message: Dict[str, Any]) -> None:
        with self.send_lock:
            protocol.send_message(self.sock, message)


class _ClientConn:
    """Coordinator-side state for one connected client."""

    def __init__(self, sock: socket.socket, addr: Tuple[str, int]):
        self.sock = sock
        self.addr = addr
        self.alive = True
        self.send_lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> bool:
        """Best-effort: a client that went away just stops receiving
        outcomes (its executor will fail the batch on its own EOF)."""
        try:
            with self.send_lock:
                protocol.send_message(self.sock, message)
            return True
        except (OSError, ClusterError):
            self.alive = False
            return False


class _Task:
    """One unit of execution, shared by every waiter for its key."""

    __slots__ = ("key", "ref", "params", "label", "timeout", "retries",
                 "fault_plan", "trace", "waiters", "attempts", "worker",
                 "deadline", "journal_started", "rescheduled")

    def __init__(self, key: str, ref: str, params: Dict[str, Any],
                 label: str, timeout: Optional[float], retries: int,
                 fault_plan: Optional[str], trace: Optional[Dict[str, Any]]):
        self.key = key
        self.ref = ref
        self.params = params
        self.label = label
        self.timeout = timeout
        self.retries = retries
        self.fault_plan = fault_plan
        self.trace = trace
        #: (client connection, client-side job id) pairs to answer.
        self.waiters: List[Tuple[_ClientConn, str]] = []
        self.attempts = 0
        self.worker: Optional[_WorkerConn] = None
        self.deadline: Optional[float] = None
        self.journal_started = False
        self.rescheduled = 0


class Coordinator:
    """Threaded TCP coordinator (see module docstring).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` / :attr:`url`).
    cache:
        The shared :class:`~repro.runtime.ResultCache` all submissions
        consult and all results write through; None disables caching.
    journal:
        Optional :class:`~repro.resilience.journal.JobJournal` for
        write-ahead ``start``/``done`` records (the CI chaos artifact).
    secret:
        HMAC shared secret; defaults to ``REPRO_CLUSTER_SECRET`` or
        the development secret.
    retries:
        Extra attempts a *failing* task gets (worker-death reschedules
        do not consume attempts).
    heartbeat_timeout:
        Declare a worker dead after this much silence [s].
    deadline_grace:
        Slack added to a task's timeout before the coordinator
        force-reschedules it [s].
    tls:
        Optional :class:`~repro.cluster.protocol.TlsConfig`; when set,
        every accepted connection is TLS-wrapped before the HMAC
        handshake (bad material raises a typed
        :class:`~repro.errors.ClusterConfigError` here, not at the
        first connection).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[JobJournal] = None,
                 secret: Optional[str] = None,
                 retries: int = 2,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 deadline_grace: float = 5.0,
                 tls: Optional[protocol.TlsConfig] = None):
        self.cache = cache
        self.journal = journal
        self.secret = protocol.resolve_secret(secret)
        self.retries = max(0, int(retries))
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.deadline_grace = deadline_grace
        self._tls_context = (protocol.server_tls_context(tls)
                             if tls is not None else None)

        # create_server sets SO_REUSEADDR on POSIX, which matters for
        # supervised restarts: the relaunched coordinator must rebind
        # the port its killed predecessor's connections still hold in
        # TIME_WAIT.
        self._server = socket.create_server((host, port))
        self._host = host
        self._port = self._server.getsockname()[1]

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: Deque[_Task] = collections.deque()
        self._tasks: Dict[str, _Task] = {}      # key -> live task
        self._workers: Dict[int, _WorkerConn] = {}
        self._clients: List[_ClientConn] = []
        self._next_worker_id = 1
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started_at = time.monotonic()

        # Counters mirrored into obs but kept here too, so
        # ``cluster status`` works with the observer disabled.
        self.completed = 0
        self.failed = 0
        self.rescheduled = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.journal_replayed = {"completed": 0, "interrupted": 0}
        if journal is not None:
            self._replay_journal()

    def _replay_journal(self) -> None:
        """Rebuild queue state from a resumed write-ahead journal.

        Keys with a ``done`` record completed before the crash: their
        results live in the shared cache, so resubmissions
        short-circuit there and nothing is requeued.  Keys with a
        ``start`` but no ``done`` were in flight when the previous
        incarnation died: their journalled job descriptors (ref,
        params, timeout -- written at first dispatch) are requeued as
        waiterless tasks, so the work restarts even before any client
        reconnects; a reconnecting client's resubmission then joins
        the in-flight task via single-flight or hits the cache.
        """
        assert self.journal is not None
        state = self.journal.state
        self.journal_replayed["completed"] = len(state.completed)
        requeued = 0
        for key in sorted(state.interrupted):
            record = state.start_records.get(key) or {}
            ref = str(record.get("ref") or "")
            if not ref:
                continue  # pre-HA journal without job descriptors
            try:
                cached = bool(self.cache is not None
                              and self.cache.get(key)[0])
            except ValueError:
                cached = False  # malformed key in a damaged journal
            if cached:
                # Completed, but the kill landed between the cache
                # write and the done record: heal the journal instead
                # of recomputing.
                self.journal.done(key, "ok", attempts=0)
                self.journal_replayed["completed"] += 1
                continue
            task = _Task(
                key=key, ref=ref,
                params=dict(record.get("params") or {}),
                label=str(record.get("label") or "") or key[:12],
                timeout=record.get("timeout"),
                retries=int(record.get("retries", self.retries)),
                fault_plan=None, trace=None)
            task.journal_started = True
            self._tasks[key] = task
            self._queue.append(task)
            requeued += 1
        self.journal_replayed["interrupted"] = requeued
        if self.journal_replayed["completed"] or requeued:
            _LOG.info(
                "journal replay: %d completed key(s) backed by the "
                "cache, %d interrupted job(s) requeued",
                self.journal_replayed["completed"], requeued)
            obs.flight.record("cluster.journal_replayed",
                              **self.journal_replayed)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    @property
    def url(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    def start(self) -> "Coordinator":
        self._spawn(self._accept_loop, "cluster-accept")
        self._spawn(self._scheduler_loop, "cluster-scheduler")
        self._spawn(self._monitor_loop, "cluster-monitor")
        _LOG.info("coordinator listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop serving: tell workers to exit, close every socket."""
        self._stop.set()
        with self._work:
            self._work.notify_all()
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self._workers.values())
            clients = list(self._clients)
        for worker in workers:
            try:
                worker.send({"type": "shutdown"})
            except (OSError, ClusterError):
                pass
            _shutdown_socket(worker.sock)
        # Shut down client connections too: a client blocked on
        # outcomes sees a clean EOF and fails its batch in place,
        # instead of waiting forever on a coordinator that will never
        # answer.  shutdown() before close(): our own reader thread is
        # blocked in recv() on the same fd, and close() alone would
        # neither wake it nor send the peer a FIN.
        for client in clients:
            _shutdown_socket(client.sock)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def kill(self) -> None:
        """Crash-stop for chaos drills: close every socket abruptly,
        *without* shutdown frames.

        Peers see the same sudden EOF a ``kill -9`` of a subprocess
        coordinator produces, so their reconnect loops engage --
        unlike :meth:`stop`, whose ``shutdown`` frame tells workers
        the cluster is over on purpose and they should exit."""
        self._stop.set()
        with self._work:
            self._work.notify_all()
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            conns = ([w.sock for w in self._workers.values()]
                     + [c.sock for c in self._clients])
        for sock in conns:
            _shutdown_socket(sock)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to unwind.  Async-signal-safe
        (sets an event, takes no locks), so it is what a SIGTERM
        handler under ``cluster supervise`` calls."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the CLI foreground mode)."""
        self.start()
        try:
            while not self._stop.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- accept + per-connection loops --------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, addr = self._server.accept()
            except OSError:
                return  # server socket closed by stop()
            threading.Thread(target=self._handle_connection,
                             args=(sock, addr),
                             name=f"cluster-conn-{addr[1]}",
                             daemon=True).start()

    def _handle_connection(self, sock: socket.socket,
                           addr: Tuple[str, int]) -> None:
        if self._tls_context is not None:
            # Bound the handshake: a plaintext peer (or a port scanner)
            # never sends a ClientHello, and without a timeout it would
            # pin this thread forever while it waits for *our* frame.
            try:
                sock.settimeout(5.0)
                sock = self._tls_context.wrap_socket(sock, server_side=True)
                sock.settimeout(None)
            except (ssl.SSLError, OSError) as exc:
                _LOG.warning("TLS handshake from %s:%d failed: %s",
                             addr[0], addr[1], exc)
                if obs.enabled():
                    obs.counter("cluster.tls_rejected").inc()
                try:
                    sock.close()
                except OSError:
                    pass
                return
        try:
            auth = protocol.server_handshake(sock, self.secret)
        except (ClusterAuthError, ClusterError, OSError) as exc:
            _LOG.warning("rejected connection from %s:%d: %s",
                         addr[0], addr[1], exc)
            if obs.enabled():
                obs.counter("cluster.auth_rejected").inc()
            try:
                sock.close()
            except OSError:
                pass
            return
        if auth.get("role") == "worker":
            self._worker_loop(sock, addr, auth)
        else:
            self._client_loop(sock, addr)

    def _worker_loop(self, sock: socket.socket, addr: Tuple[str, int],
                     auth: Dict[str, Any]) -> None:
        with self._lock:
            worker = _WorkerConn(self._next_worker_id, sock, addr,
                                 int(auth.get("capacity", 1)),
                                 str(auth.get("name", "")))
            self._next_worker_id += 1
            self._workers[worker.id] = worker
            self._work.notify_all()
        self._update_gauges()
        _LOG.info("worker %s registered from %s:%d (capacity %d)",
                  worker.name, addr[0], addr[1], worker.capacity)
        try:
            worker.send({"type": "config",
                         "heartbeat_interval": self.heartbeat_interval})
            while not self._stop.is_set():
                try:
                    frame = protocol.recv_message(sock)
                except ClusterError as exc:
                    _LOG.warning("worker %s sent a broken frame: %s",
                                 worker.name, exc)
                    break
                if frame is None:
                    break  # EOF: process died or closed -- fast path
                kind = frame.get("type")
                if kind == "heartbeat":
                    worker.last_beat = time.monotonic()
                elif kind == "result":
                    worker.last_beat = time.monotonic()
                    self._on_result(worker, frame)
                elif kind == "goodbye":
                    break
        finally:
            self._worker_lost(worker, "connection closed")

    def _client_loop(self, sock: socket.socket,
                     addr: Tuple[str, int]) -> None:
        client = _ClientConn(sock, addr)
        with self._lock:
            self._clients.append(client)
        try:
            while not self._stop.is_set():
                try:
                    frame = protocol.recv_message(sock)
                except ClusterError as exc:
                    _LOG.warning("client %s:%d sent a broken frame: %s",
                                 addr[0], addr[1], exc)
                    break
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "submit":
                    self._on_submit(client, frame)
                elif kind == "status":
                    client.send({"type": "status", "status": self.status()})
                elif kind == "ping":
                    client.send({"type": "pong",
                                 "workers": len(self._workers)})
                elif kind == "shutdown":
                    client.send({"type": "bye"})
                    self._stop.set()
                    with self._work:
                        self._work.notify_all()
                    break
        finally:
            client.alive = False
            with self._lock:
                try:
                    self._clients.remove(client)
                except ValueError:
                    pass
            try:
                sock.close()
            except OSError:
                pass

    # -- submission: cache, single-flight, queue ----------------------------

    def _on_submit(self, client: _ClientConn, frame: Dict[str, Any]) -> None:
        jobs = frame.get("jobs") or []
        queued = 0
        for job in jobs:
            key = str(job.get("key", ""))
            job_id = str(job.get("id", key))
            if self.cache is not None:
                found, value = self.cache.get(key)
                if found:
                    self.cache_hits += 1
                    if obs.enabled():
                        obs.counter("cluster.cache_hits").inc()
                    outcome = {"type": "outcome", "id": job_id, "key": key,
                               "status": "hit", "attempts": 0,
                               "wall_time": 0.0}
                    outcome.update(protocol.encode_value(value))
                    client.send(outcome)
                    continue
            with self._lock:
                task = self._tasks.get(key)
                if task is not None:
                    # Cross-host single-flight: one execution, many
                    # waiters.
                    task.waiters.append((client, job_id))
                    self.coalesced += 1
                    if obs.enabled():
                        obs.counter("cluster.coalesced_jobs").inc()
                    continue
                task = _Task(
                    key=key, ref=str(job.get("ref", "")),
                    params=dict(job.get("params") or {}),
                    label=str(job.get("label", "")) or key[:12],
                    timeout=job.get("timeout"),
                    retries=int(job.get("retries", self.retries)),
                    fault_plan=job.get("fault_plan"),
                    trace=job.get("trace"))
                task.waiters.append((client, job_id))
                self._tasks[key] = task
                self._queue.append(task)
                queued += 1
                self._work.notify_all()
        if queued:
            self._update_gauges()
            _LOG.debug("queued %d task(s) from %s:%d", queued,
                       client.addr[0], client.addr[1])

    # -- scheduling ---------------------------------------------------------

    def _pick_worker(self) -> Optional[_WorkerConn]:
        """Least-loaded live worker with free capacity (caller holds
        the lock)."""
        best: Optional[_WorkerConn] = None
        for worker in self._workers.values():
            if not worker.alive:
                continue
            if len(worker.inflight) >= worker.capacity:
                continue
            if best is None or len(worker.inflight) < len(best.inflight):
                best = worker
        return best

    def _scheduler_loop(self) -> None:
        while True:
            with self._work:
                while (not self._stop.is_set()
                       and not (self._queue and self._pick_worker())):
                    self._work.wait(timeout=0.5)
                if self._stop.is_set():
                    return
                task = self._queue.popleft()
                worker = self._pick_worker()
                assert worker is not None
                task.worker = worker
                task.attempts += 1
                worker.inflight[task.key] = task
                if task.timeout is not None:
                    task.deadline = (time.monotonic() + task.timeout
                                     + self.deadline_grace)
            self._dispatch(task, worker)
            self._update_gauges()

    def _dispatch(self, task: _Task, worker: _WorkerConn) -> None:
        if self.journal is not None and not task.journal_started:
            # The start record carries the job descriptor itself, so a
            # restarted coordinator can requeue interrupted work from
            # the journal alone (see _replay_journal).
            self.journal.start(task.key, task.label, ref=task.ref,
                               params=task.params, timeout=task.timeout,
                               retries=task.retries)
            task.journal_started = True
        message = {"type": "job", "key": task.key, "ref": task.ref,
                   "params": task.params, "label": task.label,
                   "timeout": task.timeout, "attempt": task.attempts}
        if task.fault_plan is not None:
            message["fault_plan"] = task.fault_plan
        if task.trace is not None:
            message["trace"] = task.trace
        try:
            worker.send(message)
        except (OSError, ClusterError) as exc:
            _LOG.warning("dispatch to worker %s failed (%s); requeueing",
                         worker.name, exc)
            self._worker_lost(worker, "send failed")
        else:
            if obs.enabled():
                obs.counter("cluster.jobs_dispatched").inc()

    # -- results ------------------------------------------------------------

    def _on_result(self, worker: _WorkerConn, frame: Dict[str, Any]) -> None:
        key = str(frame.get("key", ""))
        with self._work:
            task = worker.inflight.pop(key, None)
            if task is not None:
                self._work.notify_all()  # a capacity slot just freed
        if task is None:
            # A reschedule beat this worker to it: the task already
            # ran (or is running) elsewhere; drop the duplicate.
            if obs.enabled():
                obs.counter("cluster.duplicate_results").inc()
            return
        worker.jobs_done += 1
        if frame.get("ok"):
            try:
                value = protocol.decode_value(frame)
            except Exception as exc:  # undecodable result = failure
                self._task_failed(task, f"undecodable result: {exc}",
                                  frame)
                self._update_gauges()
                return
            self._task_done(task, value, frame)
        else:
            self._task_failed(task, str(frame.get("error", "worker error")),
                              frame)
        self._update_gauges()

    def _task_done(self, task: _Task, value: Any,
                   frame: Dict[str, Any]) -> None:
        if self.cache is not None:
            self.cache.put(task.key, value)
        if self.journal is not None:
            self.journal.done(task.key, "ok", attempts=task.attempts)
        with self._lock:
            self._tasks.pop(task.key, None)
            waiters = list(task.waiters)
        self.completed += 1
        if obs.enabled():
            obs.counter("cluster.jobs_completed").inc()
        outcome = {"type": "outcome", "key": task.key, "status": "ok",
                   "attempts": task.attempts,
                   "wall_time": float(frame.get("wall_time", 0.0)),
                   "rescheduled": task.rescheduled,
                   "value": frame.get("value")}
        if frame.get("npz") is not None:
            outcome["npz"] = frame.get("npz")
        if frame.get("spans"):
            outcome["spans"] = frame["spans"]
        if frame.get("resources"):
            outcome["resources"] = frame["resources"]
        for client, job_id in waiters:
            reply = dict(outcome)
            reply["id"] = job_id
            client.send(reply)

    def _task_failed(self, task: _Task, error: str,
                     frame: Dict[str, Any]) -> None:
        if task.attempts <= task.retries:
            _LOG.warning("task %s attempt %d failed (%s); retrying",
                         task.label, task.attempts, error)
            if obs.enabled():
                obs.counter("cluster.retries").inc()
            with self._work:
                task.worker = None
                task.deadline = None
                self._queue.append(task)
                self._work.notify_all()
            return
        if self.journal is not None:
            self.journal.done(task.key, "failed", attempts=task.attempts)
        with self._lock:
            self._tasks.pop(task.key, None)
            waiters = list(task.waiters)
        self.failed += 1
        if obs.enabled():
            obs.counter("cluster.jobs_failed").inc()
        obs.flight.record("cluster.job_failed", label=task.label,
                          attempts=task.attempts, error=error)
        for client, job_id in waiters:
            client.send({"type": "outcome", "id": job_id, "key": task.key,
                         "status": "failed", "error": error,
                         "attempts": task.attempts,
                         "wall_time": float(frame.get("wall_time", 0.0)),
                         "rescheduled": task.rescheduled})

    # -- failure detection --------------------------------------------------

    def _worker_lost(self, worker: _WorkerConn, reason: str) -> None:
        with self._lock:
            if not worker.alive:
                return  # already handled by the other detection path
            worker.alive = False
            self._workers.pop(worker.id, None)
            orphans = list(worker.inflight.values())
            worker.inflight.clear()
            for task in orphans:
                # A death is not the job's fault: the attempt is
                # refunded so a killed worker cannot burn a task's
                # retry budget.
                task.attempts -= 1
                task.worker = None
                task.deadline = None
                task.rescheduled += 1
                self._queue.append(task)
            self.rescheduled += len(orphans)
            self._work.notify_all()
        try:
            worker.sock.close()
        except OSError:
            pass
        if orphans:
            _LOG.warning("worker %s lost (%s); rescheduling %d in-flight "
                         "job(s)", worker.name, reason, len(orphans))
            if obs.enabled():
                obs.counter("cluster.rescheduled_jobs").inc(len(orphans))
            obs.flight.record("cluster.worker_lost", worker=worker.name,
                              reason=reason, rescheduled=len(orphans))
            obs.flight.auto_dump(reason="cluster.worker_lost")
        else:
            _LOG.info("worker %s disconnected (%s)", worker.name, reason)
        self._update_gauges()

    def _monitor_loop(self) -> None:
        tick = max(0.05, min(self.heartbeat_timeout / 4.0, 0.5))
        while not self._stop.wait(tick):
            now = time.monotonic()
            with self._lock:
                silent = [w for w in self._workers.values()
                          if now - w.last_beat > self.heartbeat_timeout]
                expired = []
                for worker in self._workers.values():
                    for task in list(worker.inflight.values()):
                        if task.deadline is not None and now > task.deadline:
                            expired.append((worker, task))
            for worker in silent:
                _LOG.warning("worker %s missed heartbeats for %.1f s",
                             worker.name, now - worker.last_beat)
                if obs.enabled():
                    obs.counter("cluster.heartbeat_timeouts").inc()
                self._worker_lost(worker, "heartbeat timeout")
            for worker, task in expired:
                with self._work:
                    if worker.inflight.pop(task.key, None) is None:
                        continue  # its result just arrived
                    _LOG.warning("task %s exceeded its deadline on worker "
                                 "%s; rescheduling", task.label, worker.name)
                    if obs.enabled():
                        obs.counter("cluster.deadline_expired").inc()
                    task.worker = None
                    task.deadline = None
                    task.rescheduled += 1
                    self.rescheduled += 1
                    self._queue.append(task)
                    self._work.notify_all()
                if obs.enabled():
                    obs.counter("cluster.rescheduled_jobs").inc()

    # -- introspection ------------------------------------------------------

    def _update_gauges(self) -> None:
        if not obs.enabled():
            return
        with self._lock:
            inflight = sum(len(w.inflight) for w in self._workers.values())
            obs.gauge("cluster.workers").set(len(self._workers))
            obs.gauge("cluster.jobs_inflight").set(inflight)
            obs.gauge("cluster.jobs_queued").set(len(self._queue))

    def status(self) -> Dict[str, Any]:
        """Snapshot for ``python -m repro cluster status``."""
        now = time.monotonic()
        with self._lock:
            workers = [{
                "id": w.id, "name": w.name,
                "addr": f"{w.addr[0]}:{w.addr[1]}",
                "capacity": w.capacity,
                "inflight": len(w.inflight),
                "jobs_done": w.jobs_done,
                "last_heartbeat_age_s": round(now - w.last_beat, 3),
            } for w in sorted(self._workers.values(), key=lambda w: w.id)]
            queued = len(self._queue)
            inflight = sum(len(w.inflight) for w in self._workers.values())
        return {
            "url": self.url,
            "uptime_s": round(now - self._started_at, 3),
            "workers": workers,
            "queued": queued,
            "queue_depth": queued + inflight,
            "inflight": inflight,
            "completed": self.completed,
            "failed": self.failed,
            "rescheduled": self.rescheduled,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "journal_replayed": dict(self.journal_replayed),
        }
