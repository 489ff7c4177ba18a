"""``repro cluster supervise``: a coordinator that outlives kill -9.

The coordinator is deliberately a single process -- replicating a job
queue needs consensus machinery far outside this repository's
stdlib-only budget.  What production actually needs from it is much
cheaper: *fast, lossless restart*.  This module provides it by
composing two existing pieces:

* the shared :class:`~repro.resilience.supervisor.ProcessSupervisor`
  (the ``serve --prefork`` parent loop) forks the coordinator as a
  child and relaunches it with backoff whenever it dies unrequested --
  a ``kill -9`` heals in well under a second;
* the write-ahead journal, opened with ``resume=True``, makes the
  relaunch *lossless*: the new incarnation replays ``start``/``done``
  records, requeues interrupted jobs and serves completed keys from
  the shared disk cache (see ``Coordinator._replay_journal``).

Clients and workers ride through the gap with their own reconnect
loops (:mod:`repro.cluster.backend`, :mod:`repro.cluster.worker`), so
the net effect of killing the coordinator mid-sweep is a pause of a
few hundred milliseconds -- same truth table, ``failed == 0``, no
client-visible error.

A fixed ``--port`` is required (an ephemeral port would move on every
restart, stranding every peer); ``--pid-file`` publishes the current
child's pid so chaos drills -- CI kills the coordinator on purpose --
know whom to shoot.
"""

from __future__ import annotations

import os
import signal
from typing import Any, Callable, Optional

from .. import obs
from ..errors import ClusterConfigError
from ..resilience.journal import JobJournal
from ..resilience.supervisor import ProcessSupervisor
from . import protocol
from .coordinator import Coordinator

__all__ = ["run_supervised", "serve_coordinator"]

_LOG = obs.get_logger("cluster.supervise")


def serve_coordinator(cache_dir: Optional[str] = None,
                      journal_path: Optional[str] = None,
                      on_ready: Optional[Callable[[Coordinator], None]]
                      = None, **options: Any) -> int:
    """Build a coordinator, serve until it stops, close its journal.

    ``options`` are the :class:`Coordinator` arguments (``host``,
    ``port``, ``secret``, ``retries``, ``heartbeat_timeout``, ``tls``)
    with its defaults.  The journal is opened with ``resume=True``: a
    restarted coordinator appends to its predecessor's journal and
    replays it into queue state.  ``on_ready`` sees the bound
    coordinator before it starts serving.  Returns 0.
    """
    from ..runtime.cache import DiskCache

    cache = DiskCache(root=cache_dir) if cache_dir else None
    journal = (JobJournal(journal_path, resume=True)
               if journal_path else None)
    coordinator = Coordinator(cache=cache, journal=journal, **options)
    if on_ready is not None:
        on_ready(coordinator)
    try:
        coordinator.serve_forever()
    finally:
        if journal is not None:
            journal.close()
    return 0


def run_supervised(port: int, max_restarts: int = 20,
                   pid_file: Optional[str] = None, **options: Any) -> int:
    """Run a coordinator under restart-with-backoff supervision.

    ``port`` and ``options`` (the other :func:`serve_coordinator`
    arguments) configure every incarnation.  Blocks until the
    supervisor exits (SIGTERM/SIGINT drain the child gracefully).
    Returns the worst child exit code.  Raises
    :class:`~repro.errors.ClusterConfigError` for an ephemeral port,
    bad TLS material or a fork-less platform -- all before any child
    starts.
    """
    if not port:
        raise ClusterConfigError(
            "cluster supervise needs a fixed --port: an ephemeral "
            "port would change on every restart, stranding workers "
            "and clients")
    if options.get("journal_path") is None:
        _LOG.warning("supervising without --journal: restarts will "
                     "lose the queue (completed results still come "
                     "from the cache)")
    if options.get("tls") is not None:
        protocol.server_tls_context(options["tls"])  # fail fast

    def _on_ready(coordinator: Coordinator) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum,
                          lambda *_args: coordinator.request_stop())
        replayed = coordinator.journal_replayed
        if replayed["completed"] or replayed["interrupted"]:
            _LOG.info("coordinator %d resumed: %s", os.getpid(), replayed)

    def _child(slot: int) -> int:
        return serve_coordinator(port=port, on_ready=_on_ready, **options)

    def _publish_pid(pid: int, _slot: int) -> None:
        if pid_file:
            with open(pid_file, "w", encoding="utf-8") as handle:
                handle.write(f"{pid}\n")

    supervisor = ProcessSupervisor(
        _child, processes=1, max_restarts=max_restarts,
        backoff_base=0.1, backoff_cap=2.0, healthy_after=5.0,
        name="cluster.supervise",
        restart_counter="cluster.supervisor_restarts",
        on_spawn=_publish_pid)
    try:
        return supervisor.run()
    finally:
        if pid_file:
            try:
                os.unlink(pid_file)
            except OSError:
                pass
