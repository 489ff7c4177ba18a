"""repro.resilience: fault injection, guardrails, checkpoint/resume.

Four small, independently usable pieces (see ``docs/RESILIENCE.md``):

* :mod:`~repro.resilience.faults` -- seeded deterministic fault
  injection (worker crash, slow I/O, cache corruption, NaN at step N)
  behind a zero-overhead-when-disabled flag, armed in-process or via
  the ``REPRO_FAULTS`` environment variable;
* :mod:`~repro.resilience.guardrails` -- solver health watchdogs
  raising typed :class:`~repro.errors.NumericalDivergenceError` with
  step diagnostics, plus the dt-halving remediation policy;
* :mod:`~repro.resilience.checkpoint` -- atomic ``.npz`` solver
  checkpoints and the periodic :class:`CheckpointManager`;
* :mod:`~repro.resilience.journal` -- the write-ahead job journal
  behind ``python -m repro sweep --resume``;
* :mod:`~repro.resilience.circuit` -- the serving tier's per-job
  circuit breaker;
* :mod:`~repro.resilience.supervisor` -- the fork/restart-with-backoff
  parent loop shared by ``serve --prefork`` and
  ``cluster supervise``.

All ``resilience.*`` metrics flow through :mod:`repro.obs` and show up
in ``/metrics`` and ``metrics_snapshot()`` like any other counter.
"""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    "..errors": (
        "CacheCorrupt", "CheckpointError", "CircuitOpen", "FaultInjected",
        "NumericalDivergenceError", "ReproError",
    ),
    ".checkpoint": ("CheckpointManager", "load_checkpoint", "save_checkpoint"),
    ".circuit": ("CircuitBreaker",),
    ".faults": (
        "FaultPlan", "FaultSpec", "active", "install", "install_from_env",
        "trip", "uninstall",
    ),
    ".guardrails": (
        "FieldWatchdog", "MagnetisationWatchdog", "RemediationPolicy",
        "Watchdog", "run_with_dt_remediation",
    ),
    ".journal": ("JobJournal", "JournalState", "read_journal"),
    ".supervisor": ("ProcessSupervisor",),
})

__all__ = [
    "CacheCorrupt",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpen",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FieldWatchdog",
    "JobJournal",
    "JournalState",
    "MagnetisationWatchdog",
    "NumericalDivergenceError",
    "ProcessSupervisor",
    "RemediationPolicy",
    "ReproError",
    "Watchdog",
    "active",
    "install",
    "install_from_env",
    "load_checkpoint",
    "read_journal",
    "run_with_dt_remediation",
    "save_checkpoint",
    "trip",
    "uninstall",
]
