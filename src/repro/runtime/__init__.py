"""repro.runtime: parallel experiment orchestration with caching.

Every validation tier of this reproduction -- the analytic network
gates, the FDTD field maps, the micromagnetic LLG runs, the circuit
sweeps -- ultimately evaluates grids of independent cases (the paper's
Tables I and II are literally one MuMax3 run per input combination).
This subsystem turns such grids into declarative jobs:

* :class:`JobSpec` -- a callable reference plus parameters, hashed to
  a deterministic content-addressed key;
* :class:`ResultCache` / :class:`MemoryCache` / :class:`DiskCache` --
  pluggable result stores (the disk store lives under
  ``.repro_cache/``, namespaced by a code-version salt) with hit/miss
  accounting;
* :class:`Executor` -- fans jobs out over a process pool with per-job
  timeouts, bounded retries with backoff, and graceful degradation to
  serial in-process execution;
* :class:`RunReport` -- per-job telemetry (wall time, cache hits,
  retries, failures), printable as a table or dumpable as JSON.

Quickstart
----------
>>> from repro.runtime import Executor, JobSpec, MemoryCache
>>> from repro.runtime.jobs import gate_design_point
>>> ex = Executor(workers=4, cache=MemoryCache())
>>> result = ex.map(gate_design_point,
...                 [{"wavelength_nm": w} for w in (40, 55, 80)])
>>> [v["logic_ok"] for v in result.values]
[True, True, True]
>>> result.report.hit_rate            # second run would be 1.0
0.0

See ``docs/RUNTIME.md`` for the job model and the cache layout.
"""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".aio": ("run_async", "submit_async"),
    ".backend": ("ExecutorBackend", "LocalPoolBackend", "create_backend"),
    ".cache": (
        "DEFAULT_CACHE_ROOT", "QUARANTINE_DIR", "CacheStats", "CacheUsage",
        "DiskCache", "MemoryCache", "PruneResult", "ResultCache",
        "atomic_write", "cache_stats", "count_quarantined", "prune_cache",
        "scan_cache",
    ),
    ".executor": (
        "Executor", "JobFailed", "JobOutcome", "JobTimeout", "RunResult",
        "backoff_delay",
    ),
    ".report": ("JobRecord", "RunReport"),
    ".spec": (
        "JobSpec", "callable_ref", "canonical_json", "job_key", "resolve_ref",
    ),
})

__all__ = [
    "CacheStats",
    "CacheUsage",
    "DEFAULT_CACHE_ROOT",
    "DiskCache",
    "Executor",
    "ExecutorBackend",
    "JobFailed",
    "JobOutcome",
    "JobRecord",
    "JobSpec",
    "JobTimeout",
    "LocalPoolBackend",
    "MemoryCache",
    "PruneResult",
    "QUARANTINE_DIR",
    "ResultCache",
    "RunReport",
    "RunResult",
    "atomic_write",
    "backoff_delay",
    "cache_stats",
    "count_quarantined",
    "callable_ref",
    "canonical_json",
    "create_backend",
    "job_key",
    "prune_cache",
    "resolve_ref",
    "run_async",
    "scan_cache",
    "submit_async",
]
