"""Names and defaults the command line declares before anything heavy
loads.

Stdlib only, so ``python -m repro --help`` builds its parser without
numpy, a solver or the service.  Each value is declared here once; the
modules that own its meaning (:mod:`repro.runtime.cache`,
:mod:`repro.micromag.experiments`, :mod:`repro.serve.app`) import it
from here.
"""

from dataclasses import dataclass
from typing import Optional

#: Result-cache directory, relative to the working directory.
DEFAULT_CACHE_ROOT = ".repro_cache"

#: The gates a gate case can name, with their input counts.
GATE_ARITY = {"maj3": 3, "xor": 2}

#: Degradation ladders per starting tier, whose keys are the tiers a
#: gate case can start on: each entry is walked left to right until a
#: rung answers.  The surrogate's ladder falls through the network tier
#: (the source its fits were characterized from) and on to FDTD, so
#: even a chaos drill knocking out both instant tiers still produces a
#: physically-grounded answer.
TIER_LADDERS = {
    "surrogate": ("surrogate", "network", "fdtd"),
    "network": ("network",),
    "fdtd": ("fdtd", "network"),
    "llg": ("llg", "fdtd", "network"),
}
TIERS = tuple(TIER_LADDERS)


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8077                 # 0 = ephemeral (tests, benches)
    workers: Optional[int] = None    # pool size for fdtd/llg jobs
    cache_dir: Optional[str] = DEFAULT_CACHE_ROOT  # None = no cache
    max_queue: int = 64
    rate: Optional[float] = None     # new jobs/s (None = unlimited)
    burst: Optional[float] = None
    batch_window_ms: float = 2.0
    batch_max: int = 16
    timeout: Optional[float] = None  # per-job bound for solver tiers
    access_log: Optional[str] = None  # JSONL access-log path
    trace: Optional[str] = None      # periodic span flush target (JSONL)
    drain_timeout: float = 30.0
    deadline_s: Optional[float] = None  # default request deadline
    breaker_threshold: int = 5       # failures that open a tier's circuit
    breaker_reset_s: float = 30.0    # open time before a probe is let in
    surrogate_dir: Optional[str] = None  # characterization store root
    # (None = $REPRO_SURROGATE_DIR or .repro_characterization/)
    backend: Optional[str] = None    # solver-tier execution backend:
    # None/"local" = in-process pool, "tcp://host:port" = repro.cluster
    prefork: int = 0                 # worker processes sharing the port
    # via SO_REUSEPORT (0 = single process); see repro.serve.prefork
    reuse_port: bool = False         # bind with SO_REUSEPORT (set
    # automatically for prefork children)
