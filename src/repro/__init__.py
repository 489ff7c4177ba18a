"""repro: reproduction of "Fan-out of 2 Triangle Shape Spin Wave Logic
Gates" (Mahmoud et al., DATE 2021).

Subpackages
-----------
``repro.core``
    The paper's contribution: triangle FO2 Majority and X(N)OR gates,
    derived (N)AND/(N)OR gates, the ladder-shape baseline, layout
    dimensioning, phase/threshold detection, the analytic wave-network
    evaluation tier and the gate-to-solver fabrication bridge.
``repro.physics``
    Materials, the Kalinikos-Slavin dispersion, plane-wave algebra and
    attenuation models.
``repro.micromag``
    From-scratch finite-difference LLG solver (the MuMax3 substitute):
    exchange, Newell-tensor FFT demagnetisation, uniaxial anisotropy,
    Zeeman + local excitation, stochastic thermal field; RK4/RK45/Heun.
``repro.fdtd``
    Fast 2-D damped scalar-wave tier for gate-scale field maps.
``repro.circuits``
    Netlists, couplers/repeaters, majority-logic synthesis and a
    gate-level simulator (full adder, adders, voting trees).
``repro.evaluation``
    ME transducer and CMOS reference models; the Table III generator.
``repro.compiler``
    Spin-wave circuit compiler: boolean spec (truth table or
    expression) -> majority/XOR netlist -> placed triangle-gate fabric
    on the lambda grid -> design-rule check (d1-d4 phase rules,
    spacings, crossings, FO2 budget) -> auto-characterization through
    the evaluation stack.  ``python -m repro compile`` and
    ``POST /v1/compile`` drive it.
``repro.runtime``
    Parallel experiment orchestration: declarative job specs with
    content-addressed keys, in-memory/on-disk result caches, a
    process-pool executor with timeouts/retries/serial fallback, and
    run telemetry.  ``python -m repro sweep`` and the truth-table /
    ablation benches submit through it.
``repro.obs``
    Observability: opt-in span tracer (with cross-process context
    propagation), metrics registry, JSONL/Chrome-trace/ASCII/
    Prometheus exporters, and the ``repro`` logger hierarchy.
    ``python -m repro --trace FILE``, ``--log-level`` and the
    ``profile`` subcommand sit on top of it.
``repro.serve``
    The runtime engine behind an asyncio HTTP service (stdlib only):
    single-flight request coalescing, micro-batching, bounded-queue +
    token-bucket backpressure (429), Prometheus ``/metrics``, JSONL
    access logs and graceful drain.  ``python -m repro serve`` runs
    one; ``repro.serve.ServeClient`` talks to it.
``repro.io`` / ``repro.viz``
    OVF interchange, ASCII tables, field-map rendering.

Imports
-------
Every import here is lazy.  ``import repro`` runs only this module and
``repro._lazy``; each name in ``__all__`` (gates, detectors,
materials, engine classes, ``errors`` and ``obs``) imports its
module on first use, and every subpackage except ``repro.obs`` (read
on solver hot paths) re-exports its own names the same way.
``import repro.core.gates`` therefore loads the gates and what they
import, not the ladder baseline, the service or the cluster.

Quickstart
----------
>>> from repro import TriangleMajorityGate
>>> gate = TriangleMajorityGate()
>>> result = gate.evaluate((0, 1, 1))
>>> result.outputs["O1"].logic_value, result.outputs["O2"].logic_value
(1, 1)
"""

import logging as _logging

# Library logging convention: silent unless the application opts in
# (via logging config or ``repro.obs.setup_logging``).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.0.0"

from ._lazy import lazy_exports  # noqa: E402

lazy_exports(__name__, {
    ".core": (
        "DerivedTriangleGate", "GateResult", "LadderMajorityGate",
        "LadderXorGate", "PhaseDetector", "ThresholdDetector",
        "TriangleMajorityGate", "TriangleXorGate", "paper_maj3_dimensions",
        "paper_table_i_gate", "paper_table_ii_gate", "paper_xor_dimensions",
    ),
    ".physics": ("FECOB", "DispersionRelation", "FilmStack", "Material",
                 "Wave"),
    ".runtime": ("DiskCache", "Executor", "JobSpec", "MemoryCache",
                 "ResultCache", "RunReport"),
})

__all__ = [
    "DerivedTriangleGate",
    "GateResult",
    "LadderMajorityGate",
    "LadderXorGate",
    "PhaseDetector",
    "ThresholdDetector",
    "TriangleMajorityGate",
    "TriangleXorGate",
    "paper_maj3_dimensions",
    "paper_table_i_gate",
    "paper_table_ii_gate",
    "paper_xor_dimensions",
    "FECOB",
    "DispersionRelation",
    "FilmStack",
    "Material",
    "Wave",
    "DiskCache",
    "Executor",
    "JobSpec",
    "MemoryCache",
    "ResultCache",
    "RunReport",
    "errors",
    "obs",
    "__version__",
]
