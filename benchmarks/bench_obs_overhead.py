"""Micro-benchmark: cost of the repro.obs instrumentation on the FDTD
hot loop.

The observability contract (repro.obs) is that instrumented code with
tracing *disabled* pays a single flag check per call site -- the budget
is < 5 % wall-time overhead on a 2k-step FDTD run versus the bare
leapfrog loop.  This bench times three variants on an identical
96 x 96 canvas:

* ``baseline``  -- ``ScalarWaveSimulator._advance`` called directly: the
  one leapfrog loop every variant runs, without the ``step()`` dispatch,
  span, counters or phase timer;
* ``disabled``  -- ``ScalarWaveSimulator.step`` with the observer
  detached (the production default), the variant under budget;
* ``enabled``   -- the same with spans + metrics active, for scale.

The enabled run's ``fdtd.phase.*_ms`` histograms (stencil, boundary,
source) are written to the ``BENCH_obs_overhead.json`` snapshot as
microseconds per step, so the solver-phase split is recorded too.

Runnable standalone for CI (``python benchmarks/bench_obs_overhead.py``
exits non-zero above budget) or through pytest-benchmark.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import emit, write_bench_json  # noqa: E402

try:
    from repro import obs
    from repro.fdtd import ScalarWaveSimulator
    from repro.obs import flight
except ImportError:  # source checkout without an installed package
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from repro import obs
    from repro.fdtd import ScalarWaveSimulator
    from repro.obs import flight

N_STEPS = 2000
SHAPE = (96, 96)
BUDGET = 0.05
PHASES = ("stencil", "boundary", "source")


def _make_sim() -> ScalarWaveSimulator:
    mask = np.ones(SHAPE, dtype=bool)
    return ScalarWaveSimulator(mask=mask, dx=10e-9, wavelength=110e-9,
                               frequency=2.282e9)


def _baseline_seconds() -> float:
    """Time the leapfrog loop itself, bypassing ``step()``."""
    sim = _make_sim()
    t0 = time.perf_counter()
    sim._advance(N_STEPS)
    return time.perf_counter() - t0


def _instrumented_seconds(enabled: bool, phases_us: dict = None) -> float:
    """Time ``step(N_STEPS)``; an enabled run adds its per-step phase
    times [us] to ``phases_us`` (keeping the fastest per phase)."""
    sim = _make_sim()
    if enabled:
        obs.enable()
    try:
        t0 = time.perf_counter()
        sim.step(N_STEPS)
        elapsed = time.perf_counter() - t0
        if enabled and phases_us is not None:
            hists = obs.metrics_snapshot()["histograms"]
            for phase in PHASES:
                us = hists[f"fdtd.phase.{phase}_ms"]["sum"] * 1e3 / N_STEPS
                phases_us[phase] = min(phases_us.get(phase, us), us)
        return elapsed
    finally:
        if enabled:
            obs.drain_spans()
            obs.disable()


def _flight_record_ns(n_events: int = 20000) -> float:
    """Average cost of one flight-recorder event append.

    The recorder is *always on*, so its steady-state price matters:
    one dict build plus a GIL-atomic deque append, with old events
    falling off the bounded ring for free.
    """
    flight.clear()
    t0 = time.perf_counter_ns()
    for i in range(n_events):
        flight.record("bench", index=i)
    elapsed = time.perf_counter_ns() - t0
    flight.clear()
    return elapsed / n_events


def measure(repeats: int = 5) -> dict:
    """Best-of-``repeats`` timings for all variants.

    ``enabled`` now includes the full deep-profiling path: the
    ``fdtd.step`` span (flight-recorded open/close), the per-phase
    stencil/boundary/source timers and the throughput gauges.

    Rounds are interleaved (baseline, disabled, enabled per round)
    rather than run as sequential blocks, so slow machine drift --
    a noisy CI neighbour spinning up mid-bench -- degrades every
    variant instead of silently skewing one ratio.
    """
    obs.disable()
    base = disabled = enabled = float("inf")
    phases_us: dict = {}
    for _ in range(repeats):
        base = min(base, _baseline_seconds())
        disabled = min(disabled, _instrumented_seconds(False))
        enabled = min(enabled, _instrumented_seconds(True, phases_us))
    return {
        "baseline_s": base,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_overhead": disabled / base - 1.0,
        "enabled_overhead": enabled / base - 1.0,
        "flight_record_ns": min(_flight_record_ns()
                                for _ in range(repeats)),
        "phases_us": phases_us,
    }


def _report(timing: dict) -> str:
    verdict = "PASS" if timing["disabled_overhead"] < BUDGET else "FAIL"
    return "\n".join([
        f"{N_STEPS}-step FDTD run on {SHAPE[0]} x {SHAPE[1]} cells "
        f"(best of 5, interleaved)",
        f"bare leapfrog loop      : {timing['baseline_s'] * 1e3:8.1f} ms",
        f"obs disabled            : {timing['disabled_s'] * 1e3:8.1f} ms "
        f"({timing['disabled_overhead'] * 100:+.2f} %)",
        f"obs enabled (phases)    : {timing['enabled_s'] * 1e3:8.1f} ms "
        f"({timing['enabled_overhead'] * 100:+.2f} %)",
        f"flight recorder append  : {timing['flight_record_ns']:8.0f} ns "
        f"per event (always on)",
        "phases per step (enabled): " + ", ".join(
            f"{phase} {us:.1f} us"
            for phase, us in timing["phases_us"].items()),
        f"budget: disabled overhead < {BUDGET * 100:.0f} % -> {verdict}",
    ])


def _write_snapshot(timing: dict) -> None:
    write_bench_json("obs_overhead", {
        "baseline": (timing["baseline_s"], "s"),
        "disabled": (timing["disabled_s"], "s"),
        "enabled": (timing["enabled_s"], "s"),
        "disabled_overhead": (timing["disabled_overhead"], "ratio"),
        "enabled_overhead": (timing["enabled_overhead"], "ratio"),
        "flight_record_ns": (timing["flight_record_ns"], "ns"),
        **{f"phase_{phase}_us": (us, "us")
           for phase, us in timing["phases_us"].items()},
    })


def bench_obs_overhead(benchmark):
    timing = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("OBS OVERHEAD (tracing disabled must stay under 5 %)",
         _report(timing))
    _write_snapshot(timing)
    assert timing["disabled_overhead"] < BUDGET


def main() -> int:
    timing = measure()
    print(_report(timing))
    _write_snapshot(timing)
    return 0 if timing["disabled_overhead"] < BUDGET else 1


if __name__ == "__main__":
    sys.exit(main())
