"""Micro-benchmark: cost of the repro.resilience hooks on the FDTD
hot loop.

The resilience contract (repro.resilience) mirrors repro.obs: with no
watchdog attached, no checkpoint manager configured and no fault plan
armed, ``ScalarWaveSimulator.step`` must skip the per-step resilience
hooks and pay only the per-call dispatch checks -- the budget is < 5 %
wall-time overhead on a 2k-step FDTD run versus the bare leapfrog
loop.  This bench times four variants on an identical 96 x 96 canvas:

* ``baseline``  -- ``ScalarWaveSimulator._advance`` called directly, the
  one leapfrog loop every variant runs (as in bench_obs_overhead);
* ``disabled``  -- ``ScalarWaveSimulator.step`` with no watchdog, no
  checkpointing and no fault plan (the production default), the
  variant under budget;
* ``watchdog``  -- the same with a ``FieldWatchdog(every=500)``
  attached (finiteness + runaway checks every 500 steps), for scale;
* ``armed``     -- a fault plan installed whose site never fires on
  this loop, showing the cost of chaos-armed processes.

Runnable standalone for CI
(``python benchmarks/bench_resilience_overhead.py`` exits non-zero
above budget) or through pytest-benchmark.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import emit, write_bench_json  # noqa: E402

try:
    from repro.fdtd import ScalarWaveSimulator
    from repro.resilience import FaultPlan, FaultSpec, faults
    from repro.resilience.guardrails import FieldWatchdog
except ImportError:  # source checkout without an installed package
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from repro.fdtd import ScalarWaveSimulator
    from repro.resilience import FaultPlan, FaultSpec, faults
    from repro.resilience.guardrails import FieldWatchdog

N_STEPS = 2000
SHAPE = (96, 96)
BUDGET = 0.05


def _make_sim(watchdog=None) -> ScalarWaveSimulator:
    mask = np.ones(SHAPE, dtype=bool)
    return ScalarWaveSimulator(mask=mask, dx=10e-9, wavelength=110e-9,
                               frequency=2.282e9, watchdog=watchdog)


def _baseline_seconds() -> float:
    """Time the leapfrog loop itself, bypassing ``step()``."""
    sim = _make_sim()
    t0 = time.perf_counter()
    sim._advance(N_STEPS)
    return time.perf_counter() - t0


def _variant_seconds(watchdog=None, plan=None) -> float:
    sim = _make_sim(watchdog=watchdog)
    if plan is not None:
        faults.install(plan)
    try:
        t0 = time.perf_counter()
        sim.step(N_STEPS)
        return time.perf_counter() - t0
    finally:
        if plan is not None:
            faults.uninstall()


def measure(repeats: int = 3) -> dict:
    """Best-of-``repeats`` timings for all four variants."""
    faults.uninstall()
    # A plan for a site this loop never reaches: the armed variant pays
    # faults.active() + the trip() lookup on "fdtd.step" every step.
    idle_plan = FaultPlan(specs=(
        FaultSpec(site="executor.invoke", kind="error", at=10 ** 9),))
    base = min(_baseline_seconds() for _ in range(repeats))
    disabled = min(_variant_seconds() for _ in range(repeats))
    watchdog = min(_variant_seconds(watchdog=FieldWatchdog(every=500))
                   for _ in range(repeats))
    armed = min(_variant_seconds(plan=idle_plan) for _ in range(repeats))
    return {
        "baseline_s": base,
        "disabled_s": disabled,
        "watchdog_s": watchdog,
        "armed_s": armed,
        "disabled_overhead": disabled / base - 1.0,
        "watchdog_overhead": watchdog / base - 1.0,
        "armed_overhead": armed / base - 1.0,
    }


def _report(timing: dict) -> str:
    verdict = "PASS" if timing["disabled_overhead"] < BUDGET else "FAIL"
    return "\n".join([
        f"{N_STEPS}-step FDTD run on {SHAPE[0]} x {SHAPE[1]} cells "
        f"(best of 3)",
        f"bare leapfrog loop      : {timing['baseline_s'] * 1e3:8.1f} ms",
        f"resilience disabled     : {timing['disabled_s'] * 1e3:8.1f} ms "
        f"({timing['disabled_overhead'] * 100:+.2f} %)",
        f"watchdog every 500 steps: {timing['watchdog_s'] * 1e3:8.1f} ms "
        f"({timing['watchdog_overhead'] * 100:+.2f} %)",
        f"fault plan armed (idle) : {timing['armed_s'] * 1e3:8.1f} ms "
        f"({timing['armed_overhead'] * 100:+.2f} %)",
        f"budget: disabled overhead < {BUDGET * 100:.0f} % -> {verdict}",
    ])


def _write_snapshot(timing: dict) -> None:
    write_bench_json("resilience_overhead", {
        "baseline": (timing["baseline_s"], "s"),
        "disabled": (timing["disabled_s"], "s"),
        "watchdog": (timing["watchdog_s"], "s"),
        "armed": (timing["armed_s"], "s"),
        "disabled_overhead": (timing["disabled_overhead"], "ratio"),
        "watchdog_overhead": (timing["watchdog_overhead"], "ratio"),
        "armed_overhead": (timing["armed_overhead"], "ratio"),
    })


def bench_resilience_overhead(benchmark):
    timing = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("RESILIENCE OVERHEAD (no watchdog/plan must stay under 5 %)",
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
