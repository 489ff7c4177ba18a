"""Benchmark: the spin-wave circuit compiler end to end.

Compiles every builtin spec plus a synthesized-from-truth-table
4-input circuit through the full pipeline (synthesize -> place -> DRC)
and characterizes the full adder at the network tier, reporting
per-circuit wall time and fabric figures.  Every compile must come out
DRC-clean and functionally equivalent -- this bench is the compiler's
own smoke barrier.

Writes the ``benchmarks/output/BENCH_compile.json`` snapshot (see
``bench_common.write_bench_json``), which CI uploads.  Runnable
standalone for CI (``python benchmarks/bench_compile.py`` exits
non-zero on a dirty or slow compile) or through pytest-benchmark.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import emit, write_bench_json  # noqa: E402

try:
    from repro.compiler import BUILTIN_SPECS, compile_spec
except ImportError:  # source checkout without an installed package
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from repro.compiler import BUILTIN_SPECS, compile_spec

#: Worst-case budget per compile [s]; generous for throttled CI boxes.
BUDGET_S = 10.0

#: A 4-input function with no special structure: forces the
#: Quine-McCluskey path and a multi-level AND/OR fabric.
RANDOM_TT4 = {
    "name": "random_tt4",
    "inputs": ["a", "b", "c", "d"],
    "outputs": {"y": "0110100110010110"},
}

WORKLOAD = list(BUILTIN_SPECS) + ["random_tt4"]


def _spec_source(name: str):
    if name == "random_tt4":
        return dict(RANDOM_TT4)
    return name


def measure() -> dict:
    results = {}
    for name in WORKLOAD:
        t0 = time.perf_counter()
        compiled = compile_spec(_spec_source(name),
                                characterize_circuit=(name == "full_adder"),
                                tier="network")
        elapsed = time.perf_counter() - t0
        stats = compiled.placement.stats()
        results[name] = {
            "seconds": elapsed,
            "clean": compiled.clean,
            "gates": stats["gates"],
            "area_lambda2": stats["area_lambda2"],
            "verified": (compiled.characterization.verified
                         if compiled.characterization is not None
                         else None),
        }
    return results


def _report(results: dict) -> str:
    lines = ["circuit        gates   area [lambda^2]   compile [ms]  DRC"]
    for name, row in results.items():
        lines.append(
            f"{name:<14s} {row['gates']:5d} {row['area_lambda2']:17.0f} "
            f"{row['seconds'] * 1e3:14.1f}  "
            f"{'clean' if row['clean'] else 'DIRTY'}")
    worst = max(row["seconds"] for row in results.values())
    verdict = ("PASS" if worst < BUDGET_S
               and all(row["clean"] for row in results.values())
               else "FAIL")
    lines.append(f"budget: every compile clean and < {BUDGET_S:.0f} s "
                 f"-> {verdict}")
    return "\n".join(lines)


def _write_snapshot(results: dict) -> None:
    metrics = {}
    for name, row in results.items():
        metrics[f"{name}_compile_ms"] = (row["seconds"] * 1e3, "ms")
        metrics[f"{name}_gates"] = (float(row["gates"]), "gates")
        metrics[f"{name}_area"] = (row["area_lambda2"], "lambda^2")
    write_bench_json("compile", metrics)


def _ok(results: dict) -> bool:
    return (all(row["clean"] for row in results.values())
            and all(row["verified"] in (None, True)
                    for row in results.values())
            and max(row["seconds"] for row in results.values()) < BUDGET_S)


def bench_compile(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("COMPILE (spec -> placed DRC-clean fabric)", _report(results))
    _write_snapshot(results)
    assert _ok(results), results


def main() -> int:
    results = measure()
    emit("COMPILE (spec -> placed DRC-clean fabric)", _report(results))
    _write_snapshot(results)
    return 0 if _ok(results) else 1


if __name__ == "__main__":
    sys.exit(main())
