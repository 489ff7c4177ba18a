"""Workload subprocess of the benchmark; bench.py starts it.

Modes:

* ``fdtd`` / ``llg`` -- import the program, print ``ready``, then
  (``fdtd``: after one untimed FDTD job) run the workload's operation
  back to back for ``--seconds`` and print
  one JSON line: per-operation wall times, outputs and peak RSS.
  ``--setup-only`` exits right after ``ready`` (bench.py times set-up
  over several launches).
* ``fit`` -- characterize and fit the XOR surrogate into ``--dir``
  (the ``bench_surrogate.py`` grid), for the serve workloads.
* ``serve`` -- run ``repro.cli.main(["serve", ...])`` in this process
  with the arguments after ``--``.

With ``--trace-out PATH`` the ``fdtd``, ``llg`` and ``serve`` modes
install the layer tracer first and, when the work is done (for
``serve``: after the server drains), write the trace summary to PATH
and the spans to PATH.spans.jsonl.

The operations are module functions so golden.py regenerates the
golden outputs through exactly the code the benchmark times.
"""

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, SRC)

#: The LLG operation: the smallest scaled XOR gate whose full case
#: still decodes correctly (n_d1=1, 10 cells per wavelength: a 53x58
#: canvas with 683 magnetic cells), integrated from rest for the first
#: two drive periods (3571 RK4 steps) and lock-in demodulated.  A full
#: case is two solves of ~36.5k steps (minutes); the per-step work is
#: the same.
LLG_GEOMETRY = {"n_d1": 1, "cells_per_wavelength": 10}
LLG_PERIODS = 2

#: The surrogate grid of benchmarks/bench_surrogate.py.
SURROGATE_AXES = (("phase_noise", (0.0, 0.2)),
                  ("frequency_detune", (-0.02, 0.0, 0.02)),
                  ("geometry_jitter", (0.0,)),
                  ("temperature", (0.0, 300.0)))
SURROGATE_TRIALS = 16


def bits_key(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def fdtd_sweep(cache_dir: str) -> dict:
    """One cold XOR truth table on the FDTD tier through the engine."""
    from repro.micromag.experiments import sweep_gate_truth_table
    from repro.runtime import DiskCache

    sweep = sweep_gate_truth_table("xor", "fdtd", cache=DiskCache(cache_dir))
    return {"normalized": {bits_key(b): list(v)
                           for b, v in sweep.normalized_table.items()},
            "logic": {bits_key(b): list(v)
                      for b, v in sweep.logic_table.items()},
            "all_correct": sweep.all_correct}


def llg_solve(bits) -> dict:
    """One truncated LLG solve of the scaled XOR gate (see LLG_*)."""
    from repro.micromag.gate_experiment import scaled_xor_experiment
    from repro.resilience.guardrails import MagnetisationWatchdog

    experiment = scaled_xor_experiment(**LLG_GEOMETRY)
    experiment.settle_time = 0.0
    experiment.measure_periods = LLG_PERIODS
    case = experiment.run_case(bits, watchdog=MagnetisationWatchdog())
    return {"bits": bits_key(bits), "amplitudes": dict(case.amplitudes),
            "phases": dict(case.phases)}


def llg_patterns(seed: int) -> list:
    """The XOR patterns in a seed-shuffled order, cycled by the run."""
    patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
    random.Random(seed).shuffle(patterns)
    return patterns


def fit_surrogate(directory: str) -> None:
    from repro.surrogate import (
        AxisSpec,
        CharacterizationStore,
        characterize,
        fit_surrogate as fit,
    )

    store = CharacterizationStore(directory)
    dataset = store.dataset("xor", tier="network",
                            axes=[AxisSpec(n, v) for n, v in SURROGATE_AXES],
                            n_trials=SURROGATE_TRIALS)
    fit(characterize(dataset).values()).save(store.model_path("xor"))


def _run_solver(args) -> int:
    # Set-up is importing the solver stack both operations use.
    import repro.core.gates  # noqa: F401
    import repro.micromag.experiments  # noqa: F401
    import repro.micromag.gate_experiment  # noqa: F401
    import repro.runtime  # noqa: F401

    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.mode == "fdtd":
        # The first FDTD sweep in a process pays first-touch memory and
        # lazy initialisation (up to 10 % more), and with three or four
        # sweeps in a run that swings the median.  One untimed, untraced
        # job pays it.  The first LLG solve costs no more than the rest.
        from repro.micromag.experiments import run_gate_case

        run_gate_case("xor", [0, 1], tier="fdtd")
    tracer = _start_tracer(args.trace_out)
    patterns = llg_patterns(args.seed)
    walls, outputs = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        index = len(walls)
        t0 = time.perf_counter()
        if args.mode == "fdtd":
            out = fdtd_sweep(os.path.join(args.run_dir, f"cache-{index}"))
        else:
            out = llg_solve(patterns[index % len(patterns)])
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
    result = {"walls_s": walls, "outputs": outputs,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    _finish_tracer(tracer, args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


def _start_tracer(trace_out):
    if not trace_out:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _finish_tracer(tracer, trace_out) -> None:
    if tracer is None:
        return
    tracer.unpatch()
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    tracer.write_spans(trace_out + ".spans.jsonl")


def _run_server(args, serve_args) -> int:
    from repro import cli

    tracer = _start_tracer(args.trace_out)
    try:
        return cli.main(["serve"] + serve_args)
    finally:
        _finish_tracer(tracer, args.trace_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("fdtd", "llg", "fit", "serve"))
    parser.add_argument("--seconds", type=float,
                        help="fdtd/llg: run length (required)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-dir", default=".")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dir", help="fit: surrogate store directory")
    parser.add_argument("--trace-out", help="trace summary path")
    argv = sys.argv[1:] if argv is None else list(argv)
    # serve: everything after "--" goes to `repro serve` untouched.
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    if args.mode == "fit":
        fit_surrogate(args.dir)
        return 0
    if args.mode == "serve":
        return _run_server(args, argv[split + 1:])
    if args.seconds is None:
        parser.error(f"{args.mode} needs --seconds")
    return _run_solver(args)


if __name__ == "__main__":
    sys.exit(main())
