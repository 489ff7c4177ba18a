"""Regenerate golden.json: the outputs bench.py checks every run against.

    python benchmarks/perf/golden.py

Run it only when a change is meant to alter these outputs, and say so
in the change.  It computes, through the same functions the benchmark
times (runner.py):

* ``fdtd_xor`` -- the cold FDTD XOR truth table (normalised outputs and
  logic), checked within ``FDTD_ABS_TOL``;
* ``llg_xor`` -- the truncated scaled-XOR LLG solve of every pattern
  (probe amplitudes and phases), checked within ``LLG_REL_TOL``;
* ``network`` -- the network-tier Table I (calibrated MAJ3) and Table II
  (XOR) normalised outputs, checked exactly.
"""

import json
import os
import sys
import tempfile

import runner

PATH = os.path.join(runner.HERE, "golden.json")
FDTD_ABS_TOL = 1e-6
LLG_REL_TOL = 1e-3


def compute() -> dict:
    from repro.core.logic import input_patterns
    from repro.micromag.experiments import run_gate_case

    with tempfile.TemporaryDirectory(dir=runner.HERE) as scratch:
        fdtd = runner.fdtd_sweep(os.path.join(scratch, "cache"))
    llg = {runner.bits_key(bits): runner.llg_solve(bits)
           for bits in input_patterns(2)}
    network = {gate: {runner.bits_key(bits): run_gate_case(
        gate, bits, tier="network", calibrated=True)["normalized"]
        for bits in input_patterns(arity)}
        for gate, arity in (("maj3", 3), ("xor", 2))}
    return {"fdtd_xor": {"normalized": fdtd["normalized"],
                         "logic": fdtd["logic"]},
            "llg_xor": {key: {"amplitudes": case["amplitudes"],
                              "phases": case["phases"]}
                        for key, case in llg.items()},
            "network": network,
            "tolerances": {"fdtd_abs": FDTD_ABS_TOL,
                           "llg_rel": LLG_REL_TOL}}


def main() -> int:
    golden = compute()
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
