"""Quickstart: evaluate the paper's triangle FO2 gates.

Run with ``python examples/quickstart.py``.  Demonstrates:

* the MAJ3 gate with phase detection (Table I configuration),
* the XOR gate with threshold detection (Table II configuration),
* the derived AND/OR/NAND/NOR gates (control input on I3),
* the energy/delay numbers of Table III.
"""

from repro import (
    DerivedTriangleGate,
    TriangleMajorityGate,
    TriangleXorGate,
    paper_table_i_gate,
)
from repro.core.logic import input_patterns
from repro.evaluation import format_table_iii, headline_ratios
from repro.io import format_truth_table


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The FO2 Majority gate: phase in, phase out.
    # ------------------------------------------------------------------
    maj = TriangleMajorityGate()
    print("Triangle FO2 MAJ3 gate "
          f"({maj.n_excitation_cells} excitation + "
          f"{maj.n_detection_cells} detection cells)")
    rows = []
    for bits in input_patterns(3):
        result = maj.evaluate(bits)
        rows.append([result.outputs["O1"].logic_value,
                     result.outputs["O2"].logic_value,
                     result.expected,
                     "ok" if result.correct else "FAIL"])
    print(format_truth_table(input_patterns(3),
                             ["O1", "O2", "expected", "status"],
                             rows, ["I1", "I2", "I3"]))

    # ------------------------------------------------------------------
    # 2. Table I amplitudes from the calibrated model.
    # ------------------------------------------------------------------
    print("\nNormalised output magnetisation (calibrated to Table I):")
    for bits, (o1, o2) in paper_table_i_gate() \
            .normalized_output_table().items():
        print(f"  {bits} -> O1 = {o1:.3f}, O2 = {o2:.3f}")

    # ------------------------------------------------------------------
    # 3. The FO2 XOR gate: threshold detection.
    # ------------------------------------------------------------------
    xor_gate = TriangleXorGate()
    print("\nTriangle FO2 XOR gate (threshold 0.5):")
    for bits in input_patterns(2):
        result = xor_gate.evaluate(bits)
        print(f"  {bits} -> O1 = {result.outputs['O1'].logic_value}, "
              f"O2 = {result.outputs['O2'].logic_value} "
              f"(amplitude {result.outputs['O1'].amplitude:.2f})")

    # ------------------------------------------------------------------
    # 4. Derived gates: I3 as a control input.
    # ------------------------------------------------------------------
    print("\nDerived 2-input gates (I3 = control):")
    for name in ("AND", "OR", "NAND", "NOR"):
        gate = DerivedTriangleGate(name)
        values = [gate.evaluate(bits).outputs["O1"].logic_value
                  for bits in input_patterns(2)]
        print(f"  {name:<4} (I3 = {gate.control_value}): "
              f"{dict(zip(input_patterns(2), values))}")

    # ------------------------------------------------------------------
    # 5. Performance summary (Table III).
    # ------------------------------------------------------------------
    print()
    print(format_table_iii())
    ratios = headline_ratios()
    print(f"\nEnergy saving vs ladder SW gates: "
          f"{ratios.energy_saving_vs_sw_maj * 100:.0f} % (MAJ), "
          f"{ratios.energy_saving_vs_sw_xor * 100:.0f} % (XOR)")


if __name__ == "__main__":
    main()
