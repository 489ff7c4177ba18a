"""Scaling extensions: n-bit parallel operation and deep gate cascades.

Demonstrates the two growth directions of Section III-A on top of the
core library:

* a frequency-multiplexed triangle gate computing bitwise majority of
  three 8-bit words in a single pass (the ref [9] direction);
* cascade-depth analysis with automatic repeater planning -- how deep
  an all-magnonic pipeline can run before regeneration.

Run with ``python examples/parallel_and_cascade.py``.
"""

from repro.circuits.cascade import CascadeAnalyzer, triangle_stage_model
from repro.core.extended import FanoutTree, TriangleMajority5Gate
from repro.core.parallel import ParallelMajorityGate
from repro.physics import FECOB, AttenuationModel, DispersionRelation, FilmStack


def demo_parallel() -> None:
    dispersion = DispersionRelation(FilmStack(material=FECOB,
                                              thickness=1e-9))
    gate = ParallelMajorityGate(dispersion, n_channels=8,
                                centre_frequency=17e9,
                                channel_spacing=0.05e9)
    print("Frequency-multiplexed MAJ3 (8 channels):")
    for row in gate.channel_summary():
        print(f"  {row}")
    a, b, c = 0b10110100, 0b11010110, 0b01110010
    result, o1, o2 = gate.evaluate_word(a, b, c)
    expected = (a & b) | (a & c) | (b & c)
    print(f"  MAJ({a:#010b}, {b:#010b}, {c:#010b}) = {result:#010b} "
          f"(expected {expected:#010b}) "
          f"{'OK' if result == expected else 'MISMATCH'}")
    print(f"  both outputs identical (FO2): {o1 == o2}")
    print(f"  throughput gain: x{gate.throughput_gain():.0f}\n")


def demo_maj5() -> None:
    gate = TriangleMajority5Gate()
    print(f"Fan-in-5 majority (stacked inputs, {gate.n_cells} cells): "
          f"all 32 patterns correct = {gate.is_functionally_correct()}")
    outputs = gate.evaluate((1, 0, 1, 1, 0)).outputs
    print(f"  MAJ5(1,0,1,1,0) -> O1 = {outputs['O1'].logic_value}, "
          f"O2 = {outputs['O2'].logic_value}\n")


def demo_cascade() -> None:
    attenuation = AttenuationModel(decay_length=3.3e-6)
    analyzer = CascadeAnalyzer(attenuation, min_detectable=0.05)
    best = triangle_stage_model(worst_case=False)
    worst = triangle_stage_model(worst_case=True)
    print("Cascade-depth budget (detect threshold 5 % of nominal):")
    print(f"  best case (unanimous inputs)   : "
          f"{analyzer.max_depth(best)} stages without repeater")
    print(f"  worst case (Table I minorities): "
          f"{analyzer.max_depth(worst)} stages without repeater")
    report = analyzer.plan([best] * 25)
    print(f"  25-stage pipeline plan: repeaters before stages "
          f"{list(report.repeater_positions)}, "
          f"+{report.total_repeater_energy * 1e18:.1f} aJ, "
          f"+{report.added_delay * 1e9:.2f} ns")

    tree = FanoutTree()
    print(f"\nFan-out trees: max achievable fan-out = {tree.max_fanout()}")
    for n in (4, 16):
        plan = tree.plan(n)
        print(f"  FO{n}: {plan.n_couplers} couplers + {plan.n_repeaters} "
              f"repeaters, energy {plan.energy * 1e18:.1f} aJ")


def main() -> None:
    demo_parallel()
    demo_maj5()
    demo_cascade()


if __name__ == "__main__":
    main()
