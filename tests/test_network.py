"""Wave-network tier tests."""

import cmath
import math

import pytest

from repro.core import WaveNetwork, maj3_layout, network_from_layout, xor_layout
from repro.physics import AttenuationModel, Wave

F = 10e9
LAM = 55e-9


class TestGraphMechanics:
    def test_single_edge_propagation_phase(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "B", 6 * LAM)
        out = net.output_wave({"A": 1.0 + 0j}, "B")
        assert out.amplitude == pytest.approx(1.0)
        assert out.phase == pytest.approx(0.0, abs=1e-9)

    def test_half_wavelength_inverts(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "B", 6.5 * LAM)
        out = net.output_wave({"A": 1.0 + 0j}, "B")
        assert abs(out.phase) == pytest.approx(math.pi, abs=1e-9)

    def test_junction_superposes(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "J", LAM)
        net.add_edge("B", "J", LAM)
        net.add_edge("J", "O", LAM)
        env = net.propagate({"A": 1.0, "B": 1.0})
        assert abs(env["O"]) == pytest.approx(2.0)
        env = net.propagate({"A": 1.0, "B": -1.0})
        assert abs(env["O"]) == pytest.approx(0.0, abs=1e-12)

    def test_split_duplicates(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "C", LAM)
        net.add_edge("C", "O1", LAM)
        net.add_edge("C", "O2", 2 * LAM)
        env = net.propagate({"A": 1.0})
        assert abs(env["O1"]) == pytest.approx(1.0)
        assert abs(env["O2"]) == pytest.approx(1.0)

    def test_transmission_factor(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "B", LAM, transmission=0.5)
        env = net.propagate({"A": 1.0})
        assert abs(env["B"]) == pytest.approx(0.5)

    def test_attenuation_applied(self):
        net = WaveNetwork(F, LAM,
                          attenuation=AttenuationModel(decay_length=LAM))
        net.add_edge("A", "B", LAM)
        env = net.propagate({"A": 1.0})
        assert abs(env["B"]) == pytest.approx(math.exp(-1.0))

    def test_cycle_detected(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "B", LAM)
        net.add_edge("B", "A", LAM)
        with pytest.raises(ValueError, match="cycle"):
            net.propagate({"A": 1.0})

    def test_mutated_graph_is_reordered(self):
        # The order is kept between propagations; each new node or edge
        # must drop it, or the new paths would never be walked.
        net = WaveNetwork(F, LAM)
        net.add_edge("B", "O", LAM)
        assert net.propagate({"B": 1.0})["O"] == pytest.approx(1.0)
        assert net._topological_order() is net._topological_order()
        net.add_edge("A", "B", LAM)
        assert abs(net.propagate({"A": 1.0})["O"]) == pytest.approx(1.0)
        net.add_node("Z")
        env = net.propagate({"Z": 0.5, "A": 1.0})
        assert env["Z"] == 0.5
        assert abs(env["O"]) == pytest.approx(1.0)

    def test_cycle_added_after_propagation_detected(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "B", LAM)
        net.propagate({"A": 1.0})
        net.add_edge("B", "A", LAM)
        for _ in range(2):  # a failed ordering is not kept either
            with pytest.raises(ValueError, match="cycle"):
                net.propagate({"A": 1.0})

    def test_unknown_injection_node(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "B", LAM)
        with pytest.raises(KeyError):
            net.propagate({"X": 1.0})

    def test_edge_validation(self):
        net = WaveNetwork(F, LAM)
        with pytest.raises(ValueError):
            net.add_edge("A", "B", -1.0)
        with pytest.raises(ValueError):
            net.add_edge("A", "B", 1.0, transmission=1.5)

    def test_linearity(self):
        net = WaveNetwork(F, LAM)
        net.add_edge("A", "J", 3 * LAM)
        net.add_edge("B", "J", 5 * LAM)
        net.add_edge("J", "O", 2 * LAM)
        a_only = net.propagate({"A": 0.7})["O"]
        b_only = net.propagate({"B": 0.4j})["O"]
        both = net.propagate({"A": 0.7, "B": 0.4j})["O"]
        assert both == pytest.approx(a_only + b_only)


class TestLayoutNetworks:
    def test_maj3_network_structure(self):
        net = network_from_layout(maj3_layout(), F)
        assert set(net.nodes) >= {"I1", "I2", "I3", "M", "C",
                                  "K1", "K2", "O1", "O2"}
        assert len(net.edges) == 11

    def test_maj3_fanout_symmetry(self):
        net = network_from_layout(maj3_layout(), F)
        for bits in ((0, 0, 0), (0, 1, 1), (1, 0, 1)):
            inj = {f"I{i+1}": Wave.logic(b, F).envelope
                   for i, b in enumerate(bits)}
            env = net.propagate(inj)
            assert abs(env["O1"]) == pytest.approx(abs(env["O2"]))
            # phases equal too: identical outputs, the FO2 claim.
            assert cmath.phase(env["O1"]) == pytest.approx(
                cmath.phase(env["O2"]), abs=1e-9)

    def test_maj3_unanimous_amplitude_three(self):
        net = network_from_layout(maj3_layout(), F)
        inj = {n: Wave.logic(0, F).envelope for n in ("I1", "I2", "I3")}
        env = net.propagate(inj)
        assert abs(env["O1"]) == pytest.approx(3.0)

    def test_maj3_minority_amplitude_one(self):
        net = network_from_layout(maj3_layout(), F)
        inj = {"I1": Wave.logic(1, F).envelope,
               "I2": Wave.logic(0, F).envelope,
               "I3": Wave.logic(0, F).envelope}
        env = net.propagate(inj)
        assert abs(env["O1"]) == pytest.approx(1.0)

    def test_junction_transmission_reduces_output(self):
        ideal = network_from_layout(maj3_layout(), F)
        lossy = network_from_layout(maj3_layout(), F,
                                    junction_transmission=0.8)
        inj = {n: Wave.logic(0, F).envelope for n in ("I1", "I2", "I3")}
        assert abs(lossy.propagate(inj)["O1"]) \
            < abs(ideal.propagate(inj)["O1"])

    def test_xor_network(self):
        net = network_from_layout(xor_layout(), F)
        same = net.propagate({"I1": Wave.logic(0, F).envelope,
                              "I2": Wave.logic(0, F).envelope})
        diff = net.propagate({"I1": Wave.logic(0, F).envelope,
                              "I2": Wave.logic(1, F).envelope})
        assert abs(same["O1"]) == pytest.approx(2.0)
        assert abs(diff["O1"]) == pytest.approx(0.0, abs=1e-12)
