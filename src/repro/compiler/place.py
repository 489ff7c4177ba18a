"""Placer: netlist -> 2-D triangle-gate fabric with routed waveguides.

Maps a validated :class:`~repro.circuits.netlist.Netlist` onto a
column-per-stage fabric.  All placement coordinates are expressed in
**multiples of the design wavelength** (lambda = 55 nm in the paper) so
every figure in a placement report reads directly against the paper's
d1..d4 dimensioning, and gate origins snap to integer lambda -- a
translated gate keeps all its internal path lengths, so the phase
design (Section III-A) survives placement by construction.

Structure (standard-cell style):

* gates are levelised (stage = longest driver chain) and each level
  becomes a **column**; rows within a column are ordered by the
  barycenter of their fan-in rows to shorten wires;
* physical gates (MAJ3/XOR and their derived variants) take their
  footprint from the actual :mod:`repro.core.layout` geometry;
  repeaters and splitters use compact synthetic footprints;
* wires enter a cell from the **left edge** and leave from the
  **right edge** (the edge-to-transducer stub is the cell's internal
  detail); routing is Manhattan: a dedicated vertical track in the
  channel left of the sink column, plus an over-the-fabric corridor
  for wires spanning more than one channel.  Every wire owns its
  tracks, so wires never overlap -- they only *cross* (H against V),
  and crossings are what the design-rule checker polices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits.netlist import Netlist
from ..core.layout import (
    GateDimensions,
    GateLayout,
    maj3_layout,
    segment_length,
    xor_layout,
)
from ..core.logic import GATE_TYPES
from .drc import DesignRules

Point = Tuple[float, float]

#: Input-pin node names per layout kind, in netlist port order.
_INPUT_NODES = {"maj3": ("I1", "I2", "I3"), "xor": ("I1", "I2")}

#: Synthetic footprint of a cell without a primitive (a repeater is one
#: ME cell plus a stub, a splitter a passive Y-branch) [lambda]: a fixed
#: width, and one pitch of height per output plus one.
_SYNTHETIC_WIDTH = 4.0
_SYNTHETIC_PITCH = 2.0

#: Width of the virtual I/O pin columns [lambda].
_PIN_COLUMN_WIDTH = 1.0


def _even(v: float) -> float:
    """Nearest even integer at or near ``v`` (cell-edge access grid)."""
    return 2.0 * math.floor(v / 2.0 + 0.5)


def _odd(v: float) -> float:
    """Odd integer nearest below ``v + 1`` (output access grid)."""
    return 2.0 * math.floor(v / 2.0) + 1.0


@dataclass(frozen=True)
class PlacedGate:
    """One gate instance fixed on the fabric.

    Coordinates are in lambda multiples; ``origin`` is the lower-left
    corner of the bounding box.  ``layout`` (physical gates only) is
    the metre-space :class:`~repro.core.layout.GateLayout` translated
    to the placed position, ready for phase-rule checking.
    """

    name: str
    gate_type: str
    column: int
    row: int
    origin: Point
    width: float
    height: float
    in_pins: Tuple[Point, ...]
    out_pins: Tuple[Point, ...]
    layout: Optional[GateLayout] = None

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        """``(x_min, y_min, x_max, y_max)`` in lambda."""
        x, y = self.origin
        return (x, y, x + self.width, y + self.height)


@dataclass(frozen=True)
class Wire:
    """One routed net connection as a Manhattan polyline [lambda]."""

    net: str
    source: str          # driving gate name, or "<input>" for a PI
    sink: str            # consuming gate name, or "<output>" for a PO
    points: Tuple[Point, ...]

    @property
    def segments(self) -> List[Tuple[Point, Point]]:
        return list(zip(self.points, self.points[1:]))

    @property
    def length(self) -> float:
        return sum(abs(b[0] - a[0]) + abs(b[1] - a[1])
                   for a, b in self.segments)


@dataclass
class Placement:
    """A fully placed and routed fabric (lambda coordinates)."""

    netlist: Netlist
    rules: DesignRules
    gates: Dict[str, PlacedGate]
    wires: List[Wire]
    input_pins: Dict[str, Point]
    output_pins: Dict[str, Point]
    width: float
    height: float

    @property
    def area_lambda2(self) -> float:
        return self.width * self.height

    @property
    def area_um2(self) -> float:
        lam_um = self.rules.wavelength * 1e6
        return self.area_lambda2 * lam_um * lam_um

    def total_wire_length(self) -> float:
        return sum(w.length for w in self.wires)

    def stats(self) -> Dict[str, object]:
        """Placement summary for reports and the CLI."""
        kinds: Dict[str, int] = {}
        for gate in self.gates.values():
            kinds[gate.gate_type] = kinds.get(gate.gate_type, 0) + 1
        columns = max((g.column for g in self.gates.values()), default=-1) + 1
        return {
            "gates": len(self.gates),
            "gate_kinds": dict(sorted(kinds.items())),
            "columns": columns,
            "wires": len(self.wires),
            "wire_length_lambda": round(self.total_wire_length(), 3),
            "width_lambda": self.width,
            "height_lambda": self.height,
            "area_lambda2": round(self.area_lambda2, 3),
            "area_um2": round(self.area_um2, 6),
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (for reports and the service)."""
        return {
            "name": self.netlist.name,
            "rules": self.rules.to_params(),
            "stats": self.stats(),
            "gates": {
                name: {
                    "type": g.gate_type,
                    "column": g.column,
                    "row": g.row,
                    "origin": list(g.origin),
                    "size": [g.width, g.height],
                }
                for name, g in sorted(self.gates.items())
            },
            "wires": [
                {"net": w.net, "source": w.source, "sink": w.sink,
                 "points": [list(p) for p in w.points],
                 "length_lambda": round(w.length, 3)}
                for w in self.wires
            ],
            "input_pins": {k: list(v) for k, v in self.input_pins.items()},
            "output_pins": {k: list(v) for k, v in self.output_pins.items()},
        }


def _gate_dimensions(rules: DesignRules, kind: str,
                     inverted: bool) -> GateDimensions:
    """Instantiate the rule set's d-multiples as metre dimensions."""
    lam = rules.wavelength
    if kind == "maj3":
        return GateDimensions(
            wavelength=lam, width=rules.width,
            d1=segment_length(rules.d1_multiple, lam),
            d2=segment_length(rules.d2_multiple, lam),
            d3=segment_length(rules.d3_multiple, lam),
            d4=segment_length(rules.d4_multiple, lam, inverted=inverted),
            stem=segment_length(rules.stem_multiple, lam),
        )
    return GateDimensions(
        wavelength=lam, width=rules.width,
        d1=segment_length(rules.d1_multiple, lam),
        d2_xor=rules.xor_output_distance,
        stem=segment_length(rules.stem_multiple, lam),
    )


def _build_cell(name: str, gate_type: str, rules: DesignRules
                ) -> Tuple[float, float, List[float], List[float],
                           Optional[GateLayout]]:
    """Footprint + pin offsets for one gate type.

    Returns ``(width, height, in_pin_ys, out_pin_ys, layout)`` with the
    layout still at its native origin (metre space).  Pin ys are offsets
    from the cell's lower edge; inputs sit on the left edge, outputs on
    the right edge.
    """
    lam = rules.wavelength
    gate = GATE_TYPES[gate_type]
    kind = gate.primitive
    if kind is not None:
        # XNOR inverts in its readout, on the plain XOR layout.
        dims = _gate_dimensions(rules, kind, gate.invert and kind == "maj3")
        layout = maj3_layout(dims) if kind == "maj3" else xor_layout(dims)
        x0, y0, x1, y1 = layout.bounding_box()
        width = math.ceil((x1 - x0) / lam)
        height = math.ceil((y1 - y0) / lam)
        in_ys = [(layout.nodes[node][1] - y0) / lam
                 for node in _INPUT_NODES[kind]]
        out_ys = [(layout.nodes[node][1] - y0) / lam
                  for node in ("O1", "O2")]
        return float(width), float(height), in_ys, out_ys, layout
    n_out = gate.outputs
    width, height = _SYNTHETIC_WIDTH, _SYNTHETIC_PITCH * (n_out + 1)
    in_ys = [height / 2.0]
    out_ys = [height * (k + 1) / (n_out + 1) for k in range(n_out)]
    return width, height, in_ys, out_ys, None


def _levelize(netlist: Netlist) -> Dict[str, int]:
    """Gate -> pipeline stage (longest driver chain, stages from 0)."""
    driver_of: Dict[str, str] = {}
    for name, inst in netlist.gates.items():
        for net in inst.outputs:
            if net is not None:
                driver_of[net] = name
    levels: Dict[str, int] = {}
    for name in netlist.topological_order():
        inst = netlist.gates[name]
        level = 0
        for net in inst.inputs:
            drv = driver_of.get(net)
            if drv is not None:
                level = max(level, levels[drv] + 1)
        levels[name] = level
    return levels


def place(netlist: Netlist,
          rules: Optional[DesignRules] = None) -> Placement:
    """Place and route a netlist onto the triangle-gate fabric.

    The netlist is validated first (typed
    :class:`repro.errors.NetlistError` on structural problems).  The
    returned :class:`Placement` is geometrically self-consistent but
    **not** yet design-rule checked -- run
    :func:`repro.compiler.drc.check` (the compiler driver does).
    """
    rules = rules if rules is not None else DesignRules()
    netlist.validate()

    levels = _levelize(netlist)
    n_cols = max(levels.values(), default=-1) + 1
    columns: List[List[str]] = [[] for _ in range(n_cols)]
    for name, level in levels.items():
        columns[level].append(name)
    for col in columns:
        col.sort()

    # Cells: footprint + pin offsets per gate.
    cells = {name: _build_cell(name, inst.gate_type, rules)
             for name, inst in netlist.gates.items()}

    driver_of: Dict[str, Tuple[str, int]] = {}   # net -> (gate, out index)
    for name, inst in netlist.gates.items():
        for idx, net in enumerate(inst.outputs):
            if net is not None:
                driver_of[net] = (name, idx)

    # Barycenter row ordering, one left-to-right pass: order a column by
    # the mean row of its drivers in earlier columns.
    row_of: Dict[str, int] = {}
    pi_row = {net: i for i, net in enumerate(netlist.primary_inputs)}
    for ci, col in enumerate(columns):
        def _barycenter(name: str) -> float:
            refs: List[float] = []
            for net in netlist.gates[name].inputs:
                if net in pi_row:
                    refs.append(float(pi_row[net]))
                elif net in driver_of:
                    refs.append(float(row_of.get(driver_of[net][0], 0)))
            return sum(refs) / len(refs) if refs else 0.0

        col.sort(key=lambda name: (_barycenter(name), name))
        for ri, name in enumerate(col):
            row_of[name] = ri

    # Channel demand: every wire claims one vertical track in the
    # channel left of its sink column; long wires additionally claim a
    # track in the channel right of their source column and a corridor
    # lane above the fabric.  Channel c sits between columns c and c+1;
    # c = -1 is the input-pin channel, c = n_cols - 1 feeds the output
    # pins.
    def _source_col(net: str) -> int:
        if net in driver_of:
            return levels[driver_of[net][0]]
        return -1   # primary input pin column

    connections: List[Tuple[str, int, str, int]] = []  # net, scol, sink, tcol
    for name, inst in netlist.gates.items():
        for net in inst.inputs:
            connections.append((net, _source_col(net), name, levels[name]))
    for net in netlist.primary_outputs:
        connections.append((net, _source_col(net), "<output>", n_cols))

    channel_tracks: Dict[int, int] = {c: 0 for c in range(-1, n_cols)}
    corridor_lanes = 0
    for net, scol, _sink, tcol in connections:
        channel_tracks[tcol - 1] += 1
        if tcol - scol > 1:
            channel_tracks[scol] += 1
            corridor_lanes += 1

    channel_width = {
        c: max(rules.col_clearance,
               channel_tracks[c] * rules.track_pitch + 2.0)
        for c in channel_tracks
    }

    # Column x extents.
    col_width = [max((cells[name][0] for name in col), default=0.0)
                 for col in columns]
    col_x: List[float] = []
    x = _PIN_COLUMN_WIDTH + channel_width[-1]
    for ci in range(n_cols):
        col_x.append(x)
        x += col_width[ci] + channel_width[ci]
    fabric_width = x + _PIN_COLUMN_WIDTH

    # Row y positions (columns bottom-aligned at y = 0), snapped to
    # integer lambda so translations keep phase lengths exact.
    gates: Dict[str, PlacedGate] = {}
    fabric_top = 0.0
    lam = rules.wavelength
    for ci, col in enumerate(columns):
        y = 0.0
        for name in col:
            width, height, in_ys, out_ys, layout = cells[name]
            inst = netlist.gates[name]
            # Exact stacking: the placer applies the rule deck's
            # clearances verbatim, so an over-tight deck produces a
            # genuine spacing violation instead of being silently
            # rounded up to a legal gap.
            origin = (float(math.ceil(col_x[ci])), y)
            placed_layout = None
            if layout is not None:
                x0, y0, _, _ = layout.bounding_box()
                placed_layout = layout.translated(
                    origin[0] * lam - x0, origin[1] * lam - y0)
            # Access points snap to the absolute parity grid: inputs on
            # even lambda rows, outputs on odd ones, so horizontal runs
            # of the two families are never collinear and crossings
            # stay >= 1 lambda apart.
            in_pins = tuple((origin[0], _even(origin[1] + dy))
                            for dy in in_ys[: len(inst.inputs)])
            out_pins = tuple((origin[0] + width, _odd(origin[1] + dy))
                             for dy in out_ys[: len(inst.outputs)])
            gates[name] = PlacedGate(
                name=name, gate_type=inst.gate_type, column=ci,
                row=row_of[name], origin=origin, width=width,
                height=height, in_pins=in_pins, out_pins=out_pins,
                layout=placed_layout)
            y = origin[1] + height + rules.row_clearance
            fabric_top = max(fabric_top, origin[1] + height)

    pad_top = 2.0 * max(len(netlist.primary_inputs),
                        len(netlist.primary_outputs)) + 1.0
    corridor_base = max(fabric_top, pad_top) + rules.row_clearance

    # I/O pads on odd rows: shares the "output" parity class, which
    # never collides because pad horizontals stay in the outermost
    # channels where no gate output exits.
    input_pins = {
        net: (0.0, 2.0 * i + 1.0)
        for i, net in enumerate(netlist.primary_inputs)
    }
    output_pins = {
        net: (fabric_width, 2.0 * i + 1.0)
        for i, net in enumerate(netlist.primary_outputs)
    }

    # Routing: every wire owns one vertical track in the channel left
    # of its sink; wires spanning multiple channels additionally own a
    # track in the channel right of their source and a horizontal
    # corridor lane above the fabric.  Exclusive tracks mean wires can
    # cross (H against V) but never overlap.
    next_track: Dict[int, int] = {c: 0 for c in channel_tracks}
    corridor_state = {"next": 0}

    def _track_x(channel: int) -> float:
        base = (col_x[channel] + col_width[channel]) if channel >= 0 \
            else _PIN_COLUMN_WIDTH
        xpos = base + 1.0 + next_track[channel] * rules.track_pitch
        next_track[channel] += 1
        return xpos

    def _corridor_y() -> float:
        ypos = corridor_base + 1.0 \
            + corridor_state["next"] * rules.track_pitch
        corridor_state["next"] += 1
        return ypos

    def _pin_point(net: str) -> Tuple[str, Point]:
        if net in driver_of:
            gate, idx = driver_of[net]
            return gate, gates[gate].out_pins[idx]
        return "<input>", input_pins[net]

    def _route(net: str, source: str, sink: str, s: Point, t: Point,
               scol: int, tcol: int) -> Wire:
        track = _track_x(tcol - 1)
        if tcol - scol > 1:
            exit_track = _track_x(scol)
            lane = _corridor_y()
            raw = [s, (exit_track, s[1]), (exit_track, lane),
                   (track, lane), (track, t[1]), t]
        else:
            raw = [s, (track, s[1]), (track, t[1]), t]
        points = [raw[0]]
        for p in raw[1:]:
            if p != points[-1]:
                points.append(p)
        return Wire(net=net, source=source, sink=sink,
                    points=tuple(points))

    wires: List[Wire] = []
    for name, inst in netlist.gates.items():
        placed = gates[name]
        for pin_idx, net in enumerate(inst.inputs):
            source, s = _pin_point(net)
            wires.append(_route(net, source, name, s,
                                placed.in_pins[pin_idx],
                                _source_col(net), levels[name]))
    for net in netlist.primary_outputs:
        source, s = _pin_point(net)
        wires.append(_route(net, source, "<output>", s,
                            output_pins[net], _source_col(net), n_cols))

    corridor_used = max((p[1] for w in wires for p in w.points),
                        default=fabric_top)
    fabric_height = max(fabric_top, corridor_used) + 2.0

    return Placement(netlist=netlist, rules=rules, gates=gates,
                     wires=wires, input_pins=input_pins,
                     output_pins=output_pins,
                     width=float(math.ceil(fabric_width)),
                     height=float(math.ceil(fabric_height)))
