"""Design-rule checker for placed triangle-gate fabrics.

Validates a :class:`~repro.compiler.place.Placement` against the
paper's Section III dimensioning rules plus the fabric-level spacing
rules a manufacturable layout needs:

* **phase** -- every placed MAJ3/XOR instance must satisfy the
  lambda-multiple conditions (d1/d2/d3/stem integer multiples, d4
  integer or half-integer, waveguide width <= lambda), checked on the
  gate's actual placed geometry via
  :func:`repro.core.layout.validate_phase_design`;
* **spacing** -- gate bounding boxes must be separated by at least
  ``gate_clearance`` lambda (dipolar stray fields couple neighbouring
  waveguides; the clearance keeps crosstalk below the detection
  margin);
* **wire-gate clearance** -- routed waveguides must not pass through
  or hug a foreign gate's box;
* **crossings** -- waveguide crossings are allowed (spin waves pass
  through an orthogonal crossing with little modal mixing, the same
  physics that forced the merge-stem-split gate topology) but must be
  at least ``crossing_spacing`` apart and ``crossing_gate_clearance``
  away from any gate;
* **fan-out** -- the netlist must respect the FO2 budget (delegated to
  :meth:`~repro.circuits.netlist.Netlist.validate`).

Every violation is a typed :class:`repro.errors.DRCViolation` carrying
the rule name, the offending object pair and the actual/required
values.  :func:`check` collects all of them into a :class:`DRCReport`;
``check(..., raise_on_violation=True)`` raises the first (most severe)
one instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..circuits.netlist import TRIANGLE_FAN_OUT
from ..core.layout import PAPER_WAVELENGTH, PAPER_WIDTH, validate_phase_design
from ..core.logic import GATE_TYPES
from ..errors import DRCViolation

if TYPE_CHECKING:   # pragma: no cover - typing only
    from .place import Placement, Wire

Point = Tuple[float, float]
BBox = Tuple[float, float, float, float]


@dataclass(frozen=True)
class DesignRules:
    """The technology rule deck, all clearances in lambda multiples.

    The ``*_multiple`` fields fix the gate-internal phase design
    (paper defaults 6/16/4/1 plus the reconstruction's 2-lambda stem).
    ``row_clearance``/``col_clearance`` are what the **placer targets**;
    ``gate_clearance`` is what the **checker requires** -- keeping them
    separate means an over-tight rule deck (placer told to pack closer
    than the required minimum) produces a real, checkable violation
    instead of being silently corrected.
    """

    wavelength: float = PAPER_WAVELENGTH
    width: float = PAPER_WIDTH
    d1_multiple: float = 6.0
    d2_multiple: float = 16.0
    d3_multiple: float = 4.0
    d4_multiple: float = 1.0
    stem_multiple: float = 2.0
    xor_output_distance: float = 40e-9
    gate_clearance: float = 2.0       # required minimum box-to-box gap
    row_clearance: float = 4.0        # placer target, vertical
    col_clearance: float = 6.0        # placer target, horizontal
    track_pitch: float = 1.0
    crossing_spacing: float = 0.5
    crossing_gate_clearance: float = 1.0
    max_fanout: int = 2

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.track_pitch <= 0:
            raise ValueError("track_pitch must be positive")
        if self.max_fanout < 1:
            raise ValueError("max_fanout must be at least 1")

    def to_params(self) -> Dict[str, Any]:
        """JSON-canonicalisable form (runtime job-spec friendly)."""
        return {
            "wavelength": self.wavelength,
            "width": self.width,
            "d1_multiple": self.d1_multiple,
            "d2_multiple": self.d2_multiple,
            "d3_multiple": self.d3_multiple,
            "d4_multiple": self.d4_multiple,
            "stem_multiple": self.stem_multiple,
            "xor_output_distance": self.xor_output_distance,
            "gate_clearance": self.gate_clearance,
            "row_clearance": self.row_clearance,
            "col_clearance": self.col_clearance,
            "track_pitch": self.track_pitch,
            "crossing_spacing": self.crossing_spacing,
            "crossing_gate_clearance": self.crossing_gate_clearance,
            "max_fanout": self.max_fanout,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DesignRules":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown design-rule fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class DRCReport:
    """Outcome of one full design-rule check."""

    circuit: str
    rules: DesignRules
    checks_run: List[str] = field(default_factory=list)
    violations: List[DRCViolation] = field(default_factory=list)
    crossings: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "clean": self.clean,
            "checks_run": list(self.checks_run),
            "crossings": self.crossings,
            "violations": [
                {"rule": v.rule, "offenders": list(v.offenders),
                 "detail": v.detail, "actual": v.actual,
                 "required": v.required}
                for v in self.violations
            ],
        }


# -- geometry helpers ---------------------------------------------------------------

def _bbox_gap(a: BBox, b: BBox) -> float:
    """Smallest axis gap between two boxes (negative = overlap)."""
    dx = max(a[0] - b[2], b[0] - a[2])
    dy = max(a[1] - b[3], b[1] - a[3])
    if dx < 0 and dy < 0:
        return max(dx, dy)   # overlap depth (negative)
    return math.hypot(max(dx, 0.0), max(dy, 0.0)) if dx > 0 and dy > 0 \
        else max(dx, dy)


def _segment_orientation(a: Point, b: Point) -> str:
    if abs(a[1] - b[1]) < 1e-9:
        return "h"
    if abs(a[0] - b[0]) < 1e-9:
        return "v"
    return "d"


def _hv_intersection(h: Tuple[Point, Point],
                     v: Tuple[Point, Point]) -> Optional[Point]:
    """Interior intersection of a horizontal and a vertical segment."""
    (hx0, hy), (hx1, _) = h
    (vx, vy0), (_, vy1) = v
    x0, x1 = min(hx0, hx1), max(hx0, hx1)
    y0, y1 = min(vy0, vy1), max(vy0, vy1)
    eps = 1e-9
    if x0 + eps < vx < x1 - eps and y0 + eps < hy < y1 - eps:
        return (vx, hy)
    return None


def _point_box_distance(p: Point, box: BBox) -> float:
    dx = max(box[0] - p[0], 0.0, p[0] - box[2])
    dy = max(box[1] - p[1], 0.0, p[1] - box[3])
    return math.hypot(dx, dy)


def _segment_box_gap(a: Point, b: Point, box: BBox) -> float:
    """Distance from an axis-aligned segment to a box (<=0 if touching)."""
    x0, y0 = min(a[0], b[0]), min(a[1], b[1])
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    return _bbox_gap((x0, y0, x1, y1), box)


# -- individual rule passes ---------------------------------------------------------

def _check_phase(placement: "Placement", report: DRCReport) -> None:
    report.checks_run.append("phase")
    lam = placement.rules.wavelength
    for name, gate in sorted(placement.gates.items()):
        if gate.layout is None:
            continue
        if gate.layout.dimensions.width > lam:
            report.violations.append(DRCViolation(
                "phase.width", (name,),
                "waveguide width exceeds the wavelength",
                actual=gate.layout.dimensions.width, required=lam))
        for check, ok in validate_phase_design(gate.layout).items():
            if not ok:
                report.violations.append(DRCViolation(
                    "phase.lambda-multiple", (name,),
                    f"failed phase condition: {check}"))


def _check_spacing(placement: "Placement", report: DRCReport) -> None:
    report.checks_run.append("spacing")
    required = placement.rules.gate_clearance
    gates = sorted(placement.gates.values(), key=lambda g: g.name)
    for i, a in enumerate(gates):
        for b in gates[i + 1:]:
            gap = _bbox_gap(a.bbox, b.bbox)
            if gap < required:
                detail = ("bounding boxes overlap" if gap < 0 else
                          "gate clearance below the rule deck minimum")
                report.violations.append(DRCViolation(
                    "spacing.gate", (a.name, b.name), detail,
                    actual=round(gap, 6), required=required))


def _wire_segments(placement: "Placement"
                   ) -> List[Tuple["Wire", Point, Point, str]]:
    segments = []
    for wire in placement.wires:
        for a, b in wire.segments:
            segments.append((wire, a, b, _segment_orientation(a, b)))
    return segments


def _check_wires(placement: "Placement", report: DRCReport) -> None:
    report.checks_run.append("wire-gate-clearance")
    required = placement.rules.crossing_gate_clearance
    for wire, a, b, orient in _wire_segments(placement):
        if orient == "d":
            report.violations.append(DRCViolation(
                "wire.manhattan", (wire.net,),
                f"non-axis-aligned wire segment {a} -> {b}"))
            continue
        for name, gate in sorted(placement.gates.items()):
            if name in (wire.source, wire.sink):
                continue   # pin stubs legitimately touch their own cell
            gap = _segment_box_gap(a, b, gate.bbox)
            if gap < required:
                report.violations.append(DRCViolation(
                    "wire.gate-clearance", (wire.net, name),
                    "routed waveguide passes too close to a foreign gate",
                    actual=round(gap, 6), required=required))


def _check_crossings(placement: "Placement", report: DRCReport) -> None:
    report.checks_run.append("crossings")
    rules = placement.rules
    segments = _wire_segments(placement)
    horizontals = [s for s in segments if s[3] == "h"]
    verticals = [s for s in segments if s[3] == "v"]
    crossings: List[Tuple[Point, str, str]] = []
    for hw, ha, hb, _ in horizontals:
        for vw, va, vb, _ in verticals:
            if hw.net == vw.net:
                continue
            point = _hv_intersection((ha, hb), (va, vb))
            if point is not None:
                crossings.append((point, hw.net, vw.net))
    report.crossings = len(crossings)
    for i, (p, net_a, net_b) in enumerate(crossings):
        for q, net_c, net_d in crossings[i + 1:]:
            dist = math.hypot(p[0] - q[0], p[1] - q[1])
            if dist < rules.crossing_spacing:
                report.violations.append(DRCViolation(
                    "crossing.spacing",
                    (f"{net_a}x{net_b}", f"{net_c}x{net_d}"),
                    "waveguide crossings closer than the rule deck "
                    "minimum", actual=round(dist, 6),
                    required=rules.crossing_spacing))
        for name, gate in sorted(placement.gates.items()):
            dist = _point_box_distance(p, gate.bbox)
            if dist < rules.crossing_gate_clearance:
                report.violations.append(DRCViolation(
                    "crossing.gate-clearance",
                    (f"{net_a}x{net_b}", name),
                    "waveguide crossing too close to a gate",
                    actual=round(dist, 6),
                    required=rules.crossing_gate_clearance))


def _check_fanout(placement: "Placement", report: DRCReport) -> None:
    report.checks_run.append("fan-out")
    netlist = placement.netlist
    netlist.validate()   # FO2 budget: one consumer per physical net
    for name, inst in sorted(netlist.gates.items()):
        driven = [n for n in inst.outputs if n is not None]
        # A splitter with more branches than the triangle's FO2 is how
        # a net exceeds it (Section III-A): its budget is its branches.
        outputs = GATE_TYPES[inst.gate_type].outputs
        budget = outputs if outputs > TRIANGLE_FAN_OUT \
            else placement.rules.max_fanout
        if len(driven) > budget:
            report.violations.append(DRCViolation(
                "fanout.budget", (name,),
                f"gate drives {len(driven)} nets, budget is {budget}",
                actual=float(len(driven)), required=float(budget)))


def check(placement: "Placement",
          raise_on_violation: bool = False) -> DRCReport:
    """Run every design-rule pass over a placement.

    Parameters
    ----------
    placement:
        The placed fabric (carries its own rule deck).
    raise_on_violation:
        If True, raise the first :class:`~repro.errors.DRCViolation`
        after completing all passes (the full report is attached to
        the exception as ``.report``).
    """
    report = DRCReport(circuit=placement.netlist.name,
                       rules=placement.rules)
    _check_phase(placement, report)
    _check_spacing(placement, report)
    _check_wires(placement, report)
    _check_crossings(placement, report)
    _check_fanout(placement, report)
    if raise_on_violation and report.violations:
        violation = report.violations[0]
        violation.report = report
        raise violation
    return report
