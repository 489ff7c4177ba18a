"""Boolean reference functions, truth-table utilities and the
gate-type catalogue.

Every gate in the library is checked against these plain-Python
references; they are the ground truth for all functional tests.
:data:`GATE_TYPES` declares each netlist gate type once; the circuit
layer, the compiler and the CLI derive their tables from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Bit = int
InputPattern = Tuple[Bit, ...]


def check_bits(bits: Sequence[int]) -> Tuple[int, ...]:
    """Validate and normalise a bit sequence.

    Raises
    ------
    ValueError
        If any element is not 0 or 1.
    """
    out = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"logic values must be 0 or 1, got {b!r}")
        out.append(int(b))
    return tuple(out)


def majority(*bits: int) -> int:
    """n-input majority (n odd).  MAJ3 is the paper's workhorse.

    >>> majority(0, 1, 1)
    1
    """
    bits = check_bits(bits)
    if len(bits) % 2 == 0:
        raise ValueError("majority needs an odd number of inputs")
    return int(sum(bits) > len(bits) // 2)


def xor(*bits: int) -> int:
    """n-input parity."""
    bits = check_bits(bits)
    return int(sum(bits) % 2)


def xnor(*bits: int) -> int:
    """Complement of parity."""
    return 1 - xor(*bits)


def and_(*bits: int) -> int:
    """n-input AND."""
    bits = check_bits(bits)
    return int(all(bits))


def or_(*bits: int) -> int:
    """n-input OR."""
    bits = check_bits(bits)
    return int(any(bits))


def nand(*bits: int) -> int:
    """n-input NAND."""
    return 1 - and_(*bits)


def nor(*bits: int) -> int:
    """n-input NOR."""
    return 1 - or_(*bits)


def not_(bit: int) -> int:
    """Inverter."""
    (bit,) = check_bits([bit])
    return 1 - bit


def _buffer(bit: int) -> int:
    """Identity (repeaters and splitters pass the wave on)."""
    (bit,) = check_bits([bit])
    return bit


@dataclass(frozen=True)
class GateType:
    """One netlist gate type: its ports, transducer cells and logic.

    Section III-A builds every gate from two triangle primitives: MAJ3
    with a constant I3 gives AND (I3 = 0) and OR (I3 = 1), d4 = (n+1/2)
    lambda inverts them, and XOR with a constant-1 control gives NOT.

    Attributes
    ----------
    name:
        The netlist type name.
    inputs / outputs:
        Port counts (data inputs only; the control input is internal).
    excite / detect:
        Excitation and detection transducer cells, for the energy and
        area models.  A control input is excited like a data input.
    primitive:
        The embedded triangle gate, ``"maj3"`` or ``"xor"``; None for
        repeaters and splitters.
    invert:
        The output is inverted: d4 = (n+1/2) lambda on a MAJ3 layout,
        the XNOR threshold convention on an XOR one.
    control:
        Constant value of the primitive's last input, or None.
    function:
        Boolean reference of the first output (an FO2 gate's second
        output carries the same value).
    """

    name: str
    inputs: int
    outputs: int
    excite: int
    detect: int
    primitive: Optional[str]
    invert: bool
    control: Optional[int]
    function: Callable[..., int]

    @property
    def interferes(self) -> bool:
        """Two data waves meet in the gate, so it has a wave model.
        NOT (one data wave against a constant), repeaters and splitters
        carry a single wave and are evaluated as boolean."""
        return self.primitive is not None and self.inputs > 1


#: The catalogue: the one declaration of every netlist gate type.
GATE_TYPES: Dict[str, GateType] = {gate.name: gate for gate in (
    # name, inputs, outputs, excite, detect, primitive, invert, control,
    # function
    GateType("MAJ3", 3, 2, 3, 2, "maj3", False, None, majority),
    GateType("NMAJ3", 3, 2, 3, 2, "maj3", True, None,
             lambda a, b, c: 1 - majority(a, b, c)),
    GateType("XOR", 2, 2, 2, 2, "xor", False, None, xor),
    GateType("XNOR", 2, 2, 2, 2, "xor", True, None, xnor),
    GateType("AND", 2, 2, 3, 2, "maj3", False, 0, and_),
    GateType("NAND", 2, 2, 3, 2, "maj3", True, 0, nand),
    GateType("OR", 2, 2, 3, 2, "maj3", False, 1, or_),
    GateType("NOR", 2, 2, 3, 2, "maj3", True, 1, nor),
    GateType("NOT", 1, 2, 2, 2, "xor", False, 1, not_),
    GateType("REPEATER", 1, 1, 1, 1, None, False, None, _buffer),
    GateType("SPLITTER2", 1, 2, 0, 0, None, False, None, _buffer),
    GateType("SPLITTER3", 1, 3, 0, 0, None, False, None, _buffer),
)}


def _majority_embedding(name: str) -> GateType:
    """The record of a 2-input gate built as MAJ3 with a constant I3."""
    gate = GATE_TYPES.get(name.upper())
    if gate is None or gate.primitive != "maj3" or gate.control is None:
        options = sorted(n for n, g in GATE_TYPES.items()
                         if g.primitive == "maj3" and g.control is not None)
        raise KeyError(f"unknown derived function {name!r}; "
                       f"options: {options}")
    return gate


def majority_derived(name: str, a: int, b: int) -> int:
    """Evaluate a 2-input function via its MAJ3 embedding.

    >>> majority_derived("AND", 1, 1)
    1
    """
    gate = _majority_embedding(name)
    value = majority(a, b, gate.control)
    return 1 - value if gate.invert else value


def truth_table(function: Callable[..., int], n_inputs: int
                ) -> Dict[InputPattern, int]:
    """Full truth table of a boolean function.

    >>> truth_table(xor, 2)[(0, 1)]
    1
    """
    if n_inputs < 1:
        raise ValueError("need at least one input")
    return {bits: function(*bits) for bits in product((0, 1), repeat=n_inputs)}


def input_patterns(n_inputs: int) -> List[InputPattern]:
    """All 2^n input patterns in canonical (counting) order."""
    return list(product((0, 1), repeat=n_inputs))


def full_adder(a: int, b: int, carry_in: int) -> Tuple[int, int]:
    """Reference full adder: ``(sum, carry_out)``.

    The paper motivates MAJ3 with exactly this: carry-out *is* a 3-input
    majority and sum is a 3-input parity (Section II-B).
    """
    a, b, carry_in = check_bits((a, b, carry_in))
    return xor(a, b, carry_in), majority(a, b, carry_in)
