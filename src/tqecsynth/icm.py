"""Conversion of decomposed circuits into ICM form via gate teleportation.

Every rotation gate is replaced by a teleportation block that consumes an
injected ancilla state and moves the logical wire onto a fresh row:

* P-type (P, Pdg): CNOT from a |Y> ancilla onto the wire, wire measured in Z.
* V-type (V, Vdg): CNOT from the wire onto a |Y> ancilla, wire measured in X.
* T-type (T, Tdg): the six-row selective source/destination block with
  ancillae |A>, |0>, |Y>, |+>, |0>; the wire's Z outcome selects one of two
  measurement patterns so the non-trackable P correction is absorbed by
  routing instead of a circuit rewrite.

Daggered gates use the same topology with conjugated injected states.
Pauli byproducts of the teleportations are tracked in a frame, never
inserted as gates.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

from .circuit import (
    Circuit, Gate, GateKind, InitBasis, MeasBasis, NATIVE_KINDS,
)

P_KINDS = frozenset({GateKind.P, GateKind.PDG})
V_KINDS = frozenset({GateKind.V, GateKind.VDG})
T_KINDS = frozenset({GateKind.T, GateKind.TDG})
DAGGERED = frozenset({GateKind.PDG, GateKind.VDG, GateKind.TDG})


@dataclass(frozen=True)
class TeleportTemplate:
    """Static shape of one teleportation block, in template-local row indices.

    Row 0 is the acted-on wire; ancilla rows follow in order. Selective
    (T-type) templates carry two alternative measurement patterns: the
    correction pattern first, selected when the Z outcome of row 0 is 1 (the
    corrective P is required), then the plain one.
    """

    ancilla_inits: tuple[InitBasis, ...]
    cnots: tuple[tuple[int, int], ...]
    measurement_patterns: tuple[tuple[tuple[int, MeasBasis], ...], ...]
    output_qubit: int

    @property
    def selective(self) -> bool:
        return len(self.measurement_patterns) == 2


def _patterns(*maps: dict[int, MeasBasis]) -> tuple[tuple[tuple[int, MeasBasis], ...], ...]:
    return tuple(tuple(sorted(m.items())) for m in maps)


_Z, _X = MeasBasis.Z, MeasBasis.X

#: T-block measurement patterns over rows (wire, |A>, |0>, |Y>, |+>).
T_PATTERN_CORRECTION = {0: _Z, 1: _Z, 2: _X, 3: _X, 4: _Z}
T_PATTERN_PLAIN = {0: _Z, 1: _X, 2: _Z, 3: _Z, 4: _X}

_P_TEMPLATE = TeleportTemplate(
    ancilla_inits=(InitBasis.Y,),
    cnots=((1, 0),),
    measurement_patterns=_patterns({0: _Z}),
    output_qubit=1,
)
_V_TEMPLATE = TeleportTemplate(
    ancilla_inits=(InitBasis.Y,),
    cnots=((0, 1),),
    measurement_patterns=_patterns({0: _X}),
    output_qubit=1,
)
_T_TEMPLATE = TeleportTemplate(
    ancilla_inits=(InitBasis.A, InitBasis.ZERO, InitBasis.Y,
                   InitBasis.PLUS, InitBasis.ZERO),
    cnots=((1, 0), (1, 2), (3, 1), (4, 2), (3, 5), (4, 5)),
    measurement_patterns=_patterns(T_PATTERN_CORRECTION, T_PATTERN_PLAIN),
    output_qubit=5,
)
_TEMPLATES = {
    **dict.fromkeys(P_KINDS, _P_TEMPLATE),
    **dict.fromkeys(V_KINDS, _V_TEMPLATE),
    **dict.fromkeys(T_KINDS, _T_TEMPLATE),
}


def template_for(kind: GateKind) -> TeleportTemplate:
    if kind not in _TEMPLATES:
        raise ValueError(f"{kind.value} has no teleportation template")
    return _TEMPLATES[kind]


@dataclass(frozen=True)
class TemplateInstance:
    """One instantiated teleportation block inside an ICM circuit.

    ``rows`` maps template-local indices to circuit rows; rows[0] is the
    consumed wire and the template's output index names the row carrying
    the state afterwards. ``cnot_slots`` are the interior matrix columns
    occupied by the block's CNOTs.
    """

    kind: GateKind
    qubit: int
    rows: tuple[int, ...]
    cnot_slots: tuple[int, ...]

    @property
    def template(self) -> TeleportTemplate:
        return template_for(self.kind)

    @property
    def selective(self) -> bool:
        return self.template.selective

    @property
    def source_row(self) -> int:
        return self.rows[0]

    @property
    def output_row(self) -> int:
        return self.rows[self.template.output_qubit]

    @property
    def injections(self) -> tuple[tuple[int, InitBasis], ...]:
        return tuple(
            (self.rows[local + 1], init)
            for local, init in enumerate(self.template.ancilla_inits)
            if init.is_injection
        )


@dataclass(frozen=True)
class PauliFrame:
    """Tracked X/Z byproduct flips per row."""

    x_rows: frozenset[int] = frozenset()
    z_rows: frozenset[int] = frozenset()


@dataclass(frozen=True)
class IcmConversion:
    """Result of :func:`to_icm`: the ICM circuit plus template bookkeeping."""

    circuit: Circuit
    instances: tuple[TemplateInstance, ...]
    #: per original logical qubit: (input row, output row) in the ICM circuit
    qubit_rows: tuple[tuple[int, int], ...]


def to_icm(circ: Circuit) -> IcmConversion:
    """Convert a decomposed circuit to ICM form.

    A block's ancillas go directly below the acted-on wire, and the wire
    moves to the block's output row, its last ancilla. So each logical qubit
    owns one contiguous run of rows, in qubit order: its input row, then the
    ancillas of its blocks in gate order, and ``qubit_rows[q]`` holds the
    run's first and last rows. Repeated gates on one logical qubit walk
    monotonically down the row (and later j) axis. Raises on gates outside
    the native set.
    """
    for idx, g in enumerate(circ.gates):
        if g.kind not in NATIVE_KINDS:
            raise ValueError(f"gate {idx}: {g.kind.value} is not decomposed")

    runs = [[init] for init in circ.inits]
    for g in circ.gates:
        if g.kind is not GateKind.CNOT:
            runs[g.qubits[0]].extend(template_for(g.kind).ancilla_inits)
    inits = tuple(chain.from_iterable(runs))
    starts = [0, *accumulate(map(len, runs[:-1]))]

    meas = [MeasBasis.OPEN] * len(inits)
    wire = list(starts)
    gates: list[Gate] = []
    instances: list[TemplateInstance] = []
    for g in circ.gates:
        if g.kind is GateKind.CNOT:
            gates.append(Gate(GateKind.CNOT, (wire[g.control], wire[g.target])))
            continue
        q = g.qubits[0]
        tpl = template_for(g.kind)
        rows = tuple(range(wire[q], wire[q] + 1 + len(tpl.ancilla_inits)))
        slots = tuple(range(len(gates), len(gates) + len(tpl.cnots)))
        gates.extend(Gate(GateKind.CNOT, (rows[c], rows[t])) for c, t in tpl.cnots)
        for loc, basis in tpl.measurement_patterns[0]:
            meas[rows[loc]] = basis
        wire[q] = rows[tpl.output_qubit]
        instances.append(TemplateInstance(g.kind, q, rows, slots))
    for q, row in enumerate(wire):
        meas[row] = circ.meas[q]

    icm_circuit = Circuit(len(inits), inits, tuple(gates), tuple(meas), icm=True)
    return IcmConversion(icm_circuit, tuple(instances), tuple(zip(starts, wire)))


def cnot_spans(circ: Circuit) -> list[tuple[int, int] | None]:
    """Each row's first and last CNOT column, or None for a row no CNOT touches."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for col, gate in enumerate(circ.gates):
        for row in gate.qubits:
            first.setdefault(row, col)
            last[row] = col
    return [(first[row], last[row]) if row in first else None
            for row in range(circ.qubit_count)]


def select_pattern(instance: TemplateInstance, outcome: int) -> dict[int, MeasBasis]:
    """Measurement map (circuit row -> basis) selected by the wire's Z outcome.

    Outcome 1 means the corrective P is required and selects the correction
    pattern; outcome 0 selects the plain routing pattern. Only valid for
    selective (T-type) instances.
    """
    if not instance.selective:
        raise ValueError("select_pattern requires a selective T-type instance")
    if outcome not in (0, 1):
        raise ValueError("outcome must be a bit")
    pattern = instance.template.measurement_patterns[1 - outcome]
    return {instance.rows[loc]: basis for loc, basis in pattern}
