"""Integer matrix encoding of ICM circuits.

Rows are qubits; the first and last columns carry initialisation and
measurement codes, and each interior column holds exactly one CNOT as a
control/target code pair. Only those cells carry anything, so the matrix
is held as them: each row's two codes and each column's pair of rows.
The geometry generator reads it back through ``from_matrix``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, InitBasis, MeasBasis

# Cell code table. Negative codes mark row boundaries, positive codes mark
# CNOT roles, 0 is an empty cell.
INPUT_OPEN = -100
OUTPUT_OPEN = -101
INIT_A = -99
MEAS_A = -98       # protocol terminal: an |A>-initialised row measured in Z
INIT_Y = -97
MEAS_Y = -96       # protocol terminal: a |Y>-initialised row measured in X
INIT_ZERO = -95
INIT_PLUS = -94
MEAS_Z = -93
MEAS_X = -92
CONTROL = 1
TARGET = 2
EMPTY = 0

_INIT_CODE = {
    InitBasis.OPEN: INPUT_OPEN,
    InitBasis.A: INIT_A,
    InitBasis.Y: INIT_Y,
    InitBasis.ZERO: INIT_ZERO,
    InitBasis.PLUS: INIT_PLUS,
}
_CODE_INIT = {v: k for k, v in _INIT_CODE.items()}

_MEAS_CODE = {
    MeasBasis.OPEN: OUTPUT_OPEN,
    MeasBasis.Z: MEAS_Z,
    MeasBasis.X: MEAS_X,
}
# Protocol terminals decode to their canonical bases: an |A> row measures
# in Z (the default T-block pattern) and a |Y> row measures in X.
_CODE_MEAS = {v: k for k, v in _MEAS_CODE.items()} | {MEAS_A: MeasBasis.Z, MEAS_Y: MeasBasis.X}


@dataclass(frozen=True)
class MatrixRep:
    """Matrix form of an ICM circuit, held as its non-empty cells.

    Row q opens with ``inputs[q]`` and closes with ``outputs[q]``; interior
    column k holds CONTROL in row ``cnots[k][0]``, TARGET in row
    ``cnots[k][1]`` and EMPTY in every other row.
    """

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    cnots: tuple[tuple[int, int], ...]

    @property
    def qubit_count(self) -> int:
        return len(self.inputs)

    @property
    def cnot_count(self) -> int:
        return len(self.cnots)


def _terminal_code(init: InitBasis, m: MeasBasis) -> int:
    # An injected row consumed in its protocol basis terminates with the
    # protocol marker (the T block may select the other basis at run time).
    # Any other terminal, such as an injected row that carries a logical
    # output or that a later block consumes in Z, keeps its own code.
    if init is InitBasis.A and m is MeasBasis.Z:
        return MEAS_A
    if init is InitBasis.Y and m is MeasBasis.X:
        return MEAS_Y
    return _MEAS_CODE[m]


def to_matrix(circ: Circuit) -> MatrixRep:
    """Encode an ICM circuit as its integer matrix."""
    if not circ.icm:
        raise ValueError("to_matrix requires an ICM circuit")
    if any(g.kind is not GateKind.CNOT for g in circ.gates):
        raise ValueError("ICM circuit may only contain CNOT gates")
    return MatrixRep(
        tuple(_INIT_CODE[init] for init in circ.inits),
        tuple(_terminal_code(init, m) for init, m in zip(circ.inits, circ.meas)),
        tuple(g.qubits for g in circ.gates),
    )


def from_matrix(m: MatrixRep) -> Circuit:
    """Decode a matrix back into an ICM circuit.

    Raises ValueError when the input and output columns differ in length,
    naming the first row with an unknown code, or naming the first
    malformed CNOT column: one whose control and target rows are equal or
    not rows of the matrix.
    """
    n = m.qubit_count
    if len(m.outputs) != n:
        raise ValueError(f"input column has {n} codes, output column has {len(m.outputs)}")
    inits = []
    meas = []
    for q, (in_code, out_code) in enumerate(zip(m.inputs, m.outputs)):
        if in_code not in _CODE_INIT:
            raise ValueError(f"row {q}: unknown input code {in_code}")
        if out_code not in _CODE_MEAS:
            raise ValueError(f"row {q}: unknown output code {out_code}")
        inits.append(_CODE_INIT[in_code])
        meas.append(_CODE_MEAS[out_code])
    gates = []
    for col, (ctrl, tgt) in enumerate(m.cnots):
        if ctrl == tgt or not (0 <= ctrl < n and 0 <= tgt < n):
            raise ValueError(f"malformed CNOT column {col}")
        gates.append(Gate(GateKind.CNOT, (ctrl, tgt)))
    return Circuit(n, tuple(inits), tuple(gates), tuple(meas), icm=True)
