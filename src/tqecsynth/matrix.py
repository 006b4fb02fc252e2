"""Integer matrix encoding of ICM circuits.

Rows are qubits; the first and last columns carry initialisation and
measurement codes, and each interior column holds exactly one CNOT as a
control/target code pair. The geometry generator walks this matrix column
by column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Matrix form of an ICM circuit; ``cells`` has shape (qubits, cnots + 2)."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        if self.cells.ndim != 2 or self.cells.shape[1] < 2:
            raise ValueError("matrix needs at least input and output columns")

    @property
    def qubit_count(self) -> int:
        return self.cells.shape[0]

    @property
    def cnot_count(self) -> int:
        return self.cells.shape[1] - 2

    def column_cnot(self, col: int) -> tuple[int, int]:
        """Return (control_row, target_row) of interior column ``col`` (0-based)."""
        column = self.cells[:, col + 1]
        ctrl = np.flatnonzero(column == CONTROL)
        tgt = np.flatnonzero(column == TARGET)
        if len(ctrl) != 1 or len(tgt) != 1:
            raise ValueError(f"malformed CNOT column {col}")
        return int(ctrl[0]), int(tgt[0])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatrixRep) and np.array_equal(self.cells, other.cells)


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
    n = circ.qubit_count
    k = len(circ.gates)
    cells = np.zeros((n, k + 2), dtype=np.int64)
    for q in range(n):
        cells[q, 0] = _INIT_CODE[circ.inits[q]]
        cells[q, -1] = _terminal_code(circ.inits[q], circ.meas[q])
    for col, g in enumerate(circ.gates):
        if g.kind is not GateKind.CNOT:
            raise ValueError("ICM circuit may only contain CNOT gates")
        cells[g.control, col + 1] = CONTROL
        cells[g.target, col + 1] = TARGET
    return MatrixRep(cells)


def from_matrix(m: MatrixRep) -> Circuit:
    """Decode a matrix back into an ICM circuit.

    One scan of the interior columns finds every CONTROL and TARGET cell,
    and a column is a CNOT when it holds exactly one of each.
    Raises ValueError naming the first row with an unknown code, or the
    first malformed CNOT column.
    """
    inits = []
    meas = []
    for q, (in_code, out_code) in enumerate(
            zip(m.cells[:, 0].tolist(), m.cells[:, -1].tolist())):
        if in_code not in _CODE_INIT:
            raise ValueError(f"row {q}: unknown input code {in_code}")
        if out_code not in _CODE_MEAS:
            raise ValueError(f"row {q}: unknown output code {out_code}")
        inits.append(_CODE_INIT[in_code])
        meas.append(_CODE_MEAS[out_code])
    # Every occupied interior cell, sorted by column: once each column holds
    # one cell of each role, the control rows and the target rows come out
    # in column order. (A flat scan of the cells is many times faster than
    # np.nonzero's two-dimensional one.)
    k = m.cnot_count
    rows, cols = np.divmod(np.flatnonzero(m.cells[:, 1:-1] > EMPTY), k)
    by_col = np.argsort(cols, kind="stable")
    rows, cols = rows[by_col], cols[by_col]
    roles = m.cells[rows, cols + 1]
    is_ctrl, is_tgt = roles == CONTROL, roles == TARGET
    bad = np.flatnonzero((np.bincount(cols[is_ctrl], minlength=k) != 1)
                         | (np.bincount(cols[is_tgt], minlength=k) != 1))
    if bad.size:
        raise ValueError(f"malformed CNOT column {bad[0]}")
    gates = [Gate(GateKind.CNOT, pair)
             for pair in zip(rows[is_ctrl].tolist(), rows[is_tgt].tolist())]
    return Circuit(m.qubit_count, tuple(inits), tuple(gates), tuple(meas), icm=True)
