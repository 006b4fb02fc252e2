from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import icm_circuits
from tqecsynth.circuit import Circuit, InitBasis, MeasBasis, cnot, parse_circuit
from tqecsynth.decompose import decompose_gates
from tqecsynth.geometry import CapShape, PortBasis, PortRole, generate_geometry
from tqecsynth.icm import to_icm
from tqecsynth.matrix import (
    CONTROL, INIT_Y, INPUT_OPEN, MEAS_A, MEAS_X, MEAS_Y, MEAS_Z, OUTPUT_OPEN, TARGET,
    INIT_A, MatrixRep, from_matrix, to_matrix,
)

CIRCUITS = sorted((Path(__file__).parent.parent / "circuits").glob("*.tq"))


def icm(src: str) -> Circuit:
    circ = parse_circuit(src)
    return Circuit(circ.qubit_count, circ.inits, circ.gates, circ.meas, icm=True)


def test_two_cnot_matrix():
    # rows [[-100,1,0,-101],[-100,2,2,-101],[-100,0,1,-101]]
    m = to_matrix(icm("qubits 3\ncnot 0 1\ncnot 2 1\n"))
    expected = np.array([
        [-100, 1, 0, -101],
        [-100, 2, 2, -101],
        [-100, 0, 1, -101],
    ])
    assert np.array_equal(m.cells, expected)


def test_wireless_single_qubit_matrix():
    m = to_matrix(icm("qubits 1\n"))
    assert np.array_equal(m.cells, np.array([[INPUT_OPEN, OUTPUT_OPEN]]))


def test_t_teleport_pair_matrix():
    # |psi> open input measured Z as CNOT target, |A> ancilla as control
    # carrying the teleported output: hand-applied encoding table. The
    # output row is an open logical output, not a protocol measurement.
    circ = Circuit(
        2,
        (InitBasis.OPEN, InitBasis.A),
        (cnot(1, 0),),
        (MeasBasis.Z, MeasBasis.OPEN),
        icm=True,
    )
    m = to_matrix(circ)
    assert m.cells[0].tolist() == [INPUT_OPEN, TARGET, MEAS_Z]
    assert m.cells[1].tolist() == [INIT_A, CONTROL, OUTPUT_OPEN]


def test_protocol_terminals_only_for_protocol_bases():
    inits = (InitBasis.A, InitBasis.A, InitBasis.A, InitBasis.Y, InitBasis.Y, InitBasis.Y)
    meas = (MeasBasis.Z, MeasBasis.X, MeasBasis.OPEN, MeasBasis.X, MeasBasis.Z, MeasBasis.OPEN)
    circ = Circuit(6, inits, (), meas, icm=True)
    m = to_matrix(circ)
    assert m.cells[:, -1].tolist() == [MEAS_A, MEAS_X, OUTPUT_OPEN, MEAS_Y, MEAS_Z, OUTPUT_OPEN]
    assert m.cells[:, 0].tolist() == [INIT_A] * 3 + [INIT_Y] * 3
    assert from_matrix(m) == circ


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_sample_conversions_round_trip(path):
    conv = to_icm(decompose_gates(parse_circuit(path.read_text())))
    assert from_matrix(to_matrix(conv.circuit)) == conv.circuit


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_logical_open_outputs_are_open_ports(path):
    circ = parse_circuit(path.read_text())
    conv = to_icm(decompose_gates(circ))
    geo = generate_geometry(to_matrix(conv.circuit))
    ports = {p.qubit_row: p for p in geo.ioports if p.role is PortRole.OUTPUT}
    rows = [out for q, (_, out) in enumerate(conv.qubit_rows) if circ.meas[q] is MeasBasis.OPEN]
    assert rows
    for row in rows:
        assert ports[row].basis is PortBasis.OPEN
        assert ports[row].template.shape is CapShape.CONFIG


def test_matrix_rejects_non_icm():
    with pytest.raises(ValueError):
        to_matrix(parse_circuit("qubits 1\nt 0\n"))


def test_column_shape_and_codes():
    m = to_matrix(icm("qubits 4\ncnot 0 3\ncnot 2 1\ncnot 1 0\n"))
    assert m.cells.shape == (4, 5)
    for col in range(m.cnot_count):
        column = m.cells[:, col + 1]
        assert (column == CONTROL).sum() == 1
        assert (column == TARGET).sum() == 1
        assert ((column == 0) | (column == CONTROL) | (column == TARGET)).all()


@settings(max_examples=200, deadline=None)
@given(icm_circuits())
def test_round_trip(circ):
    m = to_matrix(circ)
    assert m.cells.shape == (circ.qubit_count, len(circ.gates) + 2)
    back = from_matrix(m)
    assert back.inits == circ.inits
    assert back.meas == circ.meas
    assert back.gates == circ.gates
    assert back.icm


def test_malformed_column_detected():
    cells = np.array([[INPUT_OPEN, 1, OUTPUT_OPEN], [INPUT_OPEN, 1, OUTPUT_OPEN]])
    with pytest.raises(ValueError):
        MatrixRep(cells).column_cnot(0)


def test_decode_names_the_first_malformed_column():
    # column 0 is one CNOT, column 1 has two controls, column 2 no target
    cells = np.array([
        [INPUT_OPEN, CONTROL, CONTROL, CONTROL, OUTPUT_OPEN],
        [INPUT_OPEN, TARGET, CONTROL, 0, OUTPUT_OPEN],
        [INPUT_OPEN, 0, TARGET, 0, OUTPUT_OPEN],
    ])
    with pytest.raises(ValueError, match="^malformed CNOT column 1$"):
        from_matrix(MatrixRep(cells))
    with pytest.raises(ValueError, match="^malformed CNOT column 2$"):
        from_matrix(MatrixRep(cells[:, [0, 1, 1, 3, 4]]))
    assert from_matrix(MatrixRep(cells[:, [0, 1, 4]])).gates == (cnot(0, 1),)
