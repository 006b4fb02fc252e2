import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

import reference_scans as ref
from conftest import icm_circuits
from tqecsynth.circuit import Circuit, InitBasis, MeasBasis, cnot, parse_circuit
from tqecsynth.decompose import decompose_gates
from tqecsynth.geometry import (
    CapShape, GeometryError, PortBasis, PortRole, generate_geometry,
)
from tqecsynth.icm import to_icm
from tqecsynth.matrix import (
    CONTROL, INIT_Y, INPUT_OPEN, MEAS_A, MEAS_X, MEAS_Y, MEAS_Z, OUTPUT_OPEN, TARGET,
    INIT_A, MatrixRep, from_matrix, to_matrix,
)

CIRCUITS = sorted((Path(__file__).parent.parent / "circuits").glob("*.tq"))
# 4 random Toffolis on 6 qubits, as the benchmark generates them
_rng = random.Random(1)
FOUR_TOFFOLIS = "qubits 6\n" + "".join(
    "toffoli {} {} {}\n".format(*_rng.sample(range(6), 3)) for _ in range(4))


def icm(src: str) -> Circuit:
    circ = parse_circuit(src)
    return Circuit(circ.qubit_count, circ.inits, circ.gates, circ.meas, icm=True)


def test_two_cnot_matrix():
    # rows [[-100,1,0,-101],[-100,2,2,-101],[-100,0,1,-101]]
    m = to_matrix(icm("qubits 3\ncnot 0 1\ncnot 2 1\n"))
    expected = [
        [-100, 1, 0, -101],
        [-100, 2, 2, -101],
        [-100, 0, 1, -101],
    ]
    assert ref.matrix_rows(m) == expected
    assert m == MatrixRep((-100,) * 3, (-101,) * 3, ((0, 1), (2, 1)))


def test_wireless_single_qubit_matrix():
    m = to_matrix(icm("qubits 1\n"))
    assert ref.matrix_rows(m) == [[INPUT_OPEN, OUTPUT_OPEN]]
    assert m == MatrixRep((INPUT_OPEN,), (OUTPUT_OPEN,), ())


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
    assert ref.matrix_rows(m) == [[INPUT_OPEN, TARGET, MEAS_Z], [INIT_A, CONTROL, OUTPUT_OPEN]]


def test_protocol_terminals_only_for_protocol_bases():
    inits = (InitBasis.A, InitBasis.A, InitBasis.A, InitBasis.Y, InitBasis.Y, InitBasis.Y)
    meas = (MeasBasis.Z, MeasBasis.X, MeasBasis.OPEN, MeasBasis.X, MeasBasis.Z, MeasBasis.OPEN)
    circ = Circuit(6, inits, (), meas, icm=True)
    m = to_matrix(circ)
    assert m.outputs == (MEAS_A, MEAS_X, OUTPUT_OPEN, MEAS_Y, MEAS_Z, OUTPUT_OPEN)
    assert m.inputs == (INIT_A,) * 3 + (INIT_Y,) * 3
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
    rows = ref.matrix_rows(m)
    assert (m.qubit_count, m.cnot_count) == (4, 3)
    assert [len(row) for row in rows] == [5] * 4
    for col in range(m.cnot_count):
        column = [row[col + 1] for row in rows]
        assert column.count(CONTROL) == 1
        assert column.count(TARGET) == 1
        assert set(column) <= {0, CONTROL, TARGET}
        assert m.cnots[col] == (column.index(CONTROL), column.index(TARGET))


@settings(max_examples=200, deadline=None)
@given(icm_circuits())
def test_round_trip(circ):
    m = to_matrix(circ)
    assert (m.qubit_count, m.cnot_count) == (circ.qubit_count, len(circ.gates))
    assert ref.matrix_rows(m) == ref.dense_matrix(circ).tolist()
    back = from_matrix(m)
    assert back.inits == circ.inits
    assert back.meas == circ.meas
    assert back.gates == circ.gates
    assert back.icm


def test_malformed_column_detected():
    # one row holding both roles: the column is not one CNOT
    m = MatrixRep((INPUT_OPEN,) * 2, (OUTPUT_OPEN,) * 2, ((1, 1),))
    with pytest.raises(ValueError):
        from_matrix(m)


def test_decode_names_the_first_malformed_column():
    # column 0 is one CNOT, column 1 has its control as target, column 2
    # a target outside the rows
    codes = (INPUT_OPEN,) * 3, (OUTPUT_OPEN,) * 3
    with pytest.raises(ValueError, match="^malformed CNOT column 1$"):
        from_matrix(MatrixRep(*codes, ((0, 1), (1, 1), (0, 3))))
    with pytest.raises(ValueError, match="^malformed CNOT column 2$"):
        from_matrix(MatrixRep(*codes, ((0, 1), (0, 1), (0, 3))))
    assert from_matrix(MatrixRep(*codes, ((0, 1),))).gates == (cnot(0, 1),)


@pytest.mark.parametrize("cnots,inputs,message", [
    (((0, 1), (2, 2), (1, 1)), 3, "malformed CNOT column 1"),
    (((0, 1), (1, 0), (-1, 2)), 3, "malformed CNOT column 2"),
    (((0, 1), (2, -3), (0, 9)), 3, "malformed CNOT column 1"),
    (((0, 3), (1, 2)), 3, "malformed CNOT column 0"),
    (((0, 1), (2, 1), (1, 3)), 3, "malformed CNOT column 2"),
    (((0, 1),), 2, "input column has 2 codes, output column has 3"),
    (((0, 1),), 4, "input column has 4 codes, output column has 3"),
], ids=["control-is-target", "negative-control", "negative-target", "target-past-rows",
        "last-column-past-rows", "fewer-inputs", "more-inputs"])
def test_malformed_matrices_are_refused(cnots, inputs, message):
    m = MatrixRep((INPUT_OPEN,) * inputs, (OUTPUT_OPEN,) * 3, cnots)
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_matrix(m)
    with pytest.raises(GeometryError, match=f"^{message}$"):
        generate_geometry(m)


@pytest.mark.parametrize("source", [p.read_text() for p in CIRCUITS] + [FOUR_TOFFOLIS],
                         ids=[p.stem for p in CIRCUITS] + ["four-toffolis"])
def test_rows_equal_the_dense_reference(source):
    circ = to_icm(decompose_gates(parse_circuit(source))).circuit
    m = to_matrix(circ)
    assert ref.matrix_rows(m) == ref.dense_matrix(circ).tolist()
    assert from_matrix(m) == circ


def test_long_t_chain_encodes_without_a_dense_matrix():
    # 1 000 T gates on one qubit: 5 001 rows and 6 000 CNOTs, whose dense
    # int64 matrix alone would take 240 MB
    circ = to_icm(decompose_gates(parse_circuit("qubits 1\n" + "t 0\n" * 1000))).circuit
    assert (circ.qubit_count, len(circ.gates)) == (5001, 6000)
    tracemalloc.start()
    try:
        back = from_matrix(to_matrix(circ))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == circ
    assert peak < 8 * 2**20
