from collections import Counter

from hypothesis import given, settings

from conftest import gate_circuits
from tqecsynth.circuit import Gate, GateKind, NATIVE_KINDS, circuit, cnot, parse_circuit
from tqecsynth.decompose import decompose_gates, decomposition_for, toffoli_sequence


def kinds(circ):
    return Counter(g.kind for g in circ.gates)


def test_hadamard_becomes_pvp():
    out = decompose_gates(circuit(1, [Gate(GateKind.H, (0,))]))
    assert [g.kind for g in out.gates] == [GateKind.P, GateKind.V, GateKind.P]
    assert all(g.qubits == (0,) for g in out.gates)


def test_native_circuit_unchanged():
    circ = parse_circuit("qubits 2\ncnot 0 1\nt 0\npdg 1\nvdg 0\n")
    out = decompose_gates(circ)
    assert out.gates == circ.gates


def test_toffoli_gate_counts():
    # seven T-type gates, one P, two Hadamards (as P,V,P), six CNOTs
    out = decompose_gates(circuit(3, [Gate(GateKind.TOFFOLI, (0, 1, 2))]))
    counts = kinds(out)
    assert counts[GateKind.CNOT] == 6
    assert counts[GateKind.T] + counts[GateKind.TDG] == 7
    assert counts[GateKind.V] == 2
    assert counts[GateKind.P] == 5  # 1 explicit + 2 per expanded Hadamard
    assert len(out.gates) == 20


def test_toffoli_sequence_structure():
    seq = toffoli_sequence(0, 1, 2)
    counts = Counter(g.kind for g in seq)
    assert counts[GateKind.H] == 2
    assert counts[GateKind.CNOT] == 6
    assert counts[GateKind.T] + counts[GateKind.TDG] == 7
    assert counts[GateKind.P] == 1
    assert seq[0] == Gate(GateKind.H, (2,))
    assert seq[1] == cnot(1, 2)


def test_gate_order_preserved_around_expansion():
    circ = circuit(2, [cnot(0, 1), Gate(GateKind.H, (0,)), Gate(GateKind.T, (1,))])
    out = decompose_gates(circ)
    assert out.gates[0] == cnot(0, 1)
    assert [g.kind for g in out.gates[1:4]] == [GateKind.P, GateKind.V, GateKind.P]
    assert out.gates[4] == Gate(GateKind.T, (1,))


def test_decomposition_records():
    rule = decomposition_for(Gate(GateKind.H, (1,)))
    assert [g.kind for g in rule] == [GateKind.P, GateKind.V, GateKind.P]
    native = decomposition_for(cnot(0, 1))
    assert native == [cnot(0, 1)]


@settings(max_examples=100, deadline=None)
@given(gate_circuits())
def test_output_is_always_native(circ):
    out = decompose_gates(circ)
    assert all(g.kind in NATIVE_KINDS for g in out.gates)
    assert out.qubit_count == circ.qubit_count
