import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from conftest import gate_circuits
from tqecsynth.circuit import (
    Gate, GateKind, InitBasis, MeasBasis, circuit, cnot, parse_circuit, validate_circuit,
)
from tqecsynth.decompose import decompose_gates
from tqecsynth.icm import cnot_spans, select_pattern, template_for, to_icm

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SOURCES = {path.stem: path.read_text() for path in sorted((ROOT / "circuits").glob("*.tq"))}
SOURCES.update({f"{n} toffolis": workloads.toffoli_source(random.Random(1), n, 6)
                for n in (1, 4, 16)})


def test_p_gate_block_shape():
    conv = to_icm(circuit(1, [Gate(GateKind.P, (0,))]))
    circ = conv.circuit
    assert circ.qubit_count == 2
    assert len(circ.gates) == 1
    assert circ.inits == (InitBasis.OPEN, InitBasis.Y)
    assert circ.meas == (MeasBasis.Z, MeasBasis.OPEN)
    assert circ.gates[0] == cnot(1, 0)  # ancilla controls, wire is target


def test_v_gate_block_shape():
    conv = to_icm(circuit(1, [Gate(GateKind.V, (0,))]))
    circ = conv.circuit
    assert circ.gates[0] == cnot(0, 1)  # wire controls, ancilla is target
    assert circ.meas == (MeasBasis.X, MeasBasis.OPEN)


def test_t_gate_selective_block_shape():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    circ = conv.circuit
    assert circ.qubit_count == 6
    assert len(circ.gates) == 6
    assert circ.inits == (InitBasis.OPEN, InitBasis.A, InitBasis.ZERO,
                          InitBasis.Y, InitBasis.PLUS, InitBasis.ZERO)
    # default (correction-path) measurements on the wire and pattern rows
    assert circ.meas == (MeasBasis.Z, MeasBasis.Z, MeasBasis.X,
                         MeasBasis.X, MeasBasis.Z, MeasBasis.OPEN)
    assert circ.gates == (cnot(1, 0), cnot(1, 2), cnot(3, 1),
                          cnot(4, 2), cnot(3, 5), cnot(4, 5))
    (inst,) = conv.instances
    assert inst.selective
    assert inst.injections == ((1, InitBasis.A), (3, InitBasis.Y))


def test_hadamard_chain_three_y_ancillae():
    conv = to_icm(decompose_gates(circuit(1, [Gate(GateKind.H, (0,))])))
    circ = conv.circuit
    assert circ.qubit_count == 4
    assert len(circ.gates) == 3
    assert circ.inits == (InitBasis.OPEN, InitBasis.Y, InitBasis.Y, InitBasis.Y)
    # P then V then P teleports walking down the rows
    assert circ.gates == (cnot(1, 0), cnot(1, 2), cnot(3, 2))
    assert circ.meas == (MeasBasis.Z, MeasBasis.X, MeasBasis.Z, MeasBasis.OPEN)


def test_icm_output_is_structurally_icm():
    conv = to_icm(decompose_gates(circuit(3, [Gate(GateKind.TOFFOLI, (0, 1, 2))])))
    assert conv.circuit.icm
    assert all(g.kind is GateKind.CNOT for g in conv.circuit.gates)
    assert not [d for d in validate_circuit(conv.circuit)]


def test_toffoli_ancilla_accounting():
    conv = to_icm(decompose_gates(circuit(3, [Gate(GateKind.TOFFOLI, (0, 1, 2))])))
    injections = [(row, state) for inst in conv.instances for row, state in inst.injections]
    a_count = sum(1 for _, s in injections if s is InitBasis.A)
    y_count = sum(1 for _, s in injections if s is InitBasis.Y)
    assert a_count == 7
    assert y_count == 14
    assert len(injections) == 21


def test_rejects_undcomposed_gates():
    with pytest.raises(ValueError):
        to_icm(circuit(1, [Gate(GateKind.H, (0,))]))


def test_select_pattern_correction_and_plain():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    (inst,) = conv.instances
    rows = inst.rows
    with_corr = select_pattern(inst, 1)
    assert with_corr == {rows[0]: MeasBasis.Z, rows[1]: MeasBasis.Z,
                         rows[2]: MeasBasis.X, rows[3]: MeasBasis.X,
                         rows[4]: MeasBasis.Z}
    plain = select_pattern(inst, 0)
    assert plain == {rows[0]: MeasBasis.Z, rows[1]: MeasBasis.X,
                     rows[2]: MeasBasis.Z, rows[3]: MeasBasis.Z,
                     rows[4]: MeasBasis.X}


def test_select_pattern_rejects_non_selective():
    conv = to_icm(circuit(1, [Gate(GateKind.P, (0,))]))
    (inst,) = conv.instances
    with pytest.raises(ValueError):
        select_pattern(inst, 0)


def test_templates_have_single_unmeasured_output():
    for kind in (GateKind.P, GateKind.PDG, GateKind.V, GateKind.VDG,
                 GateKind.T, GateKind.TDG):
        tpl = template_for(kind)
        measured = {loc for pattern in tpl.measurement_patterns for loc, _ in pattern}
        assert tpl.output_qubit not in measured
        assert tpl.output_qubit == len(tpl.ancilla_inits)  # the wire ends its qubit's run
        assert tpl.selective == (kind in (GateKind.T, GateKind.TDG))
        assert len(tpl.measurement_patterns) == (2 if tpl.selective else 1)


def test_monotone_row_growth_per_qubit():
    # successive gates on one wire walk monotonically down the rows
    circ = circuit(1, [Gate(GateKind.P, (0,)), Gate(GateKind.V, (0,)),
                       Gate(GateKind.T, (0,))])
    conv = to_icm(circ)
    sources = [inst.source_row for inst in conv.instances]
    outputs = [inst.output_row for inst in conv.instances]
    assert sources[0] < outputs[0] == sources[1] < outputs[1] == sources[2] < outputs[2]
    assert conv.qubit_rows[0] == (sources[0], outputs[2])


@settings(max_examples=100, deadline=None)
@given(gate_circuits())
def test_ancilla_accounting_matches_gate_counts(circ):
    native = decompose_gates(circ)
    conv = to_icm(native)
    t_like = sum(1 for g in native.gates if g.kind in (GateKind.T, GateKind.TDG))
    rot = sum(1 for g in native.gates
              if g.kind in (GateKind.P, GateKind.PDG, GateKind.V, GateKind.VDG))
    a_count = sum(1 for i in conv.instances for _, s in i.injections if s is InitBasis.A)
    y_count = sum(1 for i in conv.instances for _, s in i.injections if s is InitBasis.Y)
    assert a_count == t_like
    assert y_count == rot + t_like
    assert all(g.kind is GateKind.CNOT for g in conv.circuit.gates)


def assert_runs_tile(conv):
    """Each qubit's run follows the previous one, and its blocks stay inside it."""
    starts = [start for start, _ in conv.qubit_rows]
    ends = [end for _, end in conv.qubit_rows]
    assert starts == [0] + [end + 1 for end in ends[:-1]]
    assert ends[-1] == conv.circuit.qubit_count - 1
    for inst in conv.instances:
        start, end = conv.qubit_rows[inst.qubit]
        assert start <= min(inst.rows) and max(inst.rows) <= end


@pytest.mark.parametrize("name", SOURCES)
def test_to_icm_matches_reference_on_circuits_and_rungs(name):
    native = decompose_gates(parse_circuit(SOURCES[name]))
    conv = to_icm(native)
    assert conv == ref.to_icm(native)
    assert_runs_tile(conv)


@settings(max_examples=150, deadline=None)
@given(gate_circuits(), st.data())
def test_to_icm_matches_reference(circ, data):
    n = circ.qubit_count
    circ = replace(
        circ,
        inits=tuple(data.draw(st.lists(st.sampled_from(InitBasis), min_size=n, max_size=n))),
        meas=tuple(data.draw(st.lists(st.sampled_from(MeasBasis), min_size=n, max_size=n))))
    native = decompose_gates(circ)
    conv = to_icm(native)
    assert conv == ref.to_icm(native)
    assert_runs_tile(conv)


def test_runs_follow_qubit_order_not_gate_order():
    # qubit 1 is acted on first, yet its rows follow all of qubit 0's
    conv = to_icm(circuit(2, [Gate(GateKind.P, (1,)), Gate(GateKind.T, (0,)),
                              cnot(0, 1), Gate(GateKind.V, (1,))]))
    assert conv.qubit_rows == ((0, 5), (6, 8))
    assert [inst.rows for inst in conv.instances] == [(6, 7), (0, 1, 2, 3, 4, 5), (7, 8)]
    assert conv.circuit.gates[7] == cnot(5, 7)
    assert_runs_tile(conv)


def test_cnot_spans_are_each_rows_first_and_last_columns():
    circ = parse_circuit("qubits 4\ncnot 0 1\ncnot 2 1\ncnot 0 2\n")
    assert cnot_spans(circ) == [(0, 2), (0, 1), (1, 2), None]
