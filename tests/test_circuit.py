import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqecsynth.circuit import (
    MAX_QUBITS, Circuit, Gate, GateKind, InitBasis, MeasBasis, ParseError,
    circuit, cnot, parse_circuit, toffoli, validate_circuit,
)


def test_parse_trivial_single_qubit():
    circ = parse_circuit("qubits 1\ninit 0 plus\nmeasure 0 x\n")
    assert circ.qubit_count == 1
    assert circ.gates == ()
    assert circ.inits == (InitBasis.PLUS,)
    assert circ.meas == (MeasBasis.X,)


def test_parse_toffoli_statement():
    circ = parse_circuit("qubits 3\ntoffoli 0 1 2\n")
    assert circ.gates == (toffoli(0, 1, 2),)


def test_parse_two_cnot_circuit():
    # three qubits, cnot 0->1 then cnot 2->1, all ports configurable
    circ = parse_circuit("qubits 3\ncnot 0 1\ncnot 2 1\n")
    assert circ.qubit_count == 3
    assert circ.gates == (cnot(0, 1), cnot(2, 1))
    assert all(b is InitBasis.OPEN for b in circ.inits)
    assert all(b is MeasBasis.OPEN for b in circ.meas)


def test_parse_defaults_comments_and_blank_lines():
    src = """
    # a comment
    qubits 2

    t 0   # trailing comment
    init 1 y
    measure 1 x
    """
    circ = parse_circuit(src)
    assert circ.gates == (Gate(GateKind.T, (0,)),)
    assert circ.inits == (InitBasis.OPEN, InitBasis.Y)
    assert circ.meas == (MeasBasis.OPEN, MeasBasis.X)


@pytest.mark.parametrize("src,fragment", [
    ("t 0\n", "first statement"),
    ("qubits 1\nqubits 2\n", "duplicate qubit declaration"),
    ("qubits 1\ninit 0 y\ninit 0 a\n", "duplicate init"),
    ("qubits 1\nfrobnicate 0\n", "unknown statement"),
    ("qubits 1\nt 3\n", "outside 0..0"),
    ("qubits 2\ncnot 1 1\n", "control equals target"),
    ("qubits 3\ntoffoli 0 0 2\n", "pairwise distinct"),
    ("qubits 1\ninit 0 sideways\n", "unknown init basis"),
    ("qubits x\n", "expected a qubit count"),
    ("", "missing 'qubits N'"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(ParseError) as err:
        parse_circuit(src)
    assert fragment in str(err.value)


def test_parse_accepts_the_qubit_bound():
    circ = parse_circuit(f"qubits {MAX_QUBITS}\nt {MAX_QUBITS - 1}\n")
    assert circ.qubit_count == MAX_QUBITS
    assert len(circ.inits) == len(circ.meas) == MAX_QUBITS


@pytest.mark.parametrize("count", [MAX_QUBITS + 1, 99999999999999])
def test_parse_rejects_qubit_count_above_bound(count):
    with pytest.raises(ParseError, match=f"must not exceed {MAX_QUBITS}") as err:
        parse_circuit(f"# header\n  qubits {count}\n")
    assert (err.value.line, err.value.column) == (2, 10)


statement_words = st.sampled_from(
    ["qubits", "init", "measure", "cnot", "toffoli", "t", "tdg", "p", "pdg", "v",
     "vdg", "h", "zero", "plus", "y", "a", "open", "z", "x", "#", "-1", "0", "1", "2"])
qubit_counts = (st.integers(-2, 4) | st.integers(MAX_QUBITS - 1, MAX_QUBITS + 1)
                | st.integers(10**12, 10**20)).map(str)
source_lines = (st.lists(statement_words | qubit_counts, max_size=4).map(" ".join)
                | st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(source_lines, max_size=6).map("\n".join),
    st.tuples(qubit_counts, st.lists(source_lines, max_size=6)).map(
        lambda t: "\n".join([f"qubits {t[0]}", *t[1]])),
))
def test_parse_any_text_raises_only_parse_errors(text):
    try:
        circ = parse_circuit(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
    else:
        assert 1 <= circ.qubit_count <= MAX_QUBITS


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 2\ncnot 0 5\n")
    assert err.value.line == 2
    assert err.value.column == 8


def test_validate_clean_circuit():
    circ = parse_circuit("qubits 3\ncnot 0 1\ncnot 2 1\n")
    assert validate_circuit(circ) == []


def test_validate_control_equals_target():
    circ = circuit(2, [Gate(GateKind.CNOT, (0, 0))])
    diags = validate_circuit(circ)
    assert len(diags) == 1
    assert diags[0].rule == "control-equals-target"
    assert diags[0].gate_index == 0


def test_validate_out_of_range_qubit():
    circ = circuit(3, [Gate(GateKind.T, (5,))])
    diags = validate_circuit(circ)
    assert len(diags) == 1
    assert diags[0].rule == "qubit-range"
    assert diags[0].qubit == 5


def test_validate_icm_rejects_non_cnot():
    circ = Circuit(1, (InitBasis.OPEN,), (Gate(GateKind.T, (0,)),),
                   (MeasBasis.OPEN,), icm=True)
    assert any(d.rule == "icm-gate" for d in validate_circuit(circ))


def test_validate_injection_open_output_user_circuit():
    circ = circuit(1, inits={0: InitBasis.A})
    assert any(d.rule == "injection-open-output" for d in validate_circuit(circ))


def test_validate_injection_open_output_allowed_in_icm():
    # teleport chains legitimately end on ancilla rows in ICM form
    circ = Circuit(1, (InitBasis.Y,), (), (MeasBasis.OPEN,), icm=True)
    assert validate_circuit(circ) == []


def test_gate_arity_enforced():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (0,))
    with pytest.raises(ValueError):
        Gate(GateKind.T, (0, 1))
