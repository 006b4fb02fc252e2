import numpy as np
import pytest
from hypothesis import given, settings

import reference_scans as ref
from conftest import gate_circuits
from tqecsynth.circuit import (
    Circuit, Gate, GateKind, InitBasis, MeasBasis, circuit, cnot, parse_circuit,
)
from tqecsynth.decompose import decompose_gates, toffoli_sequence
from tqecsynth.icm import to_icm
from tqecsynth import sim
from tqecsynth.sim import (
    H_MATRIX, QUBIT_BUDGET, TOFFOLI_MATRIX, MeasurementEvent,
    branch_outputs, check_equivalence, gate_matrix, init_vector, measurement_count,
    random_product_state, run_branches, to_unitary,
)

TOL = 1e-10


def test_paper_gate_matrices():
    assert np.allclose(gate_matrix(GateKind.P), np.diag([1, 1j]))
    assert np.allclose(gate_matrix(GateKind.T), np.diag([1, np.exp(1j * np.pi / 4)]))
    v = gate_matrix(GateKind.V)
    assert np.allclose(v, np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2))


def test_all_matrices_unitary():
    for kind in (GateKind.P, GateKind.PDG, GateKind.T, GateKind.TDG,
                 GateKind.V, GateKind.VDG, GateKind.CNOT):
        u = gate_matrix(kind)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


def test_composite_kinds_rejected():
    with pytest.raises(ValueError):
        gate_matrix(GateKind.H)
    with pytest.raises(ValueError):
        gate_matrix(GateKind.TOFFOLI)


def test_pvp_equals_hadamard():
    pvp = gate_matrix(GateKind.P) @ gate_matrix(GateKind.V) @ gate_matrix(GateKind.P)
    assert np.max(np.abs(pvp - H_MATRIX)) < 1e-12


def test_injected_state_definitions():
    a = init_vector(InitBasis.A)
    y = init_vector(InitBasis.Y)
    assert np.allclose(a, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
    assert np.allclose(y, np.array([1, 1j]) / np.sqrt(2))
    assert abs(np.vdot(a, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)) - 1) < 1e-12


def test_toffoli_sequence_unitary():
    u = to_unitary(circuit(3, toffoli_sequence(0, 1, 2)))
    fid = abs(np.trace(TOFFOLI_MATRIX.conj().T @ u)) / 8
    assert 1 - fid ** 2 < TOL


def test_p_teleport_on_plus_both_branches():
    # P|+> = (|0> + i|1>)/sqrt(2) on each of the two outcome branches
    conv = to_icm(circuit(1, [Gate(GateKind.P, (0,))]))
    plus = np.array([1, 1]) / np.sqrt(2)
    ideal = gate_matrix(GateKind.P) @ plus
    branches = list(run_branches(conv, plus))
    assert len(branches) == 2
    out_row = conv.qubit_rows[0][1]
    for res in branches:
        got = res.frame_corrected([out_row]).reshape(-1)
        assert abs(abs(np.vdot(got, ideal)) ** 2 - 1) < TOL


def test_t_block_on_zero_all_branches():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    zero = np.array([1, 0], dtype=complex)
    out_row = conv.qubit_rows[0][1]
    count = 0
    for res in run_branches(conv, zero):
        got = res.frame_corrected([out_row]).reshape(-1)
        assert abs(abs(np.vdot(got, zero)) ** 2 - 1) < TOL
        count += 1
    assert count >= 2


def test_t_block_on_plus_exhaustive_branches():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    plus = np.array([1, 1]) / np.sqrt(2)
    ideal = gate_matrix(GateKind.T) @ plus
    out_row = conv.qubit_rows[0][1]
    seen_patterns = set()
    for res in run_branches(conv, plus):
        got = res.frame_corrected([out_row]).reshape(-1)
        assert abs(abs(np.vdot(got, ideal)) ** 2 - 1) < TOL
        seen_patterns.add(res.log[0].effective)
    assert seen_patterns == {0, 1}  # both measurement patterns exercised


@pytest.mark.parametrize("kind", ["p", "pdg", "v", "vdg", "t", "tdg"])
def test_every_template_reproduces_its_gate(kind):
    plain = circuit(1, [Gate(GateKind(kind), (0,))])
    assert check_equivalence(plain, to_icm(plain), trials=4, seed=3) < TOL


def test_equivalence_reflexive():
    circ = circuit(2, [cnot(0, 1), Gate(GateKind.T, (0,))])
    assert check_equivalence(circ, circ, trials=3, seed=1) < 1e-12


def test_equivalence_h_vs_pvp_circuits():
    h = circuit(1, [Gate(GateKind.H, (0,))])
    pvp = decompose_gates(h)
    assert check_equivalence(h, pvp, trials=6, seed=2) < TOL


def test_equivalence_toffoli_vs_network_circuits():
    tof = circuit(3, [Gate(GateKind.TOFFOLI, (0, 1, 2))])
    seq = circuit(3, toffoli_sequence(0, 1, 2))
    assert check_equivalence(tof, seq, trials=6, seed=2) < TOL


def test_equivalence_arity_mismatch():
    with pytest.raises(ValueError):
        check_equivalence(circuit(1), circuit(2), trials=1)


def test_qubit_budget_enforced():
    with pytest.raises(ValueError):
        check_equivalence(circuit(13), circuit(13), trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_equivalence_needs_a_trial(trials):
    # zero trials would compare nothing and report a vacuous 0.0
    circ = circuit(1, [Gate(GateKind.T, (0,))])
    with pytest.raises(ValueError, match="trials"):
        check_equivalence(circ, to_icm(circ), trials=trials)


def test_zero_probability_outcome_is_not_a_branch():
    # Z measurement of |0> can never yield 1
    conv = to_icm(Circuit(1, (InitBasis.ZERO,), (), (MeasBasis.Z,), icm=True))
    branches = list(run_branches(conv, None))
    assert [res.log for res in branches] == [(MeasurementEvent(0, MeasBasis.Z, 0, 0),)]
    assert [res.measured for res in branches] == [{0: 0}]


def test_norm_preserved_across_branches():
    conv = to_icm(decompose_gates(circuit(1, [Gate(GateKind.H, (0,))])))
    rng = np.random.default_rng(11)
    inp = random_product_state(1, rng)
    for res in run_branches(conv, inp):
        assert abs(np.linalg.norm(res.state.reshape(-1)) - 1) < 1e-12


def test_two_t_blocks_through_cnot_exhaustive():
    # heaviest exhaustive case inside the budget: 12 rows, 1024 branches
    circ = circuit(2, [Gate(GateKind.T, (0,)), cnot(0, 1), Gate(GateKind.TDG, (1,))])
    conv = to_icm(circ)
    assert conv.circuit.qubit_count == 12
    assert measurement_count(conv) == 10
    assert check_equivalence(circ, conv, trials=2, seed=21) < TOL


@settings(max_examples=20, deadline=None)
@given(gate_circuits(max_qubits=2, max_gates=4))
def test_random_circuits_icm_equivalent(circ):
    conv = to_icm(decompose_gates(circ))
    if conv.circuit.qubit_count > 12:
        return
    assert check_equivalence(circ, conv, trials=2, seed=5) < TOL


def test_equivalence_is_exhaustive_beyond_the_walk_cap():
    # 12 rows and 11 measurements: 2**11 branches, every one scored
    source = "qubits 1\nt 0\ntdg 0\np 0\n"
    circ = parse_circuit(source)
    conv = to_icm(decompose_gates(circ))
    assert conv.circuit.qubit_count == 12
    assert 2 ** measurement_count(conv) > ref.EXHAUSTIVE_BRANCH_CAP
    assert check_equivalence(circ, conv, trials=2, seed=5) < TOL
    swapped = to_icm(decompose_gates(parse_circuit(source.replace("\nt ", "\ntdg "))))
    assert check_equivalence(circ, swapped, trials=1, seed=5) > 1e-3


def test_equivalence_rejects_measured_outputs():
    # Measured outcomes are never compared, so a T -> T-dagger swap ahead of an
    # X measurement would score ~1e-15; both sides must refuse instead.
    source = "qubits 1\nmeasure 0 x\nt 0\ntdg 0\n"
    circ = parse_circuit(source)
    conv = to_icm(decompose_gates(circ))
    swapped = to_icm(decompose_gates(parse_circuit(source.replace("\nt ", "\ntdg "))))
    for a, b in ((conv, swapped), (circ, conv), (conv, circ)):
        with pytest.raises(ValueError, match="logical qubit 0 has a measured output"):
            check_equivalence(a, b, trials=1)


def replay(conv, inp):
    """Every branch from the from-scratch replay, its cap lifted to any conversion."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ref, "EXHAUSTIVE_BRANCH_CAP", 2 ** QUBIT_BUDGET)
        return list(ref.run_branches(conv, inp))


def assert_branch_outputs_match_walk(conv, inp):
    """``branch_outputs`` gives the replay's branches, in order, as unit vectors."""
    want_branches = replay(conv, inp)
    got = branch_outputs(conv, inp)
    assert got.shape[0] == len(want_branches)
    # raw outcomes read as a binary number, first measurement most significant
    order = [sum(e.raw << (len(r.log) - 1 - i) for i, e in enumerate(r.log))
             for r in want_branches]
    run = sim._deferred(conv, inp)
    assert order == np.flatnonzero(run.by_branch(run.feasible)).tolist()
    rows = sim._output_rows(conv)
    want = np.array([r.frame_corrected(rows).reshape(-1) for r in want_branches])
    # The replay renormalises by 1 - p at every measurement, so its norms
    # drift by up to about 1e-12; compare directions.
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.allclose(np.linalg.norm(got, axis=1), 1, atol=1e-12)
    overlap = np.abs(np.sum(want.conj() * got, axis=1)) ** 2
    assert overlap.min() >= 1 - 1e-12
    return got


@settings(max_examples=20, deadline=None)
@given(gate_circuits(max_qubits=2, max_gates=4))
def test_branch_outputs_match_walk_on_random_circuits(circ):
    conv = to_icm(decompose_gates(circ))
    if conv.circuit.qubit_count > 12:
        return
    k = len(circ.open_inputs())
    zero = np.zeros(2 ** k, dtype=complex)
    zero[0] = 1
    for inp in (zero, random_product_state(k, np.random.default_rng(5))):
        assert_branch_outputs_match_walk(conv, inp)


def test_branch_outputs_match_walk_on_two_t_blocks():
    circ = circuit(2, [Gate(GateKind.T, (0,)), cnot(0, 1), Gate(GateKind.TDG, (1,))])
    conv = to_icm(circ)
    inp = random_product_state(2, np.random.default_rng(21))
    assert len(assert_branch_outputs_match_walk(conv, inp)) == 1024


@pytest.mark.parametrize("source,branches", [
    ("qubits 1\nmeasure 0 x\nt 0\ntdg 0\n", 2 ** 11),
    ("qubits 2\nmeasure 0 z\nmeasure 1 x\nt 0\ncnot 0 1\nvdg 1\n", 256),
])
def test_branch_outputs_match_walk_with_measured_outputs(source, branches):
    circ = parse_circuit(source)
    conv = to_icm(decompose_gates(circ))
    inp = random_product_state(circ.qubit_count, np.random.default_rng(4))
    assert len(assert_branch_outputs_match_walk(conv, inp)) == branches


def assert_walk_matches_replay(conv, inp):
    """``run_branches`` gives the replay's branches in order: the same log,
    frame and outcomes, and states equal up to rounding.

    The view normalises each branch once where the replay divides at every
    measurement, so the states differ in the last bits (about 1e-12).
    """
    got = list(run_branches(conv, inp))
    want = replay(conv, inp)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.log == b.log
        assert a.frame == b.frame
        assert list(a.measured.items()) == list(b.measured.items())
        np.testing.assert_allclose(a.state, b.state, rtol=0, atol=1e-11)
    assert measurement_count(conv) == ref.measurement_count(conv)
    return got


@pytest.mark.parametrize("kind", ["p", "pdg", "v", "vdg", "t", "tdg"])
def test_walk_matches_replay_on_every_template(kind):
    conv = to_icm(circuit(1, [Gate(GateKind(kind), (0,))]))
    zero = np.array([1, 0], dtype=complex)
    for inp in (zero, random_product_state(1, np.random.default_rng(13))):
        assert assert_walk_matches_replay(conv, inp)


def test_walk_matches_replay_on_two_t_blocks():
    circ = circuit(2, [Gate(GateKind.T, (0,)), cnot(0, 1), Gate(GateKind.TDG, (1,))])
    conv = to_icm(circ)
    inp = random_product_state(2, np.random.default_rng(21))
    assert len(assert_walk_matches_replay(conv, inp)) == 1024


@pytest.mark.parametrize("source,branches", [
    ("qubits 1\nmeasure 0 x\nt 0\ntdg 0\n", 2 ** 11),
    ("qubits 2\nmeasure 0 z\nmeasure 1 x\nt 0\ncnot 0 1\nvdg 1\n", 256),
])
def test_walk_matches_replay_with_measured_outputs(source, branches):
    circ = parse_circuit(source)
    conv = to_icm(decompose_gates(circ))
    inp = random_product_state(circ.qubit_count, np.random.default_rng(4))
    assert len(assert_walk_matches_replay(conv, inp)) == branches


@settings(max_examples=20, deadline=None)
@given(gate_circuits(max_qubits=2, max_gates=4))
def test_walk_matches_replay_on_random_circuits(circ):
    conv = to_icm(decompose_gates(circ))
    if conv.circuit.qubit_count > 12:
        return
    inp = random_product_state(len(circ.open_inputs()), np.random.default_rng(5))
    assert_walk_matches_replay(conv, inp)
