import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from conftest import gate_circuits
from tqecsynth.circuit import (
    Circuit, Gate, GateKind, InitBasis, MeasBasis, circuit, cnot, parse_circuit,
)
from tqecsynth.decompose import decompose_gates, toffoli_sequence
from tqecsynth.icm import IcmConversion, TemplateInstance, to_icm
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
    rows = [r for r in sim._ends(conv)[2] if conv.circuit.meas[r] is MeasBasis.OPEN]
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


# -- the trial axis: one pass per side for every trial of a chunk --------------

# 150 trials span three chunks of a 6-row template (64 trials each); an
# 11-row conversion takes 2 trials a chunk.
TRIAL_COUNTS = (1, 4, 8, 150)
SEEDS = (3, 11)
KINDS = ("p", "pdg", "v", "vdg", "t", "tdg")
SWAP = {"p": "pdg", "pdg": "p", "v": "vdg", "vdg": "v", "t": "tdg", "tdg": "t"}


def assert_matches_trial_loop(a, b, trials, seed):
    """The batched check gives the per-trial loop's value and verdict."""
    got = check_equivalence(a, b, trials=trials, seed=seed)
    want = ref.check_equivalence(a, b, trials=trials, seed=seed)
    assert abs(got - want) <= 1e-15
    assert (got < TOL) == (want < TOL)
    return got


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("trials", TRIAL_COUNTS)
def test_batched_check_matches_trial_loop_on_every_template(kind, trials):
    plain = circuit(1, [Gate(GateKind(kind), (0,))])
    conv = to_icm(plain)
    swapped = to_icm(circuit(1, [Gate(GateKind(SWAP[kind]), (0,))]))
    for seed in SEEDS:
        assert assert_matches_trial_loop(plain, conv, trials, seed) < TOL
        assert assert_matches_trial_loop(conv, plain, trials, seed) < TOL
        # the wrong template's infidelity depends on every input drawn
        assert assert_matches_trial_loop(plain, swapped, trials, seed) > 1e-3


@settings(max_examples=15, deadline=None)
@given(gate_circuits(max_qubits=2, max_gates=4))
def test_batched_check_matches_trial_loop_on_random_circuits(circ):
    conv = to_icm(decompose_gates(circ))
    if conv.circuit.qubit_count > 12:
        return
    for trials in (1, 4, 8):
        for seed in SEEDS:
            assert assert_matches_trial_loop(circ, conv, trials, seed) < TOL


def oracle_source(rng, t_kind: str) -> str:
    """A two-qubit circuit of one T-type gate and six small gates, shuffled."""
    kinds = [t_kind, "p", "pdg", "v", "vdg", "cnot", "cnot"]
    rng.shuffle(kinds)
    lines = ["qubits 2"]
    for kind in kinds:
        if kind == "cnot":
            lines.append("cnot {} {}".format(*rng.sample(range(2), 2)))
        else:
            lines.append(f"{kind} {rng.randrange(2)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", range(4))
def test_batched_check_matches_trial_loop_on_oracle_circuits(k):
    source = oracle_source(random.Random(k), "t" if k % 2 == 0 else "tdg")
    circ = parse_circuit(source)
    conv = to_icm(decompose_gates(circ))
    assert conv.circuit.qubit_count <= 12
    swap = {"\nt ": "\ntdg ", "\ntdg ": "\nt "}
    old = next(key for key in swap if key in source)
    wrong = to_icm(decompose_gates(parse_circuit(source.replace(old, swap[old]))))
    for trials in (1, 4, 8):
        for seed in SEEDS:
            assert assert_matches_trial_loop(circ, conv, trials, seed) < TOL
            assert assert_matches_trial_loop(circ, wrong, trials, seed) > 1e-3


def record_passes(monkeypatch):
    """The (2,)*n + (T,) shape of every state the simulator assembles."""
    shapes = []
    assemble = sim.assemble_state

    def recording(*args, **kwargs):
        state = assemble(*args, **kwargs)
        shapes.append(state.shape)
        return state

    monkeypatch.setattr(sim, "assemble_state", recording)
    return shapes


@pytest.mark.parametrize("kind,trials,passes", [
    ("t", 150, 3), ("t", 64, 1), ("t", 65, 2), ("p", 200, 1),
])
def test_trials_go_through_in_bounded_chunks(monkeypatch, kind, trials, passes):
    plain = circuit(1, [Gate(GateKind(kind), (0,))])
    conv = to_icm(plain)
    rows = conv.circuit.qubit_count
    chunk = max(1, 2 ** QUBIT_BUDGET // 2 ** rows)
    shapes = record_passes(monkeypatch)
    check_equivalence(plain, conv, trials=trials, seed=3)
    # each side takes one pass per chunk; the chunks cover every trial once
    assert len(shapes) == 2 * passes
    assert sum(shape[-1] for shape in shapes) == 2 * trials
    assert max(np.prod(shape) for shape in shapes) <= 2 ** QUBIT_BUDGET
    assert all(shape[-1] <= chunk for shape in shapes)


@pytest.mark.parametrize("kind,chunk", [("t", 4), ("v", 1024)])
def test_two_conversions_bound_the_overlap_too(monkeypatch, kind, chunk):
    # t: 6 rows and 5 measurements a side, so 2**10 branch pairs per trial
    # and 4 trials per pass; v: 2 rows and 1 measurement a side
    conv = to_icm(circuit(1, [Gate(GateKind(kind), (0,))]))
    pairs = 4 ** measurement_count(conv)
    assert chunk == max(1, 2 ** QUBIT_BUDGET // max(pairs, 2 ** conv.circuit.qubit_count))
    shapes = record_passes(monkeypatch)
    assert check_equivalence(conv, conv, trials=2 * chunk, seed=3) < TOL
    assert [shape[-1] for shape in shapes] == [chunk] * 4


def test_twelve_rows_run_one_trial_at_a_time(monkeypatch):
    circ = circuit(2, [Gate(GateKind.T, (0,)), cnot(0, 1), Gate(GateKind.TDG, (1,))])
    conv = to_icm(circ)
    shapes = record_passes(monkeypatch)
    check_equivalence(circ, conv, trials=3, seed=21)
    assert [shape[-1] for shape in shapes] == [1] * 6
    assert max(np.prod(shape) for shape in shapes) == 2 ** QUBIT_BUDGET


def test_closed_inputs_are_simulated_once(monkeypatch):
    # no open input: every trial sees the same state, so one trial stands
    # for all of them
    circ = Circuit(2, (InitBasis.ZERO, InitBasis.PLUS),
                   (Gate(GateKind.T, (1,)), cnot(1, 0), Gate(GateKind.H, (0,))),
                   (MeasBasis.OPEN, MeasBasis.OPEN))
    conv = to_icm(decompose_gates(circ))
    want = ref.check_equivalence(circ, conv, trials=5, seed=2)
    shapes = record_passes(monkeypatch)
    assert check_equivalence(circ, conv, trials=5, seed=2) == want < TOL
    assert [shape[-1] for shape in shapes] == [1, 1]


@pytest.mark.parametrize("source", [
    "qubits 1\nmeasure 0 z\np 0\n",
    "qubits 2\nmeasure 0 z\nt 0\ncnot 0 1\nvdg 1\n",
])
def test_feasibility_is_per_trial(source):
    # The measured output's outcome follows the input: |0> and |1> in one
    # batch must each keep their own branches, as if run alone.
    circ = parse_circuit(source)
    conv = to_icm(decompose_gates(circ))
    k = len(circ.open_inputs())
    basis = np.eye(2 ** k, dtype=complex)
    inputs = basis[:, [0, 2 ** (k - 1)]]        # qubit 0 in |0> and in |1>
    run = sim._deferred(conv, inputs)
    outputs, feasible = sim._trial_outputs(conv, inputs)
    branch_sets = []
    for t in range(2):
        alone = sim._deferred(conv, inputs[:, t])
        want = np.flatnonzero(alone.by_branch(alone.feasible)[0])
        assert np.flatnonzero(run.by_branch(run.feasible)[t]).tolist() == want.tolist()
        assert np.flatnonzero(feasible[t]).tolist() == want.tolist()
        np.testing.assert_array_equal(outputs[t, feasible[t]],
                                      branch_outputs(conv, inputs[:, t]))
        assert len(replay(conv, inputs[:, t])) == len(want)
        branch_sets.append(want.tolist())
    assert branch_sets[0] != branch_sets[1]


@pytest.mark.parametrize("kind", ["t", "v"])
def test_infeasible_branches_are_not_scored(monkeypatch, kind):
    # Teleported outcomes are uniform, so every branch of an open-output
    # conversion is feasible; add a zero-weight branch to every trial to see
    # that the mask, not the vector, decides what is scored.
    plain = circuit(1, [Gate(GateKind(kind), (0,))])
    conv = to_icm(plain)
    want = check_equivalence(plain, conv, trials=8, seed=3)
    outputs = sim._trial_outputs

    def with_dead_branch(*args):
        out, ok = outputs(*args)
        trials, _, dim = out.shape
        return (np.concatenate([out, np.zeros((trials, 1, dim))], axis=1),
                np.concatenate([ok, np.zeros((trials, 1), dtype=bool)], axis=1))

    monkeypatch.setattr(sim, "_trial_outputs", with_dead_branch)
    assert check_equivalence(plain, conv, trials=8, seed=3) == want < TOL
    assert check_equivalence(conv, conv, trials=8, seed=3) < TOL


def test_assemble_state_trial_axis():
    inits = (InitBasis.OPEN, InitBasis.ZERO, InitBasis.OPEN)
    rng = np.random.default_rng(9)
    inputs = np.stack([random_product_state(2, rng).reshape(-1) for _ in range(3)], axis=1)
    for rows in ([0, 2], [2, 0]):
        batch = sim.assemble_state(inits, rows, inputs)
        assert batch.shape == (2, 2, 2, 3)
        for t in range(3):
            np.testing.assert_array_equal(batch[..., t],
                                          sim.assemble_state(inits, rows, inputs[:, t])[..., 0])
            # row 1 is |0>; input qubit p goes onto rows[p], whatever their order
            np.testing.assert_array_equal(batch[:, 1, :, t], 0)
            want = inputs[:, t].reshape(2, 2)
            np.testing.assert_array_equal(batch[:, 0, :, t], want if rows == [0, 2] else want.T)
    closed = sim.assemble_state((InitBasis.PLUS,), [], None)
    assert closed.shape == (2, 1)


def test_to_unitary_across_chunks():
    # 7 qubits: 128 basis columns in chunks of 32
    gates = [Gate(GateKind.H, (q,)) for q in range(7)]
    gates += [cnot(q, q + 1) for q in range(6)] + [Gate(GateKind.T, (3,)), Gate(GateKind.V, (6,))]
    circ = circuit(7, gates)
    u = to_unitary(circ)
    for col in (0, 31, 32, 127):
        basis = np.zeros(128, dtype=complex)
        basis[col] = 1
        np.testing.assert_allclose(u[:, col], sim.simulate_plain(circ, basis).reshape(-1),
                                   rtol=0, atol=1e-15)
    assert np.max(np.abs(u.conj().T @ u - np.eye(128))) < 1e-12


# -- the overlap matrix: scored in blocks of a's branches -----------------------

def test_two_twelve_row_conversions_stay_small():
    # 2**11 branches a side: the whole overlap matrix would hold 2**22
    # complex entries (64 MiB) and its absolute squares as much again
    conv = to_icm(decompose_gates(parse_circuit("qubits 1\nt 0\ntdg 0\np 0\n")))
    assert conv.circuit.qubit_count == 12 and measurement_count(conv) == 11
    tracemalloc.start()
    try:
        got = check_equivalence(conv, conv, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got < TOL
    assert peak < 10 * 2**20


@pytest.mark.parametrize("k", range(2))
def test_blocked_scores_match_trial_loop_between_conversions(k):
    # 11 rows and 9 measurements a side: 2**9 x 2**9 pairs per trial, scored
    # 8 branches of a (4096 pairs) a block
    source = oracle_source(random.Random(k), "t" if k % 2 == 0 else "tdg")
    conv = to_icm(decompose_gates(parse_circuit(source)))
    assert measurement_count(conv) == 9
    swap = {"\nt ": "\ntdg ", "\ntdg ": "\nt "}
    old = next(key for key in swap if key in source)
    wrong = to_icm(decompose_gates(parse_circuit(source.replace(old, swap[old]))))
    for seed in SEEDS:
        assert assert_matches_trial_loop(conv, conv, 2, seed) < TOL
        assert assert_matches_trial_loop(conv, wrong, 2, seed) > 1e-3
        assert assert_matches_trial_loop(wrong, conv, 2, seed) > 1e-3


# -- relabelled rows: qubit_rows alone binds logical qubits to rows -----------

def relabel(conv: IcmConversion, perm: list[int]) -> IcmConversion:
    """``conv`` with row r renamed ``perm[r]`` throughout: the circuit's
    inits, measurements and CNOTs, each instance's rows and ``qubit_rows``."""
    circ = conv.circuit
    inits, meas = [None] * circ.qubit_count, [None] * circ.qubit_count
    for r, new in enumerate(perm):
        inits[new], meas[new] = circ.inits[r], circ.meas[r]
    gates = tuple(Gate(g.kind, tuple(perm[q] for q in g.qubits)) for g in circ.gates)
    instances = tuple(TemplateInstance(inst.kind, inst.qubit, tuple(perm[r] for r in inst.rows),
                                       inst.cnot_slots) for inst in conv.instances)
    return IcmConversion(Circuit(circ.qubit_count, tuple(inits), gates, tuple(meas), icm=True),
                         instances, tuple((perm[a], perm[b]) for a, b in conv.qubit_rows))


def assert_relabel_invariant(circ, conv, perm, trials=2):
    """The relabelled conversion verifies as the original does, and gives
    its branches in the same order with the same output vectors."""
    moved = relabel(conv, perm)
    if all(b is MeasBasis.OPEN for b in circ.meas):   # measured outputs are not compared
        assert check_equivalence(circ, moved, trials=trials) <= TOL
    inp = random_product_state(len(circ.open_inputs()), np.random.default_rng(17))
    want = branch_outputs(conv, inp)
    got = branch_outputs(moved, inp)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    return moved


def reorders_inputs(conv, perm) -> bool:
    rows = [r for r, _ in conv.qubit_rows if conv.circuit.inits[r] is InitBasis.OPEN]
    moved = [perm[r] for r in rows]
    return moved != sorted(moved)


@settings(max_examples=25, deadline=None)
@given(gate_circuits(max_qubits=3, max_gates=4), st.data())
def test_relabelled_rows_verify_the_same(circ, data):
    conv = to_icm(decompose_gates(circ))
    n = conv.circuit.qubit_count
    if n > 12:
        return
    # the drawn order, and the reversed one: it reorders every pair of input rows
    for perm in (data.draw(st.permutations(range(n))), list(range(n))[::-1]):
        assert_relabel_invariant(circ, conv, perm)
    if len(circ.open_inputs()) > 1:
        assert reorders_inputs(conv, list(range(n))[::-1])


@pytest.mark.parametrize("s", range(3))
def test_shuffled_rows_verify_the_same(s):
    # 5 rows, three of them open inputs; each shuffle changes their order
    circ = parse_circuit("qubits 3\np 0\nv 1\ncnot 2 0\n")
    conv = to_icm(circ)
    assert conv.circuit.qubit_count == 5
    perm = list(range(5))
    random.Random(s).shuffle(perm)
    assert reorders_inputs(conv, perm)
    assert_relabel_invariant(circ, conv, perm, trials=3)


def test_relabelled_rows_keep_measured_outputs_in_qubit_order():
    # two measured logical outputs: the reversal swaps their rows' order,
    # and branches still come in qubit order, as the replay gives them
    circ = parse_circuit("qubits 2\nmeasure 0 z\nmeasure 1 x\nt 0\ncnot 0 1\nvdg 1\n")
    conv = to_icm(decompose_gates(circ))
    perm = list(range(conv.circuit.qubit_count))[::-1]
    moved = assert_relabel_invariant(circ, conv, perm)
    inp = random_product_state(2, np.random.default_rng(4))
    assert len(assert_branch_outputs_match_walk(moved, inp)) == 256
    assert len(assert_walk_matches_replay(moved, inp)) == 256
