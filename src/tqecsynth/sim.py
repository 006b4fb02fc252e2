"""Dense state-vector oracle for decomposition and ICM-conversion checks.

Little-endian by row index: row r is tensor axis r. Capped at 12 qubits;
teleportation blocks are verified per gate instance, so the cap is never a
constraint in practice.

``branch_outputs`` checks every outcome branch of an ICM conversion at once
by deferring its measurements: a measured row is never touched again, so
its tensor axis is left in place and indexes that row's outcome. One pass
over the conversion on the single (2,)*n tensor then holds every branch,
with the Pauli frame and each T block's adaptive bases carried as bit arrays
over the measured axes. ``check_equivalence`` is built on it and is always
exhaustive.

``run_branches`` is the per-branch inspection API: it walks the outcome tree
depth first, forking the state at each measurement so branches share their
common prefix, or follows one seeded draw per measurement when there are
more than ``EXHAUSTIVE_BRANCH_CAP`` branches, which keeps it deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .circuit import Circuit, GateKind, InitBasis, MeasBasis
from .icm import (
    DAGGERED, P_KINDS, V_KINDS, IcmConversion, PauliFrame, select_pattern,
)

QUBIT_BUDGET = 12
EXHAUSTIVE_BRANCH_CAP = 1024
_FEASIBLE_TOL = 1e-12

_SQRT2_INV = 1 / sqrt(2)
_T_PHASE = np.exp(1j * pi / 4)

_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.P: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, _T_PHASE]], dtype=complex),
    # Printed without normalisation in some sources; the 1/sqrt(2) factor is
    # forced by unitarity.
    GateKind.V: _SQRT2_INV * np.array([[1, -1j], [-1j, 1]], dtype=complex),
    GateKind.CNOT: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
_MATRICES[GateKind.PDG] = _MATRICES[GateKind.P].conj().T
_MATRICES[GateKind.TDG] = _MATRICES[GateKind.T].conj().T
_MATRICES[GateKind.VDG] = _MATRICES[GateKind.V].conj().T

#: Reference unitaries for composite kinds, independent of any decomposition.
H_MATRIX = _SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex)
TOFFOLI_MATRIX = np.eye(8, dtype=complex)
TOFFOLI_MATRIX[[6, 7], :] = TOFFOLI_MATRIX[[7, 6], :]

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_INIT_VECS = {
    InitBasis.ZERO: np.array([1, 0], dtype=complex),
    InitBasis.PLUS: np.array([1, 1], dtype=complex) * _SQRT2_INV,
    InitBasis.Y: np.array([1, 1j], dtype=complex) * _SQRT2_INV,
    InitBasis.A: np.array([1, _T_PHASE], dtype=complex) * _SQRT2_INV,
}


def gate_matrix(kind: GateKind) -> np.ndarray:
    """Unitary of a non-composite gate kind (2x2, or 4x4 for CNOT)."""
    if kind not in _MATRICES:
        raise ValueError(f"{kind.value} is composite; it has no primitive matrix")
    return _MATRICES[kind].copy()


def init_vector(basis: InitBasis, conjugate: bool = False) -> np.ndarray:
    if basis is InitBasis.OPEN:
        raise ValueError("open inputs have no fixed vector")
    v = _INIT_VECS[basis]
    return v.conj() if conjugate else v


@dataclass(frozen=True)
class MeasurementEvent:
    row: int
    basis: MeasBasis
    raw: int
    effective: int


def apply_1q(state: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(state, axis, 0)
    moved = np.tensordot(u, moved, axes=([1], [0]))
    return np.moveaxis(moved, 0, axis)


def apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    out = state.copy()
    idx10 = [slice(None)] * state.ndim
    idx11 = [slice(None)] * state.ndim
    idx10[control] = 1
    idx11[control] = 1
    idx10[target] = 0
    idx11[target] = 1
    out[tuple(idx10)], out[tuple(idx11)] = state[tuple(idx11)], state[tuple(idx10)]
    return out


def apply_toffoli(state: np.ndarray, c1: int, c2: int, target: int) -> np.ndarray:
    out = state.copy()
    lo = [slice(None)] * state.ndim
    hi = [slice(None)] * state.ndim
    lo[c1] = hi[c1] = 1
    lo[c2] = hi[c2] = 1
    lo[target] = 0
    hi[target] = 1
    out[tuple(lo)], out[tuple(hi)] = state[tuple(hi)], state[tuple(lo)]
    return out


def assemble_state(
    n: int,
    inits: tuple[InitBasis, ...],
    input_state: np.ndarray | None,
    conjugate_rows: frozenset[int] = frozenset(),
) -> np.ndarray:
    """Tensor fixed initialisations with the open-input state, in row order."""
    open_rows = [r for r in range(n) if inits[r] is InitBasis.OPEN]
    fixed_rows = [r for r in range(n) if inits[r] is not InitBasis.OPEN]
    k = len(open_rows)
    if k:
        if input_state is None:
            raise ValueError(f"{k} open input(s) need an input state")
        inp = np.asarray(input_state, dtype=complex).reshape((2,) * k)
    else:
        inp = np.ones((), dtype=complex)
    fixed = np.ones((), dtype=complex)
    for r in fixed_rows:
        fixed = np.multiply.outer(fixed, init_vector(inits[r], r in conjugate_rows))
    full = np.multiply.outer(inp, fixed)
    order = open_rows + fixed_rows
    axes = [order.index(r) for r in range(n)]
    return np.transpose(full, axes)


def _conjugate_rows(conv: IcmConversion) -> frozenset[int]:
    rows = set()
    for inst in conv.instances:
        if inst.kind in DAGGERED:
            rows.update(r for r, _ in inst.injections)
    return frozenset(rows)


@dataclass
class SimResult:
    state: np.ndarray                 # tensor of shape (2,)*n, dead axes collapsed
    frame: PauliFrame
    log: tuple[MeasurementEvent, ...]
    measured: dict[int, int]          # row -> outcome (raw)

    def free_state(self, rows: list[int]) -> np.ndarray:
        """Subtensor over ``rows`` (in the given order), dead axes indexed out."""
        n = self.state.ndim
        idx: list[object] = [slice(None)] * n
        for r, m in self.measured.items():
            idx[r] = m
        sub = self.state[tuple(idx)]
        remaining = [r for r in range(n) if r not in self.measured]
        axes = [remaining.index(r) for r in rows]
        extra = [i for i in range(len(remaining)) if remaining[i] not in rows]
        if extra:
            raise ValueError("free_state must cover all unmeasured rows")
        return np.transpose(sub, axes)

    def frame_corrected(self, rows: list[int]) -> np.ndarray:
        out = self.free_state(rows)
        for pos, r in enumerate(rows):
            if r in self.frame.z_rows:
                out = apply_1q(out, _Z, pos)
            if r in self.frame.x_rows:
                out = apply_1q(out, _X, pos)
        return out


def simulate_plain(circ: Circuit, input_state: np.ndarray | None = None) -> np.ndarray:
    """Run a measurement-free gate circuit; returns the final state tensor."""
    if any(b is not MeasBasis.OPEN for b in circ.meas):
        raise ValueError("plain simulation requires open outputs")
    state = assemble_state(circ.qubit_count, circ.inits, input_state)
    for g in circ.gates:
        if g.kind is GateKind.CNOT:
            state = apply_cnot(state, g.qubits[0], g.qubits[1])
        elif g.kind is GateKind.TOFFOLI:
            state = apply_toffoli(state, *g.qubits)
        elif g.kind is GateKind.H:
            state = apply_1q(state, H_MATRIX, g.qubits[0])
        else:
            state = apply_1q(state, _MATRICES[g.kind], g.qubits[0])
    return state


def to_unitary(circ: Circuit) -> np.ndarray:
    """Full unitary of a measurement-free circuit (basis-column simulation)."""
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"unitary extraction capped at {QUBIT_BUDGET} qubits")
    dim = 2 ** n
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        inits = tuple(InitBasis.OPEN for _ in range(n))
        state = simulate_plain(
            Circuit(n, inits, circ.gates, circ.meas, icm=circ.icm), basis)
        u[:, col] = state.reshape(-1)
    return u


def _steps(conv: IcmConversion) -> list[tuple]:
    """The conversion in execution order.

    A step is ``("cnot", control, target)`` or a measurement ``(row, basis,
    instance, position)``: each block measures the rows of its first pattern
    right after its last CNOT, and every other measured row follows the
    gates with ``instance`` None.
    """
    blocks = {max(inst.cnot_slots): inst for inst in conv.instances}
    steps: list[tuple] = []
    for gi, g in enumerate(conv.circuit.gates):
        steps.append(("cnot", *g.qubits))
        inst = blocks.get(gi)
        if inst is not None:
            steps.extend((inst.rows[loc], basis, inst, pos) for pos, (loc, basis)
                         in enumerate(inst.template.measurement_patterns[0]))
    done = {step[0] for step in steps if step[0] != "cnot"}
    steps.extend((row, basis, None, 0) for row, basis in enumerate(conv.circuit.meas)
                 if basis is not MeasBasis.OPEN and row not in done)
    return steps


def _byproduct(kind: GateKind, eff):
    """X and Z flips a finished block leaves on its output row.

    ``eff`` holds the block's effective outcomes in measurement order, as
    bits or as uint8 arrays of bits. Frame pendings have already been
    conjugated through the block's CNOTs, so the rules work on effective
    outcomes only.
    """
    if kind in P_KINDS:
        return eff[0], eff[0]
    if kind in V_KINDS:
        return 1 ^ eff[0], eff[0]
    # Outcome 1 on the wire takes the correction path: the wire routes
    # through the |Y> row, whose teleport supplies the pending P and leaves a
    # Pauli-Y byproduct.
    e0, e1, e2, e3, e4 = eff
    fx = e0 & (1 ^ e1 ^ e4) | (1 ^ e0) & (e2 ^ e3)
    fz = e0 & (1 ^ e1 ^ e2 ^ e3) | (1 ^ e0) & (e1 ^ e4)
    return fx, fz


def _walk(steps: list[tuple], at: int, state: np.ndarray, x: bytearray, z: bytearray,
          log: list[MeasurementEvent], measured: dict[int, int],
          rng: np.random.Generator | None):
    """Yield the branches below step ``at``; ``x`` and ``z`` are this branch's own.

    With ``rng`` None the state forks into every outcome of non-negligible
    probability, 0 first; otherwise one outcome is drawn per measurement.
    """
    while at < len(steps) and steps[at][0] == "cnot":
        _, c, t = steps[at]
        state = apply_cnot(state, c, t)
        x[t] ^= x[c]
        z[c] ^= z[t]
        at += 1
    if at == len(steps):
        live = [r for r in range(state.ndim) if r not in measured]
        frame = PauliFrame(frozenset(r for r in live if x[r]),
                           frozenset(r for r in live if z[r]))
        yield SimResult(state, frame, tuple(log), measured)
        return

    row, basis, inst, pos = steps[at]
    if pos:
        # a T block's later bases follow its wire's effective Z outcome
        basis = select_pattern(inst, log[-pos].effective)[row]
    # X measurements rotate the outcome into the computational basis so the
    # dead wire can be indexed out later.
    if basis is MeasBasis.X:
        state = apply_1q(state, H_MATRIX, row)
    half = [(slice(None),) * row + (m,) for m in (0, 1)]
    p_one = float(np.sum(np.abs(state[half[1]]) ** 2))
    prob = (1.0 - p_one, p_one)
    block_done = inst is not None and pos == len(inst.template.measurement_patterns[0]) - 1
    if rng is None:
        outcomes = [m for m in (0, 1) if prob[m] >= _FEASIBLE_TOL]
    else:
        outcomes = [int(rng.random() < p_one)]
    for m in outcomes:
        collapsed = np.zeros_like(state)
        collapsed[half[m]] = state[half[m]] / sqrt(prob[m])
        # A pending X flips Z outcomes, a pending Z flips X outcomes; the
        # effective outcome is the one the ideal (frame-free) circuit saw.
        eff = m ^ (x[row] if basis is MeasBasis.Z else z[row])
        bx, bz = bytearray(x), bytearray(z)
        bx[row] = bz[row] = 0
        blog = [*log, MeasurementEvent(row, basis, m, eff)]
        if block_done:
            fx, fz = _byproduct(inst.kind, [e.effective for e in blog[-pos - 1:]])
            bx[inst.output_row] ^= fx
            bz[inst.output_row] ^= fz
        yield from _walk(steps, at + 1, collapsed, bx, bz, blog, {**measured, row: m}, rng)


def measurement_count(conv: IcmConversion) -> int:
    return sum(1 for step in _steps(conv) if step[0] != "cnot")


def run_branches(
    conv: IcmConversion,
    input_state: np.ndarray | None,
    trials_rng: np.random.Generator | None = None,
    sample_count: int = 64,
):
    """Yield SimResults over outcome branches.

    Exhaustive when the branch count is at most EXHAUSTIVE_BRANCH_CAP,
    otherwise ``sample_count`` seeded samples. Infeasible branches are
    skipped.
    """
    circ = conv.circuit
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"simulation capped at {QUBIT_BUDGET} qubits")
    steps = _steps(conv)
    state = assemble_state(n, circ.inits, input_state, _conjugate_rows(conv))
    if 2 ** measurement_count(conv) <= EXHAUSTIVE_BRANCH_CAP:
        yield from _walk(steps, 0, state, bytearray(n), bytearray(n), [], {}, None)
    else:
        rng = trials_rng or np.random.default_rng(0)
        for _ in range(sample_count):
            yield from _walk(steps, 0, state, bytearray(n), bytearray(n), [], {}, rng)


def _axis_bits(n: int, row: int) -> np.ndarray:
    """The bit that axis ``row`` indexes, shaped to broadcast over (2,)*n."""
    return np.arange(2, dtype=np.uint8).reshape((1,) * row + (2,) + (1,) * (n - row - 1))


def _output_rows(conv: IcmConversion) -> list[int]:
    return [r for _, r in conv.qubit_rows if conv.circuit.meas[r] is MeasBasis.OPEN]


def _deferred(conv: IcmConversion, input_state: np.ndarray | None):
    """Every outcome branch of ``conv`` in one pass: (feasible, outputs).

    Both are indexed by a branch's raw outcomes read as a binary number, the
    first measurement most significant, which is ``run_branches`` order.
    ``outputs`` holds each branch's frame-corrected output amplitudes,
    scaled by the square root of the branch's probability.
    """
    circ = conv.circuit
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"simulation capped at {QUBIT_BUDGET} qubits")
    state = assemble_state(n, circ.inits, input_state, _conjugate_rows(conv))
    no_flip = np.zeros((1,) * n, dtype=np.uint8)
    x, z = [no_flip] * n, [no_flip] * n
    weight = np.sum(np.abs(state) ** 2, keepdims=True)
    feasible = np.ones(weight.shape, dtype=bool)
    measured: list[int] = []
    for step in _steps(conv):
        if step[0] == "cnot":
            _, c, t = step
            state = apply_cnot(state, c, t)
            x[t] = x[t] ^ x[c]
            z[c] = z[c] ^ z[t]
            continue
        row, basis, inst, pos = step
        if pos:
            # a T block's later bases follow its wire's effective Z outcome
            is_x = np.where(eff[0], *(select_pattern(inst, e)[row] is MeasBasis.X
                                      for e in (1, 0)))
        else:
            eff = []
            is_x = np.asarray(basis is MeasBasis.X)
        if is_x.any():
            state = np.where(is_x, apply_1q(state, H_MATRIX, row), state)
        # The measured row is never touched again, so its axis is left in
        # place and indexes the raw outcome of every branch at once.
        eff.append(_axis_bits(n, row) ^ np.where(is_x, z[row], x[row]))
        x[row] = z[row] = no_flip
        measured.append(row)
        free = tuple(r for r in range(n) if r not in measured)
        branch_weight = np.sum(np.abs(state) ** 2, axis=free, keepdims=True)
        feasible = feasible & (branch_weight >= _FEASIBLE_TOL * weight)
        weight = branch_weight
        if inst is not None and pos == len(inst.template.measurement_patterns[0]) - 1:
            fx, fz = _byproduct(inst.kind, eff)
            x[inst.output_row] = x[inst.output_row] ^ fx
            z[inst.output_row] = z[inst.output_row] ^ fz
    rows = _output_rows(conv)
    for r in rows:
        state = np.where(z[r] & _axis_bits(n, r), -state, state)
        state = np.where(x[r], np.flip(state, r), state)
    order = measured + rows
    outputs = np.transpose(state, order).reshape(2 ** len(measured), 2 ** len(rows))
    return np.transpose(feasible, order).reshape(-1), outputs


def branch_outputs(conv: IcmConversion, input_state: np.ndarray | None) -> np.ndarray:
    """Normalised, frame-corrected output vector of every feasible branch.

    Shape (feasible branches, 2**outputs), in ``run_branches`` order (depth
    first, 0 first); output rows are in logical-qubit order.
    """
    feasible, outputs = _deferred(conv, input_state)
    outputs = outputs[feasible]
    return outputs / np.linalg.norm(outputs, axis=1, keepdims=True)


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit states, tensored."""
    state = np.ones((), dtype=complex)
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        state = np.multiply.outer(state, v)
    return state


def _open_arity(target: Circuit | IcmConversion) -> tuple[int, int]:
    if isinstance(target, Circuit):
        return len(target.open_inputs()), len(target.open_outputs())
    circ = target.circuit
    ins = sum(1 for r, _ in target.qubit_rows if circ.inits[r] is InitBasis.OPEN)
    outs = sum(1 for _, r in target.qubit_rows if circ.meas[r] is MeasBasis.OPEN)
    return ins, outs


def _outputs(side: Circuit | IcmConversion, inp: np.ndarray | None) -> np.ndarray:
    if isinstance(side, Circuit):
        return simulate_plain(side, inp).reshape(1, -1)
    return branch_outputs(side, inp)


def check_equivalence(
    a: Circuit | IcmConversion,
    b: Circuit | IcmConversion,
    trials: int = 8,
    seed: int = 7,
) -> float:
    """Maximum infidelity between two circuits over random product inputs.

    The reference side is simulated unitarily; an ICM side is expanded over
    all its feasible outcome branches with the Pauli frame applied, and
    every pair of branches is scored. Both sides must agree on open
    input/output arity.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    arity_a, arity_b = _open_arity(a), _open_arity(b)
    if arity_a != arity_b:
        raise ValueError(f"open-arity mismatch: {arity_a} vs {arity_b}")
    n_in, _ = arity_a
    size_a = a.qubit_count if isinstance(a, Circuit) else a.circuit.qubit_count
    size_b = b.qubit_count if isinstance(b, Circuit) else b.circuit.qubit_count
    if max(size_a, size_b) > QUBIT_BUDGET:
        raise ValueError(f"qubit budget {QUBIT_BUDGET} exceeded")

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        inp = random_product_state(n_in, rng) if n_in else None
        out_a, out_b = _outputs(a, inp), _outputs(b, inp)
        overlap = np.abs(out_a.conj() @ out_b.T) ** 2
        worst = max(worst, 1.0 - float(overlap.min()))
    return worst
