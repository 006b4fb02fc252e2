"""Dense state-vector oracle for decomposition and ICM-conversion checks.

Little-endian by row index: row r is tensor axis r. Capped at 12 qubits;
teleportation blocks are verified per gate instance, so the cap is never a
constraint in practice.

Every outcome branch of an ICM conversion is simulated at once by deferring
its measurements: a measured row is never touched again, so its tensor axis
is left in place and indexes that row's outcome. One pass over the
conversion on the single (2,)*n tensor then holds every branch, with the
Pauli frame and each T block's adaptive bases carried as bit arrays over the
measured axes. ``branch_outputs`` and ``check_equivalence`` read every
branch's corrected outputs from that pass; ``run_branches``, the per-branch
inspection API, indexes one branch at a time out of it. All three are
exhaustive.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, GateKind, InitBasis, MeasBasis
from .icm import (
    DAGGERED, P_KINDS, V_KINDS, IcmConversion, PauliFrame, select_pattern,
)

QUBIT_BUDGET = 12
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


def apply_cnot(state: np.ndarray, *qubits: int) -> np.ndarray:
    """Flip the last of ``qubits`` where all the others are 1 (CNOT, Toffoli)."""
    *controls, target = qubits
    lo: list[object] = [slice(None)] * state.ndim
    for c in controls:
        lo[c] = 1
    hi = list(lo)
    lo[target], hi[target] = 0, 1
    out = state.copy()
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
        if g.kind in (GateKind.CNOT, GateKind.TOFFOLI):
            state = apply_cnot(state, *g.qubits)
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
    uint8 arrays of bits over the measured axes. Frame pendings have already
    been conjugated through the block's CNOTs, so the rules work on
    effective outcomes only.
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


def measurement_count(conv: IcmConversion) -> int:
    return sum(1 for step in _steps(conv) if step[0] != "cnot")


def _axis_bits(n: int, row: int) -> np.ndarray:
    """The bit that axis ``row`` indexes, shaped to broadcast over (2,)*n."""
    return np.arange(2, dtype=np.uint8).reshape((1,) * row + (2,) + (1,) * (n - row - 1))


def _output_rows(conv: IcmConversion) -> list[int]:
    return [r for _, r in conv.qubit_rows if conv.circuit.meas[r] is MeasBasis.OPEN]


class _Branches(NamedTuple):
    """Every outcome branch of a conversion at once.

    Each measured axis of ``state`` (unnormalised, not frame-corrected)
    indexes that row's raw outcome. ``events`` (a ``(row, is_x, effective)``
    per measurement, in order), the final frame bits ``x``/``z`` per row and
    ``feasible`` are arrays that broadcast over it.
    """

    state: np.ndarray
    feasible: np.ndarray
    events: list[tuple[int, np.ndarray, np.ndarray]]
    x: list[np.ndarray]
    z: list[np.ndarray]

    def by_branch(self, bits: np.ndarray) -> np.ndarray:
        """``bits`` at every branch, indexed by the branch's raw outcomes read
        as a binary number, the first measurement most significant."""
        rows = [row for row, _, _ in self.events]
        order = rows + [r for r in range(self.state.ndim) if r not in rows]
        return np.transpose(np.broadcast_to(bits, self.feasible.shape), order).reshape(-1)


def _deferred(conv: IcmConversion, input_state: np.ndarray | None) -> _Branches:
    """Every outcome branch of ``conv`` in one pass over the (2,)*n tensor."""
    circ = conv.circuit
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"simulation capped at {QUBIT_BUDGET} qubits")
    state = assemble_state(n, circ.inits, input_state, _conjugate_rows(conv))
    no_flip = np.zeros((1,) * n, dtype=np.uint8)
    x, z = [no_flip] * n, [no_flip] * n
    weight = np.sum(np.abs(state) ** 2, keepdims=True)
    feasible = np.ones(weight.shape, dtype=bool)
    events: list[tuple[int, np.ndarray, np.ndarray]] = []
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
        # place and indexes the raw outcome of every branch at once. A
        # pending X flips Z outcomes, a pending Z flips X outcomes; the
        # effective outcome is the one the ideal (frame-free) circuit saw.
        eff.append(_axis_bits(n, row) ^ np.where(is_x, z[row], x[row]))
        events.append((row, is_x, eff[-1]))
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
    return _Branches(state, feasible, events, x, z)


def run_branches(conv: IcmConversion, input_state: np.ndarray | None):
    """Yield each feasible branch's SimResult, built on demand, in ``branch_outputs`` order."""
    run = _deferred(conv, input_state)
    rows = [row for row, _, _ in run.events]
    is_x = [run.by_branch(bits) for _, bits, _ in run.events]
    eff = [run.by_branch(bits) for _, _, bits in run.events]
    x = [run.by_branch(bits) for bits in run.x]
    z = [run.by_branch(bits) for bits in run.z]
    for b in np.flatnonzero(run.by_branch(run.feasible)):
        raw = [int(b >> (len(rows) - 1 - k)) & 1 for k in range(len(rows))]
        cut: list[object] = [slice(None)] * run.state.ndim
        for row, m in zip(rows, raw):
            cut[row] = m
        kept = run.state[tuple(cut)]
        state = np.zeros_like(run.state)
        state[tuple(cut)] = kept / np.linalg.norm(kept)
        log = tuple(MeasurementEvent(row, MeasBasis.X if bx[b] else MeasBasis.Z, m, int(e[b]))
                    for row, bx, m, e in zip(rows, is_x, raw, eff))
        frame = PauliFrame(frozenset(r for r, f in enumerate(x) if f[b]),
                           frozenset(r for r, f in enumerate(z) if f[b]))
        yield SimResult(state, frame, log, dict(zip(rows, raw)))


def branch_outputs(conv: IcmConversion, input_state: np.ndarray | None) -> np.ndarray:
    """Normalised, frame-corrected output vector of every feasible branch.

    Shape (feasible branches, 2**outputs), in ``run_branches`` order (depth
    first, 0 first); output rows are in logical-qubit order.
    """
    run = _deferred(conv, input_state)
    state = run.state
    n = state.ndim
    rows = _output_rows(conv)
    for r in rows:
        state = np.where(run.z[r] & _axis_bits(n, r), -state, state)
        state = np.where(run.x[r], np.flip(state, r), state)
    order = [row for row, _, _ in run.events] + rows
    outputs = np.transpose(state, order).reshape(-1, 2 ** len(rows))
    outputs = outputs[np.transpose(run.feasible, order).reshape(-1)]
    return outputs / np.linalg.norm(outputs, axis=1, keepdims=True)


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit states, tensored."""
    state = np.ones((), dtype=complex)
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        state = np.multiply.outer(state, v)
    return state


def _logical_ends(side: Circuit | IcmConversion) -> tuple[list[InitBasis], list[MeasBasis]]:
    """Each logical qubit's initialisation and final measurement basis."""
    if isinstance(side, Circuit):
        return list(side.inits), list(side.meas)
    circ = side.circuit
    return ([circ.inits[r] for r, _ in side.qubit_rows],
            [circ.meas[r] for _, r in side.qubit_rows])


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
    input/output arity, and every logical output must be open: measured
    outcomes are not compared.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    arity = []
    for inits, meas in map(_logical_ends, (a, b)):
        measured = [q for q, basis in enumerate(meas) if basis is not MeasBasis.OPEN]
        if measured:
            raise ValueError(f"logical qubit {measured[0]} has a measured output; "
                             "only open outputs can be compared")
        arity.append((inits.count(InitBasis.OPEN), len(meas)))
    if arity[0] != arity[1]:
        raise ValueError(f"open-arity mismatch: {arity[0]} vs {arity[1]}")
    n_in, _ = arity[0]
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
