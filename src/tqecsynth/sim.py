"""Dense state-vector oracle for decomposition and ICM-conversion checks.

Little-endian by row index: row r is tensor axis r, and logical qubits bind
to rows through ``_ends`` alone, a conversion's by its ``qubit_rows``.
Capped at 12 qubits; ``tqecsynth verify`` checks each teleportation
template kind once, on one qubit, and reports that result for every gate
instance of the kind, so the cap is never a constraint in practice.

Every outcome branch of an ICM conversion is simulated at once by deferring
its measurements: a measured row is never touched again, so its tensor axis
is left in place and indexes that row's outcome. One pass over the
conversion on the single (2,)*n + (T,) tensor then holds every branch of
every trial, with the Pauli frame and each T block's adaptive bases carried
as bit arrays over the measured axes. The trailing axis holds T trials, one
input state each; the branch weights, and so which branches are feasible,
are per trial, while the frame bits depend on the outcomes alone and
broadcast over it. ``check_equivalence`` runs each chunk of its random
inputs through one pass per side; ``branch_outputs`` and ``run_branches``, the per-branch
inspection API, are one-trial views of it, and ``to_unitary`` is one batch
of basis columns through ``simulate_plain``. All are exhaustive.

Trials go through in chunks of at most ``2**QUBIT_BUDGET // 2**n`` (at least
one), so a chunk's state tensor never exceeds 4096 amplitudes: a 12-row
conversion runs one trial at a time, a 6-row template up to 64.
``check_equivalence`` also counts its overlap matrix, one entry per pair of
branches per trial, as an n-row tensor when it sizes a chunk, and scores it
in blocks of at most 4096 pairs per trial: two 12-row conversions with 2**11
branches each never hold their 2**22 pairs at once.
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


def _ends(side: Circuit | IcmConversion) -> tuple[Circuit, list[int], list[int]]:
    """A side's circuit and, in qubit order, the rows of its open logical
    inputs and of its logical outputs: a plain circuit's qubits, or a
    conversion's ``qubit_rows``, whatever order its rows are in."""
    circ, ends = ((side, [(q, q) for q in range(side.qubit_count)])
                  if isinstance(side, Circuit) else (side.circuit, side.qubit_rows))
    return circ, [r for r, _ in ends if circ.inits[r] is InitBasis.OPEN], [r for _, r in ends]


def assemble_state(
    inits: tuple[InitBasis, ...],
    open_rows: list[int],
    inputs: np.ndarray | None,
    conjugate_rows: frozenset[int] = frozenset(),
) -> np.ndarray:
    """Tensor fixed initialisations with each trial's open-input state.

    ``open_rows`` holds each open logical input's row in qubit order, as
    ``_ends`` reads it from ``qubit_rows``, and ``inputs`` their amplitudes,
    one trial per column: shape (2**k, T), and a single state of 2**k
    amplitudes is one trial. Returns the (2,)*n + (T,) tensor over the rows
    of ``inits``, row r on axis r. Without open rows ``inputs`` is not read
    and there is one trial.
    """
    n = len(inits)
    fixed_rows = [r for r in range(n) if r not in open_rows]
    k = len(open_rows)
    if k:
        if inputs is None:
            raise ValueError(f"{k} open input(s) need an input state")
        inp = np.asarray(inputs, dtype=complex).reshape((2,) * k + (-1,))
    else:
        inp = np.ones(1, dtype=complex)
    fixed = np.ones((), dtype=complex)
    for r in fixed_rows:
        fixed = np.multiply.outer(fixed, init_vector(inits[r], r in conjugate_rows))
    # axes of ``full``: the open rows, the trial, then the fixed rows
    full = np.multiply.outer(inp, fixed)
    axis = {r: p for p, r in enumerate(open_rows)}
    axis.update((r, k + 1 + p) for p, r in enumerate(fixed_rows))
    return np.transpose(full, [axis[r] for r in range(n)] + [k])


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


def simulate_plain(circ: Circuit, inputs: np.ndarray | None = None) -> np.ndarray:
    """Run a measurement-free gate circuit on every trial's input at once.

    ``inputs`` is as for :func:`assemble_state`; returns the final
    (2,)*n + (T,) state tensor.
    """
    if any(b is not MeasBasis.OPEN for b in circ.meas):
        raise ValueError("plain simulation requires open outputs")
    state = assemble_state(circ.inits, _ends(circ)[1], inputs)
    for g in circ.gates:
        if g.kind in (GateKind.CNOT, GateKind.TOFFOLI):
            state = apply_cnot(state, *g.qubits)
        elif g.kind is GateKind.H:
            state = apply_1q(state, H_MATRIX, g.qubits[0])
        else:
            state = apply_1q(state, _MATRICES[g.kind], g.qubits[0])
    return state


def _chunk(n: int) -> int:
    """Most trials one pass over an n-row tensor takes at once."""
    return max(1, 2 ** QUBIT_BUDGET // 2 ** n)


def to_unitary(circ: Circuit) -> np.ndarray:
    """Full unitary of a measurement-free circuit: its basis columns as trials."""
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"unitary extraction capped at {QUBIT_BUDGET} qubits")
    dim = 2 ** n
    columns = Circuit(n, (InitBasis.OPEN,) * n, circ.gates, circ.meas, icm=circ.icm)
    u = np.eye(dim, dtype=complex)
    step = _chunk(n)
    # each chunk of basis columns is replaced by its image
    for lo in range(0, dim, step):
        u[:, lo:lo + step] = simulate_plain(columns, u[:, lo:lo + step]).reshape(dim, -1)
    return u


def _steps(conv: IcmConversion) -> list[tuple]:
    """The conversion in execution order.

    A step is ``("cnot", control, target)`` or a measurement ``(row, basis,
    instance, position)``: each block measures the rows of its first pattern
    right after its last CNOT, and each measured logical output follows the
    gates in qubit order, with ``instance`` None.
    """
    circ, _, outputs = _ends(conv)
    blocks = {max(inst.cnot_slots): inst for inst in conv.instances}
    steps: list[tuple] = []
    for gi, g in enumerate(circ.gates):
        steps.append(("cnot", *g.qubits))
        inst = blocks.get(gi)
        if inst is not None:
            steps.extend((inst.rows[loc], basis, inst, pos) for pos, (loc, basis)
                         in enumerate(inst.template.measurement_patterns[0]))
    steps.extend((row, circ.meas[row], None, 0) for row in outputs
                 if circ.meas[row] is not MeasBasis.OPEN)
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


def _axis_bits(ndim: int, row: int) -> np.ndarray:
    """The bit that axis ``row`` indexes, shaped to broadcast over ``ndim`` axes."""
    return np.arange(2, dtype=np.uint8).reshape((1,) * row + (2,) + (1,) * (ndim - row - 1))


class _Branches(NamedTuple):
    """Every outcome branch of a conversion for every trial at once.

    Each measured axis of ``state`` (unnormalised, not frame-corrected)
    indexes that row's raw outcome, and its last axis the trial. ``events``
    (a ``(row, is_x, effective)`` per measurement, in order), the final
    frame bits ``x``/``z`` per row and ``feasible`` are arrays that
    broadcast over it; only ``feasible`` varies along the trial axis.
    """

    state: np.ndarray
    feasible: np.ndarray
    events: list[tuple[int, np.ndarray, np.ndarray]]
    x: list[np.ndarray]
    z: list[np.ndarray]

    def by_branch(self, bits: np.ndarray) -> np.ndarray:
        """``bits`` at every trial and branch, shape (trials, branches); a
        branch is indexed by its raw outcomes read as a binary number, the
        first measurement most significant."""
        rows = [row for row, _, _ in self.events]
        n = self.state.ndim - 1
        order = [n] + rows + [r for r in range(n) if r not in rows]
        bits = np.broadcast_to(bits, self.feasible.shape)
        return np.transpose(bits, order).reshape(-1, 2 ** len(rows))


def _deferred(conv: IcmConversion, inputs: np.ndarray | None) -> _Branches:
    """Every outcome branch of ``conv`` for every trial of ``inputs`` (as for
    :func:`assemble_state`) in one pass over the (2,)*n + (T,) tensor."""
    circ, open_rows, _ = _ends(conv)
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"simulation capped at {QUBIT_BUDGET} qubits")
    state = assemble_state(circ.inits, open_rows, inputs, _conjugate_rows(conv))
    no_flip = np.zeros((1,) * (n + 1), dtype=np.uint8)
    x, z = [no_flip] * n, [no_flip] * n
    weight = np.sum(np.abs(state) ** 2, axis=tuple(range(n)), keepdims=True)
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
        eff.append(_axis_bits(n + 1, row) ^ np.where(is_x, z[row], x[row]))
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

    def by_branch(bits: np.ndarray) -> np.ndarray:
        return run.by_branch(bits)[0]

    rows = [row for row, _, _ in run.events]
    is_x = [by_branch(bits) for _, bits, _ in run.events]
    eff = [by_branch(bits) for _, _, bits in run.events]
    x = [by_branch(bits) for bits in run.x]
    z = [by_branch(bits) for bits in run.z]
    one = run.state[..., 0]
    for b in np.flatnonzero(by_branch(run.feasible)):
        raw = [int(b >> (len(rows) - 1 - k)) & 1 for k in range(len(rows))]
        cut: list[object] = [slice(None)] * one.ndim
        for row, m in zip(rows, raw):
            cut[row] = m
        kept = one[tuple(cut)]
        state = np.zeros_like(one)
        state[tuple(cut)] = kept / np.linalg.norm(kept)
        log = tuple(MeasurementEvent(row, MeasBasis.X if bx[b] else MeasBasis.Z, m, int(e[b]))
                    for row, bx, m, e in zip(rows, is_x, raw, eff))
        frame = PauliFrame(frozenset(r for r, f in enumerate(x) if f[b]),
                           frozenset(r for r, f in enumerate(z) if f[b]))
        yield SimResult(state, frame, log, dict(zip(rows, raw)))


def _trial_outputs(conv: IcmConversion,
                   inputs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Frame-corrected output vectors of every trial and branch, and which are feasible.

    The outputs have shape (trials, branches, 2**outputs), the mask
    (trials, branches); feasible vectors are normalised, the others are
    left as they are and must not be read. The outputs are C-contiguous,
    so each trial's overlap product in ``check_equivalence`` takes the
    BLAS path, and rounds, as a lone trial's does.
    """
    run = _deferred(conv, inputs)
    state = run.state
    n = state.ndim - 1
    circ, _, outputs = _ends(conv)
    rows = [r for r in outputs if circ.meas[r] is MeasBasis.OPEN]
    for r in rows:
        state = np.where(run.z[r] & _axis_bits(n + 1, r), -state, state)
        state = np.where(run.x[r], np.flip(state, r), state)
    measured = [row for row, _, _ in run.events]
    outputs = np.ascontiguousarray(np.transpose(state, [n] + measured + rows)).reshape(
        state.shape[-1], 2 ** len(measured), 2 ** len(rows))
    feasible = run.by_branch(run.feasible)
    norm = np.linalg.norm(outputs, axis=2, keepdims=True)
    return outputs / np.where(feasible[..., None], norm, 1.0), feasible


def branch_outputs(conv: IcmConversion, input_state: np.ndarray | None) -> np.ndarray:
    """Normalised, frame-corrected output vector of every feasible branch.

    Shape (feasible branches, 2**outputs), in ``run_branches`` order (depth
    first, 0 first); output rows are in logical-qubit order.
    """
    outputs, feasible = _trial_outputs(conv, input_state)
    return outputs[0, feasible[0]]


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit states, tensored."""
    state = np.ones((), dtype=complex)
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        state = np.multiply.outer(state, v)
    return state


def _outputs(side: Circuit | IcmConversion,
             inputs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """As :func:`_trial_outputs`; a plain circuit has one branch."""
    if isinstance(side, Circuit):
        state = simulate_plain(side, inputs)
        outputs = np.ascontiguousarray(np.moveaxis(state, -1, 0)).reshape(state.shape[-1], 1, -1)
        return outputs, np.ones(outputs.shape[:2], dtype=bool)
    return _trial_outputs(side, inputs)


def check_equivalence(
    a: Circuit | IcmConversion,
    b: Circuit | IcmConversion,
    trials: int = 8,
    seed: int = 7,
) -> float:
    """Maximum infidelity between two circuits over random product inputs.

    The reference side is simulated unitarily; an ICM side is expanded over
    all its feasible outcome branches with the Pauli frame applied, and
    every pair of branches feasible on its trial is scored. Both sides must
    agree on open input/output arity, and every logical output must be
    open: measured outcomes are not compared.

    Each trial's input is drawn from ``default_rng(seed)`` in trial order,
    and each side runs every trial of a chunk in one pass (see the module
    docstring). Without open inputs every trial sees the same state, so it
    is simulated once.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    sides = [_ends(a), _ends(b)]
    arity = []
    for circ, inputs, outputs in sides:
        measured = [q for q, r in enumerate(outputs) if circ.meas[r] is not MeasBasis.OPEN]
        if measured:
            raise ValueError(f"logical qubit {measured[0]} has a measured output; "
                             "only open outputs can be compared")
        arity.append((len(inputs), len(outputs)))
    if arity[0] != arity[1]:
        raise ValueError(f"open-arity mismatch: {arity[0]} vs {arity[1]}")
    n_in, n_out = arity[0]
    size_a, size_b = (circ.qubit_count for circ, _, _ in sides)
    if max(size_a, size_b) > QUBIT_BUDGET:
        raise ValueError(f"qubit budget {QUBIT_BUDGET} exceeded")

    rng = np.random.default_rng(seed)
    count = trials if n_in else 1
    # The overlap matrix holds one entry per pair of branches per trial, so
    # it bounds the chunk as the state tensors do. Every row but the open
    # outputs is measured once, so a side has 2**(rows - n_out) branches.
    chunk = _chunk(max(size_a, size_b, size_a + size_b - 2 * n_out))
    worst = 0.0
    for lo in range(0, count, chunk):
        inputs = None
        if n_in:
            inputs = np.stack([random_product_state(n_in, rng).reshape(-1)
                               for _ in range(min(chunk, count - lo))], axis=1)
        (out_a, ok_a), (out_b, ok_b) = _outputs(a, inputs), _outputs(b, inputs)
        # Score a block of a's branches at a time, so that a block holds at
        # most 2**QUBIT_BUDGET pairs per trial, as large as one state.
        rows = max(1, 2 ** QUBIT_BUDGET // out_b.shape[1])
        cols_b = out_b.transpose(0, 2, 1)
        for r in range(0, out_a.shape[1], rows):
            # overlap[t, i, j]: branch r + i of a against branch j of b on trial t
            overlap = np.abs(out_a[:, r:r + rows].conj() @ cols_b) ** 2
            scored = ok_a[:, r:r + rows, None] & ok_b[:, None, :]
            worst = max(worst, 1.0 - float(overlap.min(where=scored, initial=1.0)))
    return worst
