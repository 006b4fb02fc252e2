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
broadcast over it. ``check_equivalence`` draws each chunk of its random
inputs in one ``rng.normal`` call, the stream the per-trial
``random_product_state`` loop draws, and runs the chunk through one pass
per side; ``branch_outputs`` and ``run_branches``, the per-branch
inspection API, are one-trial views of it, and ``to_unitary`` is one batch
of basis columns through ``simulate_plain``. All are exhaustive.

The pass builds its own C-contiguous tensor and works on it in place. A
CNOT swaps the two quarters where the control is 1, and a basis change is
one add and one subtract of the row's halves, on every branch at once
unless a T block's basis differs between branches. Which branches are
feasible is read once, from the final state: a measured row is never
touched again, so for each prefix of outcomes every later step is unitary
on the other rows and keeps that prefix's weight. Summing the final
``|state|**2`` over the other rows, then over the measured rows in reverse
measurement order, gives the weight of every prefix in turn.

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
from math import pi, prod, sqrt
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, GateKind, InitBasis, MeasBasis
from .icm import (
    DAGGERED, P_KINDS, V_KINDS, IcmConversion, PauliFrame,
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


def _split(array: np.ndarray, axis: int) -> np.ndarray:
    """``array`` as a (before, 2, after) array around ``axis``, of size 2: a
    view of a C-contiguous ``array``, a copy of any other."""
    return array.reshape(prod(array.shape[:axis]), 2, -1)


def apply_1q(state: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    return (u @ _split(state, axis)).reshape(state.shape)


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


class _Measure(NamedTuple):
    """A measurement step of a conversion.

    ``is_x`` holds whether ``row`` is measured in X when its block's first
    effective outcome is 0 and when it is 1: the two differ only for a T
    block's later measurements. ``first`` marks a block's first measurement,
    and each measured logical output, as the start of a list of effective
    outcomes. ``closes`` holds the block's kind and output row on its last
    measurement, and is None on the others and on a measured logical output.
    """

    row: int
    is_x: tuple[bool, bool]
    first: bool
    closes: tuple[GateKind, int] | None


def _steps(conv: IcmConversion) -> list[tuple[int, int] | _Measure]:
    """The conversion in execution order: a CNOT's ``(control, target)`` or
    a :class:`_Measure`.

    Each block measures the rows of its first pattern right after its last
    CNOT, and each measured logical output follows the gates in qubit order.
    """
    circ, _, outputs = _ends(conv)
    blocks = {max(inst.cnot_slots): inst for inst in conv.instances}
    steps: list[tuple[int, int] | _Measure] = []
    for gi, g in enumerate(circ.gates):
        steps.append(g.qubits)
        inst = blocks.get(gi)
        if inst is None:
            continue
        template = inst.template
        # A T block's correction pattern comes first: the wire's effective Z
        # outcome, measured in it, selects the basis of each later row, 1
        # the correction pattern's and 0 the plain one's.
        if_one, if_zero = template.measurement_patterns[0], template.measurement_patterns[-1]
        last = len(if_one) - 1
        for pos, ((loc, one), (_, zero)) in enumerate(zip(if_one, if_zero)):
            is_x = one is MeasBasis.X
            steps.append(_Measure(
                inst.rows[loc], (zero is MeasBasis.X if pos else is_x, is_x), pos == 0,
                (inst.kind, inst.rows[template.output_qubit]) if pos == last else None))
    for row in outputs:
        if circ.meas[row] is not MeasBasis.OPEN:
            is_x = circ.meas[row] is MeasBasis.X
            steps.append(_Measure(row, (is_x, is_x), True, None))
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
    return sum(isinstance(step, _Measure) for step in _steps(conv))


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


def _cnot(state: np.ndarray, c: int, t: int) -> None:
    """CNOT from row ``c`` onto row ``t`` of the C-contiguous ``state``, in
    place: where ``c`` is 1, the halves at ``t`` = 0 and 1 swap."""
    a, b = sorted((c, t))
    # rows a and b on axes 1 and 3
    view = state.reshape(2 ** a, 2, 2 ** (b - a - 1), 2, -1)
    lo, hi = ((view[:, 1, :, 0], view[:, 1, :, 1]) if c < t
              else (view[:, 0, :, 1], view[:, 1, :, 1]))
    kept = hi.copy()
    hi[...] = lo
    lo[...] = kept


def _hadamard(state: np.ndarray, row: int, where: np.ndarray | None = None) -> None:
    """H on ``row`` of the C-contiguous ``state``, in place, on the branches
    where ``where`` is set (on all of them if it is None)."""
    view = _split(state, row)
    lo, hi = view[:, 0], view[:, 1]
    if where is None:
        diff = lo - hi
        lo += hi
        hi[...] = diff
        view *= _SQRT2_INV
        return
    out = np.empty_like(view)
    np.add(lo, hi, out=out[:, 0])
    np.subtract(lo, hi, out=out[:, 1])
    out *= _SQRT2_INV
    np.copyto(state, out.reshape(state.shape), where=where)


def _sum_out(weight: np.ndarray, axis: int) -> np.ndarray:
    """``weight`` summed over ``axis``, kept with size 1: one add of its halves."""
    halves = _split(weight, axis)
    shape = weight.shape
    return (halves[:, 0] + halves[:, 1]).reshape(shape[:axis] + (1,) + shape[axis + 1:])


def _feasible(state: np.ndarray, measured: list[int]) -> np.ndarray:
    """Which branches of the final ``state`` are feasible, per trial: those
    where each outcome, in measurement order, keeps at least
    ``_FEASIBLE_TOL`` of the weight before it. The final state holds the
    weight of every prefix of outcomes (see the module docstring)."""
    weight = np.abs(state) ** 2
    for row in range(state.ndim - 1):
        if row not in measured:
            weight = _sum_out(weight, row)
    feasible = np.ones(weight.shape, dtype=bool)
    for row in reversed(measured):
        before = _sum_out(weight, row)
        feasible &= weight >= _FEASIBLE_TOL * before
        weight = before
    return feasible


def _deferred(conv: IcmConversion, inputs: np.ndarray | None) -> _Branches:
    """Every outcome branch of ``conv`` for every trial of ``inputs`` (as for
    :func:`assemble_state`) in one pass over the (2,)*n + (T,) tensor."""
    circ, open_rows, _ = _ends(conv)
    n = circ.qubit_count
    if n > QUBIT_BUDGET:
        raise ValueError(f"simulation capped at {QUBIT_BUDGET} qubits")
    # assemble_state builds a new tensor, so the pass may write it in place
    state = np.ascontiguousarray(
        assemble_state(circ.inits, open_rows, inputs, _conjugate_rows(conv)))
    no_flip = np.zeros((1,) * (n + 1), dtype=np.uint8)
    x, z = [no_flip] * n, [no_flip] * n
    events: list[tuple[int, np.ndarray, np.ndarray]] = []
    for step in _steps(conv):
        if not isinstance(step, _Measure):
            c, t = step
            _cnot(state, c, t)
            if x[c] is not no_flip:
                x[t] = x[t] ^ x[c]
            if z[t] is not no_flip:
                z[c] = z[c] ^ z[t]
            continue
        row, (x_if_zero, x_if_one), first, closes = step
        if first:
            eff = []
        if x_if_zero == x_if_one:
            is_x = np.asarray(x_if_one)
            flip = z[row] if x_if_one else x[row]
            if x_if_one:
                _hadamard(state, row)
        else:
            # a T block's later bases follow its wire's effective Z outcome
            is_x = eff[0] == x_if_one
            flip = np.where(is_x, z[row], x[row])
            _hadamard(state, row, is_x)
        # The measured row is never touched again, so its axis is left in
        # place and indexes the raw outcome of every branch at once. A
        # pending X flips Z outcomes, a pending Z flips X outcomes; the
        # effective outcome is the one the ideal (frame-free) circuit saw.
        eff.append(_axis_bits(n + 1, row) ^ flip)
        events.append((row, is_x, eff[-1]))
        x[row] = z[row] = no_flip
        if closes is not None:
            kind, out = closes
            fx, fz = _byproduct(kind, eff)
            x[out] = x[out] ^ fx
            z[out] = z[out] ^ fz
    return _Branches(state, _feasible(state, [row for row, _, _ in events]), events, x, z)


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
        # Z, then X, where the branch's frame holds them; the row's own
        # axis is dropped from the bits, which never depend on it
        cut = (slice(None),) * r
        lo, hi = state[cut + (0,)], state[cut + (1,)]
        np.negative(hi, out=hi, where=run.z[r][cut + (0,)].view(bool))
        flip = run.x[r][cut + (0,)].view(bool)
        kept = hi.copy()
        np.copyto(hi, lo, where=flip)
        np.copyto(lo, kept, where=flip)
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


def _random_inputs(n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` draws of :func:`random_product_state`, one per column:
    shape (2**n, trials).

    One ``rng.normal`` call draws the per-trial loop's stream: for each
    trial and qubit, two real parts, then two imaginary parts.
    """
    draws = rng.normal(size=(trials, n, 2, 2))
    re, im = draws[:, :, 0, :, None], draws[:, :, 1, :, None]
    # each squared norm as np.linalg.norm takes it, one dot product a part
    square = (re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im)[..., 0]
    v = (re + 1j * im)[..., 0] / np.sqrt(square)
    state = v[:, 0]
    for q in range(1, n):
        state = (state[:, :, None] * v[:, q, None, :]).reshape(trials, -1)
    return state.T


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
            inputs = _random_inputs(n_in, min(chunk, count - lo), rng)
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
