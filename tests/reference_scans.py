"""Brute-force reference scans over every segment pair, layer or branch.

These are the all-pairs versions of ``analysis.min_code_distance`` and
``geometry.segment_overlaps``, the per-layer rescan version of
``analysis.slice_layers`` with the ``json.dumps`` encoder of its slice
stream, and the replay version of ``sim.run_branches`` (every outcome
string run from scratch, one measurement collapsed at a time); the tests
compare the indexed and one-tensor versions with them.
"""
from __future__ import annotations

import itertools
import json
from math import sqrt

import numpy as np

from tqecsynth.analysis import (
    AnalysisError, DistanceReport, Layer, LayerKind, SiteBasis, bounding_box,
    execution_schedule,
)
from tqecsynth.circuit import GateKind, MeasBasis
from tqecsynth.geometry import CapShape, Coord, Defect, Geometry, Segment
from tqecsynth.icm import IcmConversion, PauliFrame, select_pattern
from tqecsynth.sim import (
    H_MATRIX, QUBIT_BUDGET, MeasurementEvent, SimResult, _conjugate_rows, apply_1q,
    apply_cnot, assemble_state,
)

#: Most outcome strings ``run_branches`` replays; a test that needs more
#: branches lifts it (at most ``2 ** QUBIT_BUDGET`` can exist).
EXHAUSTIVE_BRANCH_CAP = 1024


def segment_gap(a: Segment, b: Segment) -> int:
    gap = 0
    for axis in ("i", "j", "t"):
        (alo, ahi), (blo, bhi) = a.interval(axis), b.interval(axis)
        gap += max(0, blo - ahi, alo - bhi)
    return gap


def defect_gap_cells(a: Defect, b: Defect) -> int:
    return min(segment_gap(sa, sb) for sa in a.segments for sb in b.segments) // 2


def min_code_distance(geometry: Geometry) -> DistanceReport:
    defects = list(geometry.defects) + list(geometry.connections)
    if not defects:
        raise AnalysisError("geometry has no defects")
    d_f = min(d.diameter for d in defects)

    parent = list(range(len(defects)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    gaps: dict[tuple[int, int], int] = {}
    for idx, a in enumerate(defects):
        for jdx in range(idx + 1, len(defects)):
            b = defects[jdx]
            if a.kind is not b.kind:
                continue
            gap = defect_gap_cells(a, b)
            gaps[(idx, jdx)] = gap
            if gap == 0:
                parent[find(idx)] = find(jdx)

    separation: int | None = None
    for (idx, jdx), gap in gaps.items():
        if find(idx) == find(jdx):
            continue
        if separation is None or gap < separation:
            separation = gap
    return DistanceReport.from_params(d_f, separation)


def _box(seg: Segment) -> tuple[tuple[int, int], ...]:
    return tuple(seg.interval(ax) for ax in ("i", "j", "t"))


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def segment_overlaps(geometry: Geometry) -> list[tuple[Segment, Segment]]:
    conflicts: list[tuple[Segment, Segment]] = []
    indexed: list[tuple[int, Segment, set[Coord]]] = []
    for di, defect in enumerate(geometry.defects + geometry.connections):
        verts = defect.vertices()
        joints = set(verts[1:-1])
        if defect.closed:
            joints.add(verts[0])
        for seg in defect.segments:
            indexed.append((di, seg, joints))
    for idx, (da, sa, ja) in enumerate(indexed):
        for db, sb, jb in indexed[idx + 1:]:
            if sa.kind is not sb.kind:
                continue
            boxes_a, boxes_b = _box(sa), _box(sb)
            if not all(_overlap(a, b) for a, b in zip(boxes_a, boxes_b)):
                continue
            if da == db:
                meet = [
                    Coord(i, j, t)
                    for i in range(max(boxes_a[0][0], boxes_b[0][0]), min(boxes_a[0][1], boxes_b[0][1]) + 1)
                    for j in range(max(boxes_a[1][0], boxes_b[1][0]), min(boxes_a[1][1], boxes_b[1][1]) + 1)
                    for t in range(max(boxes_a[2][0], boxes_b[2][0]), min(boxes_a[2][1], boxes_b[2][1]) + 1)
                ]
                if all(p in ja for p in meet):
                    continue
            conflicts.append((sa, sb))
    return conflicts


def _mark_box(marks: dict[tuple[int, int], SiteBasis], i_lo: int, i_hi: int,
              j_lo: int, j_hi: int, basis: SiteBasis, extent: tuple[int, int]) -> None:
    for i in range(max(i_lo, 0), min(i_hi, extent[0]) + 1):
        for j in range(max(j_lo, 0), min(j_hi, extent[1]) + 1):
            marks[(i, j)] = basis


def _segment_cross_section(seg: Segment, t: int) -> tuple[int, int, int, int] | None:
    t_lo, t_hi = seg.interval("t")
    if not t_lo - 1 <= t <= t_hi + 1:
        return None
    i_lo, i_hi = seg.interval("i")
    j_lo, j_hi = seg.interval("j")
    return i_lo - 1, i_hi + 1, j_lo - 1, j_hi + 1


def slice_layers(geometry: Geometry, lattice_cells: tuple[int, int, int]) -> list[Layer]:
    """Rescan every segment, port and injection for every layer."""
    ci, cj, ct = lattice_cells
    if min(ci, cj, ct) < 1:
        raise AnalysisError("lattice extent must be positive")
    extent = (2 * ci, 2 * cj)
    t_max = 2 * ct
    try:
        bbox = bounding_box(geometry)
        if bbox.hi.i > extent[0] or bbox.hi.j > extent[1] or bbox.hi.t > t_max \
                or min(bbox.lo.as_list()) < 0:
            raise AnalysisError("lattice extent smaller than the geometry bounding box")
    except AnalysisError as exc:
        if "empty" not in str(exc):
            raise

    layers: list[Layer] = []
    for t in range(1, t_max):
        kind = LayerKind.PRIMAL if t % 2 else LayerKind.DUAL
        marks: dict[tuple[int, int], SiteBasis] = {}
        for seg in geometry.segments:
            box = _segment_cross_section(seg, t)
            if box is not None:
                _mark_box(marks, *box, SiteBasis.Z, extent)
        for port in geometry.ioports:
            pin_a, pin_b = port.pins
            face_t = pin_a.coord.t
            if not face_t - 1 <= t <= face_t + 1:
                continue
            j = pin_a.coord.j
            i_lo = min(pin_a.coord.i, pin_b.coord.i)
            i_hi = max(pin_a.coord.i, pin_b.coord.i)
            shape = port.template.shape
            if shape is CapShape.CONFIG:
                for pin in (pin_a, pin_b):
                    _mark_box(marks, pin.coord.i - 1, pin.coord.i + 1,
                              j - 1, j + 1, SiteBasis.IO, extent)
            elif shape is CapShape.SOLID:
                _mark_box(marks, i_lo - 1, i_hi + 1, j - 1, j + 1, SiteBasis.Z, extent)
            else:  # SPLIT: bridging segment split at a shared mid vertex
                mid = (i_lo + i_hi) // 2
                mid -= mid % 2
                _mark_box(marks, i_lo - 1, mid - 1, j - 1, j + 1, SiteBasis.Z, extent)
                _mark_box(marks, mid + 1, i_hi + 1, j - 1, j + 1, SiteBasis.Z, extent)
        for inj in geometry.injections:
            pin_a, pin_b = inj.pins
            if abs(t - pin_a.coord.t) <= 1:
                for pin in inj.pins:
                    _mark_box(marks, pin.coord.i - 1, pin.coord.i + 1,
                              pin.coord.j - 1, pin.coord.j + 1, SiteBasis.Z, extent)
            if t == inj.vertex.t:
                marks[(inj.vertex.i, inj.vertex.j)] = SiteBasis.INJECTED
        layers.append(Layer(t, kind, extent, tuple(sorted(marks.items()))))
    return layers


def slice_stream(geometry: Geometry, lattice_cells: tuple[int, int, int]) -> bytes:
    """The ``tqecsynth slice`` JSONL: every instruction and its layers through ``json.dumps``."""
    layers = slice_layers(geometry, lattice_cells)

    def layer_obj(idx: int) -> dict:
        layer = layers[idx]
        return {"index": idx, "kind": layer.kind.value, "t": layer.t,
                "extent": list(layer.extent), "default_basis": "x",
                "marked": [[i, j, basis.value] for (i, j), basis in layer.marked]}

    return b"".join(
        json.dumps({"layers": [layer_obj(idx) for idx in ins.layers], "op": ins.op.value},
                   sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
        for ins in execution_schedule(layers))


class InfeasibleBranch(RuntimeError):
    """A forced outcome has (numerically) zero probability."""


def _forced(bits: tuple[int, ...]):
    it = iter(bits)

    def next_bit(p_one: float) -> int:
        m = next(it)
        if (p_one if m else 1.0 - p_one) < 1e-12:
            raise InfeasibleBranch(f"outcome {m} has probability ~0")
        return m
    return next_bit


def _measure(state, axis, basis, next_bit):
    if basis is MeasBasis.X:
        state = apply_1q(state, H_MATRIX, axis)
    sl0 = [slice(None)] * state.ndim
    sl1 = [slice(None)] * state.ndim
    sl0[axis] = 0
    sl1[axis] = 1
    p_one = float(np.sum(np.abs(state[tuple(sl1)]) ** 2))
    m = next_bit(p_one)
    out = np.zeros_like(state)
    kept = state[tuple(sl1 if m else sl0)]
    norm = sqrt(p_one if m else 1.0 - p_one)
    out[tuple(sl1 if m else sl0)] = kept / norm
    return out, m


def simulate_icm(conv: IcmConversion, input_state, next_bit) -> SimResult:
    """One branch of ``conv``, its outcomes drawn from ``next_bit(p_one)``."""
    circ = conv.circuit
    n = circ.qubit_count
    state = assemble_state(n, circ.inits, input_state, _conjugate_rows(conv))
    x = bytearray(n)
    z = bytearray(n)
    log: list[MeasurementEvent] = []
    measured: dict[int, int] = {}

    def do_measure(row: int, basis: MeasBasis) -> int:
        nonlocal state
        state, m = _measure(state, row, basis, next_bit)
        measured[row] = m
        eff = m ^ (x[row] if basis is MeasBasis.Z else z[row])
        log.append(MeasurementEvent(row, basis, m, eff))
        x[row] = 0
        z[row] = 0
        return eff

    scripts = {max(inst.cnot_slots): inst for inst in conv.instances}
    for gi, g in enumerate(circ.gates):
        c, t = g.qubits
        state = apply_cnot(state, c, t)
        x[t] ^= x[c]
        z[c] ^= z[t]
        inst = scripts.get(gi)
        if inst is None:
            continue
        src, out = inst.source_row, inst.output_row
        if inst.kind in (GateKind.P, GateKind.PDG):
            eff = do_measure(src, MeasBasis.Z)
            x[out] ^= eff
            z[out] ^= eff
        elif inst.kind in (GateKind.V, GateKind.VDG):
            eff = do_measure(src, MeasBasis.X)
            x[out] ^= 1 ^ eff
            z[out] ^= eff
        else:
            eff0 = do_measure(src, MeasBasis.Z)
            pattern = select_pattern(inst, eff0)
            e1, e2, e3, e4 = (do_measure(row, pattern[row]) for row in inst.rows[1:5])
            if eff0:
                x[out] ^= 1 ^ e1 ^ e4
                z[out] ^= 1 ^ e1 ^ e2 ^ e3
            else:
                x[out] ^= e2 ^ e3
                z[out] ^= e1 ^ e4

    for row in range(n):
        if row not in measured and circ.meas[row] in (MeasBasis.Z, MeasBasis.X):
            do_measure(row, circ.meas[row])

    frame = PauliFrame(
        frozenset(r for r in range(n) if x[r] and r not in measured),
        frozenset(r for r in range(n) if z[r] and r not in measured),
    )
    return SimResult(state, frame, tuple(log), measured)


def measurement_count(conv: IcmConversion) -> int:
    fixed = sum(
        1 for r in range(conv.circuit.qubit_count)
        if conv.circuit.meas[r] in (MeasBasis.Z, MeasBasis.X)
        and not any(r in inst.rows[:5] if inst.selective else r == inst.source_row
                    for inst in conv.instances)
    )
    return fixed + sum(5 if inst.selective else 1 for inst in conv.instances)


def run_branches(conv: IcmConversion, input_state):
    """Every outcome string replayed from the start, infeasible ones skipped."""
    if conv.circuit.qubit_count > QUBIT_BUDGET:
        raise ValueError(f"simulation capped at {QUBIT_BUDGET} qubits")
    m = measurement_count(conv)
    if 2 ** m > EXHAUSTIVE_BRANCH_CAP:
        raise ValueError(f"{2 ** m} outcome strings exceed the replay cap "
                         f"{EXHAUSTIVE_BRANCH_CAP}")
    for bits in itertools.product((0, 1), repeat=m):
        try:
            yield simulate_icm(conv, input_state, _forced(bits))
        except InfeasibleBranch:
            continue
