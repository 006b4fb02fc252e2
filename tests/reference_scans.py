"""Brute-force reference scans over every segment pair, layer or branch.

These are the all-pairs versions of ``analysis.min_code_distance`` and
``geometry.segment_overlaps``, the per-layer rescan version of
``analysis.slice_layers`` with the ``json.dumps`` encoder of its slice
stream in format 1 (every layer in full wherever it is named) and a
strict decoder that expands the CLI's format-2 stream into it, the
line-by-line, absolute-index version of ``document.export_obj`` with a
strict decoder (``resolve_obj``) that resolves either index form to
vertex coordinates, the replay version of
``sim.run_branches`` (every outcome string run from scratch, one
measurement collapsed at a time), and the per-trial loop version of
``sim.check_equivalence`` (each trial's input drawn, simulated and scored
on its own), and the row-object version of ``icm.to_icm``
(every block's ancillas inserted into one row list by search, rows
numbered at the end), and the dense ``np.zeros`` version of
``matrix.to_matrix`` (every cell of the rows × (CNOTs + 2) matrix
stored) with ``matrix_rows``, which expands a sparse ``MatrixRep`` into
those dense rows, and the dict-tree version of the JSON document
(``reference_document``, encoded by ``document.canonical_json``), and the
full-scan version of ``scheduling.Region.allocate`` (every occupied
rectangle tested for each box), and the every-endpoint versions of
``geometry.validate_parity`` and ``analysis.bounding_box``, and the
tuple-at-a-time versions of ``spatial.segment_spans`` and
``spatial.collinear_runs`` (one ``(line, lo, hi, item)`` tuple per span,
each line's spans sorted and merged in a Python loop); the tests compare
the indexed, templated, one-tensor, trial-batched, run-offset, sparse,
byte-writer, banded and array versions with them.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import asdict
from math import sqrt
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from tqecsynth.analysis import (
    AnalysisError, DistanceReport, Layer, LayerKind, SiteBasis, bounding_box,
    execution_schedule,
)
from tqecsynth.circuit import Circuit, Gate, GateKind, InitBasis, MeasBasis, NATIVE_KINDS
from tqecsynth import __version__
from tqecsynth.geometry import CapShape, Coord, Defect, Geometry, Pin, Segment
from tqecsynth.icm import (
    IcmConversion, PauliFrame, TemplateInstance, select_pattern, template_for,
)
from tqecsynth.document import DOCUMENT_VERSION, config_digest, reports
from tqecsynth.matrix import CONTROL, EMPTY, TARGET, _INIT_CODE, MatrixRep, _terminal_code
from tqecsynth.pipeline import PipelineResult
from tqecsynth.scheduling import RNG_ALGORITHM, BoxInstance, Connection, Region
from tqecsynth.sim import (
    H_MATRIX, QUBIT_BUDGET, MeasurementEvent, SimResult, _conjugate_rows, apply_1q,
    apply_cnot, assemble_state, branch_outputs, random_product_state, simulate_plain,
)

#: Most outcome strings ``run_branches`` replays; a test that needs more
#: branches lifts it (at most ``2 ** QUBIT_BUDGET`` can exist).
EXHAUSTIVE_BRANCH_CAP = 1024


K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


def segment_spans(defects: Sequence[Defect]) -> Iterator[tuple[tuple[str, int, int, int], int, int, int]]:
    """Each segment as ``((kind, axis, u, v), lo, hi, defect)``, in segment order.

    ``kind`` is the defect kind's value, ``axis`` 0, 1 or 2 along i, j or
    t, ``(u, v)`` the other two coordinates in (i, j, t) order, ``lo <=
    hi`` the span and ``defect`` the index in ``defects``.
    """
    for di, defect in enumerate(defects):
        kind = defect.kind.value
        for seg in defect.segments:
            a, b = seg.a, seg.b
            if a.i != b.i:
                line, lo, hi = (kind, 0, a.j, a.t), a.i, b.i
            elif a.j != b.j:
                line, lo, hi = (kind, 1, a.i, a.t), a.j, b.j
            else:
                line, lo, hi = (kind, 2, a.i, a.j), a.t, b.t
            yield (line, lo, hi, di) if lo < hi else (line, hi, lo, di)


def collinear_runs(entries: Iterable[tuple[K, int, int, T]]
                   ) -> Iterator[tuple[K, int, int, list[T]]]:
    """Merge the spans ``(line, lo, hi, item)`` of each line into maximal runs.

    Spans of one line, in order of ``lo`` (ties in input order), join the
    run before them while ``lo <= run_hi + 1``. Each run comes as ``(line,
    lo, hi, items)`` with its spans' items in that order; lines come in
    first-seen order and the runs of a line in ascending order.
    """
    lines: dict[K, list[tuple[int, int, T]]] = {}
    for line, lo, hi, item in entries:
        lines.setdefault(line, []).append((lo, hi, item))
    for line, spans in lines.items():
        spans.sort(key=itemgetter(0))
        run_lo, run_hi, item = spans[0]
        items = [item]
        for lo, hi, item in spans[1:]:
            if lo > run_hi + 1:
                yield line, run_lo, run_hi, items
                run_lo, run_hi, items = lo, hi, [item]
            else:
                items.append(item)
                run_hi = max(run_hi, hi)
        yield line, run_lo, run_hi, items


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
    d_f = 1   # every defect is sliced and exported one cell thick

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


def dense_matrix(circ: Circuit) -> np.ndarray:
    """The ICM matrix of ``circ`` as a dense (qubits, CNOTs + 2) int64 array."""
    if not circ.icm:
        raise ValueError("to_matrix requires an ICM circuit")
    n = circ.qubit_count
    k = len(circ.gates)
    cells = np.zeros((n, k + 2), dtype=np.int64)
    for q in range(n):
        cells[q, 0] = _INIT_CODE[circ.inits[q]]
        cells[q, -1] = _terminal_code(circ.inits[q], circ.meas[q])
    for col, g in enumerate(circ.gates):
        if g.kind is not GateKind.CNOT:
            raise ValueError("ICM circuit may only contain CNOT gates")
        cells[g.control, col + 1] = CONTROL
        cells[g.target, col + 1] = TARGET
    return cells


def matrix_rows(m: MatrixRep) -> list[list[int]]:
    """The dense matrix of ``m``: one list of ``cnot_count + 2`` codes per row."""
    rows = [[code, *[EMPTY] * m.cnot_count, out] for code, out in zip(m.inputs, m.outputs)]
    for col, (ctrl, tgt) in enumerate(m.cnots, start=1):
        rows[ctrl][col] = CONTROL
        rows[tgt][col] = TARGET
    return rows


def _doc_pin(p: Pin) -> dict:
    return {
        "coord": p.coord.as_list(),
        "kind": p.kind.value,
        "role": p.role.value,
        "state": p.state.value if p.state is not None else None,
    }


def _doc_segment(s: Segment) -> dict:
    return {"kind": s.kind.value, "a": s.a.as_list(), "b": s.b.as_list()}


def _doc_box(b: BoxInstance) -> dict:
    return {
        "state": b.state.value,
        "origin": b.origin.as_list(),
        "spans": [b.dim.ispan, b.dim.jspan, b.dim.tspan],
        "pins": [_doc_pin(p) for p in b.output_pins],
        "status": b.status.value,
        "spare": b.spare,
    }


def _doc_connection(c: Connection) -> dict:
    return {
        "box_pin": c.box_pin.coord.as_list(),
        "circuit_pin": c.circuit_pin.coord.as_list(),
        "segments": [_doc_segment(s) for s in c.segments],
    }


def reference_document(result: PipelineResult) -> dict:
    """The synthesis document as one dict tree, every matrix cell a list entry."""
    geo = result.geometry
    conv = result.conversion
    return {
        "version": DOCUMENT_VERSION,
        "metadata": {
            "tool": "tqecsynth",
            "tool_version": __version__,
            "rng": RNG_ALGORITHM,
            "seed": result.config.seed,
            "success_rate": result.config.success_rate,
            "config_sha256": config_digest(result.config),
        },
        "layout": asdict(geo.layout),
        "icm": {
            "rows": conv.circuit.qubit_count,
            "cnots": len(conv.circuit.gates),
            "inits": [b.value for b in conv.circuit.inits],
            "measurements": [b.value for b in conv.circuit.meas],
            "qubit_rows": [list(pair) for pair in conv.qubit_rows],
            "templates": [
                {
                    "gate": inst.kind.value,
                    "qubit": inst.qubit,
                    "rows": list(inst.rows),
                    "cnot_slots": list(inst.cnot_slots),
                    "selective": inst.selective,
                }
                for inst in conv.instances
            ],
        },
        "matrix": matrix_rows(result.matrix),
        "defects": [
            {
                "kind": d.kind.value,
                "closed": d.closed,
                "segments": [_doc_segment(s) for s in d.segments],
            }
            for d in geo.defects
        ],
        "pins": [_doc_pin(p) for p in geo.pins],
        "injections": [
            {
                "vertex": inj.vertex.as_list(),
                "state": inj.state.value,
                "pins": [_doc_pin(p) for p in inj.pins],
                "row": inj.qubit_row,
            }
            for inj in geo.injections
        ],
        "ioports": [
            {
                "role": port.role.value,
                "basis": port.basis.value,
                "row": port.qubit_row,
                "pins": [_doc_pin(p) for p in port.pins],
                "template": {"shape": port.template.shape.value,
                             "mirrored": port.template.mirrored},
            }
            for port in geo.ioports
        ],
        "boxes": [_doc_box(b) for b in geo.boxes],
        "connections": [_doc_connection(c) for c in result.connections],
        "reports": reports(result),
    }


def allocate(region: Region, j: int, jspan: int, ispan: int) -> int:
    """``region.allocate`` by a scan of every occupied rectangle."""
    j_iv = (j, j + 2 * (jspan - 1))
    i_len = 2 * (ispan - 1)
    conflicts = [iv for iv, jv in region.occupied
                 if jv[0] <= j_iv[1] and j_iv[0] <= jv[1]]
    start = region.fill.start_i
    for i_lo in sorted({start} | {iv[1] + 2 for iv in conflicts if iv[1] + 2 > start}):
        if not any(iv[0] <= i_lo + i_len and i_lo <= iv[1] for iv in conflicts):
            break
    region.occupied.append(((i_lo, i_lo + i_len), j_iv))
    return i_lo


def validate_parity(geometry: Geometry) -> list[tuple[str, str]]:
    """``geometry.validate_parity``'s (rule, message) pairs, every endpoint checked in full."""
    out: list[tuple[str, str]] = []
    for seg in geometry.segments:
        want = 3 if seg.kind.value == "primal" else 0
        for pt in (seg.a, seg.b):
            if pt.odd_count != want:
                out.append(("segment-parity",
                            f"{seg.kind.value} endpoint {pt} must have "
                            f"{'all-odd' if want else 'all-even'} coordinates"))
            if min(pt.as_list()) < 0:
                out.append(("negative-coordinate", f"endpoint {pt} has a negative coordinate"))
    for inj in geometry.injections:
        if inj.vertex.odd_count != 1:
            out.append(("vertex-parity",
                        f"injection vertex {inj.vertex} must have exactly one odd coordinate"))
    return out


def bounding_box_of_points(geometry: Geometry) -> tuple[Coord, Coord]:
    """``analysis.bounding_box``'s corners: every point listed, then six min/max scans."""
    points: list[tuple[int, int, int]] = []
    for seg in geometry.segments:
        points += (seg.a.i, seg.a.j, seg.a.t), (seg.b.i, seg.b.j, seg.b.t)
    points += [(inj.vertex.i, inj.vertex.j, inj.vertex.t) for inj in geometry.injections]
    points += [(pin.coord.i, pin.coord.j, pin.coord.t) for pin in geometry.pins]
    for box in geometry.boxes:
        points.append(tuple(box.extent(ax)[0] for ax in "ijt"))
        points.append(tuple(box.extent(ax)[1] for ax in "ijt"))
    return (Coord(*(min(p[k] for p in points) for k in range(3))),
            Coord(*(max(p[k] for p in points) for k in range(3))))


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


LAYER_KEYS = {"default_basis", "extent", "index", "kind", "marked", "t"}


def expand_stream(stream: bytes) -> bytes:
    """A format-2 slice stream back in format 1, every layer reference replaced by its record.

    Format 2 writes each layer in full once, at its first mention, names it
    as ``{"index": n}`` after that, and carries ``"stream_version": 2`` on
    its first record only. The decoder is strict: it raises ``ValueError``
    on a missing or wrong version, a reference to a layer not yet written
    in full, a layer written in full twice, or a record of another shape.
    """
    if not stream.endswith(b"\n"):
        raise ValueError("stream does not end with a newline")
    written: dict[int, dict] = {}
    lines = []
    for n, line in enumerate(stream.split(b"\n")[:-1]):
        rec = json.loads(line)
        version = rec.pop("stream_version", None)
        if n == 0 and (type(version) is not int or version != 2):
            raise ValueError(f"first record has stream_version {version!r}, want 2")
        if n and version is not None:
            raise ValueError(f"record {n} repeats the stream_version")
        if rec.keys() != {"layers", "op"}:
            raise ValueError(f"record {n} has keys {sorted(rec)}")
        layers = []
        for layer in rec["layers"]:
            idx = layer.get("index")
            if type(idx) is not int:
                raise ValueError(f"record {n} names a layer without an integer index")
            if layer.keys() == {"index"}:
                if idx not in written:
                    raise ValueError(f"record {n} names layer {idx} before its full record")
                layers.append(written[idx])
            elif layer.keys() == LAYER_KEYS:
                if idx in written:
                    raise ValueError(f"record {n} writes layer {idx} in full again")
                written[idx] = layer
                layers.append(layer)
            else:
                raise ValueError(f"record {n} has a layer with keys {sorted(layer)}")
        lines.append(json.dumps({"layers": layers, "op": rec["op"]},
                                sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n")
    return b"".join(lines)


def _cuboid(lo: tuple[int, int, int], hi: tuple[int, int, int],
            name: str, vertex_base: int, lines: list[str]) -> int:
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    lines.append(f"o {name}")
    for x in (x0, x1):
        for y in (y0, y1):
            for z in (z0, z1):
                lines.append(f"v {x} {y} {z}")
    b = vertex_base
    faces = [
        (0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
        (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    for f in faces:
        lines.append("f " + " ".join(str(b + v + 1) for v in f))
    return b + 8


def export_obj(geometry: Geometry) -> bytes:
    """One cuboid per segment and per box, built line by line from f-strings."""
    lines: list[str] = []
    base = 0
    for idx, seg in enumerate(geometry.segments):
        lo = tuple(seg.interval(ax)[0] - 1 for ax in ("i", "j", "t"))
        hi = tuple(seg.interval(ax)[1] + 1 for ax in ("i", "j", "t"))
        base = _cuboid(lo, hi, f"segment_{idx}_{seg.kind.value}", base, lines)
    for idx, box in enumerate(geometry.boxes):
        lo = tuple(box.extent(ax)[0] - 1 for ax in ("i", "j", "t"))
        hi = tuple(box.extent(ax)[1] + 1 for ax in ("i", "j", "t"))
        base = _cuboid(lo, hi, f"box_{idx}_{box.state.value}", base, lines)
    return ("\n".join(lines) + "\n").encode("ascii")


def resolve_obj(data: bytes) -> list[tuple[str, tuple, tuple]]:
    """Each OBJ object's name, its vertices, and its faces as tuples of vertex coordinates.

    A face index is absolute (1 is the file's first vertex) or relative (-1
    is the last vertex above the face line). The decoder is strict: it
    raises ``ValueError`` on index 0, an index outside the vertices written
    so far, a face that names a vertex outside its own object's vertices,
    a vertex or face before the first ``o`` line, or any other line.
    """
    objects: list[tuple[str, list, list]] = []
    vertices: list[tuple[int, int, int]] = []
    first = 0   # index in ``vertices`` of the current object's first vertex
    for n, line in enumerate(data.decode("ascii").splitlines(), 1):
        tag, *fields = line.split(" ")
        if tag == "o" and len(fields) == 1:
            objects.append((fields[0], [], []))
            first = len(vertices)
        elif tag in ("v", "f") and not objects:
            raise ValueError(f"line {n}: {tag!r} before the first object")
        elif tag == "v" and len(fields) == 3:
            vertex = tuple(int(x) for x in fields)
            vertices.append(vertex)
            objects[-1][1].append(vertex)
        elif tag == "f" and len(fields) >= 3:
            corners = []
            for field in fields:
                k = int(field)
                if k == 0 or not -len(vertices) <= k <= len(vertices):
                    raise ValueError(f"line {n}: vertex index {k} is out of range")
                k = k - 1 if k > 0 else len(vertices) + k
                if k < first:
                    raise ValueError(f"line {n}: face names vertex {k + 1}, "
                                     f"outside object {objects[-1][0]!r}")
                corners.append(vertices[k])
            objects[-1][2].append(tuple(corners))
        elif line:
            raise ValueError(f"line {n}: cannot read {line!r}")
    return [(name, tuple(vs), tuple(fs)) for name, vs, fs in objects]


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


def open_input_rows(side) -> list[int]:
    """The row of each open logical input, in qubit order: a plain
    circuit's qubits, a conversion's input rows from ``qubit_rows``."""
    if isinstance(side, Circuit):
        return list(side.open_inputs())
    return [r for r, _ in side.qubit_rows if side.circuit.inits[r] is InitBasis.OPEN]


def simulate_icm(conv: IcmConversion, input_state, next_bit) -> SimResult:
    """One branch of ``conv``, its outcomes drawn from ``next_bit(p_one)``."""
    circ = conv.circuit
    n = circ.qubit_count
    state = assemble_state(circ.inits, open_input_rows(conv), input_state,
                           _conjugate_rows(conv))[..., 0]
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

    # measured logical outputs, in qubit order
    for _, row in conv.qubit_rows:
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


def _outputs(side, inp) -> np.ndarray:
    if isinstance(side, Circuit):
        return simulate_plain(side, inp).reshape(1, -1)
    return branch_outputs(side, inp)


def check_equivalence(a, b, trials: int = 8, seed: int = 7) -> float:
    """Maximum infidelity, one trial at a time: draw the input, run both
    sides on it alone and score every pair of their branches."""
    n_in = len(open_input_rows(a))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        inp = random_product_state(n_in, rng) if n_in else None
        out_a, out_b = _outputs(a, inp), _outputs(b, inp)
        overlap = np.abs(out_a.conj() @ out_b.T) ** 2
        worst = max(worst, 1.0 - float(overlap.min()))
    return worst


class _Row:
    __slots__ = ("init", "meas", "index")

    def __init__(self, init: InitBasis):
        self.init = init
        self.meas: MeasBasis | None = None
        self.index = -1


def to_icm(circ: Circuit) -> IcmConversion:
    """Convert a decomposed circuit to ICM form, one row object per row.

    Each block's ancilla rows are inserted into the row list directly below
    the acted-on wire, found by search; rows are numbered once every gate
    is placed.
    """
    for idx, g in enumerate(circ.gates):
        if g.kind not in NATIVE_KINDS:
            raise ValueError(f"gate {idx}: {g.kind.value} is not decomposed")

    rows: list[_Row] = [_Row(b) for b in circ.inits]
    original: list[_Row] = list(rows)
    current: list[_Row] = list(rows)
    cnots: list[tuple[_Row, _Row]] = []
    raw_instances: list[tuple[GateKind, int, list[_Row], list[int]]] = []

    def insert_after(anchor: _Row, new_rows: list[_Row]) -> None:
        at = rows.index(anchor) + 1
        rows[at:at] = new_rows

    for g in circ.gates:
        if g.kind is GateKind.CNOT:
            cnots.append((current[g.control], current[g.target]))
            continue
        q = g.qubits[0]
        cur = current[q]
        tpl = template_for(g.kind)
        ancillas = [_Row(b) for b in tpl.ancilla_inits]
        insert_after(cur, ancillas)
        local = [cur, *ancillas]
        slots = []
        for c_loc, t_loc in tpl.cnots:
            slots.append(len(cnots))
            cnots.append((local[c_loc], local[t_loc]))
        for loc, basis in tpl.measurement_patterns[0]:
            local[loc].meas = basis
        current[q] = local[tpl.output_qubit]
        raw_instances.append((g.kind, q, local, slots))

    for q, row in enumerate(current):
        row.meas = circ.meas[q]

    for index, row in enumerate(rows):
        row.index = index

    gates = tuple(Gate(GateKind.CNOT, (c.index, t.index)) for c, t in cnots)
    icm_circuit = Circuit(
        qubit_count=len(rows),
        inits=tuple(r.init for r in rows),
        gates=gates,
        meas=tuple(r.meas if r.meas is not None else MeasBasis.OPEN for r in rows),
        icm=True,
    )
    instances = tuple(
        TemplateInstance(kind, q, tuple(r.index for r in local), tuple(slots))
        for kind, q, local, slots in raw_instances
    )
    qubit_rows = tuple(
        (original[q].index, current[q].index) for q in range(circ.qubit_count)
    )
    return IcmConversion(icm_circuit, instances, qubit_rows)
