"""Canonical geometry document: versioned JSON plus OBJ and CSV exports.

JSON output is byte-deterministic: keys are sorted, separators fixed, and
line endings are LF. One writer, ``document_pieces``, yields it as byte
pieces; ``export`` joins them and ``build_document`` parses them. The OBJ
export emits one cuboid per defect segment and per distillation box for
external 3D viewers; every cuboid's faces name its own eight corners by
OBJ relative (negative) indices, so they are one constant block.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Iterable, Iterator

from . import __version__
from .circuit import InitBasis
from .geometry import (
    CapShape, Defect, Geometry, Injection, IOPort, LayoutParams, Pin, PinRole, PortBasis,
    PortRole, Segment, SegmentKind,
)
from .matrix import CONTROL, EMPTY, TARGET, MatrixRep
from .pipeline import PipelineConfig, PipelineResult
from .scheduling import RNG_ALGORITHM, BoxInstance, BoxStatus, Connection

DOCUMENT_VERSION = 2

JSON_FORMAT = "json"
OBJ_FORMAT = "obj"
CSV_FORMAT = "csv"
FORMATS = (JSON_FORMAT, OBJ_FORMAT, CSV_FORMAT)


def _dumps(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False).encode("ascii")


def canonical_json(payload: Any) -> bytes:
    return _dumps(payload) + b"\n"


def config_digest(config: PipelineConfig) -> str:
    # The layout is not a setting: box_layout derives it from the default
    # LayoutParams. Those defaults stay in the hashed payload so that
    # config_sha256 keeps the values documents and tests already carry.
    payload = {
        "success_rate": config.success_rate,
        "spares": asdict(config.spares),
        "layout": asdict(LayoutParams()),
        "box_dims": {k.value: [d.ispan, d.jspan, d.tspan]
                     for k, d in sorted(config.box_dims.items(), key=lambda kv: kv[0].value)},
        "fill": asdict(config.fill),
        "cube_side": config.cube_side,
    }
    return hashlib.sha256(canonical_json(payload)).hexdigest()


# The JSON token of every enum member and literal the document holds, as
# json.dumps writes it, keyed by id: Enum.__hash__ runs in Python.
_TOKEN = {id(m): _dumps(m.value) for enum in (SegmentKind, PinRole, InitBasis, PortRole,
                                              PortBasis, CapShape, BoxStatus) for m in enum}
_TOKEN.update({id(None): b"null", id(True): b"true", id(False): b"false"})

# Sorted-key templates of the document's repeated objects.
_PIN = b'{"coord":[%d,%d,%d],"kind":%s,"role":%s,"state":%s}'
_SEGMENT = b'{"a":[%d,%d,%d],"b":[%d,%d,%d],"kind":%s}'
_DEFECT = b'{"closed":%s,"kind":%s,"segments":[%s]}'
_INJECTION = b'{"pins":[%s],"row":%d,"state":%s,"vertex":[%d,%d,%d]}'
_IOPORT = b'{"basis":%s,"pins":[%s],"role":%s,"row":%d,"template":{"mirrored":%s,"shape":%s}}'
_BOX = (b'{"origin":[%d,%d,%d],"pins":[%s],"spans":[%d,%d,%d],"spare":%s,"state":%s,'
        b'"status":%s}')
_CONNECTION = b'{"box_pin":[%d,%d,%d],"circuit_pin":[%d,%d,%d],"segments":[%s]}'

# Interior matrix codes are single digits, so every interior cell of a
# row is two bytes: its digit and a comma.
_EMPTY_CELL = b"%d," % EMPTY
_CONTROL_DIGIT, _TARGET_DIGIT = (ord(b"%d" % code) for code in (CONTROL, TARGET))


def _pin(p: Pin) -> bytes:
    c = p.coord
    return _PIN % (c.i, c.j, c.t, _TOKEN[id(p.kind)], _TOKEN[id(p.role)], _TOKEN[id(p.state)])


def _pins(pins: tuple[Pin, ...]) -> bytes:
    return b",".join(map(_pin, pins))


def _segments(segments: tuple[Segment, ...]) -> bytes:
    return b",".join(_SEGMENT % (s.a.i, s.a.j, s.a.t, s.b.i, s.b.j, s.b.t, _TOKEN[id(s.kind)])
                     for s in segments)


def _defect(d: Defect) -> bytes:
    return _DEFECT % (_TOKEN[id(d.closed)], _TOKEN[id(d.kind)], _segments(d.segments))


def _injection(inj: Injection) -> bytes:
    v = inj.vertex
    return _INJECTION % (_pins(inj.pins), inj.qubit_row, _TOKEN[id(inj.state)], v.i, v.j, v.t)


def _ioport(port: IOPort) -> bytes:
    tpl = port.template
    return _IOPORT % (_TOKEN[id(port.basis)], _pins(port.pins), _TOKEN[id(port.role)],
                      port.qubit_row, _TOKEN[id(tpl.mirrored)], _TOKEN[id(tpl.shape)])


def _box(b: BoxInstance) -> bytes:
    o, d = b.origin, b.dim
    return _BOX % (o.i, o.j, o.t, _pins(b.output_pins), d.ispan, d.jspan, d.tspan,
                   _TOKEN[id(b.spare)], _TOKEN[id(b.state)], _TOKEN[id(b.status)])


def _connection(c: Connection) -> bytes:
    box, circ = c.box_pin.coord, c.circuit_pin.coord
    return _CONNECTION % (box.i, box.j, box.t, circ.i, circ.j, circ.t, _segments(c.segments))


def _array(items: Iterable[bytes]) -> Iterator[bytes]:
    """A JSON array of already encoded ``items``, one piece per item and separator."""
    yield b"["
    sep = b""
    for item in items:
        yield sep
        yield item
        sep = b","
    yield b"]"


def _matrix_rows(m: MatrixRep) -> Iterator[bytes]:
    """The dense ``"matrix"`` value, a row at a time, from the sparse cells.

    Each row is its input code, ``cnot_count`` interior cells and its output
    code; the interior starts as ``0,`` per CNOT and gets the control and
    target digits of the row's CNOTs set in place.
    """
    marks: list[list[tuple[int, int]]] = [[] for _ in m.inputs]
    for col, (ctrl, tgt) in enumerate(m.cnots):
        marks[ctrl].append((2 * col, _CONTROL_DIGIT))
        marks[tgt].append((2 * col, _TARGET_DIGIT))
    blank = _EMPTY_CELL * m.cnot_count
    yield b"["
    sep = b""
    for code, out, row_marks in zip(m.inputs, m.outputs, marks):
        row = bytearray(blank)
        for pos, digit in row_marks:
            row[pos] = digit
        yield b"%s[%d," % (sep, code)
        yield row
        yield b"%d]" % out
        sep = b","
    yield b"]"


def _icm(result: PipelineResult) -> dict:
    conv = result.conversion
    return {
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
    }


def _metadata(result: PipelineResult) -> dict:
    return {
        "tool": "tqecsynth",
        "tool_version": __version__,
        "rng": RNG_ALGORITHM,
        "seed": result.config.seed,
        "success_rate": result.config.success_rate,
        "config_sha256": config_digest(result.config),
    }


def document_pieces(result: PipelineResult) -> Iterator[bytes]:
    """The canonical synthesis document as byte pieces; joined, they are its bytes.

    The keys come in sorted order. The repeated objects (boxes, connections,
    defects, injections, ports and pins) are written from sorted-key
    templates, one piece per object, and the dense ``"matrix"`` key one
    row at a time, so the document is never held whole. The small objects
    (``icm``, ``layout``, ``metadata``, ``reports``) go through
    :func:`canonical_json`'s encoder. They are encoded before the first
    piece is yielded, so a report that fails (the code distance is measured
    here) fails before any byte is written.
    """
    geo = result.geometry
    icm = _dumps(_icm(result))
    layout = _dumps(asdict(geo.layout))
    metadata = _dumps(_metadata(result))
    report = _dumps(reports(result))
    yield b'{"boxes":'
    yield from _array(map(_box, geo.boxes))
    yield b',"connections":'
    yield from _array(map(_connection, result.connections))
    yield b',"defects":'
    yield from _array(map(_defect, geo.defects))
    yield b',"icm":' + icm + b',"injections":'
    yield from _array(map(_injection, geo.injections))
    yield b',"ioports":'
    yield from _array(map(_ioport, geo.ioports))
    yield b',"layout":' + layout + b',"matrix":'
    yield from _matrix_rows(result.matrix)
    yield b',"metadata":' + metadata + b',"pins":'
    yield from _array(map(_pin, geo.pins))
    yield b',"reports":' + report + b',"version":%d}\n' % DOCUMENT_VERSION


def build_document(result: PipelineResult) -> dict:
    """The synthesis document as a dict: the parsed bytes of :func:`document_pieces`."""
    return json.loads(export(result, JSON_FORMAT))


def reports(result: PipelineResult) -> dict:
    """The document's ``"reports"`` object: distance, volume, bbox and schedule."""
    return {
        "distance": asdict(result.distance),
        "volume": {
            "cube_side": result.volume.cube_side,
            "bbox_in_cubes": list(result.volume.bbox_in_cubes),
            "units_per_axis": list(result.volume.units_per_axis),
            "volume_units": result.volume.volume_units,
        },
        "bbox": {
            "lo": result.bbox.lo.as_list(),
            "hi": result.bbox.hi.as_list(),
            "cells": list(result.bbox.cells()),
        },
        "schedule": _schedule_report(result),
    }


def _schedule_report(result: PipelineResult) -> dict:
    boxes = result.geometry.boxes
    by_state = {"a": 0, "y": 0}
    spare_by_state = {"a": 0, "y": 0}
    for b in boxes:
        by_state[b.state.value] += 1
        if b.spare:
            spare_by_state[b.state.value] += 1
    report = {
        "boxes_total": len(boxes),
        "boxes_by_state": by_state,
        "spares_by_state": spare_by_state,
        "assignments": len(result.failure.assignments) if result.failure else 0,
    }
    if result.failure is not None:
        report["failed_initial"] = dict(sorted(result.failure.failed_initial.items()))
        report["failed_total"] = dict(sorted(result.failure.failed_total.items()))
    return report


# One OBJ cuboid: its name and its corners (x, y, z) in x-major order.
_CUBOID = b"o %s_%d_%s\n" + b"v %d %d %d\n" * 8
# The six quad faces of a cuboid, as 1-based indices of its corners.
_FACE_CORNERS = (1, 2, 4, 3, 5, 7, 8, 6, 1, 5, 6, 2, 3, 4, 8, 7, 1, 3, 7, 5, 2, 6, 8, 4)
# The same faces as OBJ relative indices, which count back from the face
# line (-1 is the vertex just above it). Every cuboid's faces follow its own
# eight corners, so every cuboid shares this one block: corner c is c - 9.
_FACES = b"".join(b"f %d %d %d %d\n" % tuple(c - 9 for c in _FACE_CORNERS[k:k + 4])
                  for k in range(0, len(_FACE_CORNERS), 4))


def export_obj(geometry: Geometry) -> bytes:
    """One cuboid per segment and per box, each widened by one unit on every side.

    Each cuboid is an ``o`` line naming it (``segment_N_kind`` or
    ``box_N_state``), its eight corners as ``v`` lines and its six faces as
    ``f`` lines in relative indices, the same block for every cuboid.
    Segments come in ``geometry.segments`` order, each extent a row of
    ``geometry.spans.boxes()``, then boxes in order. An empty geometry
    gives a single newline.
    """
    kinds = [kind.value for kind in SegmentKind]    # by a span's kind code
    extents = [(b"segment", idx, kinds[kind], *box) for idx, (kind, box) in enumerate(
        zip(geometry.spans.kind.tolist(), geometry.spans.boxes().tolist()))]
    for idx, box in enumerate(geometry.boxes):
        extents.append((b"box", idx, box.state.value, *box.extent("i"), *box.extent("j"),
                        *box.extent("t")))
    out = []
    for what, idx, kind, x0, x1, y0, y1, z0, z1 in extents:
        x0, y0, z0, x1, y1, z1 = x0 - 1, y0 - 1, z0 - 1, x1 + 1, y1 + 1, z1 + 1
        out += (_CUBOID % (
            what, idx, kind.encode("ascii"),
            x0, y0, z0, x0, y0, z1, x0, y1, z0, x0, y1, z1,
            x1, y0, z0, x1, y0, z1, x1, y1, z0, x1, y1, z1), _FACES)
    return b"".join(out) or b"\n"


def export_csv(geometry: Geometry) -> bytes:
    rows = ["kind,i1,j1,t1,i2,j2,t2"]
    for seg in geometry.segments:
        rows.append(f"{seg.kind.value},{seg.a.i},{seg.a.j},{seg.a.t},"
                    f"{seg.b.i},{seg.b.j},{seg.b.t}")
    return ("\n".join(rows) + "\n").encode("ascii")


def export(result: PipelineResult, fmt: str) -> bytes:
    if fmt == JSON_FORMAT:
        return b"".join(document_pieces(result))
    if fmt == OBJ_FORMAT:
        return export_obj(result.geometry)
    if fmt == CSV_FORMAT:
        return export_csv(result.geometry)
    raise ValueError(f"unknown export format {fmt!r}")
