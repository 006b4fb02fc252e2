"""Canonical geometry document: versioned JSON plus OBJ and CSV exports.

JSON output is byte-deterministic: keys are sorted, separators fixed, and
line endings are LF. The OBJ export emits one cuboid per defect segment and
per distillation box for external 3D viewers; every cuboid's faces name its
own eight corners by OBJ relative (negative) indices, so they are one
constant block.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any

from . import __version__
from .geometry import Coord, Geometry, LayoutParams, Pin, Segment
from .pipeline import PipelineConfig, PipelineResult
from .scheduling import RNG_ALGORITHM, BoxInstance, Connection

DOCUMENT_VERSION = 2

JSON_FORMAT = "json"
OBJ_FORMAT = "obj"
CSV_FORMAT = "csv"
FORMATS = (JSON_FORMAT, OBJ_FORMAT, CSV_FORMAT)


def canonical_json(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True, allow_nan=False) + "\n").encode("ascii")


def _coord(c: Coord) -> list[int]:
    return c.as_list()


def _pin(p: Pin) -> dict:
    return {
        "coord": _coord(p.coord),
        "kind": p.kind.value,
        "role": p.role.value,
        "state": p.state.value if p.state is not None else None,
    }


def _segment(s: Segment) -> dict:
    return {"kind": s.kind.value, "a": _coord(s.a), "b": _coord(s.b)}


def _box(b: BoxInstance) -> dict:
    return {
        "state": b.state.value,
        "origin": _coord(b.origin),
        "spans": [b.dim.ispan, b.dim.jspan, b.dim.tspan],
        "pins": [_pin(p) for p in b.output_pins],
        "status": b.status.value,
        "spare": b.spare,
    }


def _connection(c: Connection) -> dict:
    return {
        "box_pin": _coord(c.box_pin.coord),
        "circuit_pin": _coord(c.circuit_pin.coord),
        "segments": [_segment(s) for s in c.segments],
    }


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


def build_document(result: PipelineResult) -> dict:
    """Assemble the full, schema-stable synthesis document."""
    geo = result.geometry
    conv = result.conversion
    doc = {
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
        "matrix": result.matrix.rows(),
        "defects": [
            {
                "kind": d.kind.value,
                "closed": d.closed,
                "segments": [_segment(s) for s in d.segments],
            }
            for d in geo.defects
        ],
        "pins": [_pin(p) for p in geo.pins],
        "injections": [
            {
                "vertex": _coord(inj.vertex),
                "state": inj.state.value,
                "pins": [_pin(p) for p in inj.pins],
                "row": inj.qubit_row,
            }
            for inj in geo.injections
        ],
        "ioports": [
            {
                "role": port.role.value,
                "basis": port.basis.value,
                "row": port.qubit_row,
                "pins": [_pin(p) for p in port.pins],
                "template": {"shape": port.template.shape.value,
                             "mirrored": port.template.mirrored},
            }
            for port in geo.ioports
        ],
        "boxes": [_box(b) for b in geo.boxes],
        "connections": [_connection(c) for c in result.connections],
        "reports": reports(result),
    }
    return doc


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
            "lo": _coord(result.bbox.lo),
            "hi": _coord(result.bbox.hi),
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
    Segments come in ``geometry.segments`` order, then boxes in order. An
    empty geometry gives a single newline.
    """
    extents = []
    for idx, seg in enumerate(geometry.segments):
        # A segment runs along one axis, so its lexicographically lower end
        # is its lowest corner on every axis.
        lo, hi = (seg.a, seg.b) if seg.a <= seg.b else (seg.b, seg.a)
        extents.append((b"segment", idx, seg.kind.value, lo.i, lo.j, lo.t, hi.i, hi.j, hi.t))
    for idx, box in enumerate(geometry.boxes):
        (x0, x1), (y0, y1), (z0, z1) = (box.extent(ax) for ax in "ijt")
        extents.append((b"box", idx, box.state.value, x0, y0, z0, x1, y1, z1))
    out = []
    for what, idx, kind, x0, y0, z0, x1, y1, z1 in extents:
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
        return canonical_json(build_document(result))
    if fmt == OBJ_FORMAT:
        return export_obj(result.geometry)
    if fmt == CSV_FORMAT:
        return export_csv(result.geometry)
    raise ValueError(f"unknown export format {fmt!r}")
