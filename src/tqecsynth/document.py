"""Canonical geometry document: versioned JSON plus OBJ and CSV exports.

JSON output is byte-deterministic: keys are sorted, separators fixed, and
line endings are LF. The OBJ export emits one cuboid per defect segment and
per distillation box for external 3D viewers.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any

from . import __version__
from .geometry import Coord, Geometry, Pin, Segment
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
    payload = {
        "success_rate": config.success_rate,
        "spares": asdict(config.spares),
        "layout": asdict(config.layout),
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
        "matrix": result.matrix.cells.tolist(),
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
        "reports": {
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
        },
    }
    return doc


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
        "assignments": len(result.assignments),
    }
    if result.failure is not None:
        report["failed_initial"] = dict(sorted(result.failure.failed_initial.items()))
        report["failed_total"] = dict(sorted(result.failure.failed_total.items()))
    return report


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
    """One cuboid per segment (inflated to cell width) and per box."""
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
