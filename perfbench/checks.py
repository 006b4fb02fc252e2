"""Output checks that do not rest on the compiler's own verdicts.

Each check returns a list of failure messages; an empty list means the
output passed. Geometry is read back from the emitted document where one
exists, and the layer stream is read back from the emitted JSON lines.
"""
from __future__ import annotations

import json
import math
import random

from tqecsynth.circuit import InitBasis
from tqecsynth.geometry import (
    Coord, Defect, Geometry, Injection, LayoutParams, Pin, PinRole, Segment, SegmentKind,
    validate_parity,
)

ORACLE_TOLERANCE = 1e-10


def _axis_diffs(a: list[int], b: list[int]) -> int:
    return sum(1 for u, v in zip(a, b) if u != v)


def _point_in_polygon(px: int, py: int, poly: list[tuple[int, int]]) -> bool:
    """Even-odd ray cast along +i; strand points never lie on a loop edge."""
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
    return inside


def _bbox(points: list[list[int]]) -> tuple[list[int], list[int]]:
    lo = [min(p[k] for p in points) for k in range(3)]
    hi = [max(p[k] for p in points) for k in range(3)]
    return lo, hi


def volume_from_points(points: list[list[int]], cube_side: int) -> int:
    """Volume units of the bounding box of ``points``: cells, d-cubes, 5^3 units."""
    lo, hi = _bbox(points)
    units = 1
    for k in range(3):
        cells = (hi[k] - lo[k]) // 2 + 1
        units *= math.ceil(math.ceil(cells / cube_side) / 5)
    return units


def document_points(doc: dict) -> list[list[int]]:
    """Every coordinate a document's bounding box must cover."""
    points: list[list[int]] = []
    for defect in doc["defects"]:
        for seg in defect["segments"]:
            points += [seg["a"], seg["b"]]
    for conn in doc["connections"]:
        for seg in conn["segments"]:
            points += [seg["a"], seg["b"]]
    points += [inj["vertex"] for inj in doc["injections"]]
    points += [pin["coord"] for pin in doc["pins"]]
    for box in doc["boxes"]:
        lo = box["origin"]
        points.append(lo)
        points.append([lo[k] + 2 * (box["spans"][k] - 1) for k in range(3)])
    return points


def check_parity(doc: dict) -> list[str]:
    """Rebuild the document's geometry and run ``validate_parity`` on it."""
    def defect(d: dict, closed: bool) -> Defect:
        segs = tuple(Segment(SegmentKind(s["kind"]), Coord(*s["a"]), Coord(*s["b"]))
                     for s in d["segments"])
        return Defect(segs[0].kind, segs, closed)

    injections = tuple(
        Injection(Coord(*inj["vertex"]), InitBasis(inj["state"]),
                  tuple(Pin(Coord(*p["coord"]), SegmentKind(p["kind"]), PinRole(p["role"]))
                        for p in inj["pins"]),
                  inj["row"])
        for inj in doc["injections"]
    )
    geometry = Geometry(
        defects=tuple(defect(d, d["closed"]) for d in doc["defects"]),
        pins=(),
        injections=injections,
        ioports=(),
        layout=LayoutParams(**doc["layout"]),
        connections=tuple(defect(c, False) for c in doc["connections"] if c["segments"]),
    )
    return [f"parity: {d.message}" for d in validate_parity(geometry)]


def check_connections(doc: dict) -> list[str]:
    """Two routes per injection, each a <=3-segment axis-aligned box-to-pin chain."""
    out: list[str] = []
    served: dict[tuple, int] = {}
    used_box_pins: set[tuple] = set()
    box_pins = {tuple(p["coord"]): box["status"] for box in doc["boxes"] for p in box["pins"]}
    for idx, conn in enumerate(doc["connections"]):
        segs = conn["segments"]
        where = f"connection {idx}"
        served[tuple(conn["circuit_pin"])] = served.get(tuple(conn["circuit_pin"]), 0) + 1
        box_pin = tuple(conn["box_pin"])
        if box_pins.get(box_pin) != "success":
            out.append(f"{where}: box pin {box_pin} is not on a successful box")
        if box_pin in used_box_pins:
            out.append(f"{where}: box pin {box_pin} serves two connections")
        used_box_pins.add(box_pin)
        if not 1 <= len(segs) <= 3:
            out.append(f"{where}: {len(segs)} segments")
            continue
        if segs[0]["a"] != conn["box_pin"] or segs[-1]["b"] != conn["circuit_pin"]:
            out.append(f"{where}: does not run from box pin to circuit pin")
        for prev, cur in zip(segs, segs[1:]):
            if prev["b"] != cur["a"]:
                out.append(f"{where}: segments do not chain")
        for seg in segs:
            if _axis_diffs(seg["a"], seg["b"]) != 1 or seg["kind"] != "primal":
                out.append(f"{where}: segment {seg['a']}->{seg['b']} is not axis-aligned primal")
    for inj in doc["injections"]:
        for pin in inj["pins"]:
            count = served.get(tuple(pin["coord"]), 0)
            if count != 1:
                out.append(f"injection pin {pin['coord']} has {count} connections")
    if len(doc["connections"]) != 2 * len(doc["injections"]):
        out.append(f"{len(doc['connections'])} connections for "
                   f"{len(doc['injections'])} injections")
    return out


def check_cnot_loops(doc: dict) -> list[str]:
    """Each dual loop encircles exactly the inner strands of its CNOT's rows."""
    out: list[str] = []
    layout = doc["layout"]
    matrix = doc["matrix"]
    strands = []
    for d in doc["defects"]:
        if d["kind"] != "primal" or len(d["segments"]) != 1:
            continue
        a, b = d["segments"][0]["a"], d["segments"][0]["b"]
        if a[0] == b[0] and a[1] == b[1]:
            strands.append((a[0], a[1], min(a[2], b[2]), max(a[2], b[2])))
    loops = [d for d in doc["defects"] if d["kind"] == "dual"]
    if len(loops) != len(matrix[0]) - 2:
        out.append(f"{len(loops)} dual loops for {len(matrix[0]) - 2} CNOT columns")
    for d in loops:
        verts = [s["a"] for s in d["segments"]]
        ts = {v[2] for v in verts} | {s["b"][2] for s in d["segments"]}
        if not d["closed"] or len(ts) != 1:
            out.append(f"dual defect at {verts[0]} is not a closed planar loop")
            continue
        t = ts.pop()
        col, rem = divmod(t - layout["t_in"] - 1, layout["t_pitch"])
        col -= 1
        if rem or not 0 <= col < len(matrix[0]) - 2:
            out.append(f"loop at t={t} lies on no CNOT column")
            continue
        column = [row[col + 1] for row in matrix]
        ctrl = [r for r, code in enumerate(column) if code == 1]
        tgt = [r for r, code in enumerate(column) if code == 2]
        if len(ctrl) != 1 or len(tgt) != 1:
            out.append(f"matrix column {col} is not one CNOT")
            continue
        want = {(layout["i_inner"], layout["j_base"] + layout["j_pitch"] * r)
                for r in (ctrl[0], tgt[0])}
        poly = [(v[0], v[1]) for v in verts]
        i_lo, i_hi = min(p[0] for p in poly), max(p[0] for p in poly)
        j_lo, j_hi = min(p[1] for p in poly), max(p[1] for p in poly)
        got = {
            (i, j) for i, j, s_lo, s_hi in strands
            if s_lo <= t <= s_hi and i_lo < i < i_hi and j_lo < j < j_hi
            and _point_in_polygon(i, j, poly)
        }
        if got != want:
            out.append(f"loop for column {col} encircles {sorted(got)}, want {sorted(want)}")
    return out


def check_document(doc: dict) -> list[str]:
    out = check_parity(doc) + check_connections(doc) + check_cnot_loops(doc)
    volume = doc["reports"]["volume"]
    recomputed = volume_from_points(document_points(doc), volume["cube_side"])
    if recomputed != volume["volume_units"]:
        out.append(f"reported volume {volume['volume_units']} != recomputed {recomputed}")
    return out


def expected_instructions(layer_count: int) -> int:
    """Length of the init/entangle/measure loop over ``layer_count`` layers."""
    if layer_count == 1:
        return 2
    return 6 * (layer_count // 2) + 2


def geometry_points(geometry) -> list[list[int]]:
    points: list[list[int]] = []
    for seg in geometry.segments:
        points += [seg.a.as_list(), seg.b.as_list()]
    points += [inj.vertex.as_list() for inj in geometry.injections]
    points += [pin.coord.as_list() for pin in geometry.pins]
    for box in geometry.boxes:
        points.append(box.origin.as_list())
        points.append([box.extent(ax)[1] for ax in "ijt"])
    return points


def check_layer_stream(path, geometry, seed: int, samples: int = 12) -> list[str]:
    """Layer count, instruction count, and Z cross-sections of sampled segments."""
    out: list[str] = []
    _, hi = _bbox(geometry_points(geometry))
    ct = max(1, math.ceil(hi[2] / 2))
    want_layers = 2 * ct - 1
    extent = (2 * max(1, math.ceil(hi[0] / 2)), 2 * max(1, math.ceil(hi[1] / 2)))

    rng = random.Random(seed)
    segments = list(geometry.segments)
    probes: dict[int, list] = {}
    for seg in rng.sample(segments, min(samples, len(segments))):
        t_lo, t_hi = seg.interval("t")
        t = rng.randint(max(1, t_lo - 1), min(want_layers, t_hi + 1))
        probes.setdefault(t, []).append(seg)

    overrides: dict[tuple[int, int, int], str] = {}
    for inj in geometry.injections:
        overrides[(inj.vertex.i, inj.vertex.j, inj.vertex.t)] = "injected"
    for port in geometry.ioports:
        if port.template.shape.value != "config":
            continue
        for pin in port.pins:
            c = pin.coord
            for t in range(c.t - 1, c.t + 2):
                for i in range(c.i - 1, c.i + 2):
                    for j in range(c.j - 1, c.j + 2):
                        overrides[(i, j, t)] = "io"

    seen: dict[int, tuple[int, str]] = {}
    marks: dict[int, dict[tuple[int, int], str]] = {}
    ops: list[str] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            rec = json.loads(line)
            ops.append(rec["op"])
            for layer in rec["layers"]:
                idx = layer["index"]
                if idx not in seen:
                    seen[idx] = (layer["t"], layer["kind"])
                    if list(layer["extent"]) != list(extent):
                        out.append(f"layer {idx} extent {layer['extent']} != {list(extent)}")
                    if layer["t"] in probes:
                        marks[layer["t"]] = {(i, j): b for i, j, b in layer["marked"]}

    if sorted(seen) != list(range(want_layers)):
        out.append(f"{len(seen)} layers, want 2*ct-1 = {want_layers}")
    for idx, (t, kind) in seen.items():
        if t != idx + 1 or kind != ("primal" if t % 2 else "dual"):
            out.append(f"layer {idx} is {kind} at t={t}")
    if len(ops) != expected_instructions(want_layers):
        out.append(f"{len(ops)} instructions, want {expected_instructions(want_layers)}")
    if ops and (ops[0] != "init" or ops[-1] != "measure"):
        out.append("instruction stream does not start with init and end with measure")
    for t, segs in probes.items():
        layer = marks.get(t, {})
        for seg in segs:
            i_lo, i_hi = seg.interval("i")
            j_lo, j_hi = seg.interval("j")
            for i in range(max(0, i_lo - 1), min(extent[0], i_hi + 1) + 1):
                for j in range(max(0, j_lo - 1), min(extent[1], j_hi + 1) + 1):
                    want = overrides.get((i, j, t), "z")
                    if layer.get((i, j)) != want:
                        out.append(f"site ({i},{j}) at t={t} in {seg} is "
                                   f"{layer.get((i, j), 'x')}, want {want}")
                        break
    return out


def check_oracle_report(report: dict) -> list[str]:
    out = []
    if not report.get("pass") or report.get("max_infidelity", 1.0) > ORACLE_TOLERANCE:
        out.append(f"verify report max infidelity {report.get('max_infidelity')}")
    return out
