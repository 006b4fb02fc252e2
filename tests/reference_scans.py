"""Brute-force reference scans over every segment pair or every layer.

These are the all-pairs versions of ``analysis.min_code_distance`` and
``geometry.segment_overlaps``, and the per-layer rescan version of
``analysis.slice_layers``; the tests compare the indexed versions with them.
"""
from __future__ import annotations

from tqecsynth.analysis import (
    AnalysisError, DistanceReport, Layer, LayerKind, SiteBasis, bounding_box,
)
from tqecsynth.geometry import CapShape, Coord, Defect, Geometry, Segment


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
