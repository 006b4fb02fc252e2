"""Brute-force reference scans over every segment pair.

These are the all-pairs versions of ``analysis.min_code_distance`` and
``geometry.segment_overlaps``; the tests compare the indexed versions with
them.
"""
from __future__ import annotations

from tqecsynth.analysis import AnalysisError, DistanceReport
from tqecsynth.geometry import Coord, Defect, Geometry, Segment


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
