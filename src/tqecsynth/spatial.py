"""Segment spans, their collinear runs, and a sort-and-sweep index over boxes.

``segment_spans`` is the one encoder of segments as spans on lines that the
code distance, the overlap check and the slicer share; ``collinear_runs``
merges a line's touching spans, and ``SegmentIndex`` holds one box per span
or run. A query sweeps the boxes of each kind in order of their lowest t,
keeping the active ones (those still within the query radius in t)
bucketed into square (i, j) cells. A box is expanded by half the radius
before it is bucketed, so two boxes within the radius share at least one
cell; the pair is visited only in the cell holding the lower (i, j)
corner of their expanded overlap, hence exactly once.
"""
from __future__ import annotations

import heapq
from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence, TypeVar

if TYPE_CHECKING:
    from .geometry import Defect

CELL = 16       # (i, j) bucket side, lattice units
RADIUS = 8      # L1 gap, lattice units, of the code-distance neighbour query

Box = tuple[int, int, int, int, int, int]   # i_lo, i_hi, j_lo, j_hi, t_lo, t_hi
Line = tuple[str, int, int, int]            # kind, axis, and the two other coordinates
K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


def collinear_runs(entries: Iterable[tuple[K, int, int, T]]
                   ) -> Iterator[tuple[K, int, int, list[T]]]:
    """Merge the spans ``(line, lo, hi, item)`` of each line into maximal runs.

    Spans of one line, in order of ``lo``, join the run before them while
    ``lo <= run_hi + 1``: they overlap it, share its end or leave a gap of
    one unit, so with integer coordinates the run's points are exactly the
    union of its spans' points. Each run comes as ``(line, lo, hi, items)``
    with its spans' items; lines come in first-seen order and the runs of a
    line in ascending order.
    """
    lines: dict[K, list[tuple[int, int, T]]] = {}
    for line, lo, hi, item in entries:
        lines.setdefault(line, []).append((lo, hi, item))
    for line, spans in lines.items():
        if len(spans) == 1:     # most lines hold one span
            lo, hi, item = spans[0]
            yield line, lo, hi, [item]
            continue
        spans.sort(key=itemgetter(0))
        run_lo, run_hi, item = spans[0]
        items = [item]
        for lo, hi, item in spans[1:]:
            if lo > run_hi + 1:
                yield line, run_lo, run_hi, items
                run_lo, run_hi, items = lo, hi, [item]
            else:
                items.append(item)
                if hi > run_hi:
                    run_hi = hi
        yield line, run_lo, run_hi, items


def segment_spans(defects: Sequence[Defect]) -> Iterator[tuple[Line, int, int, int]]:
    """Each segment as ``((kind, axis, u, v), lo, hi, defect)``, in segment order.

    The one span encoder of the distance, overlap and slice scans: ``axis``
    is 0, 1 or 2 along i, j or t, ``(u, v)`` the other two coordinates in
    (i, j, t) order, ``lo <= hi`` the span and ``defect`` the index in
    ``defects``; ``geometry.defects + geometry.connections`` gives the
    order of ``geometry.segments``.
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


class SegmentIndex:
    """One box per entry ``(line, lo, hi, members)`` made from ``segment_spans``.

    The code distance indexes their ``collinear_runs``, each with the
    defects of its segments as members; the overlap check indexes each span
    alone, its defect the only member. ``owner`` holds each first member.
    """

    def __init__(self, entries: Iterable[tuple[Line, int, int, list[int]]]) -> None:
        self.boxes: list[Box] = []
        self.members: list[list[int]] = []     # defect indices of each box
        self.owner: list[int] = []             # the first of them
        by_kind: dict[str, list[int]] = {}
        for (kind, axis, u, v), lo, hi, members in entries:
            by_kind.setdefault(kind, []).append(len(self.boxes))
            if axis == 0:
                self.boxes.append((lo, hi, u, u, v, v))
            elif axis == 1:
                self.boxes.append((u, u, lo, hi, v, v))
            else:
                self.boxes.append((u, u, v, v, lo, hi))
            self.members.append(members)
            self.owner.append(members[0])
        self.by_kind: list[list[int]] = list(by_kind.values())

    def pairs_within(self, radius: int) -> Iterator[tuple[int, int, int]]:
        """Every same-kind box pair (a, b, gap) with a < b and L1 gap <= radius.

        Pairs come in no fixed order; each comes once.
        """
        for members in self.by_kind:
            yield from self._sweep(members, radius)

    def _sweep(self, members: list[int], radius: int) -> Iterator[tuple[int, int, int]]:
        boxes = self.boxes
        half = (radius + 1) // 2
        cell = max(CELL, radius)
        grid: dict[tuple[int, int], dict[int, None]] = {}
        covered: dict[int, list[dict[int, None]]] = {}
        expiry: list[tuple[int, int]] = []
        for k in sorted(members, key=lambda m: boxes[m][4]):
            i_lo, i_hi, j_lo, j_hi, t_lo, t_hi = boxes[k]
            while expiry and expiry[0][0] < t_lo - radius:
                m = heapq.heappop(expiry)[1]
                for bucket in covered.pop(m):
                    del bucket[m]
            buckets = []
            for ci in range((i_lo - half) // cell, (i_hi + half) // cell + 1):
                for cj in range((j_lo - half) // cell, (j_hi + half) // cell + 1):
                    bucket = grid.get((ci, cj))
                    if bucket is None:
                        bucket = grid[(ci, cj)] = {}
                    for m in bucket:
                        # m entered the sweep earlier: its t_lo is at most this one's
                        oi_lo, oi_hi, oj_lo, oj_hi, _, ot_hi = boxes[m]
                        if ((oi_lo if oi_lo > i_lo else i_lo) - half) // cell != ci \
                                or ((oj_lo if oj_lo > j_lo else j_lo) - half) // cell != cj:
                            continue
                        gap = t_lo - ot_hi if t_lo > ot_hi else 0
                        if oi_lo > i_hi:
                            gap += oi_lo - i_hi
                        elif i_lo > oi_hi:
                            gap += i_lo - oi_hi
                        if oj_lo > j_hi:
                            gap += oj_lo - j_hi
                        elif j_lo > oj_hi:
                            gap += j_lo - oj_hi
                        if gap <= radius:
                            yield (m, k, gap) if m < k else (k, m, gap)
                    bucket[k] = None
                    buckets.append(bucket)
            covered[k] = buckets
            heapq.heappush(expiry, (t_hi, k))
