"""Sort-and-sweep index over the axis-aligned boxes of defect segments.

Every segment is held as its per-axis interval box, keyed by the index of
its defect and by its kind. A query sweeps the segments of each kind in
order of their lowest t, keeping the active ones (those still within the
query radius in t) bucketed into square (i, j) cells. A box is expanded by
half the radius before it is bucketed, so two segments within the radius
share at least one cell; the pair is visited only in the cell holding the
lower (i, j) corner of their expanded overlap, hence exactly once.
"""
from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .geometry import Defect, Segment

CELL = 16       # (i, j) bucket side, lattice units
RADIUS = 8      # L1 gap, lattice units, of the code-distance neighbour query

Box = tuple[int, int, int, int, int, int]   # i_lo, i_hi, j_lo, j_hi, t_lo, t_hi


class SegmentIndex:
    """The segments of a defect list, flattened in order, with their boxes."""

    def __init__(self, defects: Sequence[Defect]) -> None:
        self.segments: list[Segment] = []
        self.owner: list[int] = []          # defect index of each segment
        self.boxes: list[Box] = []
        by_kind: dict = {}
        for di, defect in enumerate(defects):
            for seg in defect.segments:
                k = len(self.segments)
                self.segments.append(seg)
                self.owner.append(di)
                self.boxes.append(seg.interval("i") + seg.interval("j") + seg.interval("t"))
                by_kind.setdefault(seg.kind, []).append(k)
        self.by_kind: list[list[int]] = list(by_kind.values())

    def pairs_within(self, radius: int) -> Iterator[tuple[int, int, int]]:
        """Every same-kind segment pair (a, b, gap) with a < b and L1 gap <= radius.

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
