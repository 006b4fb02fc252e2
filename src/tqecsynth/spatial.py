"""Segment spans, their collinear runs, and a sort-and-sweep index over boxes.

``segment_spans`` is the one encoder of segments as spans on lines that the
code distance, the overlap check and the slicer share; ``collinear_runs``
merges a line's touching spans, and ``SegmentIndex`` holds one box per span
or run. A query sorts the boxes of each kind on their low end along one
axis ("sweep and prune": Cohen, Lin, Manocha & Ponamgi, I-COLLIDE, 1995);
a box's candidates are the boxes after it whose low end lies within the
query radius of its high end. The axis with the fewest candidates is
swept: the CNOT loops' long legs run along j and are few candidates along
t. Candidates are expanded in blocks of ``BLOCK`` and their L1 gaps
computed in numpy; the gap is symmetric in the axes, so the pairs found do
not depend on the axis swept.
"""
from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from .geometry import Defect

RADIUS = 8          # L1 gap, lattice units, of the code-distance neighbour query
BLOCK = 1 << 12     # candidate pairs expanded at once; small blocks keep the sweep's memory flat

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
    alone, its defect the only member. ``boxes`` holds one row
    ``(i_lo, i_hi, j_lo, j_hi, t_lo, t_hi)`` per entry and ``owner`` each
    entry's first member.
    """

    def __init__(self, entries: Iterable[tuple[Line, int, int, list[int]]]) -> None:
        flat: list[int] = []
        self.members: list[list[int]] = []     # defect indices of each box
        by_kind: dict[str, list[int]] = {}
        for (kind, axis, u, v), lo, hi, members in entries:
            by_kind.setdefault(kind, []).append(len(self.members))
            if axis == 0:
                flat += lo, hi, u, u, v, v
            elif axis == 1:
                flat += u, u, lo, hi, v, v
            else:
                flat += u, u, v, v, lo, hi
            self.members.append(members)
        self.boxes = np.array(flat, dtype=np.int64).reshape(-1, 6)
        self.owner = np.array([members[0] for members in self.members], dtype=np.int64)
        self.by_kind = [np.array(kind, dtype=np.int64) for kind in by_kind.values()]

    def pairs_within(self, radius: int) -> np.ndarray:
        """Every same-kind box pair within ``radius``, as rows (a, b, gap) of one array.

        Each pair comes once, with a < b and its L1 gap <= radius, in no
        fixed order; ``a, b, gap = index.pairs_within(radius)`` unpacks it.
        """
        return np.concatenate([np.zeros((3, 0), dtype=np.int32), *(
            part for kind in self.by_kind for part in _sweep(self.boxes[kind], kind, radius))],
            axis=1)


def _sweep(boxes: np.ndarray, ids: np.ndarray, radius: int) -> Iterator[np.ndarray]:
    """The pairs of one kind's ``boxes`` within ``radius``, as rows (a, b, gap) of ``ids``.

    Sorted on its low end along an axis, a box's candidates are the boxes
    after it whose low end is at most its high end plus the radius: a pair
    within the radius is at most that far apart on every axis, so it is
    one box's candidate, from the box that sorts first. Each axis is
    counted, and the one whose windows hold the fewest candidates is swept.
    """
    count = len(boxes)

    def windows(axis: int) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(boxes[:, 2 * axis])
        ends = np.searchsorted(boxes[order, 2 * axis], boxes[order, 2 * axis + 1] + radius,
                               "right")
        return order, ends - np.arange(1, count + 1)

    order, sizes = min(map(windows, range(3)), key=lambda swept: swept[1].sum())
    lo, hi, ids = boxes[order, 0::2].T.copy(), boxes[order, 1::2].T.copy(), ids[order]
    reach = np.cumsum(sizes)            # candidates of the boxes up to and with each one
    start = reach - sizes
    first = 0
    while first < count:
        last = max(first + 1, int(np.searchsorted(reach, start[first] + BLOCK, "right")))
        src = np.repeat(np.arange(first, last), sizes[first:last])
        dst = src + 1 + np.arange(start[first], reach[last - 1]) - start[src]
        gap = sum(np.maximum(0, np.maximum(lo[k, dst] - hi[k, src], lo[k, src] - hi[k, dst]))
                  for k in range(3))
        near = gap <= radius
        a, b = ids[src[near]], ids[dst[near]]
        yield np.stack((np.minimum(a, b), np.maximum(a, b), gap[near])).astype(np.int32)
        first = last
