"""Segment spans, their collinear runs, and a sort-and-sweep index over boxes.

``end_spans`` is the one encoder of segments as spans on lines: it turns
each segment's end coordinates into ``Spans``, parallel numpy arrays.
``generate_geometry`` writes those ends as a table at generation, and
``Geometry.spans`` encodes them once per geometry: parity, bounding box,
code distance, overlap check, slicer and OBJ export all read that one
table. Segment objects are read, in one Python pass (``segment_rows``),
only for object-built geometries and for the routes (``segment_spans``).
The rest works on whole arrays: ``collinear_runs`` merges a line's
touching spans with one sort, the one merge the code distance and the
slicer share, and ``SegmentIndex`` holds one box per span or run.

A query sorts the boxes of each kind on their low end along one axis
("sweep and prune": Cohen, Lin, Manocha & Ponamgi, I-COLLIDE, 1995); a
box's candidates are the boxes after it whose low end lies within the
query radius of its high end. The axis with the fewest candidates is
swept: the CNOT loops' long legs run along j and are few candidates along
t. Candidates are expanded in blocks of ``BLOCK`` and their L1 gaps
computed in numpy; the gap is symmetric in the axes, so the pairs found do
not depend on the axis swept.
"""
from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .geometry import Defect

RADIUS = 8          # L1 gap, lattice units, of the code-distance neighbour query
BLOCK = 1 << 12     # candidate pairs expanded at once; small blocks keep the sweep's memory flat


class Spans(NamedTuple):
    """Spans on lines, as parallel arrays with one entry per span.

    A span covers ``lo <= hi`` along ``axis`` (0, 1 or 2 along i, j or t)
    on the line whose other two coordinates are ``(u, v)``, in (i, j, t)
    order; ``kind`` is the index of its defect's kind in its enum and
    ``defect`` the index of its defect. A line is keyed by kind too, so
    spans of different kinds never merge.
    """

    kind: np.ndarray
    axis: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    defect: np.ndarray

    def boxes(self) -> np.ndarray:
        """One row ``(i_lo, i_hi, j_lo, j_hi, t_lo, t_hi)`` per span."""
        rows = np.arange(len(self.axis))
        boxes = np.empty((len(rows), 6), dtype=np.int64)
        cross = _CROSS[self.axis]
        for x, lo, hi in ((2 * self.axis, self.lo, self.hi), (2 * cross[:, 0], self.u, self.u),
                          (2 * cross[:, 1], self.v, self.v)):
            boxes[rows, x] = lo
            boxes[rows, x + 1] = hi
        return boxes


_CROSS = np.array([[1, 2], [0, 2], [0, 1]])    # the other two axes of each axis
_ENDS = attrgetter("a.i", "a.j", "a.t", "b.i", "b.j", "b.t")


def segment_rows(defects: Sequence[Defect]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The segments of object-built ``defects`` as ``(ends, kind, counts)``.

    One Python pass reads each segment's ends into a row ``(a.i, a.j, a.t,
    b.i, b.j, b.t)`` of ``ends``, in segment order; ``kind[k]`` is the
    index of row k's defect kind in its enum and ``counts`` each defect's
    segment count.
    """
    segments = list(map(attrgetter("segments"), defects))
    counts = list(map(len, segments))
    ends = np.fromiter(chain.from_iterable(map(_ENDS, chain.from_iterable(segments))),
                       dtype=np.int64, count=6 * sum(counts)).reshape(-1, 6)
    codes = {id(kind): code for code, kind in enumerate(type(defects[0].kind))} if defects else {}
    kinds = [codes[id(defect.kind)] for defect in defects]     # by id: Enum hashes in Python
    return ends, np.repeat(np.array(kinds, dtype=np.int64), counts), counts


def end_spans(ends: np.ndarray, kind: np.ndarray, defect: np.ndarray) -> Spans:
    """Each segment, a row ``(a.i, a.j, a.t, b.i, b.j, b.t)`` of ``ends``, as a span.

    The one span encoder. A segment is axis-aligned and not a point, so
    exactly one coordinate differs between its ends; ``(u, v)`` are its
    first end's other two. ``kind`` and ``defect`` are each segment's.
    """
    a, b = ends[:, :3], ends[:, 3:]
    axis = np.argmax(a != b, axis=1)
    rows = np.arange(len(axis))
    cross = _CROSS[axis]
    along_a, along_b = a[rows, axis], b[rows, axis]
    return Spans(kind, axis, a[rows, cross[:, 0]], a[rows, cross[:, 1]],
                 np.minimum(along_a, along_b), np.maximum(along_a, along_b), defect)


def segment_spans(defects: Sequence[Defect]) -> Spans:
    """Each segment of object-built ``defects`` as a span, in segment order.

    ``segment_rows`` then ``end_spans``; a segment's defect is its index
    in ``defects``. ``Geometry.spans`` reads it for the routes: the
    defects' rows come from the geometry's table.
    """
    ends, kind, counts = segment_rows(defects)
    return end_spans(ends, kind, np.repeat(np.arange(len(counts)), counts))


def collinear_runs(spans: Spans) -> tuple[Spans, np.ndarray]:
    """Merge the spans of each line into maximal runs: ``(runs, run_of)``.

    Spans of one line, in order of ``lo``, join the run before them while
    ``lo <= run_hi + 1``: they overlap it, share its end or leave a gap of
    one unit, so with integer coordinates the run's points are exactly the
    union of its spans' points. One ``np.lexsort`` on (kind, axis, u, v,
    lo) puts each line's spans in order, and a running maximum of ``hi``
    within each line finds where a run ends. Each run is a span of
    ``runs`` whose ``defect`` is that of its first span in this order, and
    ``run_of[k]`` is the run of span ``k``. Lines come in the order of
    their first span and the runs of a line in ascending order.
    """
    count = len(spans.lo)
    if not count:
        return spans, np.zeros(0, dtype=np.int64)
    order = np.lexsort((spans.lo, spans.v, spans.u, spans.axis, spans.kind))
    kind, axis, u, v, lo, hi, defect = (column[order] for column in spans)
    new_line = np.ones(count, dtype=bool)
    new_line[1:] = ((kind[1:] != kind[:-1]) | (axis[1:] != axis[:-1])
                    | (u[1:] != u[:-1]) | (v[1:] != v[:-1]))
    line = np.cumsum(new_line) - 1
    # one running maximum of hi's rank, each line lifted above the ranks of
    # the lines before it, so no line's reach carries into the next; ranks,
    # unlike coordinates, bound the lift at count ** 2
    by_hi = np.argsort(hi)
    hi_rank = np.empty(count, dtype=np.int64)
    hi_rank[by_hi] = np.arange(count)
    lift = line * count
    reach = hi[by_hi[np.maximum.accumulate(hi_rank + lift) - lift]]
    start = new_line.copy()
    start[1:] |= lo[1:] > reach[:-1] + 1
    first = np.flatnonzero(start)
    run_hi = np.maximum.reduceat(hi, first)
    # lines in order of their first span, each line's runs kept ascending
    seen = np.minimum.reduceat(order, np.flatnonzero(new_line))
    by_seen = np.argsort(seen[line[first]], kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_seen] = np.arange(len(first))
    run_of = np.empty(count, dtype=np.int64)
    run_of[order] = rank[np.cumsum(start) - 1]
    pick = first[by_seen]
    return Spans(kind[pick], axis[pick], u[pick], v[pick], lo[pick], run_hi[by_seen],
                 defect[pick]), run_of


class SegmentIndex:
    """One box per span of a ``Spans``.

    The code distance indexes the ``collinear_runs`` of the segments'
    spans; the overlap check indexes each span alone. ``boxes`` holds one row
    ``(i_lo, i_hi, j_lo, j_hi, t_lo, t_hi)`` per span and ``owner`` each
    span's defect.
    """

    def __init__(self, spans: Spans) -> None:
        self.boxes = spans.boxes()
        self.owner = spans.defect
        self.by_kind = [np.flatnonzero(spans.kind == kind)
                        for kind in np.flatnonzero(np.bincount(spans.kind))]

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
