"""Three-dimensional defect geometry generated from the matrix representation.

Coordinates are lattice units: primal unit-cell centres have all-odd
coordinates, dual centres all-even, and adjacent cells are two units apart.
Each matrix row becomes a primal defect pair running along the t axis, with
an output port and, unless the row is injected, an input port (basis z, x or
open); an injected row's input is its ``Injection`` alone. Each CNOT column
becomes a closed dual loop in a constant-t plane that encircles the inner
strands of its control and target rows and detours around any row between
them.

A pair spans only the t-range where its row is live. A row prepared in |0>
or |+> starts 3 units before its first braid plane, and a row measured in Z
or X ends 3 units after its last one; open inputs and outputs, injected rows
(whose pins meet the box routes at ``t_in``) and rows without a CNOT keep
the faces ``t_in`` and ``t_out``. The paper runs every pair from face to
face; trimming a row to its live span is the first step of wire recycling
(Paler, Wille & Devitt, Phys. Rev. A 94, 042337, 2016).
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .circuit import Diagnostic, InitBasis, MeasBasis
from .icm import cnot_spans
from .matrix import MatrixRep, from_matrix
from .spatial import SegmentIndex, Spans, end_spans, segment_rows, segment_spans

if TYPE_CHECKING:
    from .scheduling import BoxInstance


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector, as a ``with`` block or a decorator.

    Synthesis builds hundreds of thousands of frozen dataclasses (coords,
    pins, ports, routes) that form no reference cycle, so reference
    counting frees them all, and each collection their allocations trigger
    only walks them again: at 256 Toffolis collections took 1.1 of 3.3 s of
    synthesis, distance read and the JSON and OBJ writers. The collector is enabled again on
    exit only if it was enabled on entry, so a nested pause is a no-op and
    a caller that turned it off keeps it off.

    On that exit the objects still alive, mostly the result the caller
    keeps, move to the oldest generation (``gc.freeze`` then
    ``gc.unfreeze``, which splice the generation lists without walking
    them); left in the youngest, the next collections would walk each of
    them twice more as they age (the 256-Toffoli document write took 1.0 s
    instead of 0.35 s). A caller's frozen objects are left alone: with any
    frozen, nothing moves. A test runs every command on every sample
    circuit under a pause and checks that ``gc.collect()`` then finds
    nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


class GeometryError(ValueError):
    pass


class SegmentKind(Enum):
    PRIMAL = "primal"
    DUAL = "dual"


@dataclass(frozen=True)
class Coord:
    i: int
    j: int
    t: int

    def as_list(self) -> list[int]:
        return [self.i, self.j, self.t]

    @property
    def odd_count(self) -> int:
        return (self.i & 1) + (self.j & 1) + (self.t & 1)


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    a: Coord
    b: Coord

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if (a.i != b.i) + (a.j != b.j) + (a.t != b.t) != 1:
            raise GeometryError(f"segment must be axis-aligned and non-degenerate: {self.a}->{self.b}")

    @property
    def axis(self) -> str:
        if self.a.i != self.b.i:
            return "i"
        return "j" if self.a.j != self.b.j else "t"

    def interval(self, axis: str) -> tuple[int, int]:
        lo, hi = getattr(self.a, axis), getattr(self.b, axis)
        return (lo, hi) if lo <= hi else (hi, lo)


@dataclass(frozen=True)
class Defect:
    """A connected chain of same-kind segments; ``closed`` chains form loops."""

    kind: SegmentKind
    segments: tuple[Segment, ...]
    closed: bool

    def __post_init__(self) -> None:
        segments, kind = self.segments, self.kind
        if not segments:
            raise GeometryError("defect needs at least one segment")
        for seg in segments:
            if seg.kind is not kind:
                raise GeometryError("a defect cannot mix segment kinds")
        for prev, cur in zip(segments, segments[1:]):
            end, start = prev.b, cur.a
            if end.i != start.i or end.j != start.j or end.t != start.t:
                raise GeometryError("defect segments must chain end to end")
        end, start = segments[-1].b, segments[0].a
        if self.closed and (end.i != start.i or end.j != start.j or end.t != start.t):
            raise GeometryError("closed defect must return to its start")

    def vertices(self) -> list[Coord]:
        pts = [self.segments[0].a]
        pts.extend(s.b for s in self.segments)
        return pts


class PinRole(Enum):
    INJECTION = "injection"
    IO = "io"
    BOX_OUTPUT = "box_output"


@dataclass(frozen=True)
class Pin:
    coord: Coord
    kind: SegmentKind
    role: PinRole
    state: InitBasis | None = None  # A or Y for injection/box pins


@dataclass(frozen=True)
class Injection:
    """An injected ancilla state: two pyramid defects meeting at ``vertex``.

    ``vertex`` uses lattice-vertex coordinates (one odd, two even); the pins
    mark where the qubit's defect pair attaches.
    """

    vertex: Coord
    state: InitBasis
    pins: tuple[Pin, Pin]
    qubit_row: int


class PortRole(Enum):
    INPUT = "input"
    OUTPUT = "output"


class PortBasis(Enum):
    Z = "z"
    X = "x"
    OPEN = "open"


class CapShape(Enum):
    """Boundary geometry families from the init/measure template set."""

    SOLID = "solid"      # single bridging defect segment
    SPLIT = "split"      # bridging segment split at a shared lattice vertex
    CONFIG = "config"    # configurable input/output structure


@dataclass(frozen=True)
class PortTemplate:
    shape: CapShape
    mirrored: bool  # measurement-side templates mirror the init geometry


def io_geometry(role: PortRole, basis: PortBasis) -> PortTemplate:
    """Boundary template for one port of a primal qubit."""
    mirrored = role is PortRole.OUTPUT
    if basis is PortBasis.OPEN:
        return PortTemplate(CapShape.CONFIG, mirrored)
    shape = CapShape.SOLID if basis is PortBasis.Z else CapShape.SPLIT
    return PortTemplate(shape, mirrored)


@dataclass(frozen=True)
class IOPort:
    role: PortRole
    basis: PortBasis
    pins: tuple[Pin, Pin]
    qubit_row: int
    template: PortTemplate


@dataclass(frozen=True)
class LayoutParams:
    """Placement constants for the single-layer geometry.

    The defaults give every defect a one-cell diameter with a four-cell gap
    between pair members (the 4*d_f spacing for distance-4 correction) and
    keep even-coordinate corridors free for the dual CNOT loops.
    """

    i_inner: int = 1
    i_outer: int = 9
    j_pitch: int = 6
    t_pitch: int = 6
    t_in: int = 1
    j_base: int = 1

    def __post_init__(self) -> None:
        if self.i_inner % 2 == 0 or self.i_outer % 2 == 0:
            raise GeometryError("strand i coordinates must be odd")
        if self.i_outer < self.i_inner + 4:
            raise GeometryError("outer strand must sit at least 4 units beyond inner")
        if self.j_pitch < 1 or self.t_pitch < 1:
            raise GeometryError("pitches must be positive")
        if self.j_pitch % 2 or self.t_pitch % 2:
            raise GeometryError("pitches must be even")
        if self.t_in % 2 == 0 or self.j_base % 2 == 0:
            raise GeometryError("t_in and j_base must be odd")
        if self.t_in < 1:
            raise GeometryError("t_in must leave room for the injection vertex plane")

    def row_j(self, row: int) -> int:
        return self.j_base + self.j_pitch * row

    def braid_t(self, column: int) -> int:
        return self.t_in + 1 + (column + 1) * self.t_pitch

    def t_out(self, cnot_count: int) -> int:
        return self.t_in + (cnot_count + 1) * self.t_pitch

    @property
    def vertex_i(self) -> int:
        mid = (self.i_inner + self.i_outer) // 2
        return mid - (mid % 2)


# A segment kind's code in tables and spans: its index in SegmentKind.
KINDS = tuple(SegmentKind)

# What Defect.__post_init__ raises, in the order it checks.
_DEFECT_FAULTS = ("defect needs at least one segment", "a defect cannot mix segment kinds",
                  "defect segments must chain end to end",
                  "closed defect must return to its start")


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Defects as arrays: row k of ``ends`` is segment k.

    ``ends[k]`` is ``(a.i, a.j, a.t, b.i, b.j, b.t)`` and ``kind[k]`` the
    segment's code in ``KINDS``; defect d owns the rows ``start[d]`` up to
    ``start[d + 1]`` and is closed if ``closed[d]``. ``generate_geometry``
    writes a table directly, and ``of`` reads one from objects. A table
    is checked on construction, as whole arrays, for what
    ``Segment.__post_init__`` and ``Defect.__post_init__`` check of
    objects, and with their messages.
    """

    ends: np.ndarray
    kind: np.ndarray
    start: np.ndarray
    closed: np.ndarray

    @classmethod
    def of(cls, defects: Sequence[Defect]) -> "SegmentTable":
        """The table of object-built ``defects``."""
        ends, kind, counts = segment_rows(defects)
        return cls(ends, kind, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
                   np.array([defect.closed for defect in defects], dtype=bool))

    def __post_init__(self) -> None:
        """Raise the first fault in defect order, a defect's segments before the defect.

        A defect's faults come in the order its objects check them: a
        segment that is not axis-aligned or is a point, no segment, mixed
        kinds, a broken chain, a closed chain that ends off its start.
        """
        ends, kind, start = self.ends, self.kind, self.start
        counts = np.diff(start)
        owner = np.repeat(np.arange(len(counts)), counts)
        a, b = ends[:, :3], ends[:, 3:]
        bent = np.count_nonzero(a != b, axis=1) != 1
        joint = owner[1:] == owner[:-1]     # rows k and k + 1 of one defect
        full = counts > 0
        returns = np.ones(len(counts), dtype=bool)
        returns[full] = (b[start[1:][full] - 1] == a[start[:-1][full]]).all(axis=1)

        def flagged(owners: np.ndarray) -> np.ndarray:
            return np.bincount(owners, minlength=len(counts)) > 0

        faults = np.stack((flagged(owner[bent]), ~full,
                           flagged(owner[1:][joint & (kind[1:] != kind[:-1])]),
                           flagged(owner[1:][joint & (b[:-1] != a[1:]).any(axis=1)]),
                           self.closed & ~returns))
        bad = np.flatnonzero(faults.any(axis=0))
        if not bad.size:
            return
        d = int(bad[0])
        fault = int(np.argmax(faults[:, d]))
        if fault == 0:
            k = int(start[d] + np.argmax(bent[start[d]:start[d + 1]]))
            raise GeometryError("segment must be axis-aligned and non-degenerate: "
                                f"{Coord(*a[k].tolist())}->{Coord(*b[k].tolist())}")
        raise GeometryError(_DEFECT_FAULTS[fault - 1])

    @property
    def defect_count(self) -> int:
        return len(self.closed)

    def spans(self) -> Spans:
        """``spatial.end_spans`` of the rows, each owned by its defect's index."""
        counts = np.diff(self.start)
        return end_spans(self.ends, self.kind, np.repeat(np.arange(len(counts)), counts))

    def defects(self) -> tuple[Defect, ...]:
        """The defects as objects, equal to those the table was made of."""
        points = [Coord(*p) for p in self.ends.reshape(-1, 3).tolist()]
        kinds = [KINDS[k] for k in self.kind.tolist()]
        segments = [Segment(kind, a, b) for kind, a, b in zip(kinds, points[0::2], points[1::2])]
        bounds = self.start.tolist()
        return tuple(Defect(kinds[lo], tuple(segments[lo:hi]), closed)
                     for lo, hi, closed in zip(bounds, bounds[1:], self.closed.tolist()))


@dataclass(frozen=True, init=False, eq=False)
class Geometry:
    """A geometry: its defects as a ``SegmentTable``, its routes, pins and ports.

    ``Geometry(defects=...)`` reads the table from the objects given, and
    ``Geometry(table=...)``, as ``generate_geometry`` builds it, takes it
    as is. ``dataclasses.replace`` hands the table on, so a copy with new
    pins, ports or routes keeps its rows, and a copy given ``defects``
    reads them again. ``defects`` and ``segments`` are objects built on
    first read; every reader on the synthesis path reads the arrays.
    """

    table: SegmentTable
    pins: tuple[Pin, ...]
    injections: tuple[Injection, ...]
    ioports: tuple[IOPort, ...]
    layout: LayoutParams
    boxes: tuple["BoxInstance", ...]
    connections: tuple[Defect, ...]

    def __init__(self, defects: Sequence[Defect] | None = None, *, pins: tuple[Pin, ...],
                 injections: tuple[Injection, ...], ioports: tuple[IOPort, ...],
                 layout: LayoutParams, boxes: tuple["BoxInstance", ...] = (),
                 connections: tuple[Defect, ...] = (), table: SegmentTable | None = None
                 ) -> None:
        if defects is not None:
            table = SegmentTable.of(defects)
            self.__dict__["defects"] = tuple(defects)
        elif table is None:
            raise TypeError("Geometry needs its defects or their table")
        for name, value in (("table", table), ("pins", pins), ("injections", injections),
                            ("ioports", ioports), ("layout", layout), ("boxes", boxes),
                            ("connections", connections)):
            object.__setattr__(self, name, value)

    @cached_property
    def defects(self) -> tuple[Defect, ...]:
        return self.table.defects()

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(seg for defect in self.defects + self.connections
                     for seg in defect.segments)

    @cached_property
    def spans(self) -> Spans:
        """``spatial.end_spans`` of the table's rows, then of the routes',
        row k for ``segments[k]``: made on first read, the one encoding
        every array reader of the segments reads, and kept as long as the
        geometry. It takes 56 B per segment (seven int64 arrays), besides
        the table's 59 B per row: 7.0 and 6.2 MB at 256 Toffolis, where
        the segment objects, if read, take 50 MB."""
        spans = self.table.spans()
        if not self.connections:
            return spans
        routes = segment_spans(self.connections)
        routes = routes._replace(defect=routes.defect + self.table.defect_count)
        return Spans(*map(np.concatenate, zip(spans, routes)))


_INPUT_BASIS = {
    InitBasis.OPEN: PortBasis.OPEN,
    InitBasis.ZERO: PortBasis.Z,
    InitBasis.PLUS: PortBasis.X,
}

_OUTPUT_BASIS = {
    MeasBasis.OPEN: PortBasis.OPEN,
    MeasBasis.Z: PortBasis.Z,
    MeasBasis.X: PortBasis.X,
}

# How far a prepared or measured row's strand reaches past its outer braid
# planes: odd, so the strand ends around the even planes stay all-odd.
_LIVE_MARGIN = 3


# The corners of a CNOT loop, each (i level, row, j offset): the i level
# indexes (i_inner - 1, i_inner + 1, i_inner + 3), the row is the loop's
# low (0) or high (1) row, and the corner's j is that row's plus the
# offset. Rows next to each other take the first four corners of row 0; a
# loop around rows further apart takes all eight of row 1, bridging over
# the strands between them.
_CORNERS = np.array([
    [(0, 0, -1), (1, 0, -1), (1, 1, 1), (0, 1, 1)] + [(0, 0, 0)] * 4,
    [(0, 0, -1), (2, 0, -1), (2, 1, 1), (0, 1, 1), (0, 1, -1), (1, 1, -1), (1, 0, 1),
     (0, 0, 1)],
])


def _loop_ends(control: np.ndarray, target: np.ndarray, column: np.ndarray,
               params: LayoutParams) -> tuple[np.ndarray, np.ndarray]:
    """The segment ends of the CNOT loops of ``column``s, in column order,
    and each loop's corner count: 4 for adjacent rows, 8 otherwise.

    A loop lies in the even t-plane of its column and runs from corner to
    corner of ``_CORNERS``, back to the first."""
    lo_row, hi_row = np.minimum(control, target), np.maximum(control, target)
    far = (hi_row - lo_row > 1).astype(np.int64)
    sizes = 4 + 4 * far
    loop = np.repeat(np.arange(len(sizes)), sizes)
    corner = np.arange(len(loop)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pattern = far[loop]
    level_i = params.i_inner + np.array([-1, 1, 3])
    row_j = np.stack((params.row_j(lo_row), params.row_j(hi_row)))[:, loop]
    ends = np.empty((len(loop), 6), dtype=np.int64)
    for x, at in ((0, corner), (3, (corner + 1) % sizes[loop])):
        level, row, offset = _CORNERS[pattern, at].T
        ends[:, x] = level_i[level]
        ends[:, x + 1] = np.where(row, row_j[1], row_j[0]) + offset
        ends[:, x + 2] = params.braid_t(column)[loop]
    return ends, sizes


def cnot_braid_template(control_row: int, target_row: int, column: int,
                        params: LayoutParams) -> list[Segment]:
    """Closed dual loop for one CNOT column, as ``generate_geometry`` lays it.

    The loop lives in the even t-plane of its column and encircles exactly
    the inner strands of the control and target rows; for non-adjacent rows
    it bridges over the strands in between.
    """
    if control_row == target_row:
        raise GeometryError("CNOT rows must be distinct")
    ends, _ = _loop_ends(np.array([control_row]), np.array([target_row]),
                         np.array([column]), params)
    return [Segment(SegmentKind.DUAL, Coord(*row[:3]), Coord(*row[3:]))
            for row in ends.tolist()]


def generate_geometry(matrix: MatrixRep, params: LayoutParams | None = None) -> Geometry:
    """Build the single-layer geometry for an ICM matrix.

    The matrix is decoded through ``matrix.from_matrix``; a matrix it
    rejects raises GeometryError with its message. Each row's pair, and the
    pins of its ports, span the row's live range (see the module docstring),
    and a CNOT loop whose plane lies outside the span of its control or
    target row raises GeometryError.

    The defects are written as a ``SegmentTable`` in numpy, whose numpy
    calls do not grow with the circuit: the strands from per-row arrays,
    the loops from per-column arrays and ``_CORNERS``. Pins, ports and
    injections are objects.
    """
    try:
        circ = from_matrix(matrix)
    except ValueError as exc:
        raise GeometryError(str(exc)) from exc
    params = params or LayoutParams()
    t_in = params.t_in
    t_out = params.t_out(len(circ.gates))
    pins: list[Pin] = []
    injections: list[Injection] = []
    ports: list[IOPort] = []
    t_lo: list[int] = []
    t_hi: list[int] = []
    for row, (init, meas, span) in enumerate(zip(circ.inits, circ.meas, cnot_spans(circ))):
        j = params.row_j(row)
        lo, hi = t_in, t_out
        if span is not None:
            if init in (InitBasis.ZERO, InitBasis.PLUS):
                lo = params.braid_t(span[0]) - _LIVE_MARGIN
            if meas is not MeasBasis.OPEN:
                # a t_pitch of 2 puts t_out 1 unit past the last braid plane
                hi = min(t_out, params.braid_t(span[1]) + _LIVE_MARGIN)
        t_lo.append(lo)
        t_hi.append(hi)

        in_pins = (
            Pin(Coord(params.i_inner, j, lo), SegmentKind.PRIMAL, PinRole.IO),
            Pin(Coord(params.i_outer, j, lo), SegmentKind.PRIMAL, PinRole.IO),
        )
        out_pins = (
            Pin(Coord(params.i_inner, j, hi), SegmentKind.PRIMAL, PinRole.IO),
            Pin(Coord(params.i_outer, j, hi), SegmentKind.PRIMAL, PinRole.IO),
        )

        if init.is_injection:
            inj_pins = tuple(
                Pin(p.coord, p.kind, PinRole.INJECTION, init) for p in in_pins)
            # the pyramid tips meet on the first dual plane beside the pins
            vertex = Coord(params.vertex_i, j, t_in + 1)
            injections.append(Injection(vertex, init, inj_pins, row))
            pins.extend(inj_pins)
        else:
            basis = _INPUT_BASIS[init]
            ports.append(IOPort(PortRole.INPUT, basis, in_pins, row,
                                io_geometry(PortRole.INPUT, basis)))
            pins.extend(in_pins)

        out_basis = _OUTPUT_BASIS[meas]
        ports.append(IOPort(PortRole.OUTPUT, out_basis, out_pins, row,
                            io_geometry(PortRole.OUTPUT, out_basis)))
        pins.extend(out_pins)

    live_lo, live_hi = np.array(t_lo, dtype=np.int64), np.array(t_hi, dtype=np.int64)
    qubits = np.array(matrix.cnots, dtype=np.int64).reshape(-1, 2)   # control, target
    column = np.arange(len(qubits))
    plane = params.braid_t(column)[:, None]
    outside = np.flatnonzero(~((live_lo[qubits] < plane) & (plane < live_hi[qubits])))
    if outside.size:
        col, side = divmod(int(outside[0]), 2)
        row = int(qubits[col, side])
        raise GeometryError(
            f"CNOT column {col} at t={int(plane[col, 0])} lies outside the strand of row {row} "
            f"(t {t_lo[row]}..{t_hi[row]})")

    # two strands a row, inner then outer, then one loop a column
    rows = len(t_lo)
    strands = np.empty((2 * rows, 6), dtype=np.int64)
    strands[:, 0::3] = np.tile([params.i_inner, params.i_outer], rows)[:, None]
    strands[:, 1::3] = np.repeat(params.row_j(np.arange(rows)), 2)[:, None]
    strands[:, 2], strands[:, 5] = np.repeat(live_lo, 2), np.repeat(live_hi, 2)
    loops, sizes = _loop_ends(qubits[:, 0], qubits[:, 1], column, params)
    table = SegmentTable(
        np.concatenate((strands, loops)),
        np.repeat(np.arange(len(KINDS)), (2 * rows, len(loops))),
        np.concatenate((np.arange(2 * rows), 2 * rows + np.cumsum(np.append(0, sizes)))),
        np.repeat([False, True], (2 * rows, len(sizes))))

    return Geometry(
        table=table,
        pins=tuple(pins),
        injections=tuple(injections),
        ioports=tuple(ports),
        layout=params,
    )


def validate_parity(geometry: Geometry) -> list[Diagnostic]:
    """Parity conformance of every segment endpoint and injection vertex:
    one ``circuit.Diagnostic`` (rule and message) per violation. One mask
    over ``geometry.spans``, whose ``u, v, lo, hi`` are a segment's six end
    coordinates, finds the segments to read as objects and report."""
    spans = geometry.spans
    coords = np.stack((spans.u, spans.v, spans.lo, spans.hi))
    primal = spans.kind == 0            # SegmentKind.PRIMAL is the first kind
    bad = np.flatnonzero(((coords & 1) != primal).any(axis=0) | (coords < 0).any(axis=0))
    segments = geometry.segments if bad.size else ()
    out: list[Diagnostic] = []
    for seg in map(segments.__getitem__, bad.tolist()):
        want = 3 if seg.kind is SegmentKind.PRIMAL else 0
        for pt in (seg.a, seg.b):
            if pt.odd_count != want:
                out.append(Diagnostic(
                    "segment-parity",
                    f"{seg.kind.value} endpoint {pt} must have "
                    f"{'all-odd' if want else 'all-even'} coordinates"))
            if min(pt.as_list()) < 0:
                out.append(Diagnostic(
                    "negative-coordinate", f"endpoint {pt} has a negative coordinate"))
    for inj in geometry.injections:
        if inj.vertex.odd_count != 1:
            out.append(Diagnostic(
                "vertex-parity",
                f"injection vertex {inj.vertex} must have exactly one odd coordinate"))
    return out


def _strand_puncture(strand: Sequence[Segment], t: int) -> tuple[int, int] | None:
    for seg in strand:
        if seg.axis != "t":
            continue
        lo, hi = seg.interval("t")
        if lo <= t <= hi:
            return seg.a.i, seg.a.j
    return None


def linking_number(loop: Sequence[Segment], strand: Sequence[Segment]) -> int:
    """Winding number of a planar constant-t loop around a t-running strand."""
    ts = {seg.a.t for seg in loop} | {seg.b.t for seg in loop}
    if len(ts) != 1:
        raise GeometryError("linking_number requires a planar constant-t loop")
    t = ts.pop()
    for prev, cur in zip(loop, tuple(loop[1:]) + (loop[0],)):
        if prev.b != cur.a:
            raise GeometryError("loop must be a closed chain")
    point = _strand_puncture(strand, t)
    if point is None:
        return 0
    px, py = point

    wn = 0
    for seg in loop:
        x1, y1 = seg.a.i, seg.a.j
        x2, y2 = seg.b.i, seg.b.j
        if (px, py) == (x1, y1) or (px, py) == (x2, y2):
            raise GeometryError("strand punctures the loop boundary")
        if y1 == y2 == py and min(x1, x2) < px < max(x1, x2):
            raise GeometryError("strand punctures the loop boundary")
        if x1 == x2 == px and min(y1, y2) < py < max(y1, y2):
            raise GeometryError("strand punctures the loop boundary")
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if y1 <= py < y2 and cross > 0:
            wn += 1
        elif y2 <= py < y1 and cross < 0:
            wn -= 1
    return wn


@collector_paused()
def segment_overlaps(geometry: Geometry) -> list[tuple[Segment, Segment]]:
    """Same-kind segment pairs that touch anywhere except at legal shared joints.

    The touching pairs come from one radius-0 query of
    ``spatial.SegmentIndex`` over one box per span of ``geometry.spans``,
    the table the code distance and the slicer read too. Only a pair from
    one defect is looked at point by point: it is dropped when every
    lattice point they share is a joint of that defect, so only the
    defects owning such a pair have their joints collected. Pairs are
    returned in ``geometry.segments`` order, earlier segment first.
    """
    defects = geometry.defects + geometry.connections
    index = SegmentIndex(geometry.spans)
    a, b, _ = index.pairs_within(0)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(len(a), dtype=bool)
    same = np.flatnonzero(index.owner[a] == index.owner[b])
    owners = index.owner[a[same]].tolist()
    joints: dict[int, set[Coord]] = {}
    for di in set(owners):
        verts = defects[di].vertices()
        joints[di] = set(verts[1:-1])
        if defects[di].closed:
            joints[di].add(verts[0])
    for k, box_a, box_b, di in zip(same.tolist(), index.boxes[a[same]].tolist(),
                                   index.boxes[b[same]].tolist(), owners):
        meet = product(*(range(max(box_a[x], box_b[x]), min(box_a[x + 1], box_b[x + 1]) + 1)
                         for x in (0, 2, 4)))
        keep[k] = not all(Coord(*p) in joints[di] for p in meet)
    segments = geometry.segments
    return list(zip(map(segments.__getitem__, a[keep].tolist()),
                    map(segments.__getitem__, b[keep].tolist())))
