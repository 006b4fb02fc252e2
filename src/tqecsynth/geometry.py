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
from .spatial import SegmentIndex, Spans, segment_spans

if TYPE_CHECKING:
    from .scheduling import BoxInstance


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector, as a ``with`` block or a decorator.

    Synthesis builds hundreds of thousands of frozen dataclasses (coords,
    segments, defects, pins) that form no reference cycle, so reference
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


@dataclass(frozen=True)
class Geometry:
    defects: tuple[Defect, ...]
    pins: tuple[Pin, ...]
    injections: tuple[Injection, ...]
    ioports: tuple[IOPort, ...]
    layout: LayoutParams
    boxes: tuple["BoxInstance", ...] = ()
    connections: tuple[Defect, ...] = ()

    @property
    def segments(self) -> tuple[Segment, ...]:
        out: list[Segment] = []
        for d in self.defects:
            out.extend(d.segments)
        for c in self.connections:
            out.extend(c.segments)
        return tuple(out)

    @cached_property
    def spans(self) -> Spans:
        """``spatial.segment_spans`` of the defects then the connections, row k
        for ``segments[k]``: made on first read, the one encoding every array
        reader of the segments reads, and kept as long as the geometry, at
        about 56 B per segment (seven int64 arrays; 7 MB at 256 Toffolis)."""
        return segment_spans(self.defects + self.connections)


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


def cnot_braid_template(control_row: int, target_row: int, column: int,
                        params: LayoutParams) -> list[Segment]:
    """Closed dual loop for one CNOT column.

    The loop lives in the even t-plane of its column and encircles exactly
    the inner strands of the control and target rows; for non-adjacent rows
    it bridges over the strands in between.
    """
    if control_row == target_row:
        raise GeometryError("CNOT rows must be distinct")
    t = params.braid_t(column)
    lo_row, hi_row = sorted((control_row, target_row))
    j_lo = params.row_j(lo_row)
    j_hi = params.row_j(hi_row)
    base = params.i_inner - 1
    mid = params.i_inner + 1
    top = params.i_inner + 3

    if hi_row - lo_row == 1:
        corners = [
            (base, j_lo - 1), (mid, j_lo - 1), (mid, j_hi + 1), (base, j_hi + 1),
        ]
    else:
        corners = [
            (base, j_lo - 1), (top, j_lo - 1), (top, j_hi + 1), (base, j_hi + 1),
            (base, j_hi - 1), (mid, j_hi - 1), (mid, j_lo + 1), (base, j_lo + 1),
        ]
    pts = [Coord(i, j, t) for i, j in corners]
    return [Segment(SegmentKind.DUAL, a, b) for a, b in zip(pts, pts[1:] + pts[:1])]


def generate_geometry(matrix: MatrixRep, params: LayoutParams | None = None) -> Geometry:
    """Build the single-layer geometry for an ICM matrix.

    The matrix is decoded through ``matrix.from_matrix``; a matrix it
    rejects raises GeometryError with its message. Each row's pair, and the
    pins of its ports, span the row's live range (see the module docstring),
    and a CNOT loop whose plane lies outside the span of its control or
    target row raises GeometryError.
    """
    try:
        circ = from_matrix(matrix)
    except ValueError as exc:
        raise GeometryError(str(exc)) from exc
    params = params or LayoutParams()
    t_in = params.t_in
    t_out = params.t_out(len(circ.gates))

    defects: list[Defect] = []
    pins: list[Pin] = []
    injections: list[Injection] = []
    ports: list[IOPort] = []

    live: list[tuple[int, int]] = []
    for row, (init, meas, span) in enumerate(zip(circ.inits, circ.meas, cnot_spans(circ))):
        j = params.row_j(row)
        t_lo, t_hi = t_in, t_out
        if span is not None:
            if init in (InitBasis.ZERO, InitBasis.PLUS):
                t_lo = params.braid_t(span[0]) - _LIVE_MARGIN
            if meas is not MeasBasis.OPEN:
                # a t_pitch of 2 puts t_out 1 unit past the last braid plane
                t_hi = min(t_out, params.braid_t(span[1]) + _LIVE_MARGIN)
        live.append((t_lo, t_hi))
        for i in (params.i_inner, params.i_outer):
            strand = Segment(SegmentKind.PRIMAL, Coord(i, j, t_lo), Coord(i, j, t_hi))
            defects.append(Defect(SegmentKind.PRIMAL, (strand,), closed=False))

        in_pins = (
            Pin(Coord(params.i_inner, j, t_lo), SegmentKind.PRIMAL, PinRole.IO),
            Pin(Coord(params.i_outer, j, t_lo), SegmentKind.PRIMAL, PinRole.IO),
        )
        out_pins = (
            Pin(Coord(params.i_inner, j, t_hi), SegmentKind.PRIMAL, PinRole.IO),
            Pin(Coord(params.i_outer, j, t_hi), SegmentKind.PRIMAL, PinRole.IO),
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

    for col, gate in enumerate(circ.gates):
        t = params.braid_t(col)
        for row in gate.qubits:
            t_lo, t_hi = live[row]
            if not t_lo < t < t_hi:
                raise GeometryError(
                    f"CNOT column {col} at t={t} lies outside the strand of row {row} "
                    f"(t {t_lo}..{t_hi})")
        loop = cnot_braid_template(gate.control, gate.target, col, params)
        defects.append(Defect(SegmentKind.DUAL, tuple(loop), closed=True))

    return Geometry(
        defects=tuple(defects),
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
