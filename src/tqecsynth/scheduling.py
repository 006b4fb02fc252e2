"""Distillation box placement, spare arrays, failure simulation, and routing.

Boxes are packed in the (j, i) plane of a single layer sitting before the
circuit's inputs on the t axis. Every box is placed at the j coordinate of
the pin pair it serves; boxes whose j extents collide stack along i, lowest
free i first. Spare boxes are driven by ghost pin pairs that exist only to
steer the packer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import InitBasis
from .geometry import Coord, Pin, PinRole, Segment, SegmentKind

RNG_ALGORITHM = "numpy-pcg64"

# Largest spare count per box type that spare_count returns; beyond it the
# schedule is too large to place, so it is an error rather than a layout.
MAX_SPARES = 10_000


class SchedulingError(ValueError):
    pass


class DistillationExhausted(RuntimeError):
    """Raised when the box queues run out before every pin pair is served."""

    def __init__(self, unserved: list["PinPairReq"]):
        names = ", ".join(f"{p.state.value}@j={p.j}" for p in unserved)
        super().__init__(f"distillation queues exhausted; unserved pin pairs: {names}")
        self.unserved = unserved


@dataclass(frozen=True)
class BoxDim:
    """Bounding-box spans of one distillation type, in unit cells."""

    state: InitBasis
    ispan: int
    jspan: int
    tspan: int

    def __post_init__(self) -> None:
        if self.state not in (InitBasis.A, InitBasis.Y):
            raise SchedulingError("box state must be A or Y")
        if min(self.ispan, self.jspan, self.tspan) < 1:
            raise SchedulingError("box spans must be positive")


def default_box_dims() -> dict[InitBasis, BoxDim]:
    return {
        InitBasis.Y: BoxDim(InitBasis.Y, ispan=4, jspan=4, tspan=8),
        InitBasis.A: BoxDim(InitBasis.A, ispan=8, jspan=8, tspan=12),
    }


def validate_dims(dims: dict[InitBasis, BoxDim]) -> None:
    if InitBasis.A in dims and InitBasis.Y in dims:
        if dims[InitBasis.A].jspan <= dims[InitBasis.Y].jspan:
            raise SchedulingError("A boxes must be strictly wider than Y boxes along j")


@dataclass(frozen=True)
class PinPairReq:
    """One scheduling request: the pin pair a box must align with."""

    state: InitBasis
    j: int
    pins: tuple[Pin, Pin] | None = None
    ghost: bool = False

    def __post_init__(self) -> None:
        if self.state not in (InitBasis.A, InitBasis.Y):
            raise SchedulingError("pin pair state must be A or Y")
        if self.ghost != (self.pins is None):
            raise SchedulingError("ghost pairs carry no pins; real pairs must")


class BoxStatus(Enum):
    PENDING = "pending"
    SUCCESS = "success"
    FAILED = "failed"


@dataclass
class BoxInstance:
    dim: BoxDim
    origin: Coord             # min-corner cell centre (all-odd coordinates)
    output_pins: tuple[Pin, Pin]
    spare: bool
    status: BoxStatus = BoxStatus.PENDING

    @property
    def state(self) -> InitBasis:
        return self.dim.state

    def extent(self, axis: str) -> tuple[int, int]:
        span = {"i": self.dim.ispan, "j": self.dim.jspan, "t": self.dim.tspan}[axis]
        lo = getattr(self.origin, axis)
        return lo, lo + 2 * (span - 1)

    @property
    def face_t(self) -> int:
        return self.extent("t")[1]


class ScheduleKind(Enum):
    HETEROGENEOUS = "heterogeneous"
    HOMOGENEOUS_A = "homogeneous_a"
    HOMOGENEOUS_Y = "homogeneous_y"


@dataclass(frozen=True)
class FillConfig:
    """Packing configuration: the lowest i a box may start at."""

    start_i: int = 1

    def __post_init__(self) -> None:
        if self.start_i % 2 == 0:
            raise SchedulingError("start_i must be odd (primal cell centres)")


@dataclass
class Region:
    """Free-space bookkeeping for the (j, i) packing plane.

    Occupied rectangles are closed cell-centre intervals; allocation takes
    the lowest free i at a fixed j, starting from ``fill.start_i``.
    """

    fill: FillConfig = field(default_factory=FillConfig)
    occupied: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)

    def allocate(self, j: int, jspan: int, ispan: int) -> int:
        j_iv = (j, j + 2 * (jspan - 1))
        i_len = 2 * (ispan - 1)
        conflicts = [iv for iv, jv in self.occupied
                     if jv[0] <= j_iv[1] and j_iv[0] <= jv[1]]
        start = self.fill.start_i
        # Candidate starts are start_i and the slot just past each conflict;
        # the highest one clears every conflict, so the scan always ends free.
        for i_lo in sorted({start} | {iv[1] + 2 for iv in conflicts if iv[1] + 2 > start}):
            if not any(iv[0] <= i_lo + i_len and i_lo <= iv[1] for iv in conflicts):
                break
        self.occupied.append(((i_lo, i_lo + i_len), j_iv))
        return i_lo


@dataclass
class Schedule:
    kind: ScheduleKind
    boxes: list[BoxInstance]

    def __post_init__(self) -> None:
        if self.kind is not ScheduleKind.HETEROGENEOUS:
            want = InitBasis.A if self.kind is ScheduleKind.HOMOGENEOUS_A else InitBasis.Y
            if any(b.state is not want for b in self.boxes):
                raise SchedulingError(f"homogeneous schedule may only hold {want.value} boxes")


def _place_box(pair: PinPairReq, dims: dict[InitBasis, BoxDim], region: Region,
               face_t: int) -> BoxInstance:
    dim = dims[pair.state]
    i_lo = region.allocate(pair.j, dim.jspan, dim.ispan)
    origin = Coord(i_lo, pair.j, face_t - 2 * (dim.tspan - 1))
    pin_role = PinRole.BOX_OUTPUT
    pins = (
        Pin(Coord(i_lo, pair.j, face_t), SegmentKind.PRIMAL, pin_role, pair.state),
        Pin(Coord(i_lo + 2 * (dim.ispan - 1), pair.j, face_t),
            SegmentKind.PRIMAL, pin_role, pair.state),
    )
    return BoxInstance(dim, origin, pins, spare=pair.ghost)


def schedule_face_t(dims: dict[InitBasis, BoxDim]) -> int:
    """Shared output-face plane: boxes end one step before the first odd t slot."""
    return 2 * max(d.tspan for d in dims.values()) - 1


def schedule_boxes(
    pin_pairs: list[PinPairReq],
    dims: dict[InitBasis, BoxDim],
    region: Region | None = None,
    face_t: int | None = None,
) -> Schedule:
    """Place one box per pin pair (arrival order), pins aligned on the pair's j."""
    validate_dims(dims)
    region = region if region is not None else Region()
    face = face_t if face_t is not None else schedule_face_t(dims)
    boxes = [_place_box(pair, dims, region, face) for pair in pin_pairs]
    states = {b.state for b in boxes}
    if states == {InitBasis.A}:
        kind = ScheduleKind.HOMOGENEOUS_A
    elif states == {InitBasis.Y} or not states:
        kind = ScheduleKind.HOMOGENEOUS_Y
    else:
        kind = ScheduleKind.HETEROGENEOUS
    return Schedule(kind, boxes)


def ghost_pairs(n: int, state: InitBasis, sj: int,
                dims: dict[InitBasis, BoxDim]) -> list[PinPairReq]:
    """Ghost pin pairs a box pitch apart so scheduled boxes land in one row."""
    pitch = 2 * dims[state].jspan
    return [PinPairReq(state, sj + idx * pitch, ghost=True) for idx in range(n)]


def homogeneous_schedule(
    n: int,
    state: InitBasis,
    sj: int,
    dims: dict[InitBasis, BoxDim],
    region: Region | None = None,
    face_t: int | None = None,
) -> Schedule:
    """Schedule ``n`` ghost-driven spare boxes in a row starting at j = sj.

    Calling this repeatedly with identical coordinates against the same
    region stacks further rows along i, producing an array.
    """
    sched = schedule_boxes(ghost_pairs(n, state, sj, dims), dims, region, face_t)
    kind = (ScheduleKind.HOMOGENEOUS_A if state is InitBasis.A
            else ScheduleKind.HOMOGENEOUS_Y)
    return Schedule(kind, sched.boxes)


def spare_count(needed: int, success_rate: float, epsilon: float = 0.01) -> int:
    """Smallest spare count n with P[Binomial(needed+n, rate) >= needed] >= 1 - eps.

    The tail grows by rate * P[Binomial(total, rate) = needed-1] as one box
    is added; that pmf is carried in log space from one total to the next,
    so no term overflows or sticks at zero. Raises SchedulingError when
    more than ``MAX_SPARES`` spares would be needed.
    """
    if needed < 0:
        raise SchedulingError("needed must be non-negative")
    if not 0.0 <= success_rate <= 1.0:
        raise SchedulingError("success rate must lie in [0, 1]")
    if needed == 0:
        return 0
    if success_rate == 0.0:
        raise SchedulingError("zero success rate cannot serve any pin pair")
    if success_rate == 1.0:
        return 0
    log_p, log_q = math.log(success_rate), math.log1p(-success_rate)
    tail = success_rate ** needed
    # log P[Binomial(needed, rate) = needed-1]
    log_pmf = math.log(needed) + (needed - 1) * log_p + log_q
    for n in range(MAX_SPARES + 1):
        if tail >= 1.0 - epsilon:
            return n
        total = needed + n
        tail += math.exp(log_p + log_pmf)
        log_pmf += math.log((total + 1) / (n + 2)) + log_q
    raise SchedulingError(
        f"more than {MAX_SPARES} spares needed for {needed} boxes at success rate "
        f"{success_rate} and epsilon {epsilon}")


@dataclass
class Assignment:
    pair: PinPairReq
    box: BoxInstance


@dataclass
class FailureReport:
    success_rate: float
    seed: int | None
    rng: str
    assignments: list[Assignment]
    failed_initial: dict[str, int]
    failed_total: dict[str, int]


def simulate_failures(
    boxes_by_type: dict[InitBasis, list[BoxInstance]],
    success_rate: float,
    pairs_by_type: dict[InitBasis, list[PinPairReq]],
    rng: np.random.Generator,
    seed: int | None = None,
) -> FailureReport:
    """Determine a surviving box for every pin pair.

    Each pair first tries the initial-schedule box placed for it (queue
    order matches pair order); when that distillation fails the pair takes
    the first unused successful spare. A uniform draw below the success
    rate means success. Unused boxes stay pending. Raises
    DistillationExhausted when the spare queue runs dry.
    """
    if not 0.0 <= success_rate <= 1.0:
        raise SchedulingError("success rate must lie in [0, 1]")
    assignments: list[Assignment] = []
    unserved: list[PinPairReq] = []
    failed_initial: dict[str, int] = {}
    failed_total: dict[str, int] = {}

    def try_box(box: BoxInstance, state: InitBasis) -> bool:
        if rng.random() < success_rate:
            box.status = BoxStatus.SUCCESS
            return True
        box.status = BoxStatus.FAILED
        failed_total[state.value] = failed_total.get(state.value, 0) + 1
        if not box.spare:
            failed_initial[state.value] = failed_initial.get(state.value, 0) + 1
        return False

    for state in sorted(pairs_by_type, key=lambda s: s.value):
        pairs = pairs_by_type[state]
        queue = list(boxes_by_type.get(state, []))
        initial, spares = queue[:len(pairs)], queue[len(pairs):]
        if len(initial) < len(pairs):
            unserved.extend(pairs[len(initial):])
            pairs = pairs[:len(initial)]
        spare_pos = 0
        for pair, own in zip(pairs, initial):
            served = own if try_box(own, state) else None
            while served is None and spare_pos < len(spares):
                box = spares[spare_pos]
                spare_pos += 1
                if try_box(box, state):
                    served = box
            if served is None:
                unserved.append(pair)
            else:
                assignments.append(Assignment(pair, served))
    if unserved:
        raise DistillationExhausted(unserved)
    return FailureReport(success_rate, seed, RNG_ALGORITHM, assignments,
                         failed_initial, failed_total)


def route_pins(box_pin: Pin, circuit_pin: Pin) -> list[Segment]:
    """Up to three axis-aligned segments from box pin to circuit pin (t, i, j order)."""
    if box_pin.kind is not circuit_pin.kind:
        raise SchedulingError("cannot connect pins of different kinds")
    segs: list[Segment] = []
    cur = box_pin.coord
    for axis in ("t", "i", "j"):
        target = getattr(circuit_pin.coord, axis)
        if getattr(cur, axis) != target:
            nxt = Coord(
                target if axis == "i" else cur.i,
                target if axis == "j" else cur.j,
                target if axis == "t" else cur.t,
            )
            segs.append(Segment(box_pin.kind, cur, nxt))
            cur = nxt
    return segs


@dataclass
class Connection:
    box_pin: Pin
    circuit_pin: Pin
    segments: tuple[Segment, ...]


def connect_pins(assignments: list[Assignment]) -> list[Connection]:
    """Route both pins of every assignment, inner to inner, outer to outer."""
    out: list[Connection] = []
    for asg in assignments:
        if asg.pair.pins is None:
            raise SchedulingError("ghost pairs cannot be connected")
        box_lo, box_hi = sorted(asg.box.output_pins, key=lambda p: p.coord.i)
        circ_lo, circ_hi = sorted(asg.pair.pins, key=lambda p: p.coord.i)
        for bp, cp in ((box_lo, circ_lo), (box_hi, circ_hi)):
            out.append(Connection(bp, cp, tuple(route_pins(bp, cp))))
    return out
