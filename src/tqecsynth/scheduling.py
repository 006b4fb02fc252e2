"""Distillation box placement, spare arrays, failure simulation, and routing.

Boxes are packed in the (j, i) plane of a single layer sitting before the
circuit's inputs on the t axis. Every box is placed at the j coordinate of
the pin pair it serves; boxes whose j extents collide stack along i, lowest
free i first. Spare boxes are driven by requests without pins that exist
only to steer the packer, and form one array per state on a flank of the
circuit (:func:`box_layout`, :func:`place_boxes`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .circuit import InitBasis
from .geometry import Coord, LayoutParams, Pin, PinRole, Segment, SegmentKind

RNG_ALGORITHM = "numpy-pcg64"

# Largest spare count per box type that spare_count returns; beyond it the
# schedule is too large to place, so it is an error rather than a layout.
MAX_SPARES = 10_000

# Largest box span along any axis, in unit cells (the defaults are 4 to 12).
# Routes and the spatial index grow with the spans, so a larger one is an
# error before anything is placed.
MAX_BOX_SPAN = 1_000


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
        if self.ispan < 2:
            raise SchedulingError("box i span must be at least 2 cells: a box needs two "
                                  "distinct output pins, one at each i end")
        if max(self.ispan, self.jspan, self.tspan) > MAX_BOX_SPAN:
            raise SchedulingError(f"box spans must be at most {MAX_BOX_SPAN} cells")

    @property
    def pitch(self) -> int:
        """j distance between neighbouring boxes of one spare row."""
        return 2 * self.jspan


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
    """One scheduling request: the pin pair a box must align with.

    A pair without pins only steers the packer; its box is a spare.
    """

    state: InitBasis
    j: int
    pins: tuple[Pin, Pin] | None = None

    def __post_init__(self) -> None:
        if self.state not in (InitBasis.A, InitBasis.Y):
            raise SchedulingError("pin pair state must be A or Y")


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


@dataclass(frozen=True)
class FillConfig:
    """Packing configuration: the lowest i a box may start at."""

    start_i: int = 1

    def __post_init__(self) -> None:
        if self.start_i % 2 == 0:
            raise SchedulingError("start_i must be odd (primal cell centres)")


# Width, in j, of the bands that index a region's occupied rectangles.
J_BAND = 16


@dataclass
class Region:
    """Free-space bookkeeping for the (j, i) packing plane.

    Occupied rectangles are closed cell-centre intervals; allocation takes
    the lowest free i at a fixed j, starting from ``fill.start_i``. Each
    rectangle is also filed under every ``J_BAND``-wide j band it touches,
    so an allocation only looks at the rectangles near its own j.
    """

    fill: FillConfig = field(default_factory=FillConfig)
    occupied: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)
    _bands: dict[int, list[tuple[tuple[int, int], tuple[int, int]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for rect in self.occupied:
            self._file(rect)

    def _file(self, rect: tuple[tuple[int, int], tuple[int, int]]) -> None:
        _, (j_lo, j_hi) = rect
        for band in range(j_lo // J_BAND, j_hi // J_BAND + 1):
            self._bands.setdefault(band, []).append(rect)

    def nearby(self, j_lo: int, j_hi: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """The rectangles filed under the bands ``[j_lo, j_hi]`` touches.

        Every rectangle that overlaps those j is among them; one that spans
        several bands may come more than once.
        """
        return [rect for band in range(j_lo // J_BAND, j_hi // J_BAND + 1)
                for rect in self._bands.get(band, ())]

    def allocate(self, j: int, jspan: int, ispan: int) -> int:
        j_iv = (j, j + 2 * (jspan - 1))
        i_len = 2 * (ispan - 1)
        conflicts = [iv for iv, jv in self.nearby(*j_iv)
                     if jv[0] <= j_iv[1] and j_iv[0] <= jv[1]]
        start = self.fill.start_i
        # Candidate starts are start_i and the slot just past each conflict;
        # the highest one clears every conflict, so the scan always ends free.
        for i_lo in sorted({start} | {iv[1] + 2 for iv in conflicts if iv[1] + 2 > start}):
            if not any(iv[0] <= i_lo + i_len and i_lo <= iv[1] for iv in conflicts):
                break
        rect = ((i_lo, i_lo + i_len), j_iv)
        self.occupied.append(rect)
        self._file(rect)
        return i_lo


@dataclass
class Schedule:
    """The boxes one placement call put down, in request order."""

    boxes: list[BoxInstance]


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
    return BoxInstance(dim, origin, pins, spare=pair.pins is None)


def schedule_boxes(pin_pairs: list[PinPairReq], dims: dict[InitBasis, BoxDim],
                   region: Region, face_t: int) -> Schedule:
    """Place one box per pin pair (arrival order), pins on ``face_t`` at the pair's j."""
    validate_dims(dims)
    return Schedule([_place_box(pair, dims, region, face_t) for pair in pin_pairs])


def homogeneous_schedule(
    n: int,
    state: InitBasis,
    sj: int,
    dims: dict[InitBasis, BoxDim],
    region: Region,
    face_t: int,
) -> Schedule:
    """Schedule ``n`` spare boxes in a row starting at j = sj, a box pitch apart.

    Each box is driven by a pair without pins. Calling this repeatedly with
    identical coordinates against the same region stacks further rows along
    i, producing an array.
    """
    pitch = dims[state].pitch
    pairs = [PinPairReq(state, sj + idx * pitch) for idx in range(n)]
    return schedule_boxes(pairs, dims, region, face_t)


# Spare arrays flank the circuit: the Y array below its lowest j, the wider A
# array past the initial boxes' highest j. Rows are placed low flank first.
LOW_FLANK, HIGH_FLANK = InitBasis.Y, InitBasis.A


def _row_len(count: int) -> int:
    """Boxes per spare row: the array is as near square as ``count`` allows."""
    return math.ceil(math.sqrt(count))


def box_layout(spares: dict[InitBasis, int], dims: dict[InitBasis, BoxDim]) -> LayoutParams:
    """The default layout with t_in pushed out to fit the box layer, and
    j_base past the low spare flank.

    ``spares`` maps every injected state the circuit uses to its spare count.
    """
    layout = LayoutParams()
    if not spares:
        return layout
    # the box layer's face sits at t_in - 2 and every box must start at t >= 1
    t_in = max(layout.t_in, 2 * max(dims[s].tspan for s in spares) + 1)
    j_base = layout.j_base
    if spares.get(LOW_FLANK):
        j_base += _row_len(spares[LOW_FLANK]) * dims[LOW_FLANK].pitch
    return replace(layout, t_in=t_in, j_base=j_base)


def place_boxes(pairs: list[PinPairReq], spares: dict[InitBasis, int],
                dims: dict[InitBasis, BoxDim], layout: LayoutParams,
                fill: FillConfig) -> list[Schedule]:
    """Place one box per pin pair, then each state's spare array on its flank.

    ``layout`` is the one :func:`box_layout` returned. Returns the initial
    schedule followed by the spare rows, each row a single state.
    """
    region = Region(fill=fill)
    # the output face: the odd t slot just before the circuit's inputs
    face_t = layout.t_in - 2
    initial = schedule_boxes(pairs, dims, region, face_t)
    # the high flank must clear the initial boxes, which extend past their
    # pins along j
    j_hi = max(b.extent("j")[1] for b in initial.boxes)
    schedules = [initial]
    for state in (LOW_FLANK, HIGH_FLANK):
        count = spares.get(state, 0)
        if not count:
            continue
        row_len = _row_len(count)
        sj = layout.j_base - row_len * dims[state].pitch if state is LOW_FLANK else j_hi + 2
        for done in range(0, count, row_len):
            schedules.append(homogeneous_schedule(min(row_len, count - done), state, sj,
                                                  dims, region=region, face_t=face_t))
    return schedules


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
            raise SchedulingError("pairs without pins cannot be connected")
        box_lo, box_hi = sorted(asg.box.output_pins, key=lambda p: p.coord.i)
        circ_lo, circ_hi = sorted(asg.pair.pins, key=lambda p: p.coord.i)
        for bp, cp in ((box_lo, circ_lo), (box_hi, circ_hi)):
            out.append(Connection(bp, cp, tuple(route_pins(bp, cp))))
    return out
