import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import reference_scans as ref
from tqecsynth.circuit import InitBasis, parse_circuit
from tqecsynth.decompose import decompose_gates
from tqecsynth.geometry import (
    Coord, LayoutParams, Pin, PinRole, SegmentKind, generate_geometry,
)
from tqecsynth.icm import to_icm
from tqecsynth.matrix import to_matrix
from tqecsynth.scheduling import (
    Assignment, BoxDim, BoxInstance, BoxStatus, DistillationExhausted, FillConfig,
    PinPairReq, Region, SchedulingError, box_layout, connect_pins,
    default_box_dims, homogeneous_schedule, place_boxes, route_pins,
    schedule_boxes, simulate_failures, spare_count, validate_dims,
)

DIMS = default_box_dims()
# The output face of a box layer that fits both default box types.
FACE_T = box_layout({InitBasis.A: 0, InitBasis.Y: 0}, DIMS).t_in - 2


def real_pair(state: InitBasis, j: int, t: int = 25) -> PinPairReq:
    pins = (
        Pin(Coord(1, j, t), SegmentKind.PRIMAL, PinRole.INJECTION, state),
        Pin(Coord(9, j, t), SegmentKind.PRIMAL, PinRole.INJECTION, state),
    )
    return PinPairReq(state, j, pins)


def injection_pairs(src: str) -> list[PinPairReq]:
    conv = to_icm(decompose_gates(parse_circuit(src)))
    geo = generate_geometry(to_matrix(conv.circuit))
    return [PinPairReq(i.state, i.pins[0].coord.j, i.pins) for i in geo.injections]


def test_t_gate_schedule_one_a_one_y():
    sched = schedule_boxes(injection_pairs("qubits 1\nt 0\n"), DIMS, Region(), FACE_T)
    states = sorted(b.state.value for b in sched.boxes)
    assert states == ["a", "y"]


def test_hadamard_schedule_three_y():
    sched = schedule_boxes(injection_pairs("qubits 1\nh 0\n"), DIMS, Region(), FACE_T)
    assert [b.state for b in sched.boxes] == [InitBasis.Y] * 3


def test_toffoli_schedule_21_boxes():
    sched = schedule_boxes(injection_pairs("qubits 3\ntoffoli 0 1 2\n"), DIMS, Region(), FACE_T)
    assert len(sched.boxes) == 21
    assert sum(1 for b in sched.boxes if b.state is InitBasis.A) == 7
    assert sum(1 for b in sched.boxes if b.state is InitBasis.Y) == 14


def test_overlapping_j_boxes_stack_along_i():
    pairs = [real_pair(InitBasis.Y, 7), real_pair(InitBasis.Y, 9),
             real_pair(InitBasis.Y, 7)]
    sched = schedule_boxes(pairs, DIMS, Region(), FACE_T)
    origins = [b.origin for b in sched.boxes]
    assert origins[0].i == 1
    assert origins[1].i > origins[0].i        # overlapping j interval stacks
    assert origins[2].i > origins[1].i        # same j stacks again
    assert all(b.origin.j == p.j for b, p in zip(sched.boxes, pairs))


def test_disjoint_j_boxes_share_lowest_i():
    pairs = [real_pair(InitBasis.Y, 1), real_pair(InitBasis.Y, 17)]
    sched = schedule_boxes(pairs, DIMS, Region(), FACE_T)
    assert [b.origin.i for b in sched.boxes] == [1, 1]


def test_box_pins_on_circuit_face_share_j():
    sched = schedule_boxes([real_pair(InitBasis.A, 11)], DIMS, Region(), FACE_T)
    (box,) = sched.boxes
    lo, hi = box.output_pins
    assert lo.coord.j == hi.coord.j == 11
    assert lo.coord.t == hi.coord.t == box.face_t
    assert lo.coord.i == box.origin.i
    assert hi.coord.i == box.extent("i")[1]


def test_region_takes_lowest_free_gap():
    region = Region(occupied=[((1, 7), (1, 7)), ((17, 23), (1, 7))])
    assert region.allocate(1, 4, 4) == 9       # the gap between the two boxes
    assert region.allocate(1, 4, 4) == 25      # the gap is now full
    assert region.allocate(9, 4, 4) == 1       # disjoint j starts at start_i


rects = st.tuples(st.integers(-40, 60), st.integers(0, 12), st.integers(-60, 60),
                  st.integers(0, 20)).map(lambda r: ((r[0], r[0] + r[1]), (r[2], r[2] + r[3])))


@settings(max_examples=200, deadline=None)
@given(st.lists(rects, max_size=12), st.integers(-3, 4).map(lambda k: 2 * k + 1),
       st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 9), st.integers(1, 9)),
                max_size=12))
def test_region_allocates_as_the_full_scan_does(occupied, start_i, requests):
    banded = Region(FillConfig(start_i), list(occupied))
    scanned = Region(FillConfig(start_i), list(occupied))
    for j, jspan, ispan in requests:
        assert banded.allocate(j, jspan, ispan) == ref.allocate(scanned, j, jspan, ispan)
    assert banded.occupied == scanned.occupied


def test_box_placement_looks_at_a_bounded_number_of_rectangles_per_box(monkeypatch):
    # 1 000 T gates on one qubit: 2 000 injection pairs, then two spare
    # arrays of 200 boxes each, rows stacked along i. The bands hand out
    # about 9 200 rectangles, most of them the stacked rows a spare box
    # really meets; a scan of every placed rectangle looks at 2 878 800.
    pairs = injection_pairs("qubits 1\n" + "t 0\n" * 1000)
    spares = {InitBasis.Y: 200, InitBasis.A: 200}
    layout = box_layout(spares, DIMS)
    looked_at = []
    nearby = Region.nearby

    def counted(region, j_lo, j_hi):
        rects = nearby(region, j_lo, j_hi)
        looked_at.append(len(rects))
        return rects

    monkeypatch.setattr(Region, "nearby", counted)
    boxes = [b for s in place_boxes(pairs, spares, DIMS, layout, FillConfig()) for b in s.boxes]
    assert len(pairs) == 2000 and len(boxes) == len(looked_at) == 2400
    assert sum(looked_at) <= 8 * len(boxes)
    monkeypatch.setattr(Region, "allocate", ref.allocate)
    scanned = [b for s in place_boxes(pairs, spares, DIMS, layout, FillConfig()) for b in s.boxes]
    assert [b.origin for b in boxes] == [b.origin for b in scanned]


def test_dims_invariant_a_wider_than_y():
    bad = {
        InitBasis.Y: BoxDim(InitBasis.Y, 4, 8, 8),
        InitBasis.A: BoxDim(InitBasis.A, 8, 8, 12),
    }
    with pytest.raises(SchedulingError):
        validate_dims(bad)


@pytest.mark.parametrize("state", [InitBasis.Y, InitBasis.A])
def test_box_one_cell_wide_is_refused(state):
    # its two output pins, at i_lo and i_lo + 2 * (ispan - 1), would be one point
    with pytest.raises(SchedulingError, match="i span must be at least 2 cells: .* two "
                                              "distinct output pins"):
        BoxDim(state, 1, 4, 8)
    with pytest.raises(SchedulingError, match="box spans must be positive"):
        BoxDim(state, 0, 4, 8)
    assert BoxDim(state, 2, 1, 1).ispan == 2     # j and t spans may be one cell


def test_homogeneous_empty():
    sched = homogeneous_schedule(0, InitBasis.Y, 1, DIMS, Region(), FACE_T)
    assert sched.boxes == []


def test_homogeneous_row_of_four():
    region = Region()
    sched = homogeneous_schedule(4, InitBasis.Y, 1, DIMS, region=region, face_t=FACE_T)
    assert len(sched.boxes) == 4
    assert all(b.spare for b in sched.boxes)
    assert len({b.origin.i for b in sched.boxes}) == 1     # one row
    js = [b.origin.j for b in sched.boxes]
    assert js == [1 + 8 * k for k in range(4)]             # a box pitch apart


def test_homogeneous_repeat_builds_array():
    region = Region()
    first = homogeneous_schedule(3, InitBasis.A, 1, DIMS, region=region, face_t=FACE_T)
    second = homogeneous_schedule(3, InitBasis.A, 1, DIMS, region=region, face_t=FACE_T)
    i_rows = {b.origin.i for b in first.boxes} | {b.origin.i for b in second.boxes}
    assert len(i_rows) == 2                                 # stacked rows
    assert [b.origin.j for b in first.boxes] == [b.origin.j for b in second.boxes]


def test_place_boxes_initial_schedule_then_flank_rows():
    spares = {InitBasis.Y: 5, InitBasis.A: 3}
    layout = box_layout(spares, DIMS)
    # t_in fits the tallest (A) box; j_base clears three Y boxes a pitch apart
    assert (layout.t_in, layout.j_base) == (2 * 12 + 1, 1 + 3 * 8)
    pairs = [real_pair(InitBasis.Y, layout.row_j(0), layout.t_in),
             real_pair(InitBasis.A, layout.row_j(1), layout.t_in)]
    initial, *rows = place_boxes(pairs, spares, DIMS, layout, FillConfig())
    assert [(b.state, b.spare) for b in initial.boxes] == [
        (InitBasis.Y, False), (InitBasis.A, False)]
    assert [(r.boxes[0].state, len(r.boxes)) for r in rows] == [
        (InitBasis.Y, 3), (InitBasis.Y, 2), (InitBasis.A, 2), (InitBasis.A, 1)]
    for row in rows:
        assert all(b.spare and b.state is row.boxes[0].state for b in row.boxes)
    assert all(b.face_t == layout.t_in - 2 for s in [initial, *rows] for b in s.boxes)
    y_boxes = [b for r in rows[:2] for b in r.boxes]
    a_boxes = [b for r in rows[2:] for b in r.boxes]
    assert min(b.origin.j for b in y_boxes) == 1
    assert max(b.extent("j")[1] for b in y_boxes) < layout.j_base
    assert min(b.origin.j for b in a_boxes) == max(b.extent("j")[1] for b in initial.boxes) + 2


def test_box_layout_without_injections_keeps_layout():
    assert box_layout({}, DIMS) == LayoutParams()


@pytest.mark.parametrize("state", [InitBasis.Y, InitBasis.A])
@pytest.mark.parametrize("needed", [8, 14])
def test_binomial_spares_exhaust_at_most_epsilon(needed, state):
    rate, eps, runs = 0.8, 0.01, 4000
    spares = {state: spare_count(needed, rate, eps)}
    layout = box_layout(spares, DIMS)
    pairs = [real_pair(state, layout.row_j(k), layout.t_in) for k in range(needed)]
    boxes = [b for s in place_boxes(pairs, spares, DIMS, layout, FillConfig()) for b in s.boxes]
    assert len(boxes) == needed + spares[state]
    exhausted = 0
    for seed in range(runs):
        try:
            simulate_failures({state: boxes}, rate, {state: pairs}, np.random.default_rng(seed))
        except DistillationExhausted:
            exhausted += 1
    assert exhausted / runs <= eps + 3 * math.sqrt(eps * (1 - eps) / runs)


@pytest.mark.parametrize("needed,rate,eps", [(12, 0.8, 0.05), (30, 0.9, 0.01), (5, 0.5, 0.1)])
def test_spare_count_exhaustion_rate_within_epsilon(needed, rate, eps):
    # The policy's promise, checked on the failure draws themselves: with
    # spare_count spares the queue runs dry in at most eps of the seeds, up to
    # three binomial standard errors.
    runs = 2000
    pairs = [real_pair(InitBasis.A, 1 + 8 * k) for k in range(needed)]
    boxes = [BoxInstance(DIMS[InitBasis.A], Coord(1, 1, 1), pairs[0].pins, spare=k >= needed)
             for k in range(needed + spare_count(needed, rate, eps))]
    exhausted = 0
    for seed in range(runs):
        try:
            simulate_failures({InitBasis.A: boxes}, rate, {InitBasis.A: pairs},
                              np.random.default_rng(seed))
        except DistillationExhausted:
            exhausted += 1
    assert exhausted / runs <= eps + 3 * math.sqrt(eps * (1 - eps) / runs)


def test_failures_rate_one_assigns_in_order():
    pairs = [real_pair(InitBasis.Y, 1), real_pair(InitBasis.Y, 17)]
    sched = schedule_boxes(pairs, DIMS, Region(), FACE_T)
    report = simulate_failures(
        {InitBasis.Y: list(sched.boxes)}, 1.0, {InitBasis.Y: pairs},
        np.random.default_rng(0))
    assert [a.box for a in report.assignments] == sched.boxes
    assert all(b.status is BoxStatus.SUCCESS for b in sched.boxes)
    assert report.failed_total == {}


def test_failures_rate_zero_exhausts():
    pairs = [real_pair(InitBasis.Y, 1)]
    sched = schedule_boxes(pairs, DIMS, Region(), FACE_T)
    with pytest.raises(DistillationExhausted):
        simulate_failures({InitBasis.Y: list(sched.boxes)}, 0.0,
                          {InitBasis.Y: pairs}, np.random.default_rng(0))


def test_failures_deterministic_for_seed():
    pairs = [real_pair(InitBasis.Y, 1 + 8 * k) for k in range(6)]
    def run(seed):
        sched = schedule_boxes(pairs, DIMS, Region(), FACE_T)
        spare = homogeneous_schedule(18, InitBasis.Y, 49, DIMS, Region(), FACE_T)
        boxes = list(sched.boxes) + list(spare.boxes)
        report = simulate_failures({InitBasis.Y: boxes}, 0.6,
                                   {InitBasis.Y: pairs},
                                   np.random.default_rng(seed))
        return [(a.box.origin, a.box.spare) for a in report.assignments]
    assert run(42) == run(42)
    assert run(42) != run(43)


def test_route_single_leg():
    a = Pin(Coord(1, 5, 3), SegmentKind.PRIMAL, PinRole.BOX_OUTPUT)
    b = Pin(Coord(1, 5, 9), SegmentKind.PRIMAL, PinRole.INJECTION)
    (seg,) = route_pins(a, b)
    assert (seg.a, seg.b) == (a.coord, b.coord)


def test_route_two_legs_shared_j():
    a = Pin(Coord(3, 5, 3), SegmentKind.PRIMAL, PinRole.BOX_OUTPUT)
    b = Pin(Coord(9, 5, 9), SegmentKind.PRIMAL, PinRole.INJECTION)
    segs = route_pins(a, b)
    assert len(segs) == 2
    assert segs[0].axis == "t" and segs[1].axis == "i"
    assert segs[0].a == a.coord and segs[1].b == b.coord
    assert segs[0].b == segs[1].a


def test_route_three_legs():
    a = Pin(Coord(3, 5, 3), SegmentKind.PRIMAL, PinRole.BOX_OUTPUT)
    b = Pin(Coord(9, 11, 9), SegmentKind.PRIMAL, PinRole.INJECTION)
    segs = route_pins(a, b)
    assert [s.axis for s in segs] == ["t", "i", "j"]
    assert segs[0].a == a.coord and segs[-1].b == b.coord


def test_route_kind_mismatch():
    a = Pin(Coord(2, 4, 2), SegmentKind.DUAL, PinRole.BOX_OUTPUT)
    b = Pin(Coord(1, 5, 9), SegmentKind.PRIMAL, PinRole.INJECTION)
    with pytest.raises(SchedulingError):
        route_pins(a, b)


def test_connect_pins_pairs_inner_to_inner():
    pairs = [real_pair(InitBasis.Y, 7)]
    sched = schedule_boxes(pairs, DIMS, Region(), FACE_T)
    report = simulate_failures({InitBasis.Y: list(sched.boxes)}, 1.0,
                               {InitBasis.Y: pairs}, np.random.default_rng(0))
    conns = connect_pins(report.assignments)
    assert len(conns) == 2
    for conn in conns:
        assert conn.segments[0].a == conn.box_pin.coord
        assert conn.segments[-1].b == conn.circuit_pin.coord
        assert len(conn.segments) <= 3
    inner = min(conns, key=lambda c: c.circuit_pin.coord.i)
    outer = max(conns, key=lambda c: c.circuit_pin.coord.i)
    assert inner.box_pin.coord.i < outer.box_pin.coord.i


def test_connect_rejects_ghosts():
    pinless = PinPairReq(InitBasis.Y, 1)
    box = schedule_boxes([real_pair(InitBasis.Y, 1)], DIMS, Region(), FACE_T).boxes[0]
    with pytest.raises(SchedulingError, match="without pins"):
        connect_pins([Assignment(pinless, box)])


def test_spare_count_trivial_and_derived():
    assert spare_count(1, 1.0, 0.01) == 0
    assert spare_count(0, 0.5, 0.01) == 0
    # 0.2^3 = 0.008 <= 0.01 needs two spares
    assert spare_count(1, 0.8, 0.01) == 2
    with pytest.raises(SchedulingError):
        spare_count(3, 0.0, 0.01)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.floats(0.3, 0.99), st.floats(0.001, 0.2))
def test_spare_count_matches_binomial_tail_oracle(needed, rate, eps):
    n = spare_count(needed, rate, eps)
    assert stats.binom.sf(needed - 1, needed + n, rate) >= 1 - eps
    if n:
        assert stats.binom.sf(needed - 1, needed + n - 1, rate) < 1 - eps


def summed_tail_spare_count(needed: int, rate: float, eps: float) -> int:
    """The binomial tail re-summed from the pmf at every spare count."""
    n = 0
    while True:
        total = needed + n
        tail = sum(math.comb(total, k) * rate ** k * (1 - rate) ** (total - k)
                   for k in range(needed, total + 1))
        if tail >= 1.0 - eps:
            return n
        n += 1


# 8/28/34/56 are the Y and A counts of the benchmark workloads
@pytest.mark.parametrize("needed", list(range(13)) + [20, 28, 34, 56, 100, 150, 200])
@pytest.mark.parametrize("rate", [0.5, 0.8, 0.9, 0.99])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_spare_count_equals_summed_tail(needed, rate, eps):
    assert spare_count(needed, rate, eps) == summed_tail_spare_count(needed, rate, eps)


def test_spare_count_large_and_capped():
    n = spare_count(2000, 0.9)
    assert stats.binom.sf(1999, 2000 + n, 0.9) >= 0.99
    assert stats.binom.sf(1999, 2000 + n - 1, 0.9) < 0.99
    with pytest.raises(SchedulingError, match="spares needed"):
        spare_count(1, 0.0001)
    # 1 - 0.9999^6932 >= 0.5 > 1 - 0.9999^6931
    assert spare_count(1, 0.0001, 0.5) == 6931
