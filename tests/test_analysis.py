import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import reference_scans as ref
import tqecsynth.analysis as analysis
from conftest import parity_geometries
from tqecsynth.analysis import (
    AnalysisError, DistanceReport, Instruction, Layer, LayerKind, Op, SiteBasis,
    bounding_box, code_distance, execution_schedule, hardware_loop, lattice_cells_for,
    min_code_distance, slice_layers, volume_units,
)
from tqecsynth.circuit import Circuit, Gate, GateKind, circuit, parse_circuit
from tqecsynth.decompose import decompose_gates
from tqecsynth.geometry import (
    Coord, Defect, Geometry, LayoutParams, Pin, PinRole, Segment, SegmentKind,
    generate_geometry,
)
from tqecsynth.icm import to_icm
from tqecsynth.matrix import to_matrix

CIRCUIT_DIR = Path(__file__).parent.parent / "circuits"

def bare_geometry(defects, **kw) -> Geometry:
    return Geometry(defects=tuple(defects), pins=(), injections=(),
                    ioports=(), layout=LayoutParams(), **kw)


def strand(kind, i, j, t0, t1):
    seg = Segment(kind, Coord(i, j, t0), Coord(i, j, t1))
    return Defect(kind, (seg,), closed=False)


def ring(kind, t, i0, i1, j0, j1):
    pts = [Coord(i0, j0, t), Coord(i1, j0, t), Coord(i1, j1, t), Coord(i0, j1, t)]
    segs = tuple(Segment(kind, a, b) for a, b in zip(pts, pts[1:] + pts[:1]))
    return Defect(kind, segs, closed=True)


# --- code distance ---------------------------------------------------------

def test_distance_formula_paper_cases():
    # diameter one, two cells apart -> minimal distance three
    assert code_distance(1, 2) == 3
    # d_d = 4*d_f + 1 rule: ring 4, chain 5 -> distance 4
    r = DistanceReport.from_params(1, 4)
    assert (r.ring_length, r.chain_length, r.code_distance) == (4, 5, 4)
    # fault-tolerant minimum: d_f 2, eight cells apart -> distance 8
    assert code_distance(2, 8) == 8


def test_min_code_distance_measured_from_geometry():
    geo = bare_geometry([
        strand(SegmentKind.PRIMAL, 1, 1, 1, 9),
        strand(SegmentKind.PRIMAL, 5, 1, 1, 9),   # two cells away in i
    ])
    rep = min_code_distance(geo)
    assert rep.min_defect_diameter == 1
    assert rep.min_separation == 2
    assert rep.code_distance == 3


def test_min_code_distance_merges_touching_defects():
    # a connection continuing a strand is one logical defect, not separation 0
    geo = bare_geometry([
        strand(SegmentKind.PRIMAL, 1, 1, 1, 9),
        strand(SegmentKind.PRIMAL, 1, 1, 9, 17),
        strand(SegmentKind.PRIMAL, 9, 1, 1, 17),
    ])
    rep = min_code_distance(geo)
    assert rep.min_separation == 4
    assert rep.code_distance == 4


def test_min_code_distance_single_defect():
    rep = min_code_distance(bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 9)]))
    assert rep.min_separation is None
    assert rep.code_distance == rep.ring_length == 4


def test_min_code_distance_empty():
    with pytest.raises(AnalysisError):
        min_code_distance(bare_geometry([]))


def test_pipeline_default_layout_reaches_distance_four():
    conv = to_icm(decompose_gates(parse_circuit("qubits 2\ncnot 0 1\nv 1\n")))
    geo = generate_geometry(to_matrix(conv.circuit))
    assert min_code_distance(geo).code_distance >= 4


# --- volume ----------------------------------------------------------------

def test_volume_five_cube_defect_is_one_unit():
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 9)])  # 5 cells long
    rep = volume_units(geo, 1)
    assert rep.bbox_in_cubes == (1, 1, 5)
    assert rep.volume_units == 1


def test_volume_ring_around_one_defect():
    # 1 x 2 x 2 volume units around a single strand
    geo = bare_geometry([
        strand(SegmentKind.PRIMAL, 9, 9, 1, 9),
        ring(SegmentKind.DUAL, 4, 0, 18, 0, 18),
    ])
    rep = volume_units(geo, 1)
    assert sorted(rep.units_per_axis) == [1, 2, 2]
    assert rep.volume_units == 4


def test_volume_ring_around_two_defects():
    # 1 x 2 x 3 volume units around two parallel strands
    geo = bare_geometry([
        strand(SegmentKind.PRIMAL, 9, 9, 1, 9),
        strand(SegmentKind.PRIMAL, 9, 19, 1, 9),
        ring(SegmentKind.DUAL, 4, 0, 18, 0, 28),
    ])
    rep = volume_units(geo, 1)
    assert sorted(rep.units_per_axis) == [1, 2, 3]
    assert rep.volume_units == 6


def test_volume_bridged_cnot_extents():
    # the compacted two-qubit braid needs a 2 x 2 x 3 arrangement: 12 units
    geo = bare_geometry([
        Defect(SegmentKind.PRIMAL,
               (Segment(SegmentKind.PRIMAL, Coord(1, 1, 1), Coord(19, 1, 1)),),
               closed=False),
        Defect(SegmentKind.PRIMAL,
               (Segment(SegmentKind.PRIMAL, Coord(1, 19, 29), Coord(19, 19, 29)),),
               closed=False),
    ])
    rep = volume_units(geo, 1)
    assert sorted(rep.units_per_axis) == [2, 2, 3]
    assert rep.volume_units == 12


def test_volume_units_scale_with_cube_side():
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 39)])  # 20 cells
    assert volume_units(geo, 1).bbox_in_cubes == (1, 1, 20)
    assert volume_units(geo, 2).bbox_in_cubes == (1, 1, 10)
    assert volume_units(geo, 4).bbox_in_cubes == (1, 1, 5)
    assert volume_units(geo, 4).volume_units == 1


def test_volume_monotone_under_extension():
    short = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 9)])
    longer = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 59)])
    assert volume_units(longer, 1).volume_units >= volume_units(short, 1).volume_units


def test_bounding_box_segment_and_empty():
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 9)])
    box = bounding_box(geo)
    assert (box.lo, box.hi) == (Coord(1, 1, 1), Coord(1, 1, 9))
    assert box.cells() == (1, 1, 5)
    with pytest.raises(AnalysisError):
        bounding_box(bare_geometry([]))


@pytest.mark.parametrize("rate,seed", [(1.0, 0), (0.8, 53)])
@pytest.mark.parametrize("path", sorted(CIRCUIT_DIR.glob("*.tq")), ids=lambda p: p.stem)
def test_bounding_box_equals_the_all_points_reference(path, rate, seed):
    from tqecsynth.pipeline import PipelineConfig, run_pipeline
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=rate, seed=seed)).geometry
    box = bounding_box(geo)
    assert (box.lo, box.hi) == ref.bounding_box_of_points(geo)


@settings(max_examples=200, deadline=None)
@given(parity_geometries(min_defects=0, points=True))
@example(Geometry(defects=(), pins=(Pin(Coord(4, -2, 0), SegmentKind.DUAL, PinRole.IO),
                                    Pin(Coord(-1, 5, 3), SegmentKind.PRIMAL, PinRole.IO)),
                  injections=(), ioports=(), layout=LayoutParams()))
def test_bounding_box_equals_the_all_points_reference_on_drawn_geometries(geo):
    # the span table's extents and the point rows, on and off their parity,
    # some below zero, with pins and injection vertices off the segments
    if not (geo.defects or geo.pins or geo.injections):
        with pytest.raises(AnalysisError):
            bounding_box(geo)
        return
    box = bounding_box(geo)
    assert (box.lo, box.hi) == ref.bounding_box_of_points(geo)


def test_bounding_box_covers_schedules_and_circuit():
    from tqecsynth.pipeline import run_pipeline
    result = run_pipeline("qubits 1\nt 0\n")
    box = bounding_box(result.geometry)
    for b in result.geometry.boxes:
        for axis, lo, hi in (("i", box.lo.i, box.hi.i),
                             ("j", box.lo.j, box.hi.j),
                             ("t", box.lo.t, box.hi.t)):
            b_lo, b_hi = b.extent(axis)
            assert lo <= b_lo and b_hi <= hi
    for seg in result.geometry.segments:
        for pt in (seg.a, seg.b):
            assert box.lo.i <= pt.i <= box.hi.i
            assert box.lo.j <= pt.j <= box.hi.j
            assert box.lo.t <= pt.t <= box.hi.t


# --- slicing ---------------------------------------------------------------

def rasterise_cells(seg: Segment) -> set[tuple[int, int, int]]:
    """Independent cell-by-cell rasteriser: walk the segment two units a step."""
    cells = set()
    cur = [seg.a.i, seg.a.j, seg.a.t]
    end = [seg.b.i, seg.b.j, seg.b.t]
    axis = next(k for k in range(3) if cur[k] != end[k])
    step = 2 if end[axis] > cur[axis] else -2
    while True:
        cells.add(tuple(cur))
        if cur[axis] == end[axis]:
            return cells
        cur[axis] += step


def oracle_sites(segments, t: int) -> set[tuple[int, int]]:
    sites = set()
    for seg in segments:
        for (ci, cj, ct) in rasterise_cells(seg):
            if abs(t - ct) <= 1:
                for i in range(ci - 1, ci + 2):
                    for j in range(cj - 1, cj + 2):
                        sites.add((i, j))
    return sites


def test_empty_geometry_slices_all_x():
    layers = slice_layers(bare_geometry([]), (3, 3, 3))
    assert len(layers) == 5
    assert [l.kind for l in layers] == [LayerKind.PRIMAL, LayerKind.DUAL,
                                        LayerKind.PRIMAL, LayerKind.DUAL,
                                        LayerKind.PRIMAL]
    for layer in layers:
        assert layer.marked == ()


def test_defect_line_marks_cross_section_z():
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 3, 3, 1, 9)])
    layers = slice_layers(geo, (3, 3, 6))
    for layer in layers:
        marks = dict(layer.marked)
        if layer.t <= 10:   # cells reach one unit beyond the end point
            assert marks[3, 3] is SiteBasis.Z
            assert marks[3, 2] is SiteBasis.Z   # cell face site
        else:
            assert (3, 3) not in marks


def test_braided_pair_matches_rasteriser_oracle():
    # primal strand braided by a dual loop; defect site sets per layer must
    # agree with the brute-force segment rasterisation
    loop = ring(SegmentKind.DUAL, 6, 0, 6, 0, 6)
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 3, 3, 1, 11), loop])
    segments = list(geo.segments)
    layers = slice_layers(geo, (5, 5, 7))
    for layer in layers:
        want = {s for s in oracle_sites(segments, layer.t)
                if 0 <= s[0] <= layer.extent[0] and 0 <= s[1] <= layer.extent[1]}
        got = {site for site, basis in layer.marked if basis is SiteBasis.Z}
        assert got == want, f"t={layer.t}"


def test_layer_count_parity():
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 5)])
    layers = slice_layers(geo, (2, 2, 4))
    primal = sum(1 for l in layers if l.kind is LayerKind.PRIMAL)
    dual = len(layers) - primal
    assert primal == dual + 1


def test_extent_must_cover_geometry():
    geo = bare_geometry([strand(SegmentKind.PRIMAL, 1, 1, 1, 29)])
    with pytest.raises(AnalysisError):
        slice_layers(geo, (2, 2, 3))


def test_lattice_size_bounds(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_LAYERS", 5)
    monkeypatch.setattr(analysis, "MAX_LAYER_SITES", 25)
    geo = bare_geometry([])
    assert len(slice_layers(geo, (2, 2, 3))) == 5            # 5 x 5 sites, 5 layers
    for cells in ((2, 2, 4), (2, 3, 1), (3, 2, 1)):          # 7 layers; 35 sites
        with pytest.raises(AnalysisError, match="too large"):
            slice_layers(geo, cells)


def test_injection_vertex_marked():
    conv = to_icm(circuit(1, [Gate(GateKind.P, (0,))]))
    geo = generate_geometry(to_matrix(conv.circuit))
    layers = slice_layers(geo, lattice_cells_for(geo))
    (inj,) = geo.injections
    layer = next(l for l in layers if l.t == inj.vertex.t)
    assert dict(layer.marked)[inj.vertex.i, inj.vertex.j] is SiteBasis.INJECTED


def test_open_ports_stay_unmeasured():
    from tqecsynth.circuit import InitBasis, MeasBasis
    geo = generate_geometry(to_matrix(
        Circuit(1, (InitBasis.OPEN,), (), (MeasBasis.OPEN,), icm=True)))
    layers = slice_layers(geo, lattice_cells_for(geo))
    port = geo.ioports[0]
    pin = port.pins[0]
    layer = next(l for l in layers if l.t == pin.coord.t)
    assert dict(layer.marked)[pin.coord.i, pin.coord.j] is SiteBasis.IO


# --- execution schedule ----------------------------------------------------

def L(t, kind):
    return Layer(t=t, kind=kind, extent=(2, 2), marked=())


def test_execution_single_layer():
    stream = execution_schedule([L(1, LayerKind.PRIMAL)])
    assert [(i.op, i.layers) for i in stream] == [(Op.INIT, (0,)), (Op.MEASURE, (0,))]


def test_execution_three_layers_unrolled():
    layers = [L(1, LayerKind.PRIMAL), L(2, LayerKind.DUAL), L(3, LayerKind.PRIMAL)]
    stream = execution_schedule(layers)
    assert [(i.op, i.layers) for i in stream] == [
        (Op.INIT, (0,)), (Op.INIT, (1,)), (Op.ENTANGLE, (0, 1)),
        (Op.MEASURE, (0,)), (Op.INIT, (2,)), (Op.ENTANGLE, (2, 1)),
        (Op.MEASURE, (1,)), (Op.MEASURE, (2,)),
    ]


def test_execution_five_layers_structure():
    kinds = [LayerKind.PRIMAL, LayerKind.DUAL, LayerKind.PRIMAL,
             LayerKind.DUAL, LayerKind.PRIMAL]
    layers = [L(t + 1, k) for t, k in enumerate(kinds)]
    stream = execution_schedule(layers)
    measures = [i for i in stream if i.op is Op.MEASURE]
    assert len(measures) == len(layers)
    for ins in stream:
        if ins.op is Op.ENTANGLE:
            a, b = ins.layers
            assert abs(a - b) == 1          # only adjacent layers entangle
    # every layer: exactly one init, one measure, at most two entangles
    for idx in range(len(layers)):
        inits = sum(1 for i in stream if i.op is Op.INIT and i.layers == (idx,))
        meas = sum(1 for i in stream if i.op is Op.MEASURE and i.layers == (idx,))
        ents = sum(1 for i in stream if i.op is Op.ENTANGLE and idx in i.layers)
        assert inits == 1 and meas == 1 and ents <= 2
    # Measure(p_i) precedes Init(p_{i+1})
    order = [(i.op, i.layers) for i in stream]
    assert order.index((Op.MEASURE, (0,))) < order.index((Op.INIT, (2,)))
    assert order.index((Op.MEASURE, (2,))) < order.index((Op.INIT, (4,)))


@pytest.mark.parametrize("count", [1, 3, 5, 7])
def test_execution_schedule_is_the_count_loop(count):
    layers = [L(t, LayerKind.PRIMAL if t % 2 else LayerKind.DUAL) for t in range(1, count + 1)]
    assert execution_schedule(layers) == list(hardware_loop(count))


def test_hardware_loop_rejects_empty_and_even_counts():
    for count in (0, -1):
        with pytest.raises(AnalysisError, match="no layers"):
            hardware_loop(count)
    for count in (2, 8):
        with pytest.raises(AnalysisError, match="start and end with primal"):
            hardware_loop(count)


def test_hardware_loop_is_lazy():
    # a lattice this tall is within MAX_LAYERS; its 2 999 996 instructions
    # must not be built before the first one is taken
    tracemalloc.start()
    try:
        first = next(hardware_loop(999_999))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == Instruction(Op.INIT, (0,))
    assert peak < 1_000_000


def test_execution_rejects_bad_alternation():
    with pytest.raises(AnalysisError):
        execution_schedule([L(1, LayerKind.DUAL)])
    with pytest.raises(AnalysisError):
        execution_schedule([L(1, LayerKind.PRIMAL), L(2, LayerKind.DUAL)])
