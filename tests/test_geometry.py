import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

import reference_scans as ref
from conftest import defects_of, icm_circuits, parity_geometries, winding_ray_cast
from tqecsynth import geometry
from tqecsynth.circuit import Circuit, Gate, GateKind, circuit, parse_circuit
from tqecsynth.decompose import decompose_gates
from tqecsynth.geometry import (
    CapShape, Coord, Defect, GeometryError, LayoutParams, PortBasis, PortRole, Segment,
    SegmentKind, cnot_braid_template, generate_geometry, io_geometry,
    linking_number, segment_overlaps, validate_parity,
)
from tqecsynth.icm import to_icm
from tqecsynth.matrix import to_matrix
from tqecsynth.pipeline import PipelineConfig, SparePolicy, run_pipeline

PARAMS = LayoutParams()
CIRCUIT_DIR = Path(__file__).parent.parent / "circuits"


def icm(src: str) -> Circuit:
    c = parse_circuit(src)
    return Circuit(c.qubit_count, c.inits, c.gates, c.meas, icm=True)


def geometry_for(src: str):
    return generate_geometry(to_matrix(icm(src)), PARAMS)


def test_two_cnot_geometry_counts():
    geo = geometry_for("qubits 3\ncnot 0 1\ncnot 2 1\n")
    assert len(defects_of(geo, SegmentKind.PRIMAL)) == 6      # three qubit pairs
    assert len(defects_of(geo, SegmentKind.DUAL)) == 2        # one loop per CNOT
    inputs = [p for p in geo.ioports if p.role is PortRole.INPUT]
    outputs = [p for p in geo.ioports if p.role is PortRole.OUTPUT]
    assert len(inputs) == 3 and len(outputs) == 3
    assert not geo.injections


def test_single_wire_geometry():
    geo = geometry_for("qubits 1\n")
    assert len(defects_of(geo, SegmentKind.PRIMAL)) == 2
    assert not defects_of(geo, SegmentKind.DUAL)
    assert len(geo.pins) == 4
    for port in geo.ioports:
        a, b = port.pins
        assert (a.coord.j, a.coord.t) == (b.coord.j, b.coord.t)
        assert a.coord.i != b.coord.i


def test_t_gate_geometry_counts():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    geo = generate_geometry(to_matrix(conv.circuit), PARAMS)
    assert len(geo.injections) == 2
    states = sorted(i.state.value for i in geo.injections)
    assert states == ["a", "y"]
    assert len(defects_of(geo, SegmentKind.DUAL)) == 6
    assert len(defects_of(geo, SegmentKind.PRIMAL)) == 12


def test_injection_pins_share_j_and_t():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    geo = generate_geometry(to_matrix(conv.circuit), PARAMS)
    for inj in geo.injections:
        a, b = inj.pins
        assert a.coord.j == b.coord.j == inj.vertex.j
        assert a.coord.t == b.coord.t
        assert {a.coord.i, b.coord.i} == {PARAMS.i_inner, PARAMS.i_outer}
        assert inj.vertex.odd_count == 1


def test_monotone_time_ordering():
    geo = geometry_for("qubits 2\ncnot 0 1\ncnot 1 0\n")
    t_in = PARAMS.t_in
    t_out = PARAMS.t_out(2)
    for d in defects_of(geo, SegmentKind.DUAL):
        ts = {s.a.t for s in d.segments}
        assert len(ts) == 1
        assert t_in < ts.pop() < t_out


def moved(p: Coord, axis: int, by: int) -> Coord:
    coords = p.as_list()
    coords[axis] += by
    return Coord(*coords)


@pytest.mark.parametrize("axis", range(3))
def test_defect_checks_raise_their_own_messages_in_order(axis):
    # each bad joint or loop end is off by two units along ``axis`` alone
    P, D = SegmentKind.PRIMAL, SegmentKind.DUAL
    w = (axis + 1) % 3
    start = Coord(1, 1, 1)
    turn = moved(start, w, 8)
    off_turn, off_start = moved(turn, axis, 2), moved(start, axis, 2)
    path = (Segment(P, start, turn), Segment(P, turn, off_turn),
            Segment(P, off_turn, off_start))
    broken = (Segment(P, start, turn), Segment(P, off_turn, off_start))
    mixed = (Segment(P, start, turn), Segment(D, off_turn, off_start))
    cases = [
        ((), "defect needs at least one segment"),
        (mixed, "a defect cannot mix segment kinds"),       # and a broken joint
        (broken, "defect segments must chain end to end"),  # and not back at its start
        (path, "closed defect must return to its start"),
    ]
    for segments, message in cases:
        with pytest.raises(GeometryError, match=f"^{message}$"):
            Defect(P, segments, closed=True)
    assert Defect(P, path, closed=False).vertices()[-1] == off_start
    assert Defect(P, path + (Segment(P, off_start, start),), closed=True).closed


def test_braid_adjacent_rows_is_rectangle():
    loop = cnot_braid_template(0, 1, 0, PARAMS)
    assert len(loop) == 4
    inner0 = [Segment(SegmentKind.PRIMAL, Coord(PARAMS.i_inner, PARAMS.row_j(0), 1),
                      Coord(PARAMS.i_inner, PARAMS.row_j(0), 99))]
    inner1 = [Segment(SegmentKind.PRIMAL, Coord(PARAMS.i_inner, PARAMS.row_j(1), 1),
                      Coord(PARAMS.i_inner, PARAMS.row_j(1), 99))]
    assert linking_number(loop, inner0) == 1
    assert linking_number(loop, inner1) == 1


def test_braid_distant_rows_detours_intermediates():
    loop = cnot_braid_template(0, 2, 0, PARAMS)
    assert len(loop) >= 8
    def strand(i, row):
        j = PARAMS.row_j(row)
        return [Segment(SegmentKind.PRIMAL, Coord(i, j, 1), Coord(i, j, 99))]
    assert linking_number(loop, strand(PARAMS.i_inner, 0)) == 1
    assert linking_number(loop, strand(PARAMS.i_inner, 2)) == 1
    assert linking_number(loop, strand(PARAMS.i_inner, 1)) == 0
    for row in range(3):
        assert linking_number(loop, strand(PARAMS.i_outer, row)) == 0


def test_braid_same_row_rejected():
    with pytest.raises(GeometryError):
        cnot_braid_template(1, 1, 0, PARAMS)


def test_braid_parity_by_construction():
    for rows in ((0, 1), (0, 3), (2, 0)):
        loop = cnot_braid_template(rows[0], rows[1], 1, PARAMS)
        for seg in loop:
            assert seg.kind is SegmentKind.DUAL
            assert seg.a.odd_count == 0 and seg.b.odd_count == 0


def test_io_geometry_templates():
    z_in = io_geometry(PortRole.INPUT, PortBasis.Z)
    x_in = io_geometry(PortRole.INPUT, PortBasis.X)
    assert z_in.shape is CapShape.SOLID and not z_in.mirrored
    assert x_in.shape is CapShape.SPLIT
    z_out = io_geometry(PortRole.OUTPUT, PortBasis.Z)
    assert z_out.shape is CapShape.SOLID and z_out.mirrored


def assert_one_injection_model(geo, inits) -> None:
    """Each injected row is one Injection and no input port; ports take io_geometry's caps."""
    for row, init in enumerate(inits):
        injected = [inj for inj in geo.injections if inj.qubit_row == row]
        inputs = [port for port in geo.ioports
                  if port.qubit_row == row and port.role is PortRole.INPUT]
        if init.is_injection:
            assert [inj.state for inj in injected] == [init] and not inputs
        else:
            assert not injected and len(inputs) == 1
    assert len(geo.injections) == sum(init.is_injection for init in inits)
    for port in geo.ioports:
        assert port.template == io_geometry(port.role, port.basis)


@pytest.mark.parametrize("rate,seed", [(1.0, 0), (0.8, 53), (0.5, 201)])
@pytest.mark.parametrize("path", sorted(CIRCUIT_DIR.glob("*.tq")), ids=lambda p: p.stem)
def test_injected_inputs_have_one_model_on_circuits(path, rate, seed):
    config = PipelineConfig(success_rate=rate, seed=seed, spares=SparePolicy(epsilon=1e-6))
    result = run_pipeline(path.read_text(), config)
    assert_one_injection_model(result.geometry, result.conversion.circuit.inits)


@settings(max_examples=60, deadline=None)
@given(icm_circuits(max_qubits=6, max_cnots=10))
def test_injected_inputs_have_one_model_on_random_geometries(circ):
    assert_one_injection_model(generate_geometry(to_matrix(circ), PARAMS), circ.inits)


def test_validate_parity_accepts_valid_segments():
    geo = geometry_for("qubits 2\ncnot 0 1\n")
    assert validate_parity(geo) == []


def test_validate_parity_flags_bad_primal_endpoint():
    from dataclasses import replace
    geo = geometry_for("qubits 1\n")
    bad = Segment(SegmentKind.PRIMAL, Coord(2, 1, 1), Coord(2, 1, 5))
    from tqecsynth.geometry import Defect
    geo = replace(geo, defects=geo.defects + (Defect(SegmentKind.PRIMAL, (bad,), False),))
    diags = validate_parity(geo)
    assert any(d.rule == "segment-parity" for d in diags)


@settings(max_examples=200, deadline=None)
@given(parity_geometries())
def test_validate_parity_matches_the_per_endpoint_reference(geo):
    assert [(d.rule, d.message) for d in validate_parity(geo)] == ref.validate_parity(geo)


@pytest.mark.parametrize("path", sorted(CIRCUIT_DIR.glob("*.tq")), ids=lambda p: p.stem)
def test_validate_parity_matches_the_reference_on_sample_circuits(path):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=0.8, seed=53)).geometry
    assert validate_parity(geo) == [] == ref.validate_parity(geo)


def test_linking_number_unit_square():
    t = 4
    pts = [Coord(0, 0, t), Coord(2, 0, t), Coord(2, 2, t), Coord(0, 2, t)]
    loop = [Segment(SegmentKind.DUAL, a, b) for a, b in zip(pts, pts[1:] + pts[:1])]
    inside = [Segment(SegmentKind.PRIMAL, Coord(1, 1, 0), Coord(1, 1, 9))]
    outside = [Segment(SegmentKind.PRIMAL, Coord(5, 5, 0), Coord(5, 5, 9))]
    misses_plane = [Segment(SegmentKind.PRIMAL, Coord(1, 1, 7), Coord(1, 1, 9))]
    assert linking_number(loop, inside) == 1
    assert linking_number(loop, outside) == 0
    assert linking_number(loop, misses_plane) == 0


def test_linking_number_rejects_non_planar():
    pts = [Coord(0, 0, 0), Coord(2, 0, 0), Coord(2, 0, 2), Coord(0, 0, 2)]
    loop = [Segment(SegmentKind.DUAL, a, b) for a, b in zip(pts, pts[1:] + pts[:1])]
    with pytest.raises(GeometryError):
        linking_number(loop, [])


def test_braid_winding_matches_ray_cast_oracle():
    # independent even-odd membership vs winding number on the emitted loop
    for rows in ((0, 1), (0, 2), (1, 4)):
        loop = cnot_braid_template(*rows, 0, PARAMS)
        polygon = [(s.a.i, s.a.j) for s in loop]
        for row in range(5):
            for i in (PARAMS.i_inner, PARAMS.i_outer):
                point = (i, PARAMS.row_j(row))
                strand = [Segment(SegmentKind.PRIMAL,
                                  Coord(point[0], point[1], 1),
                                  Coord(point[0], point[1], 99))]
                wn = linking_number(loop, strand)
                assert (wn != 0) == winding_ray_cast(polygon, point)


def test_no_same_kind_overlaps_in_generated_geometry():
    geo = geometry_for("qubits 3\ncnot 0 2\ncnot 1 2\ncnot 0 1\n")
    assert segment_overlaps(geo) == []


def test_single_layer_two_i_values():
    geo = geometry_for("qubits 2\ncnot 0 1\n")
    i_values = {s.a.i for d in defects_of(geo, SegmentKind.PRIMAL) for s in d.segments}
    assert i_values == {PARAMS.i_inner, PARAMS.i_outer}


def test_malformed_matrix_rejected():
    from tqecsynth.matrix import MatrixRep
    with pytest.raises(GeometryError, match="row 0: unknown input code 7"):
        generate_geometry(MatrixRep((7, -100), (-101, -101), ()), PARAMS)
    with pytest.raises(GeometryError, match="row 1: unknown output code 5"):
        generate_geometry(MatrixRep((-100, -100), (-101, 5), ()), PARAMS)


def test_layout_param_validation():
    with pytest.raises(GeometryError):
        LayoutParams(i_inner=2)
    with pytest.raises(GeometryError):
        LayoutParams(i_outer=3)
    with pytest.raises(GeometryError):
        LayoutParams(j_pitch=5)


@pytest.mark.parametrize("pitch", [{"j_pitch": 0}, {"t_pitch": 0}, {"j_pitch": -6},
                                   {"t_pitch": -2}, {"j_pitch": -6, "t_pitch": -6}])
def test_layout_pitches_must_be_positive(pitch):
    # a zero j pitch would put every row's strands on one j
    with pytest.raises(GeometryError, match="pitches must be positive"):
        LayoutParams(**pitch)


def test_toffoli_scale_structure():
    # full-size geometry: 45 rows, 55 braids; parity clean, no same-kind
    # contact, and every braid links exactly its control/target inner strands
    from tqecsynth.decompose import decompose_gates
    conv = to_icm(decompose_gates(parse_circuit("qubits 3\ntoffoli 0 1 2\n")))
    m = to_matrix(conv.circuit)
    geo = generate_geometry(m, PARAMS)
    assert m.qubit_count == 45 and m.cnot_count == 55
    assert validate_parity(geo) == []
    assert segment_overlaps(geo) == []
    for col in (0, 17, 54):
        ctrl, tgt = m.cnots[col]
        loop = [s for d in defects_of(geo, SegmentKind.DUAL) for s in d.segments
                if s.a.t == PARAMS.braid_t(col)]
        for row in range(m.qubit_count):
            for i in (PARAMS.i_inner, PARAMS.i_outer):
                strand = [Segment(SegmentKind.PRIMAL,
                                  Coord(i, PARAMS.row_j(row), 1),
                                  Coord(i, PARAMS.row_j(row), 9999))]
                want = 1 if (i == PARAMS.i_inner and row in (ctrl, tgt)) else 0
                assert linking_number(loop, strand) == want


@settings(max_examples=60, deadline=None)
@given(icm_circuits(max_qubits=6, max_cnots=10))
def test_parity_clean_on_random_geometries(circ):
    geo = generate_geometry(to_matrix(circ), PARAMS)
    assert validate_parity(geo) == []


def strand_spans(geo) -> dict[tuple[int, int], tuple[int, int]]:
    """(row, i) -> the t-interval of that primal strand."""
    out = {}
    for defect in defects_of(geo, SegmentKind.PRIMAL):
        (seg,) = defect.segments
        out[(seg.a.j - PARAMS.j_base) // PARAMS.j_pitch, seg.a.i] = seg.interval("t")
    return out


def test_strands_span_only_their_live_rows():
    geo = geometry_for("qubits 4\ninit 1 zero\ninit 2 plus\ninit 3 zero\n"
                       "cnot 0 1\ncnot 1 2\ncnot 2 0\n"
                       "measure 1 x\nmeasure 2 z\nmeasure 3 z\n")
    faces = (PARAMS.t_in, PARAMS.t_out(3))
    want = {
        0: faces,                                              # open in and out
        1: (PARAMS.braid_t(0) - 3, PARAMS.braid_t(1) + 3),     # |0>, measured X
        2: (PARAMS.braid_t(1) - 3, PARAMS.braid_t(2) + 3),     # |+>, measured Z
        3: faces,                                              # no CNOT
    }
    spans = strand_spans(geo)
    assert spans == {(row, i): want[row] for row in want
                     for i in (PARAMS.i_inner, PARAMS.i_outer)}
    for port in geo.ioports:
        end = want[port.qubit_row][port.role is PortRole.OUTPUT]
        assert [pin.coord.t for pin in port.pins] == [end, end]
    assert validate_parity(geo) == []


@pytest.mark.parametrize("t_pitch", [2, 4])
def test_live_spans_stay_between_the_faces(t_pitch):
    params = LayoutParams(t_pitch=t_pitch)
    circ = icm("qubits 3\ninit 1 zero\ninit 2 plus\ncnot 0 1\ncnot 2 1\n"
               "measure 1 z\nmeasure 2 x\n")
    geo = generate_geometry(to_matrix(circ), params)
    for defect in defects_of(geo, SegmentKind.PRIMAL):
        lo, hi = defect.segments[0].interval("t")
        assert params.t_in <= lo < hi <= params.t_out(2)
    assert validate_parity(geo) == []


def test_injected_rows_keep_the_input_face():
    conv = to_icm(circuit(1, [Gate(GateKind.T, (0,))]))
    geo = generate_geometry(to_matrix(conv.circuit), PARAMS)
    spans = strand_spans(geo)
    for inj in geo.injections:
        assert spans[inj.qubit_row, PARAMS.i_inner][0] == PARAMS.t_in
        assert {pin.coord.t for pin in inj.pins} == {PARAMS.t_in}


@settings(max_examples=60, deadline=None)
@given(icm_circuits(max_qubits=6, max_cnots=10))
def test_every_loop_links_exactly_its_two_inner_strands(circ):
    geo = generate_geometry(to_matrix(circ), PARAMS)
    strands = [(d.segments[0].a, d.segments) for d in defects_of(geo, SegmentKind.PRIMAL)]
    for gate, loop in zip(circ.gates, defects_of(geo, SegmentKind.DUAL)):
        linked = {(a.i, a.j): linking_number(loop.segments, segs) for a, segs in strands}
        want = {(PARAMS.i_inner, PARAMS.row_j(row)) for row in gate.qubits}
        assert {key for key, wn in linked.items() if wn} == want
        assert all(abs(linked[key]) == 1 for key in want)


def test_loop_outside_its_rows_strand_is_rejected(monkeypatch):
    spans = geometry.cnot_spans
    # every row's CNOTs claimed to end one column early: the |0> row's strand
    # then ends before the second loop's plane
    monkeypatch.setattr(geometry, "cnot_spans", lambda circ: [
        None if span is None else (span[0], span[1] - 1) for span in spans(circ)])
    with pytest.raises(GeometryError, match="CNOT column 1 at t=.* outside the strand of row 1"):
        geometry_for("qubits 2\ninit 1 zero\ncnot 0 1\ncnot 0 1\nmeasure 1 z\n")


@pytest.mark.parametrize("name", ["t_gate", "toffoli"])
def test_t_block_wire_row_ends_before_its_other_measured_rows(name):
    # the wire's Z outcome selects the block's pattern, so it is read first
    conv = to_icm(decompose_gates(parse_circuit((CIRCUIT_DIR / f"{name}.tq").read_text())))
    geo = generate_geometry(to_matrix(conv.circuit), PARAMS)
    ends = {row: hi for (row, _), (_, hi) in strand_spans(geo).items()}
    blocks = [inst for inst in conv.instances if inst.selective]
    assert blocks
    for inst in blocks:
        wire, *others = (inst.rows[loc] for loc, _ in inst.template.measurement_patterns[0])
        assert wire == inst.rows[0] and len(others) == 4
        assert all(ends[wire] < ends[row] for row in others)
