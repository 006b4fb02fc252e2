import pytest

import reference_scans as ref
from tqecsynth import analysis
from tqecsynth.circuit import InitBasis
from tqecsynth.pipeline import (
    PipelineConfig, PipelineError, SparePolicy, run_pipeline,
)
from tqecsynth.scheduling import DistillationExhausted


def test_binomial_spares_default_policy():
    # one Y pair at 0.8 with eps 0.01 needs two spares: 0.2^3 = 0.008
    cfg = PipelineConfig(success_rate=0.8, seed=0)
    result = run_pipeline("qubits 1\np 0\n", cfg)
    assert len(result.geometry.boxes) == 3
    assert sum(1 for b in result.geometry.boxes if b.spare) == 2


def test_binomial_spares_toffoli():
    cfg = PipelineConfig(success_rate=0.8, seed=2)
    result = run_pipeline("qubits 3\ntoffoli 0 1 2\n", cfg)
    spares = [b for b in result.geometry.boxes if b.spare]
    y = sum(1 for b in spares if b.state is InitBasis.Y)
    a = sum(1 for b in spares if b.state is InitBasis.A)
    # binomial tails at 0.8/0.01: 14 pairs -> 9 spares, 7 pairs -> 6 spares
    assert (y, a) == (9, 6)
    assert len(result.failure.assignments) == 21


def test_boxes_sit_before_circuit_inputs():
    result = run_pipeline("qubits 1\nt 0\n")
    t_in = result.geometry.layout.t_in
    for box in result.geometry.boxes:
        assert box.extent("t")[1] < t_in
        assert box.extent("t")[0] >= 0


def test_spare_arrays_flank_the_circuit():
    cfg = PipelineConfig(success_rate=1.0, seed=0,
                         spares=SparePolicy("explicit", y_count=4, a_count=3))
    result = run_pipeline("qubits 3\ntoffoli 0 1 2\n", cfg)
    circuit_js = [inj.pins[0].coord.j for inj in result.geometry.injections]
    lo, hi = min(circuit_js), max(circuit_js)
    for box in result.geometry.boxes:
        if not box.spare:
            continue
        if box.state is InitBasis.Y:
            assert box.extent("j")[1] < lo     # low-j flank
        else:
            assert box.extent("j")[0] > hi     # high-j flank


def test_all_coordinates_non_negative():
    cfg = PipelineConfig(success_rate=0.8, seed=1,
                         spares=SparePolicy("explicit", y_count=12, a_count=8))
    result = run_pipeline("qubits 3\ntoffoli 0 1 2\n", cfg)
    for seg in result.geometry.segments:
        assert min(seg.a.as_list() + seg.b.as_list()) >= 0
    for box in result.geometry.boxes:
        assert min(box.origin.as_list()) >= 0


def test_assignments_follow_injection_row_order():
    result = run_pipeline("qubits 1\nh 0\n")
    served_js = [a.pair.j for a in result.failure.assignments]
    injection_js = [inj.pins[0].coord.j for inj in result.geometry.injections]
    assert served_js == injection_js


def test_connections_land_on_injection_pins():
    result = run_pipeline("qubits 1\nt 0\n")
    injection_pins = {p.coord for inj in result.geometry.injections for p in inj.pins}
    assert len(result.connections) == 4    # two per assignment
    for conn in result.connections:
        assert conn.circuit_pin.coord in injection_pins


def test_heterogeneous_j_alignment_and_conservation():
    cfg = PipelineConfig(success_rate=0.8, seed=53,
                         spares=SparePolicy("explicit", y_count=12, a_count=8))
    result = run_pipeline("qubits 3\ntoffoli 0 1 2\n", cfg)
    # non-spare assignments share j with their circuit pins before routing
    for asg in result.failure.assignments:
        if not asg.box.spare:
            assert asg.box.output_pins[0].coord.j == asg.pair.pins[0].coord.j
    # one distinct box per pair
    assert len(result.failure.assignments) == len(result.geometry.injections)
    assert len({id(a.box) for a in result.failure.assignments}) == len(result.failure.assignments)
    # every popped box carries a final status; unused spares stay pending
    from tqecsynth.scheduling import BoxStatus
    statuses = {b.status for b in result.geometry.boxes}
    assert BoxStatus.SUCCESS in statuses and BoxStatus.FAILED in statuses
    assigned = {id(a.box) for a in result.failure.assignments}
    for box in result.geometry.boxes:
        if id(box) in assigned:
            assert box.status is BoxStatus.SUCCESS
        else:
            assert box.status in (BoxStatus.FAILED, BoxStatus.PENDING)


def test_exhaustion_raises():
    cfg = PipelineConfig(success_rate=0.0, seed=0,
                         spares=SparePolicy("explicit", y_count=0))
    with pytest.raises(DistillationExhausted):
        run_pipeline("qubits 1\np 0\n", cfg)


def test_validation_failures_surface_as_pipeline_errors():
    with pytest.raises(PipelineError):
        run_pipeline("qubits 1\ninit 0 y\n")   # injection with open output


def test_config_validation():
    with pytest.raises(PipelineError):
        PipelineConfig(success_rate=1.5)
    with pytest.raises(PipelineError):
        PipelineConfig(cube_side=0)
    with pytest.raises(PipelineError):
        SparePolicy("sometimes")


def test_no_boxes_keeps_compact_layout():
    result = run_pipeline("qubits 2\ncnot 0 1\n")
    assert result.geometry.layout.t_in == 1
    assert not result.geometry.boxes
    assert result.failure is None


def test_direct_injection_circuit_schedules_box():
    result = run_pipeline("qubits 1\ninit 0 a\nmeasure 0 z\n")
    assert [b.state for b in result.geometry.boxes] == [InitBasis.A]
    assert len(result.connections) == 2


def test_empty_circuit_minimal_document():
    from tqecsynth.document import build_document
    result = run_pipeline("qubits 1\n")
    doc = build_document(result)
    assert doc["reports"]["schedule"]["boxes_total"] == 0
    assert doc["icm"]["cnots"] == 0
    assert len(doc["defects"]) == 2
    assert doc["connections"] == []


def test_distance_is_measured_once_on_first_read(monkeypatch):
    calls = []
    measure = analysis.min_code_distance
    monkeypatch.setattr(analysis, "min_code_distance",
                        lambda geometry: calls.append(geometry) or measure(geometry))
    result = run_pipeline("qubits 3\ntoffoli 0 1 2\n", PipelineConfig(success_rate=0.8, seed=53))
    assert calls == []
    first = result.distance
    assert result.distance is first
    assert len(calls) == 1 and calls[0] is result.geometry
    assert first == measure(result.geometry) == ref.min_code_distance(result.geometry)
