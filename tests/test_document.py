import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import reference_scans as ref
from tqecsynth.document import (
    build_document, canonical_json, config_digest, document_pieces, export, export_csv,
    export_obj,
)
from tqecsynth.pipeline import PipelineConfig, SparePolicy, run_pipeline
from tqecsynth.scheduling import DistillationExhausted

ROOT = Path(__file__).parent.parent
CIRCUITS = sorted((ROOT / "circuits").glob("*.tq"))
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# (success rate, seed) of the byte-identity checks, with the benchmark's
# spare epsilon so that none runs out of boxes
CONFIGS = [(1.0, 0), (0.8, 53), (0.5, 201)]

P_SRC = "qubits 1\np 0\n"
T_SRC = "qubits 1\nt 0\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_rejects_non_json_numbers(value):
    with pytest.raises(ValueError):
        canonical_json({"tolerance": value})


def test_canonical_json_stable():
    payload = {"b": 1, "a": [2, {"d": 3, "c": 4}]}
    assert canonical_json(payload) == b'{"a":[2,{"c":4,"d":3}],"b":1}\n'


def test_document_schema_core_sections():
    doc = build_document(run_pipeline(P_SRC))
    for key in ("version", "metadata", "layout", "icm", "matrix", "defects",
                "pins", "injections", "ioports", "boxes", "connections", "reports"):
        assert key in doc
    assert doc["version"] == 2
    assert doc["metadata"]["rng"] == "numpy-pcg64"
    assert len(doc["metadata"]["config_sha256"]) == 64


def test_document_top_level_keys_are_the_readme_list():
    doc = build_document(run_pipeline(T_SRC))
    assert doc["version"] == 2
    # the README's "Geometry document" key list; segments live only in
    # defects[] and connections[]
    assert sorted(doc) == sorted([
        "version", "metadata", "layout", "icm", "matrix", "defects", "pins",
        "injections", "ioports", "boxes", "connections", "reports",
    ])


def test_document_connection_integrity():
    doc = build_document(run_pipeline(T_SRC))
    box_pins = {tuple(p["coord"]) for b in doc["boxes"] for p in b["pins"]}
    circuit_pins = {tuple(p["coord"]) for inj in doc["injections"] for p in inj["pins"]}
    assert doc["connections"]
    for conn in doc["connections"]:
        assert tuple(conn["box_pin"]) in box_pins
        assert tuple(conn["circuit_pin"]) in circuit_pins
        segs = conn["segments"]
        if segs:
            assert segs[0]["a"] == conn["box_pin"]
            assert segs[-1]["b"] == conn["circuit_pin"]
            for prev, cur in zip(segs, segs[1:]):
                assert prev["b"] == cur["a"]


def test_document_records_template_instances():
    doc = build_document(run_pipeline(T_SRC))
    (inst,) = doc["icm"]["templates"]
    assert inst["gate"] == "t"
    assert inst["selective"] is True
    assert len(inst["rows"]) == 6


def test_end_to_end_byte_determinism():
    cfg = PipelineConfig(success_rate=0.8, seed=5,
                         spares=SparePolicy("explicit", y_count=4))
    a = export(run_pipeline(P_SRC, cfg), "json")
    b = export(run_pipeline(P_SRC, cfg), "json")
    assert a == b


def test_export_twice_identical():
    result = run_pipeline(T_SRC)
    assert export(result, "json") == export(result, "json")
    assert export(result, "obj") == export(result, "obj")
    assert export(result, "csv") == export(result, "csv")


def test_obj_one_cuboid_per_segment_and_box():
    result = run_pipeline(P_SRC)
    obj = export_obj(result.geometry).decode()
    vs = sum(1 for line in obj.splitlines() if line.startswith("v "))
    fs = sum(1 for line in obj.splitlines() if line.startswith("f "))
    count = len(result.geometry.segments) + len(result.geometry.boxes)
    assert vs == 8 * count
    assert fs == 6 * count


@pytest.mark.parametrize("rate,seed", [(1.0, 0), (0.8, 53)])
@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_obj_equals_reference_on_circuits(path, rate, seed):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=rate, seed=seed)).geometry
    assert ref.resolve_obj(export_obj(geo)) == ref.resolve_obj(ref.export_obj(geo))


def test_obj_equals_reference_on_four_toffolis():
    # 4 random Toffolis on 6 qubits, as the benchmark generates them
    rng = random.Random(1)
    source = "qubits 6\n" + "".join(
        "toffoli {} {} {}\n".format(*rng.sample(range(6), 3)) for _ in range(4))
    cfg = PipelineConfig(success_rate=0.9, seed=1, spares=SparePolicy("binomial", epsilon=1e-6))
    geo = run_pipeline(source, cfg).geometry
    assert geo.boxes and geo.segments
    assert ref.resolve_obj(export_obj(geo)) == ref.resolve_obj(ref.export_obj(geo))


def test_obj_of_an_empty_geometry_is_one_newline():
    geo = run_pipeline(P_SRC).geometry
    empty = type(geo)(defects=(), pins=(), injections=(), ioports=(), layout=geo.layout)
    assert export_obj(empty) == ref.export_obj(empty) == b"\n"


FACE_BLOCK = (b"f -8 -7 -5 -6\nf -4 -2 -1 -3\nf -8 -4 -3 -7\n"
              b"f -6 -5 -1 -2\nf -8 -6 -2 -4\nf -7 -3 -1 -5\n")


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_every_cuboid_ends_with_the_relative_face_block(path):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=0.8, seed=53)).geometry
    cuboids = export_obj(geo).split(b"o ")
    assert cuboids[0] == b"" and len(cuboids) == len(geo.segments) + len(geo.boxes) + 1
    for cuboid in cuboids[1:]:
        assert cuboid.endswith(FACE_BLOCK)
        name, *vertices = cuboid[:-len(FACE_BLOCK)].splitlines()
        assert len(vertices) == 8 and all(v.startswith(b"v ") for v in vertices)


@pytest.mark.parametrize("data,message", [
    (b"o a\nv 0 0 0\nv 0 0 1\nv 0 1 0\nf 1 2 0\n", "out of range"),
    (b"o a\nv 0 0 0\nv 0 0 1\nv 0 1 0\nf 1 2 4\n", "out of range"),
    (b"o a\nv 0 0 0\nv 0 0 1\nv 0 1 0\nf -1 -2 -4\n", "out of range"),
    (b"o a\nv 0 0 0\no b\nv 0 0 1\nv 0 1 0\nv 1 0 0\nf -1 -2 -4\n", "outside object 'b'"),
    (b"o a\nv 0 0 0\no b\nv 0 0 1\nv 0 1 0\nv 1 0 0\nf 1 2 3\n", "outside object 'b'"),
    (b"v 0 0 0\n", "before the first object"),
    (b"o a\nvt 0 0\n", "cannot read"),
])
def test_resolve_obj_refuses_what_a_cuboid_file_cannot_hold(data, message):
    with pytest.raises(ValueError, match=message):
        ref.resolve_obj(data)


def test_resolve_obj_reads_both_index_forms_alike():
    absolute = b"o a\nv 0 0 0\nv 0 0 1\nv 0 1 0\nf 1 2 3\no b\nv 1 0 0\nv 1 0 1\nv 1 1 0\nf 4 6 5\n"
    relative = b"o a\nv 0 0 0\nv 0 0 1\nv 0 1 0\nf -3 -2 -1\no b\nv 1 0 0\nv 1 0 1\nv 1 1 0\nf -3 -1 -2\n"
    assert ref.resolve_obj(absolute) == ref.resolve_obj(relative) == [
        ("a", ((0, 0, 0), (0, 0, 1), (0, 1, 0)), (((0, 0, 0), (0, 0, 1), (0, 1, 0)),)),
        ("b", ((1, 0, 0), (1, 0, 1), (1, 1, 0)), (((1, 0, 0), (1, 1, 0), (1, 0, 1)),)),
    ]


def test_csv_flat_segment_table():
    result = run_pipeline(P_SRC)
    rows = export_csv(result.geometry).decode().splitlines()
    assert rows[0] == "kind,i1,j1,t1,i2,j2,t2"
    assert len(rows) == 1 + len(result.geometry.segments)
    kind, *coords = rows[1].split(",")
    assert kind in ("primal", "dual")
    assert all(c.lstrip("-").isdigit() for c in coords)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        export(run_pipeline(P_SRC), "stl")


def test_t_run_lists_exactly_two_boxes():
    doc = build_document(run_pipeline(T_SRC))
    assert len(doc["boxes"]) == 2
    states = sorted(b["state"] for b in doc["boxes"])
    assert states == ["a", "y"]


def test_config_digest_sensitive_to_config():
    a = config_digest(PipelineConfig())
    b = config_digest(PipelineConfig(success_rate=0.5))
    assert a != b
    assert a == config_digest(PipelineConfig())


def test_config_digest_pinned():
    # documents already written carry these digests; the default layout is
    # still part of the hashed payload
    assert config_digest(PipelineConfig()) == (
        "05458f12424b14b1ad4e625128ebd4a45fec28948a1c4990c928ddb27ce1edc4")
    readme = PipelineConfig(success_rate=0.8, seed=53,
                            spares=SparePolicy("explicit", y_count=12, a_count=8))
    assert config_digest(readme) == (
        "75299dcb494bf37bb6336eb42df4b9cf3addd816da04b13037b11c1ec296580f")


def test_json_parses_and_reports_match():
    result = run_pipeline(P_SRC)
    doc = json.loads(export(result, "json"))
    assert doc["reports"]["schedule"]["boxes_total"] == 1
    assert doc["reports"]["distance"]["code_distance"] >= 4


def written(result) -> bytes:
    """The writer's bytes for ``result``, checked against the dict-tree reference."""
    data = export(result, "json")
    assert data == canonical_json(ref.reference_document(result))
    assert canonical_json(json.loads(data)) == data
    return data


def benchmark_config(rate: float, seed: int) -> PipelineConfig:
    return PipelineConfig(success_rate=rate, seed=seed,
                          spares=SparePolicy("binomial", epsilon=1e-6))


@pytest.mark.parametrize("rate,seed", CONFIGS)
@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_writer_equals_the_reference_document_on_circuits(path, rate, seed):
    written(run_pipeline(path.read_text(), benchmark_config(rate, seed)))


@pytest.mark.parametrize("rate,seed", CONFIGS)
def test_writer_equals_the_reference_document_on_four_toffolis(rate, seed):
    source = workloads.toffoli_source(random.Random(1), 4, 6)
    result = run_pipeline(source, benchmark_config(rate, seed))
    assert result.geometry.boxes and result.connections
    written(result)


@pytest.mark.parametrize("seed", [1, 7])
def test_writer_equals_the_reference_document_on_the_clifford_t_circuit(tmp_path, seed):
    work = workloads.SliceCliffordT(seed, tmp_path)
    written(run_pipeline(work.source, work.config()))


def test_writer_equals_the_reference_document_with_explicit_spares_and_distance():
    config = PipelineConfig(success_rate=0.8, seed=53, cube_side=3,
                            spares=SparePolicy("explicit", y_count=12, a_count=8))
    result = run_pipeline((ROOT / "circuits" / "toffoli.tq").read_text(), config)
    doc = json.loads(written(result))
    assert doc["reports"]["volume"]["cube_side"] == 3
    assert sum(b["spare"] for b in doc["boxes"]) == 20


def test_writer_without_injections_writes_empty_boxes_and_connections():
    doc = json.loads(written(run_pipeline("qubits 2\ncnot 0 1\n")))
    assert doc["boxes"] == [] and doc["connections"] == [] and doc["injections"] == []


def test_writer_of_a_gateless_qubit_writes_one_two_code_row():
    data = written(run_pipeline("qubits 1\n"))
    assert b',"matrix":[[-100,-101]],' in data


@st.composite
def gate_sources(draw):
    """Circuit source text: random inits, gates and measurements on up to 4 qubits."""
    n = draw(st.integers(1, 4))
    lines = [f"qubits {n}"]
    for q in range(n):
        lines.append(f"init {q} {draw(st.sampled_from(['open', 'zero', 'plus']))}")
    kinds = ["t", "tdg", "p", "pdg", "v", "vdg", "h"] + ["cnot"] * (n > 1) + ["toffoli"] * (n > 2)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        arity = {"cnot": 2, "toffoli": 3}.get(kind, 1)
        qubits = draw(st.permutations(range(n)))[:arity]
        lines.append(" ".join([kind, *map(str, qubits)]))
    for q in range(n):
        lines.append(f"measure {q} {draw(st.sampled_from(['open', 'z', 'x']))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_sources(), st.sampled_from([0.5, 0.8, 1.0]), st.integers(0, 2**16))
def test_writer_equals_the_reference_document_on_random_circuits(source, rate, seed):
    try:
        result = run_pipeline(source, benchmark_config(rate, seed))
    except DistillationExhausted:
        reject()
    written(result)


def test_pieces_join_to_the_export_and_build_document_parses_them():
    result = run_pipeline(T_SRC)
    pieces = list(document_pieces(result))
    assert len(pieces) > 12 and all(isinstance(p, (bytes, bytearray)) for p in pieces)
    assert b"".join(pieces) == export(result, "json")
    assert build_document(result) == json.loads(b"".join(pieces))
