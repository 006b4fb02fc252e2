"""The stamp-overlay slicer and its byte stream against the per-layer reference rescan."""
import dataclasses
import io
import json
import math
import random
import re
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scans as ref
from tqecsynth import analysis, cli
from tqecsynth.analysis import (
    BASES, AnalysisError, BBox, SiteBasis, _stamps, bounding_box, lattice_cells_for, layer_marks,
    slice_layers,
)
from tqecsynth.cli import EXIT_OK, EXIT_PARSE, WRITE_BYTES, main, slice_lines
from tqecsynth.circuit import InitBasis
from tqecsynth.geometry import (
    CapShape, Coord, Defect, Geometry, Injection, IOPort, LayoutParams, Pin, PinRole,
    PortBasis, PortRole, PortTemplate, Segment, SegmentKind,
)
from tqecsynth.pipeline import PipelineConfig, SparePolicy, run_pipeline

ROOT = Path(__file__).parent.parent
CIRCUIT_DIR = ROOT / "circuits"
CIRCUITS = sorted(CIRCUIT_DIR.glob("*.tq"))
P = SegmentKind.PRIMAL

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def strand(i, j, t0, t1) -> Defect:
    return Defect(P, (Segment(P, Coord(i, j, t0), Coord(i, j, t1)),), closed=False)


def leg(i, t, j0, j1) -> Defect:
    return Defect(P, (Segment(P, Coord(i, j0, t), Coord(i, j1, t)),), closed=False)


def pin(i, j, t, role=PinRole.IO, state=None) -> Pin:
    return Pin(Coord(i, j, t), P, role, state)


def port(shape, i_a, i_b, j, t, role=PortRole.INPUT) -> IOPort:
    return IOPort(role, PortBasis.Z, (pin(i_a, j, t), pin(i_b, j, t)), 0,
                  PortTemplate(shape, mirrored=role is PortRole.OUTPUT))


def injection(vertex, pin_a, pin_b) -> Injection:
    pins = tuple(pin(*c, role=PinRole.INJECTION, state=InitBasis.A)
                 for c in (pin_a, pin_b))
    return Injection(Coord(*vertex), InitBasis.A, pins, 0)


def geometry(defects=(), ports=(), injections=(), listed_pins=True) -> Geometry:
    pins = [p for owner in (*ports, *injections) for p in owner.pins] if listed_pins else []
    return Geometry(defects=tuple(defects), pins=tuple(pins), injections=tuple(injections),
                    ioports=tuple(ports), layout=LayoutParams())


@pytest.mark.parametrize("rate,seed", [(1.0, 0), (0.8, 53)])
@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_slice_layers_equals_reference_on_circuits(path, rate, seed):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=rate, seed=seed)).geometry
    cells = lattice_cells_for(geo)
    assert slice_layers(geo, cells) == ref.slice_layers(geo, cells)


def cli_slice(tmp_path, source: Path, *flags: str) -> bytes:
    out = tmp_path / "layers.jsonl"
    assert main(["slice", str(source), *flags, "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("rate,seed", [(1.0, 0), (0.8, 53)])
@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_slice_stream_equals_reference_on_circuits(tmp_path, path, rate, seed):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=rate, seed=seed)).geometry
    got = cli_slice(tmp_path, path, "--success-rate", str(rate), "--seed", str(seed))
    assert ref.expand_stream(got) == ref.slice_stream(geo, lattice_cells_for(geo))


def test_slice_stream_equals_reference_on_a_larger_lattice(tmp_path):
    path = CIRCUIT_DIR / "p_gate.tq"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    ci, cj, ct = lattice_cells_for(geo)
    cells = (ci + 3, cj + 1, ct + 2)
    got = cli_slice(tmp_path, path, "--cells", *map(str, cells))
    assert ref.expand_stream(got) == ref.slice_stream(geo, cells)


@pytest.mark.parametrize("seed", [1, 7])
def test_slice_stream_equals_reference_on_the_benchmark_circuit(tmp_path, seed):
    # the slice-clifford-t workload's circuit and flags at this seed
    work = workloads.SliceCliffordT(seed, tmp_path)
    geo = run_pipeline(work.source, work.config()).geometry
    got = cli_slice(tmp_path, work.path, *work.pipeline_flags())
    assert ref.expand_stream(got) == ref.slice_stream(geo, lattice_cells_for(geo))


# pins at t = 1 and the vertex at t = 2 fit a lattice one cell deep
ONE_LAYER = geometry(injections=[injection((4, 3, 2), (3, 3, 1), (5, 3, 1))])


@pytest.mark.parametrize("path", [*CIRCUITS, "one-layer"],
                         ids=lambda p: getattr(p, "stem", p))
def test_each_layer_is_written_in_full_once_at_its_first_mention(tmp_path, path):
    stream = (b"".join(slice_lines(ONE_LAYER, (3, 3, 1))) if path == "one-layer"
              else cli_slice(tmp_path, path))
    records = [json.loads(line) for line in stream.splitlines()]
    assert records[0]["stream_version"] == cli.STREAM_VERSION == 2
    assert all("stream_version" not in rec for rec in records[1:])
    first_mentions = []
    for rec in records:
        for layer in rec["layers"]:
            idx = layer["index"]
            if idx in first_mentions:
                assert layer == {"index": idx}
            else:
                # the full record rides on the init that brings the layer up
                assert rec["op"] == "init" and rec["layers"] == [layer]
                assert layer.keys() == ref.LAYER_KEYS and layer["t"] == idx + 1
                first_mentions.append(idx)
    # the inits come in index order, so each writes the next layer of the sweep
    assert first_mentions == list(range(len(first_mentions)))
    assert sum(rec["op"] == "init" for rec in records) == len(first_mentions)


HAND_BUILT = {
    # a configurable port's IO caps land on a strand's Z cross-section
    "io-over-z": geometry([strand(3, 3, 1, 9)], ports=[port(CapShape.CONFIG, 3, 7, 3, 5)]),
    # the injected vertex sits inside its own pins' Z boxes; a second
    # injection's pins then cover the first vertex again
    "injected-over-pin-z": geometry(injections=[
        injection((4, 3, 6), (3, 3, 5), (5, 3, 5)),
        injection((6, 3, 6), (5, 3, 7), (7, 3, 7)),
    ]),
    # split caps beside solid caps and a strand, clipped at the i = 0 edge
    "split-caps": geometry([strand(5, 5, 1, 7)], ports=[
        port(CapShape.SPLIT, 1, 9, 5, 1),
        port(CapShape.SPLIT, 1, 7, 5, 7, role=PortRole.OUTPUT),
        port(CapShape.SOLID, 3, 9, 1, 3),
    ]),
    # ports whose pins the geometry does not list: no bounding-box check,
    # and every cap is clipped to the lattice
    "unlisted-port-pins": geometry(ports=[port(CapShape.SOLID, 1, 30, 3, 3),
                                          port(CapShape.CONFIG, 1, 5, 30, 30)],
                                   listed_pins=False),
    # legs on the j-line (i, t) = (3, 5) that overlap, share an end and leave
    # a gap, and a strand in two t-pieces whose boxes meet: each run is one
    # stamp, and an IO cap and an injection vertex on the line still win
    "collinear-runs": geometry(
        [leg(3, 5, 1, 3), leg(3, 5, 2, 3), leg(3, 5, 3, 5), leg(3, 5, 9, 10),
         strand(9, 3, 1, 3), strand(9, 3, 6, 9)],
        ports=[port(CapShape.CONFIG, 3, 7, 5, 5)],
        injections=[injection((3, 10, 6), (3, 9, 5), (3, 11, 5))]),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_slice_layers_equals_reference_on_overlapping_stamps(case):
    geo = HAND_BUILT[case]
    cells = (6, 6, 6)
    got = slice_layers(geo, cells)
    assert got == ref.slice_layers(geo, cells)
    assert any(layer.marked for layer in got)


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_slice_stream_equals_reference_on_overlapping_stamps(case):
    geo = HAND_BUILT[case]
    got = b"".join(slice_lines(geo, (6, 6, 6)))
    assert ref.expand_stream(got) == ref.slice_stream(geo, (6, 6, 6))


def dump(rec) -> bytes:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


def rewrite(stream: bytes, line: int, edit) -> bytes:
    """``stream`` with record ``line`` replaced by ``edit(record)``."""
    records = [json.loads(text) for text in stream.splitlines()]
    records[line] = edit(records[line])
    return b"".join(dump(rec) for rec in records)


def test_expand_stream_refuses_what_format_2_forbids():
    stream = b"".join(slice_lines(HAND_BUILT["io-over-z"], (6, 6, 6)))
    records = [json.loads(text) for text in stream.splitlines()]
    # init p0, init d0, entangle p0 d0: the third record names both by index
    assert [layer.keys() for layer in records[2]["layers"]] == [{"index"}, {"index"}]
    full = [records[0]["layers"][0], records[1]["layers"][0]]

    def drop_version(rec):
        return {key: value for key, value in rec.items() if key != "stream_version"}

    bad = {
        "before its full record": rewrite(stream, 1, lambda rec: {**rec, "layers": [{"index": 1}]}),
        "in full again": rewrite(stream, 2, lambda rec: {**rec, "layers": full}),
        "stream_version None": rewrite(stream, 0, drop_version),
        "stream_version 1": rewrite(stream, 0, lambda rec: {**rec, "stream_version": 1}),
        "stream_version '2'": rewrite(stream, 0, lambda rec: {**rec, "stream_version": "2"}),
        "repeats the stream_version": rewrite(stream, 3,
                                              lambda rec: {**rec, "stream_version": 2}),
        "keys": rewrite(stream, 2, lambda rec: {**rec, "layers": [{"index": 0, "t": 1}]}),
    }
    assert rewrite(stream, 0, lambda rec: rec) == stream
    assert ref.expand_stream(stream) == ref.slice_stream(HAND_BUILT["io-over-z"], (6, 6, 6))
    for message, broken in bad.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            ref.expand_stream(broken)


def test_one_layer_stream_is_init_and_measure():
    geo = ONE_LAYER
    got = b"".join(slice_lines(geo, (3, 3, 1)))
    assert ref.expand_stream(got) == ref.slice_stream(geo, (3, 3, 1))
    assert [json.loads(line)["op"] for line in got.splitlines()] == ["init", "measure"]
    assert b'"z"' in got


def test_later_stamps_win_on_shared_sites():
    marks = {layer.t: dict(layer.marked)
             for layer in slice_layers(HAND_BUILT["io-over-z"], (6, 6, 6))}
    assert marks[5][3, 3] is SiteBasis.IO
    assert marks[3][3, 3] is SiteBasis.Z
    marks = {layer.t: dict(layer.marked)
             for layer in slice_layers(HAND_BUILT["injected-over-pin-z"], (6, 6, 6))}
    assert marks[6][6, 3] is SiteBasis.INJECTED
    assert marks[6][4, 3] is SiteBasis.Z   # the second injection's pin box


def test_collinear_segment_stamps_merge_into_runs():
    geo = HAND_BUILT["collinear-runs"]
    Z = SiteBasis.Z
    # j spans 1-3, 2-3 and 3-5 overlap into one run and 9-10 lies past a gap;
    # t spans 1-3 and 6-9 lie 3 units apart, two runs whose widened stamps touch
    assert _stamps(geo)[:4] == [(4, 6, 2, 4, 0, 6, Z), (4, 6, 2, 4, 8, 11, Z),
                                (0, 4, 8, 10, 2, 4, Z), (5, 10, 8, 10, 2, 4, Z)]
    marks = {layer.t: dict(layer.marked) for layer in slice_layers(geo, (6, 6, 6))}
    assert marks[5][3, 5] is SiteBasis.IO          # the cap over the merged run
    assert marks[6][3, 10] is SiteBasis.INJECTED   # the vertex over the leg past the gap
    assert (3, 7) not in marks[5]                  # the gap stays unmarked
    assert all(marks[t][9, 3] is Z for t in range(1, 11))


def test_layer_equal_to_the_one_two_back_is_shared():
    # a one-layer injection vertex between its pins, inside their three-layer Z boxes
    geo = geometry([strand(3, 3, 1, 9)],
                   injections=[injection((6, 5, 5), (5, 5, 5), (7, 5, 5))])
    cells = (6, 6, 6)
    marks = list(layer_marks(geo, cells))
    assert marks[5] is marks[3] and marks[5] != marks[4]     # t = 6, 4 and 5
    assert slice_layers(geo, cells) == ref.slice_layers(geo, cells)
    assert ref.expand_stream(b"".join(slice_lines(geo, cells))) == ref.slice_stream(geo, cells)


def test_equal_layers_three_apart_are_rebuilt():
    # one-layer vertices at t = 2 and t = 3 leave t = 4 equal to t = 1 only
    geo = geometry([strand(3, 3, 1, 9)], injections=[
        injection((8, 3, 2), (7, 3, 9), (9, 3, 9)),
        injection((8, 7, 3), (7, 7, 9), (9, 7, 9)),
    ])
    cells = (6, 6, 6)
    marks = list(layer_marks(geo, cells))
    assert marks[3] == marks[0] and marks[3] is not marks[0]
    assert len({marks[0], marks[1], marks[2]}) == 3
    assert slice_layers(geo, cells) == ref.slice_layers(geo, cells)
    assert ref.expand_stream(b"".join(slice_lines(geo, cells))) == ref.slice_stream(geo, cells)


def test_cells_beyond_the_geometry_give_empty_tail_layers(tmp_path):
    path = CIRCUIT_DIR / "cnot.tq"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    ci, cj, ct = lattice_cells_for(geo)
    cells = (ci + 2, cj + 2, ct + 4)
    got = ref.expand_stream(cli_slice(tmp_path, path, "--cells", *map(str, cells)))
    assert got == ref.slice_stream(geo, cells)
    last = json.loads(got.splitlines()[-1])["layers"][-1]
    assert last["t"] == 2 * cells[2] - 1 and last["marked"] == []


def active_sets(geo, cells) -> list[frozenset[int]]:
    """The indices of the stamps active at each layer, t = 1 .. 2T - 1."""
    stamps = _stamps(geo)
    return [frozenset(k for k, stamp in enumerate(stamps) if stamp[0] <= t <= stamp[1])
            for t in range(1, 2 * cells[2])]


def stamp_input(name, tmp_path):
    """The geometry of one of the stamp-cover inputs."""
    if name.startswith("clifford-t"):
        work = workloads.SliceCliffordT(int(name.rsplit("-", 1)[1]), tmp_path)
        return run_pipeline(work.source, work.config()).geometry
    if name == "toffolis-4":   # the 4-Toffoli rung of tools/ladder.py
        config = PipelineConfig(success_rate=0.9, seed=1,
                                spares=SparePolicy("binomial", epsilon=1e-6))
        return run_pipeline(workloads.toffoli_source(random.Random(1), 4, 6), config).geometry
    source = (CIRCUIT_DIR / "toffoli.tq").read_text()
    return run_pipeline(source, PipelineConfig(success_rate=0.8, seed=53)).geometry


@pytest.mark.parametrize("name", ["clifford-t-1", "clifford-t-7", "toffolis-4", "toffoli"])
def test_active_stamps_cover_each_layer_at_most_three_times(tmp_path, name):
    geo = stamp_input(name, tmp_path)
    cells = lattice_cells_for(geo)
    stamps = _stamps(geo)
    # the segment stamps come first, and no two on one line overlap or touch
    segment_stamps = _stamps(dataclasses.replace(geo, ioports=(), injections=()))
    assert stamps[:len(segment_stamps)] == segment_stamps
    lines = {}
    for stamp in segment_stamps:
        box = [stamp[0:2], stamp[2:4], stamp[4:6]]
        axis = max(range(3), key=lambda k: box[k][1] - box[k][0])
        lines.setdefault((axis, *box[:axis], *box[axis + 1:]), []).append(box[axis])
    for spans in lines.values():
        spans.sort()
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    # each layer's active stamps hold at most three clipped sites per mark
    t_max, i_max, j_max = 2 * cells[2], 2 * cells[0], 2 * cells[1]
    change = [0] * (t_max + 1)
    for t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, _ in stamps:
        rows, cols = min(i_hi, i_max) - max(i_lo, 0) + 1, min(j_hi, j_max) - max(j_lo, 0) + 1
        t_lo, t_hi = max(t_lo, 1), min(t_hi, t_max - 1)
        if t_lo <= t_hi and rows > 0 and cols > 0:
            change[t_lo] += rows * cols
            change[t_hi + 1] -= rows * cols
    sites = 0
    for t, marked in enumerate(layer_marks(geo, cells), 1):
        sites += change[t]
        assert sites <= 3 * len(marked), f"t = {t}"


@pytest.mark.parametrize("name", ["cnot", "toffoli"])
def test_overlays_once_per_distinct_active_set(name, monkeypatch):
    geo = run_pipeline((CIRCUIT_DIR / f"{name}.tq").read_text(), PipelineConfig()).geometry
    cells = lattice_cells_for(geo)
    active = active_sets(geo, cells)
    marks = list(layer_marks(geo, cells))
    built = {}
    for stamp_set, marked in zip(active, marks):
        built.setdefault(stamp_set, set()).add(id(marked))
    # every distinct active set is overlaid once, and far fewer than the layers
    assert all(len(ids) == 1 for ids in built.values())
    assert len({id(marked) for marked in marks}) == len(built) < len(marks) // 2
    # and the CLI's payload encoder runs once per distinct active set
    encoded = []
    make_encoder = cli._payload_encoder

    def counting_encoder():
        encode = make_encoder()
        return lambda overlay: encoded.append(overlay) or encode(overlay)

    monkeypatch.setattr(cli, "_payload_encoder", counting_encoder)
    stream = b"".join(slice_lines(geo, cells))
    assert len(encoded) == len(built)
    assert ref.expand_stream(stream) == ref.slice_stream(geo, cells)
    assert [layer.marked for layer in ref.slice_layers(geo, cells)] == marks
    # the default layer is a tuple, and slice_layers keeps the shared tuples
    assert all(type(marked) is tuple for marked in marks)
    shared = [layer.marked for layer in slice_layers(geo, cells)]
    assert shared == marks and len({id(marked) for marked in shared}) == len(built)
    # in which each distinct (site, basis) pair is one object
    pairs = [pair for marked in shared for pair in marked]
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) < len(pairs)


def pairs_of(marks) -> tuple:
    """``marks`` as the ``((i, j), basis)`` pairs of ``Layer.marked``, each made afresh."""
    return tuple(zip(zip(marks.i.tolist(), marks.j.tolist()),
                     map(BASES.__getitem__, marks.basis.tolist())))


@pytest.mark.parametrize("name", ["cnot", "toffoli"])
def test_layer_runs_once_per_distinct_active_set(name):
    geo = run_pipeline((CIRCUIT_DIR / f"{name}.tq").read_text(), PipelineConfig()).geometry
    cells = lattice_cells_for(geo)
    active = active_sets(geo, cells)
    built = []

    def record(marks):
        built.append(pairs_of(marks))
        return len(built) - 1

    calls = list(layer_marks(geo, cells, layer=record))
    # each layer yields the one call made for its active set
    assert len(built) == len(set(active)) == len(set(zip(active, calls)))
    assert [built[k] for k in calls] == [layer.marked for layer in ref.slice_layers(geo, cells)]


@pytest.mark.parametrize("name", ["cnot", "toffoli"])
def test_stream_joins_each_distinct_payload_once(name):
    geo = run_pipeline((CIRCUIT_DIR / f"{name}.tq").read_text(), PipelineConfig()).geometry
    cells = lattice_cells_for(geo)
    pieces = list(slice_lines(geo, cells))
    assert ref.expand_stream(b"".join(pieces)) == ref.slice_stream(geo, cells)
    # a layer's payload chunks are the only pieces that open with a site record
    payloads = [piece for piece in pieces if piece.startswith(b"[")]
    overlays = [marked for marked in layer_marks(geo, cells) if marked]
    distinct = list({id(marked): marked for marked in overlays}.values())

    def chunks(marked):
        return math.ceil(len(marked) / cli.CHUNK_MARKS)

    # each layer's payload goes out once, and the layers equal to it share its chunks
    assert len(payloads) == sum(map(chunks, overlays))
    assert len({id(piece) for piece in payloads}) == sum(map(chunks, distinct))
    assert len(distinct) < len(overlays) // 2


def test_payload_chunks_join_to_the_same_stream(monkeypatch):
    # chunks of 7 marks split every non-trivial layer into several pieces
    geo = run_pipeline((CIRCUIT_DIR / "toffoli.tq").read_text(), PipelineConfig()).geometry
    cells = lattice_cells_for(geo)
    whole = list(slice_lines(geo, cells))
    monkeypatch.setattr(cli, "CHUNK_MARKS", 7)
    pieces = list(slice_lines(geo, cells))
    assert b"".join(pieces) == b"".join(whole)
    assert len(pieces) > len(whole)
    # a chunk holds whole marks, each but the last chunk of a layer with its trailing comma
    chunks = [piece for piece in pieces if piece.startswith(b"[")]
    assert all(piece.count(b"[") <= 7 for piece in chunks)
    assert all(piece.endswith((b"],", b"]")) for piece in chunks)


def painted(stamps, extent) -> list[tuple]:
    """Every layer's marks by brute force: each site of each active clipped
    stamp painted in stamp order, so a later stamp wins."""
    i_max, j_max, t_max = extent
    layers = []
    for t in range(1, t_max):
        marks = {}
        for t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, basis in stamps:
            if t_lo <= t <= t_hi:
                for i in range(max(i_lo, 0), min(i_hi, i_max) + 1):
                    for j in range(max(j_lo, 0), min(j_hi, j_max) + 1):
                        marks[(i, j)] = basis
        layers.append(tuple(sorted(marks.items())))
    return layers


def overlay_of_each_layer(stamps, extent) -> list[int]:
    """The overlay each layer yields by the reuse rule: a layer whose set of
    active, non-empty clipped stamps is one of the last two distinct sets
    reuses that set's overlay, and any other set is overlaid anew."""
    i_max, j_max, t_max = extent
    kept = [k for k, (t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, _) in enumerate(stamps)
            if max(i_lo, 0) <= min(i_hi, i_max) and max(j_lo, 0) <= min(j_hi, j_max)]
    recent, overlays = [], []
    for t in range(1, t_max):
        active = frozenset(k for k in kept if stamps[k][0] <= t <= stamps[k][1])
        hit = next((entry for entry in recent if entry[0] == active), None)
        if hit is None:
            hit = (active, len(set(overlays)))
        recent = [entry for entry in recent if entry is not hit][-1:] + [hit]
        overlays.append(hit[1])
    return overlays


Z, IO, INJ = SiteBasis.Z, SiteBasis.IO, SiteBasis.INJECTED
coords = st.integers(-2, 8)
stamp_sets = st.lists(st.builds(
    lambda t, dt, i, di, j, dj, basis: (t, t + dt, i, i + di, j, j + dj, basis),
    st.integers(-1, 7), st.integers(-1, 3), coords, st.integers(-1, 4), coords,
    st.integers(-1, 4), st.sampled_from(list(SiteBasis))), max_size=8)
extents = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(2, 8))


@settings(max_examples=300, deadline=None)
@given(stamp_sets, extents)
# later-wins across bases: an injected vertex and an IO box over a Z box
@example([(1, 3, 0, 2, 0, 2, Z), (2, 2, 1, 1, 1, 1, INJ), (1, 3, 1, 3, 1, 3, IO)], (4, 4, 4))
# stamps clipped at every lattice edge, and one wholly outside it
@example([(-1, 9, -2, 9, 3, 9, Z), (0, 2, 5, 9, -3, 0, IO), (2, 3, 7, 8, 0, 1, Z)], (4, 6, 5))
# an IO stamp leaves while the Z stamp under it stays
@example([(1, 5, 0, 2, 0, 2, Z), (2, 3, 0, 2, 0, 2, IO)], (4, 4, 4))
# no stamps, and layers past the last stamp: empty layers
@example([], (2, 2, 3))
@example([(1, 1, 0, 1, 0, 1, Z)], (2, 2, 6))
# a one-layer vertex breaks into a set and restores it: reuse two distinct sets back
@example([(1, 6, 0, 1, 0, 1, Z), (2, 2, 3, 3, 3, 3, INJ), (4, 4, 2, 2, 2, 2, INJ)], (4, 4, 6))
def test_array_sweep_equals_a_brute_force_painter(stamps, extent):
    built = []

    def record(marks):
        built.append(pairs_of(marks))
        return len(built) - 1

    calls = list(analysis._sweep_layers(stamps, extent, record))
    assert [built[k] for k in calls] == painted(stamps, extent)
    assert calls == overlay_of_each_layer(stamps, extent)


def test_huge_lattice_slices_in_memory_of_the_geometry(tmp_path):
    # 11 x 80 000 001 = 8.8e8 sites a layer, within MAX_LAYER_SITES: nothing
    # the slicer allocates may scale with the lattice instead of the geometry
    path = CIRCUIT_DIR / "p_gate.tq"
    cells = (5, 40_000_000, 15)
    out = tmp_path / "layers.jsonl"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rc = main(["slice", str(path), "--cells", *map(str, cells), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert peak < 5 * 2**20, f"peak {peak} B"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    assert ref.expand_stream(out.read_bytes()) == ref.slice_stream(geo, cells)


class Recording:
    """A binary handle that records the size of every write it is handed."""

    def __init__(self, fh):
        self.fh = fh
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def record_slice(monkeypatch, tmp_path, *argv: str) -> tuple[list[Recording], bytes, bytes]:
    """``slice`` to stdout and to ``--out``: both handles, then both streams."""
    stdout = Recording(io.BytesIO())
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=stdout))
    assert main(["slice", *argv]) == EXIT_OK
    out = tmp_path / "layers.jsonl"
    opened = []

    def recording_open(name, mode="r"):
        assert (name, mode) == (str(out), "wb")
        opened.append(Recording(open(name, mode)))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["slice", *argv, "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    return [stdout, *opened], stdout.fh.getvalue(), out.read_bytes()


def test_slice_stream_goes_out_in_megabyte_writes(tmp_path, monkeypatch):
    # four Toffolis: a stream of about 16 MB, so more than 8 whole buffers
    path = tmp_path / "toffoli4.tq"
    path.write_text("qubits 3\ntoffoli 0 1 2\ntoffoli 1 2 0\ntoffoli 2 0 1\ntoffoli 0 2 1\n")
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    want = ref.slice_stream(geo, lattice_cells_for(geo))
    handles, stdout, out = record_slice(monkeypatch, tmp_path, str(path))
    assert len(out) > 8 * WRITE_BYTES
    assert stdout == out and ref.expand_stream(out) == want
    assert len(handles) == 2
    for handle in handles:
        assert 2 < len(handle.sizes) <= math.ceil(len(out) / WRITE_BYTES) + 2


def test_short_slice_stream_is_one_write(tmp_path, monkeypatch):
    path = CIRCUIT_DIR / "t_gate.tq"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    want = ref.slice_stream(geo, lattice_cells_for(geo))
    handles, stdout, out = record_slice(monkeypatch, tmp_path, str(path))
    assert len(out) < WRITE_BYTES
    assert stdout == out and ref.expand_stream(out) == want
    assert [handle.sizes for handle in handles] == [[len(out)]] * 2


@pytest.mark.parametrize("lengths", [[], [0], [8], [8, 8], [3, 5, 8, 0, 21, 1], [7] * 9,
                                     [2, 30]])
def test_write_runs_hand_over_whole_buffers(lengths):
    pieces = [bytes([65 + k]) * n for k, n in enumerate(lengths)]
    handle = Recording(io.BytesIO())
    cli._write_runs(handle, iter(pieces), size=8)
    total = sum(lengths)
    assert handle.fh.getvalue() == b"".join(pieces)
    # every write but the last is a whole buffer, and none is empty
    assert handle.sizes == [8] * (total // 8) + ([total % 8] if total % 8 else [])


def test_slice_never_measures_the_code_distance(tmp_path, monkeypatch):
    path = str(CIRCUIT_DIR / "t_gate.tq")
    flags = ("--success-rate", "0.8", "--seed", "53")
    want = cli_slice(tmp_path, path, *flags)

    def refuse(geometry):
        raise AssertionError("the code distance was measured")

    monkeypatch.setattr(analysis, "min_code_distance", refuse)
    assert cli_slice(tmp_path, path, *flags) == want
    # the reports still read it
    with pytest.raises(AssertionError, match="code distance was measured"):
        main(["metrics", path, *flags])


def test_slice_measures_the_bounding_box_once(tmp_path, monkeypatch):
    path = CIRCUIT_DIR / "cnot.tq"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    boxes = []
    measure = analysis.bounding_box
    monkeypatch.setattr(analysis, "bounding_box",
                        lambda geometry: boxes.append(geometry) or measure(geometry))
    got = cli_slice(tmp_path, path)
    assert len(boxes) == 1   # the pipeline's, which the slicer reuses
    assert ref.expand_stream(got) == ref.slice_stream(geo, lattice_cells_for(geo))


def test_held_bounding_box_decides_the_cover():
    geo = HAND_BUILT["io-over-z"]
    cells = (6, 6, 6)
    box = bounding_box(geo)
    assert list(layer_marks(geo, cells, box)) == list(layer_marks(geo, cells))
    # a box past the lattice is refused although the geometry itself fits
    wide = BBox(box.lo, Coord(13, box.hi.j, box.hi.t))
    with pytest.raises(AnalysisError, match="lattice extent smaller than the geometry"):
        layer_marks(geo, cells, wide)
    with pytest.raises(AnalysisError, match="lattice extent smaller than the geometry"):
        slice_lines(geo, cells, wide)


def test_lattice_smaller_than_the_geometry_exit_code(tmp_path, capsys):
    out = tmp_path / "layers.jsonl"
    rc = main(["slice", str(CIRCUIT_DIR / "cnot.tq"), "--cells", "1", "1", "1",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE and captured.out == "" and not out.exists()
    assert captured.err == "error: lattice extent smaller than the geometry bounding box\n"
