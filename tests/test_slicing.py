"""The stamp-overlay slicer and its byte stream against the per-layer reference rescan."""
import json
from pathlib import Path

import pytest

import reference_scans as ref
from tqecsynth.analysis import SiteBasis, _stamps, lattice_cells_for, layer_marks, slice_layers
from tqecsynth.cli import EXIT_OK, main, slice_lines
from tqecsynth.circuit import InitBasis
from tqecsynth.geometry import (
    CapShape, Coord, Defect, Geometry, Injection, IOPort, LayoutParams, Pin, PinRole,
    PortBasis, PortRole, PortTemplate, Segment, SegmentKind,
)
from tqecsynth.pipeline import PipelineConfig, run_pipeline

CIRCUIT_DIR = Path(__file__).parent.parent / "circuits"
CIRCUITS = sorted(CIRCUIT_DIR.glob("*.tq"))
P = SegmentKind.PRIMAL


def strand(i, j, t0, t1) -> Defect:
    return Defect(P, (Segment(P, Coord(i, j, t0), Coord(i, j, t1)),), closed=False)


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
    assert got == ref.slice_stream(geo, lattice_cells_for(geo))


def test_slice_stream_equals_reference_on_a_larger_lattice(tmp_path):
    path = CIRCUIT_DIR / "p_gate.tq"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    ci, cj, ct = lattice_cells_for(geo)
    cells = (ci + 3, cj + 1, ct + 2)
    got = cli_slice(tmp_path, path, "--cells", *map(str, cells))
    assert got == ref.slice_stream(geo, cells)


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
    assert b"".join(slice_lines(geo, (6, 6, 6))) == ref.slice_stream(geo, (6, 6, 6))


def test_one_layer_stream_is_init_and_measure():
    # pins at t = 1 and the vertex at t = 2 fit a lattice one cell deep
    geo = geometry(injections=[injection((4, 3, 2), (3, 3, 1), (5, 3, 1))])
    got = b"".join(slice_lines(geo, (3, 3, 1)))
    assert got == ref.slice_stream(geo, (3, 3, 1))
    assert [json.loads(line)["op"] for line in got.splitlines()] == ["init", "measure"]
    assert b'"z"' in got


def test_later_stamps_win_on_shared_sites():
    layers = {layer.t: layer for layer in slice_layers(HAND_BUILT["io-over-z"], (6, 6, 6))}
    assert layers[5].basis_at(3, 3) is SiteBasis.IO
    assert layers[3].basis_at(3, 3) is SiteBasis.Z
    layers = {layer.t: layer
              for layer in slice_layers(HAND_BUILT["injected-over-pin-z"], (6, 6, 6))}
    assert layers[6].basis_at(6, 3) is SiteBasis.INJECTED
    assert layers[6].basis_at(4, 3) is SiteBasis.Z   # the second injection's pin box


def pairs(i, j, basis):
    return ((i, j), basis)


def test_layer_equal_to_the_one_two_back_is_shared():
    # a one-layer injection vertex between its pins, inside their three-layer Z boxes
    geo = geometry([strand(3, 3, 1, 9)],
                   injections=[injection((6, 5, 5), (5, 5, 5), (7, 5, 5))])
    cells = (6, 6, 6)
    marks = list(layer_marks(geo, cells, pairs))
    assert marks[5] is marks[3] and marks[5] != marks[4]     # t = 6, 4 and 5
    assert slice_layers(geo, cells) == ref.slice_layers(geo, cells)
    assert b"".join(slice_lines(geo, cells)) == ref.slice_stream(geo, cells)


def test_equal_layers_three_apart_are_rebuilt():
    # one-layer vertices at t = 2 and t = 3 leave t = 4 equal to t = 1 only
    geo = geometry([strand(3, 3, 1, 9)], injections=[
        injection((8, 3, 2), (7, 3, 9), (9, 3, 9)),
        injection((8, 7, 3), (7, 7, 9), (9, 7, 9)),
    ])
    cells = (6, 6, 6)
    marks = list(layer_marks(geo, cells, pairs))
    assert marks[3] == marks[0] and marks[3] is not marks[0]
    assert len({marks[0], marks[1], marks[2]}) == 3
    assert slice_layers(geo, cells) == ref.slice_layers(geo, cells)
    assert b"".join(slice_lines(geo, cells)) == ref.slice_stream(geo, cells)


def test_cells_beyond_the_geometry_give_empty_tail_layers(tmp_path):
    path = CIRCUIT_DIR / "cnot.tq"
    geo = run_pipeline(path.read_text(), PipelineConfig()).geometry
    ci, cj, ct = lattice_cells_for(geo)
    cells = (ci + 2, cj + 2, ct + 4)
    got = cli_slice(tmp_path, path, "--cells", *map(str, cells))
    assert got == ref.slice_stream(geo, cells)
    last = json.loads(got.splitlines()[-1])["layers"][-1]
    assert last["t"] == 2 * cells[2] - 1 and last["marked"] == []


@pytest.mark.parametrize("name", ["cnot", "toffoli"])
def test_overlays_once_per_distinct_active_set(name):
    geo = run_pipeline((CIRCUIT_DIR / f"{name}.tq").read_text(), PipelineConfig()).geometry
    cells = lattice_cells_for(geo)
    t_max = 2 * cells[2]
    stamps = _stamps(geo)
    active = [frozenset(k for k, stamp in enumerate(stamps) if stamp[0] <= t <= stamp[1])
              for t in range(1, t_max)]
    encoded = []
    marks = list(layer_marks(geo, cells, lambda i, j, basis: encoded.append((i, j, basis))
                             or ((i, j), basis)))
    built = {}
    for stamp_set, marked in zip(active, marks):
        built.setdefault(stamp_set, set()).add(id(marked))
    # every distinct active set is overlaid once, and far fewer than the layers
    assert all(len(ids) == 1 for ids in built.values())
    assert len({id(marked) for marked in marks}) == len(built) < len(marks) // 2
    # and every distinct (site, basis) is encoded once
    sites = {(i, j, basis) for _, _, i_lo, i_hi, j_lo, j_hi, basis in stamps
             for i in range(max(i_lo, 0), min(i_hi, 2 * cells[0]) + 1)
             for j in range(max(j_lo, 0), min(j_hi, 2 * cells[1]) + 1)}
    assert len(encoded) == len(set(encoded)) and set(encoded) == sites
    assert [layer.marked for layer in ref.slice_layers(geo, cells)] == marks


@pytest.mark.parametrize("name", ["cnot", "toffoli"])
def test_stream_joins_each_distinct_payload_once(name):
    geo = run_pipeline((CIRCUIT_DIR / f"{name}.tq").read_text(), PipelineConfig()).geometry
    cells = lattice_cells_for(geo)
    pieces = list(slice_lines(geo, cells))
    assert b"".join(pieces) == ref.slice_stream(geo, cells)
    # a layer's marks are the only pieces that open with a site record
    payloads = [piece for piece in pieces if piece.startswith(b"[")]
    overlays = [marked for marked in layer_marks(geo, cells, pairs) if marked]
    built = len({id(marked) for marked in overlays})
    assert len({id(piece) for piece in payloads}) == built < len(payloads) // 4
