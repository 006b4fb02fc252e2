"""The shared span model and the scans on it against the brute-force reference scans."""
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from tqecsynth import analysis, geometry, spatial
from tqecsynth.analysis import (
    _stamps, bounding_box, lattice_cells_for, min_code_distance, slice_layers,
)
from tqecsynth.cli import EXIT_OK, main, slice_lines
from tqecsynth.document import export_obj
from tqecsynth.geometry import (
    Coord, Defect, Geometry, LayoutParams, Segment, SegmentKind, segment_overlaps,
    validate_parity,
)
from tqecsynth.pipeline import PipelineConfig, SparePolicy, run_pipeline
from tqecsynth.spatial import RADIUS, SegmentIndex, Spans, collinear_runs, segment_spans

ROOT = Path(__file__).parent.parent
CIRCUITS = sorted((ROOT / "circuits").glob("*.tq"))
KINDS = list(SegmentKind)
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
import ladder  # noqa: E402
import workloads  # noqa: E402

# The 4-Toffoli rung of tools/ladder.py: its circuit, and its flags as a config.
LADDER_SOURCE = workloads.toffoli_source(random.Random(1), 4, 6)
LADDER_CONFIG = PipelineConfig(success_rate=0.9, seed=1,
                               spares=SparePolicy("binomial", epsilon=1e-6))


def spans_of(entries) -> Spans:
    """The reference's span tuples ``((kind value, axis, u, v), lo, hi, defect)`` as ``Spans``."""
    codes = {kind.value: code for code, kind in enumerate(KINDS)}
    rows = [(codes[kind], axis, u, v, lo, hi, di) for (kind, axis, u, v), lo, hi, di in entries]
    return Spans(*np.array(rows, dtype=np.int64).reshape(-1, 7).T)


def span_list(spans: Spans) -> list:
    """``spans`` as the reference's span tuples."""
    return [((KINDS[kind].value, axis, u, v), lo, hi, di)
            for kind, axis, u, v, lo, hi, di in zip(*(column.tolist() for column in spans))]


def run_list(spans: Spans, items=None) -> list:
    """``collinear_runs(spans)`` as the reference's run tuples ``(line, lo, hi, items)``.

    A run's items are those of its spans (``items[k]`` for span ``k``, by
    default its defect) in order of ``lo``, ties in span order.
    """
    runs, run_of = collinear_runs(spans)
    items = spans.defect.tolist() if items is None else items
    members = [[] for _ in runs.lo]
    for k in np.lexsort((spans.lo, run_of)).tolist():
        members[run_of[k]].append(items[k])
    return [(line, lo, hi, run_items)
            for (line, lo, hi, _), run_items in zip(span_list(runs), members, strict=True)]


def bare_geometry(defects, connections=()) -> Geometry:
    return Geometry(defects=tuple(defects), pins=(), injections=(), ioports=(),
                    layout=LayoutParams(), connections=tuple(connections))


def strand(i, j, t0, t1, kind=SegmentKind.PRIMAL) -> Defect:
    return Defect(kind, (Segment(kind, Coord(i, j, t0), Coord(i, j, t1)),), closed=False)


@st.composite
def chains(draw):
    """An open chain of axis-aligned steps, or a closed rectangle."""
    kind = draw(st.sampled_from(list(SegmentKind)))
    start = [draw(st.integers(0, 12)) for _ in range(3)]
    if draw(st.integers(0, 3)) == 0:
        u, v = draw(st.permutations([0, 1, 2]))[:2]
        du = draw(st.integers(1, 5)) * draw(st.sampled_from([-1, 1]))
        dv = draw(st.integers(1, 5)) * draw(st.sampled_from([-1, 1]))
        pts = [list(start)]
        for axis, step in ((u, du), (v, dv), (u, -du), (v, -dv)):
            nxt = list(pts[-1])
            nxt[axis] += step
            pts.append(nxt)
        closed = True
    else:
        pts = [list(start)]
        for _ in range(draw(st.integers(1, 4))):
            nxt = list(pts[-1])
            nxt[draw(st.integers(0, 2))] += (draw(st.integers(1, 6))
                                             * draw(st.sampled_from([-1, 1])))
            pts.append(nxt)
        closed = False
    coords = [Coord(*p) for p in pts]
    segs = tuple(Segment(kind, a, b) for a, b in zip(coords, coords[1:]))
    return Defect(kind, segs, closed=closed)


@st.composite
def small_geometries(draw):
    defects = draw(st.lists(chains(), min_size=1, max_size=7))
    split = draw(st.integers(0, len(defects)))
    return bare_geometry(defects[:split], defects[split:])


def on_line(axis: int, u: int, v: int, x: int) -> Coord:
    """The point at ``x`` along ``axis`` (0 i, 1 j, 2 t) whose other two coordinates are (u, v)."""
    coords = [u, v]
    coords.insert(axis, x)
    return Coord(*coords)


@st.composite
def shared_line_geometries(draw):
    """Defects of their own whose legs lie on a few shared lines.

    The legs of one line overlap, share an end or leave gaps of one unit and
    more, as the router's legs do in the route plane; some defects turn off
    their line with a second leg.
    """
    lines = draw(st.lists(
        st.tuples(st.sampled_from(list(SegmentKind)), st.integers(0, 2),
                  st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=3))
    defects = []
    for _ in range(draw(st.integers(2, 8))):
        kind, axis, u, v = draw(st.sampled_from(lines))
        lo = draw(st.integers(0, 14))
        ends = [on_line(axis, u, v, lo), on_line(axis, u, v, lo + draw(st.integers(1, 6)))]
        if draw(st.booleans()):
            ends.reverse()
        if draw(st.booleans()):
            turn = list(ends[-1].as_list())
            turn[draw(st.sampled_from([k for k in range(3) if k != axis]))] += (
                draw(st.integers(1, 5)) * draw(st.sampled_from([-1, 1])))
            ends.append(Coord(*turn))
        segs = tuple(Segment(kind, a, b) for a, b in zip(ends, ends[1:]))
        defects.append(Defect(kind, segs, closed=False))
    defects += draw(st.lists(chains(), max_size=2))
    split = draw(st.integers(0, len(defects)))
    return bare_geometry(defects[:split], defects[split:])


LINE = ("primal", 0, 1, 1)


@pytest.mark.parametrize("spans,runs", [
    ([(0, 5), (3, 8)], [(0, 8, [0, 1])]),            # overlapping
    ([(0, 4), (4, 9)], [(0, 9, [0, 1])]),            # touching at an endpoint
    ([(0, 4), (5, 9)], [(0, 9, [0, 1])]),            # a gap of one unit
    ([(0, 4), (6, 9)], [(0, 4, [0]), (6, 9, [1])]),  # a gap of two units
    ([(2, 3), (0, 9)], [(0, 9, [1, 0])]),            # one span inside another
    ([(10, 12), (0, 4), (3, 6), (8, 9)], [(0, 6, [1, 2]), (8, 12, [3, 0])]),
])
def test_collinear_runs_merge_spans_within_one_unit(spans, runs):
    entries = [(LINE, lo, hi, k) for k, (lo, hi) in enumerate(spans)]
    assert run_list(spans_of(entries)) == [(LINE, lo, hi, items) for lo, hi, items in runs]


def test_collinear_runs_never_merge_across_lines_or_kinds():
    lines = [("primal", 0, 1, 1), ("dual", 0, 1, 1), ("primal", 0, 1, 3), ("primal", 1, 1, 1)]
    entries = [(line, 0, 4, k) for k, line in enumerate(lines)]
    assert run_list(spans_of(entries)) == [(line, 0, 4, [k]) for k, line in enumerate(lines)]


def test_collinear_runs_keep_first_seen_line_order():
    two, one = ("primal", 0, 0, 2), ("primal", 0, 0, 1)
    entries = [(two, 7, 9, 0), (one, 0, 1, 1), (two, 0, 2, 2), (one, 5, 6, 3)]
    assert run_list(spans_of(entries), "abcd") == [
        (two, 0, 2, ["c"]), (two, 7, 9, ["a"]), (one, 0, 1, ["b"]), (one, 5, 6, ["d"])]


@st.composite
def line_spans(draw):
    """Reference span tuples on a few lines of both kinds.

    Besides fresh spans there are duplicates of earlier spans, spans that
    start 0, 1 or 2 units past an earlier span's end on its line, and
    spans that start where an earlier span on another line or of the other
    kind starts.
    """
    lines = draw(st.lists(st.tuples(st.sampled_from([kind.value for kind in KINDS]),
                                    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                          min_size=1, max_size=4, unique=True))
    entries = []
    for k in range(draw(st.integers(0, 12))):
        how = draw(st.sampled_from(["fresh", "duplicate", "after", "same lo"])) if entries else "fresh"
        line, lo, hi, _ = draw(st.sampled_from(entries)) if entries else (None, 0, 0, None)
        if how == "fresh":
            line, lo = draw(st.sampled_from(lines)), draw(st.integers(-3, 10))
        elif how == "after":
            lo = hi + draw(st.integers(0, 2))
        elif how == "same lo":
            line = draw(st.sampled_from(lines))
        if how != "duplicate":
            hi = lo + draw(st.integers(1, 4))
        entries.append((line, lo, hi, k))
    return entries


@settings(max_examples=300, deadline=None)
@given(line_spans())
def test_collinear_runs_match_reference(entries):
    assert run_list(spans_of(entries)) == list(ref.collinear_runs(entries))


def test_collinear_runs_hold_for_coordinates_far_apart():
    # lines lifted apart by the coordinate range would overflow int64 here
    big = 2 ** 61
    entries = [(("primal", 0, line, 0), lo, lo + 1, k) for k, (line, lo) in enumerate(
        [(0, big), (1, -big), (1, 2 - big), (2, big), (2, big + 3), (3, -big), (3, big)])]
    assert run_list(spans_of(entries)) == list(ref.collinear_runs(entries))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_geometries(), shared_line_geometries()))
def test_segment_spans_match_reference(geo):
    defects = geo.defects + geo.connections
    assert span_list(segment_spans(defects)) == list(ref.segment_spans(defects))


@pytest.mark.parametrize("a,b,span", [
    ((3, 5, 7), (9, 5, 7), (("primal", 0, 5, 7), 3, 9)),    # along i: (u, v) = (j, t)
    ((3, 5, 7), (3, 1, 7), (("primal", 1, 3, 7), 1, 5)),    # along j, reversed: (i, t)
    ((3, 5, 7), (3, 5, 11), (("primal", 2, 3, 5), 7, 11)),  # along t: (i, j)
])
def test_segment_spans_encode_each_axis(a, b, span):
    seg = Segment(SegmentKind.PRIMAL, Coord(*a), Coord(*b))
    reverse = Segment(SegmentKind.PRIMAL, Coord(*b), Coord(*a))
    defects = [Defect(SegmentKind.PRIMAL, (s,), closed=False) for s in (seg, reverse)]
    assert span_list(segment_spans(defects)) == [(*span, 0), (*span, 1)]


@settings(max_examples=100, deadline=None)
@given(small_geometries())
def test_segment_spans_follow_geometry_segments(geo):
    defects = geo.defects + geo.connections
    spans = span_list(segment_spans(defects))
    owners = [di for di, defect in enumerate(defects) for _ in defect.segments]
    assert [di for *_, di in spans] == owners
    for seg, ((kind, axis, u, v), lo, hi, di) in zip(geo.segments, spans, strict=True):
        assert kind == seg.kind.value == defects[di].kind.value and lo <= hi
        assert {on_line(axis, u, v, lo), on_line(axis, u, v, hi)} == {seg.a, seg.b}


def test_run_index_holds_one_box_per_run_with_its_defects():
    # primal legs of four defects on the line j = 1, t = 1: i 1..9 and
    # 5..13 overlap, 14..20 starts one unit past them and 22..25 two units
    # past that; a dual leg on the same line stays apart
    def leg(kind, i0, i1):
        return Defect(kind, (Segment(kind, Coord(i0, 1, 1), Coord(i1, 1, 1)),), closed=False)

    spans = segment_spans([
        leg(SegmentKind.PRIMAL, 1, 9), leg(SegmentKind.PRIMAL, 13, 5),
        leg(SegmentKind.DUAL, 2, 4), leg(SegmentKind.PRIMAL, 22, 25),
        leg(SegmentKind.PRIMAL, 14, 20)])
    index = SegmentIndex(collinear_runs(spans)[0])
    assert index.boxes.tolist() == [[1, 20, 1, 1, 1, 1], [22, 25, 1, 1, 1, 1], [2, 4, 1, 1, 1, 1]]
    assert [items for *_, items in run_list(spans)] == [[0, 1, 4], [3], [2]]
    assert index.owner.tolist() == [0, 3, 2]
    assert sorted(zip(*index.pairs_within(RADIUS))) == [(0, 1, 2)]


def shifted(geo: Geometry) -> Geometry:
    """``geo`` moved along the diagonal to non-negative coordinates, as the slicer needs."""
    d = -min(0, min(min(p.as_list()) for seg in geo.segments for p in (seg.a, seg.b)))

    def move(defect: Defect) -> Defect:
        segs = tuple(Segment(s.kind, Coord(s.a.i + d, s.a.j + d, s.a.t + d),
                             Coord(s.b.i + d, s.b.j + d, s.b.t + d)) for s in defect.segments)
        return Defect(defect.kind, segs, defect.closed)

    return bare_geometry(map(move, geo.defects), map(move, geo.connections))


def assert_slices_match_reference(geo: Geometry) -> None:
    geo = shifted(geo)
    cells = lattice_cells_for(geo)
    assert slice_layers(geo, cells) == ref.slice_layers(geo, cells)
    assert ref.expand_stream(b"".join(slice_lines(geo, cells))) == ref.slice_stream(geo, cells)


@settings(max_examples=100, deadline=None)
@given(small_geometries())
def test_slices_match_reference(geo):
    assert_slices_match_reference(geo)


@settings(max_examples=100, deadline=None)
@given(shared_line_geometries())
def test_slices_match_reference_on_shared_lines(geo):
    # primal and dual legs may share a line here, and a line is keyed by kind
    assert_slices_match_reference(geo)


@settings(max_examples=200, deadline=None)
@given(shared_line_geometries())
def test_min_code_distance_matches_reference_on_shared_lines(geo):
    assert min_code_distance(geo) == ref.min_code_distance(geo)


def assert_pairs_match_all_pairs(geo: Geometry, radius: int) -> None:
    segs = geo.segments
    index = SegmentIndex(segment_spans(geo.defects + geo.connections))
    want = sorted(
        (a, b, ref.segment_gap(segs[a], segs[b]))
        for a in range(len(segs)) for b in range(a + 1, len(segs))
        if segs[a].kind is segs[b].kind and ref.segment_gap(segs[a], segs[b]) <= radius)
    assert sorted(zip(*(column.tolist() for column in index.pairs_within(radius)))) == want


@settings(max_examples=150, deadline=None)
@given(small_geometries(), st.integers(0, 20))
def test_pairs_within_matches_all_pairs(geo, radius):
    assert_pairs_match_all_pairs(geo, radius)


@st.composite
def long_box_geometries(draw):
    """One-segment defects, most of them long along the axes drawn for their kind.

    Each kind draws its long axis, or all three axes, so the sweep meets
    kinds long along i, j or t and a kind mixing long boxes on every axis;
    short boxes lie among them.
    """
    axes = {kind: draw(st.sampled_from([(0,), (1,), (2,), (0, 1, 2)])) for kind in SegmentKind}
    defects = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(list(SegmentKind)))
        axis = draw(st.sampled_from(axes[kind]))
        lo = [draw(st.integers(0, 60)) for _ in range(3)]
        hi = list(lo)
        hi[axis] += draw(st.one_of(st.integers(20, 90), st.integers(1, 3)))
        defects.append(Defect(kind, (Segment(kind, Coord(*lo), Coord(*hi)),), closed=False))
    split = draw(st.integers(0, len(defects)))
    return bare_geometry(defects[:split], defects[split:])


@settings(max_examples=200, deadline=None)
@given(long_box_geometries(), st.integers(0, 40), st.sampled_from([1, 3, spatial.BLOCK]))
def test_pairs_within_matches_all_pairs_on_long_boxes(geo, radius, block):
    # with blocks of one or three candidates most boxes' windows are expanded
    # in a block of their own, and the pairs must not change
    with mock.patch.object(spatial, "BLOCK", block):
        assert_pairs_match_all_pairs(geo, radius)


@settings(max_examples=150, deadline=None)
@given(small_geometries())
def test_min_code_distance_matches_reference(geo):
    assert min_code_distance(geo) == ref.min_code_distance(geo)


@settings(max_examples=150, deadline=None)
@given(small_geometries())
def test_segment_overlaps_matches_reference(geo):
    assert segment_overlaps(geo) == ref.segment_overlaps(geo)


@pytest.mark.parametrize("seed", [0, 53])
@pytest.mark.parametrize("rate", [1.0, 0.8])
@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_sample_circuits_match_reference(path, rate, seed):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=rate, seed=seed)).geometry
    assert min_code_distance(geo) == ref.min_code_distance(geo)
    assert segment_overlaps(geo) == ref.segment_overlaps(geo)


def test_single_defect_has_no_separation():
    geo = bare_geometry([strand(1, 1, 1, 9)])
    assert min_code_distance(geo) == ref.min_code_distance(geo)
    assert min_code_distance(geo).min_separation is None


def test_far_apart_components_widen_the_radius():
    # the closest cross-component pair lies beyond the first sweep radius
    geo = bare_geometry(
        [strand(1, 1, 1, 9), strand(1, 1, 9, 17), strand(101, 1, 1, 17),
         strand(1, 61, 1, 17)],
        [strand(3, 3, 1, 3, SegmentKind.DUAL), strand(203, 3, 1, 3, SegmentKind.DUAL)])
    assert 2 * 30 > RADIUS
    rep = min_code_distance(geo)
    assert rep == ref.min_code_distance(geo)
    assert rep.min_separation == 30


def sweep_count(monkeypatch) -> list[int]:
    radii = []
    sweep = SegmentIndex.pairs_within

    def counted(index, radius):
        radii.append(radius)
        return sweep(index, radius)

    monkeypatch.setattr(SegmentIndex, "pairs_within", counted)
    return radii


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_one_sweep_when_a_pair_lies_within_the_radius(monkeypatch, path):
    geo = run_pipeline(path.read_text(), PipelineConfig(success_rate=0.8, seed=53)).geometry
    want = ref.min_code_distance(geo)
    radii = sweep_count(monkeypatch)
    assert min_code_distance(geo) == want
    assert want.min_separation is None or 2 * want.min_separation <= RADIUS
    assert radii == [RADIUS]


def test_hand_built_pair_within_the_radius_takes_one_sweep(monkeypatch):
    # the first two strands touch and merge; the third lies 3 cells away
    geo = bare_geometry([strand(1, 1, 1, 9), strand(1, 1, 9, 17), strand(7, 1, 1, 9)])
    radii = sweep_count(monkeypatch)
    rep = min_code_distance(geo)
    assert radii == [RADIUS]
    assert rep == ref.min_code_distance(geo)
    assert rep.min_separation == 3


def test_far_apart_components_sweep_again(monkeypatch):
    geo = bare_geometry([strand(1, 1, 1, 9), strand(101, 1, 1, 17)])
    radii = sweep_count(monkeypatch)
    assert min_code_distance(geo) == ref.min_code_distance(geo)
    assert radii == [RADIUS, 4 * RADIUS, 16 * RADIUS]


def test_sixteen_toffolis_distance():
    # 16 random Toffolis on 6 qubits (rate 0.9, seed 1); the expected report
    # is the brute-force reference's, which takes about a minute to compute
    rng = random.Random(1)
    source = "qubits 6\n" + "".join(
        "toffoli {} {} {}\n".format(*rng.sample(range(6), 3)) for _ in range(16))
    rep = run_pipeline(source, PipelineConfig(success_rate=0.9, seed=1)).distance
    assert (rep.min_separation, rep.code_distance) == (3, 4)


def encodings(monkeypatch) -> list[int]:
    """Spy on ``spatial.segment_spans`` under every name a module binds it
    to; the returned list gets each call's defect count."""
    calls: list[int] = []
    encode = spatial.segment_spans

    def spy(defects):
        calls.append(len(defects))
        return encode(defects)

    for module in (spatial, geometry, analysis):
        monkeypatch.setattr(module, "segment_spans", spy, raising=False)
    return calls


def test_one_geometry_is_encoded_once(monkeypatch):
    calls = encodings(monkeypatch)
    result = run_pipeline(LADDER_SOURCE, LADDER_CONFIG)
    geo = result.geometry
    assert geo.connections
    assert validate_parity(geo) == []
    bounding_box(geo)
    min_code_distance(geo)
    _stamps(geo)
    segment_overlaps(geo)
    export_obj(geo)
    assert calls == [len(geo.defects) + len(geo.connections)]


@pytest.mark.parametrize("command", [
    ("synth", "--format", "json", "--format", "obj", "--format", "csv"),
    ("metrics",),
    ("slice",),
], ids=lambda command: command[0])
def test_each_command_encodes_its_geometry_once(tmp_path, monkeypatch, capsysbinary, command):
    source = tmp_path / "toffolis.tq"
    source.write_text(LADDER_SOURCE)
    out = () if command[0] == "metrics" else ("--out", str(tmp_path / "out"))
    calls = encodings(monkeypatch)
    assert main([command[0], str(source), *command[1:], *ladder.FLAGS, *out]) == EXIT_OK
    assert len(calls) == 1
