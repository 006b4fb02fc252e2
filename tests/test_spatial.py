"""The t-sweep segment index against the brute-force reference scans."""
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from tqecsynth.analysis import min_code_distance
from tqecsynth.geometry import (
    Coord, Defect, Geometry, LayoutParams, Segment, SegmentKind, segment_overlaps,
)
from tqecsynth.pipeline import PipelineConfig, run_pipeline
from tqecsynth.spatial import RADIUS, SegmentIndex

CIRCUITS = sorted((Path(__file__).parent.parent / "circuits").glob("*.tq"))


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
    return Defect(kind, segs, closed=closed, diameter=draw(st.integers(1, 2)))


@st.composite
def small_geometries(draw):
    defects = draw(st.lists(chains(), min_size=1, max_size=7))
    split = draw(st.integers(0, len(defects)))
    return bare_geometry(defects[:split], defects[split:])


@settings(max_examples=150, deadline=None)
@given(small_geometries(), st.integers(0, 20))
def test_pairs_within_matches_all_pairs(geo, radius):
    segs = geo.segments
    index = SegmentIndex(geo.defects + geo.connections)
    want = sorted(
        (a, b, ref.segment_gap(segs[a], segs[b]))
        for a in range(len(segs)) for b in range(a + 1, len(segs))
        if segs[a].kind is segs[b].kind and ref.segment_gap(segs[a], segs[b]) <= radius)
    assert sorted(index.pairs_within(radius)) == want


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
