"""The defect table ``generate_geometry`` writes, against the object-built reference."""
import dataclasses
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from conftest import icm_circuits
from tqecsynth import geometry
from tqecsynth.cli import EXIT_OK, main
from tqecsynth.geometry import (
    KINDS, Coord, Defect, Geometry, GeometryError, LayoutParams, Segment, SegmentKind,
    SegmentTable, cnot_braid_template, generate_geometry, validate_parity,
)
from tqecsynth.matrix import to_matrix
from tqecsynth.pipeline import PipelineConfig, SparePolicy, icm_conversion, run_pipeline
from tqecsynth.spatial import segment_spans

ROOT = Path(__file__).parent.parent
CIRCUITS = sorted((ROOT / "circuits").glob("*.tq"))
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
import ladder  # noqa: E402
import workloads  # noqa: E402

# The 4-Toffoli rung of tools/ladder.py: its circuit, and its flags as a config.
LADDER_SOURCE = workloads.toffoli_source(random.Random(1), 4, 6)
LADDER_CONFIG = PipelineConfig(success_rate=0.9, seed=1,
                               spares=SparePolicy("binomial", epsilon=1e-6))


def assert_same_geometry(geo: Geometry, want: Geometry) -> None:
    """``geo`` and the object-built ``want`` agree on every object and every span column."""
    assert geo.defects == want.defects
    assert geo.segments == want.segments
    assert (geo.pins, geo.ioports, geo.injections) == (want.pins, want.ioports, want.injections)
    spans = geo.spans
    for column, expected in zip(spans, segment_spans(want.defects + want.connections),
                                strict=True):
        assert column.dtype == expected.dtype and np.array_equal(column, expected)
    assert [((KINDS[kind].value, axis, u, v), lo, hi, di) for kind, axis, u, v, lo, hi, di
            in zip(*(column.tolist() for column in spans))] == list(
        ref.segment_spans(want.defects + want.connections))


@st.composite
def layouts(draw) -> LayoutParams:
    odd = st.integers(0, 3).map(lambda k: 2 * k + 1)
    even = st.integers(1, 4).map(lambda k: 2 * k)
    i_inner = draw(odd)
    return LayoutParams(i_inner=i_inner, i_outer=i_inner + 4 + draw(even) - 2,
                        j_pitch=draw(even), t_pitch=draw(even), t_in=draw(odd),
                        j_base=draw(odd))


@settings(max_examples=150, deadline=None)
@given(icm_circuits(max_qubits=9, max_cnots=24), layouts())
def test_generated_geometry_equals_the_object_reference(circ, params):
    matrix = to_matrix(circ)
    assert_same_geometry(generate_geometry(matrix, params), ref.generate_geometry(matrix, params))


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_sample_circuits_equal_the_object_reference(path):
    matrix = to_matrix(icm_conversion(path.read_text())[1].circuit)
    assert_same_geometry(generate_geometry(matrix), ref.generate_geometry(matrix))


def test_loops_take_the_reference_corners():
    params = LayoutParams()
    for control, target, column in ((0, 1, 0), (3, 2, 4), (0, 2, 1), (5, 1, 7)):
        assert (cnot_braid_template(control, target, column, params)
                == ref.cnot_loop(control, target, column, params))


def test_routed_geometry_puts_route_rows_after_the_table():
    geo = run_pipeline(LADDER_SOURCE, LADDER_CONFIG).geometry
    assert geo.connections
    for column, want in zip(geo.spans, segment_spans(geo.defects + geo.connections), strict=True):
        assert np.array_equal(column, want)


def test_replace_reads_new_defects_and_keeps_the_table_otherwise():
    geo = run_pipeline(LADDER_SOURCE, LADDER_CONFIG).geometry
    kept = dataclasses.replace(geo, ioports=(), injections=())
    assert kept.table is geo.table and "defects" not in kept.__dict__
    assert all(np.array_equal(a, b) for a, b in zip(kept.spans, geo.spans, strict=True))

    extra = Defect(SegmentKind.DUAL, (Segment(SegmentKind.DUAL, Coord(0, 0, 2),
                                              Coord(0, 4, 2)),), closed=False)
    grown = dataclasses.replace(geo, defects=geo.defects + (extra,))
    assert grown.defects == geo.defects + (extra,)
    assert grown.table.defect_count == geo.table.defect_count + 1
    for column, want in zip(grown.spans, segment_spans(grown.defects + grown.connections),
                            strict=True):
        assert np.array_equal(column, want)


# Mutations of a generated table: each must raise what the objects raise.


class Columns:
    """A table's columns, unchecked, as ``object_error`` reads them."""

    def __init__(self, ends, kind, start, closed):
        self.ends, self.kind, self.start, self.closed = ends, kind, start, closed


def loop_table() -> SegmentTable:
    """A generated table: six strands, an adjacent-row loop, then a detour loop."""
    circ = icm_conversion("qubits 3\ncnot 0 1\ncnot 2 0\n")[1].circuit
    table = generate_geometry(to_matrix(circ)).table
    assert np.diff(table.start).tolist() == [1] * 6 + [4, 8]
    return table


def loop_row(table: SegmentTable, loop: int) -> int:
    """The first row of the table's ``loop``-th loop."""
    return int(table.start[np.flatnonzero(table.closed)[loop]])


def object_error(table) -> str:
    """What building ``table``'s rows as objects raises, in generation order:
    each defect's segments, then the defect."""
    kinds = [KINDS[k] for k in table.kind.tolist()]
    bounds = table.start.tolist()
    try:
        for lo, hi, closed in zip(bounds, bounds[1:], table.closed.tolist()):
            segments = tuple(Segment(kinds[k], Coord(*row[:3]), Coord(*row[3:]))
                             for k, row in zip(range(lo, hi), table.ends[lo:hi].tolist()))
            Defect(kinds[lo], segments, closed)
    except GeometryError as exc:
        return str(exc)
    raise AssertionError("the objects raise nothing")


def table_error(*columns) -> str:
    with pytest.raises(GeometryError) as exc:
        SegmentTable(*columns)
    return str(exc.value)


def diagonal(row):
    row[3] += 2     # b moves along i as well as along the strand's t


def zero_length(row):
    row[3:] = row[:3]


def off_plane(row):
    row[2] += 2     # both ends leave the loop's plane: its neighbours no longer meet it
    row[5] += 2


@pytest.mark.parametrize("pick,change,message", [
    (lambda table: 3, diagonal, "segment must be axis-aligned and non-degenerate: "),
    (lambda table: 0, zero_length, "segment must be axis-aligned and non-degenerate: "),
    (lambda table: loop_row(table, 1) + 2, zero_length,
     "segment must be axis-aligned and non-degenerate: "),
    (lambda table: loop_row(table, 0) + 1, off_plane, "defect segments must chain end to end"),
], ids=["diagonal", "zero-length-strand", "zero-length-leg", "broken-chain"])
def test_row_mutations_raise_the_object_messages(pick, change, message):
    table = loop_table()
    ends = table.ends.copy()
    change(ends[pick(table)])
    got = table_error(ends, table.kind, table.start, table.closed)
    assert got.startswith(message)
    assert got == object_error(Columns(ends, table.kind, table.start, table.closed))


def test_closed_loop_off_its_start_raises_the_object_message():
    table = loop_table()
    last = len(table.ends) - 1      # the detour loop loses its closing leg
    columns = (table.ends[:last], table.kind[:last], np.append(table.start[:-1], last),
               table.closed)
    assert table_error(*columns) == "closed defect must return to its start"
    assert object_error(Columns(*columns)) == "closed defect must return to its start"


def test_defect_without_rows_raises_the_object_message():
    table = loop_table()
    columns = (table.ends, table.kind, np.insert(table.start, 1, table.start[1]),
               np.insert(table.closed, 1, False))      # a second defect owns no row
    assert table_error(*columns) == "defect needs at least one segment"
    assert object_error(Columns(*columns)) == "defect needs at least one segment"


def test_mixed_kinds_raise_the_object_message():
    table = loop_table()
    kind = table.kind.copy()
    kind[loop_row(table, 0) + 2] = KINDS.index(SegmentKind.PRIMAL)
    assert table_error(table.ends, kind, table.start, table.closed) == (
        "a defect cannot mix segment kinds")
    assert object_error(Columns(table.ends, kind, table.start, table.closed)) == (
        "a defect cannot mix segment kinds")


@pytest.mark.parametrize("first,then", [(off_plane, zero_length), (zero_length, off_plane)])
def test_the_first_faulty_defect_raises(first, then):
    table = loop_table()
    ends = table.ends.copy()
    first(ends[loop_row(table, 0) + 1])
    then(ends[loop_row(table, 1) + 1])
    columns = (ends, table.kind, table.start, table.closed)
    assert table_error(*columns) == object_error(Columns(*columns))


def test_wrong_parity_row_is_reported_as_for_objects():
    geo = generate_geometry(to_matrix(icm_conversion("qubits 2\ncnot 0 1\n")[1].circuit))
    ends = geo.table.ends.copy()
    ends[1, [0, 3]] += 1     # a strand, a defect of its own, moves off the primal lattice
    bad = dataclasses.replace(geo, table=dataclasses.replace(geo.table, ends=ends))
    objects = dataclasses.replace(geo, defects=bad.table.defects())
    got = validate_parity(bad)
    assert got and got == validate_parity(objects)
    assert {d.rule for d in got} == {"segment-parity"}


# What the commands build: only the routes are segment objects.


@pytest.mark.parametrize("command", [
    ("synth", "--format", "json", "--format", "obj", "--format", "csv"),
    ("metrics",),
    ("slice",),
], ids=lambda command: command[0])
def test_commands_build_only_the_route_segments(tmp_path, monkeypatch, capsysbinary, command):
    source = tmp_path / "toffolis.tq"
    source.write_text(LADDER_SOURCE)
    out = () if command[0] == "metrics" else ("--out", str(tmp_path / "out"))
    result = run_pipeline(LADDER_SOURCE, LADDER_CONFIG)
    routes = sum(len(c.segments) for c in result.connections)
    assert routes and len(result.geometry.table.ends) > routes
    built = []
    check = geometry.Segment.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(geometry.Segment, "__post_init__", counted)
    assert main([command[0], str(source), *command[1:], *ladder.FLAGS, *out]) == EXIT_OK
    assert len(built) == routes
