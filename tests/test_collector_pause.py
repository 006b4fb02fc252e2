"""The cyclic garbage collector is paused while tqecsynth builds its object graphs.

``geometry.collector_paused`` wraps ``run_pipeline``, ``min_code_distance``,
``segment_overlaps`` and ``cli.main``; whatever they return or raise, the
collector's state afterwards is the one they were called with. The pause is
only safe while synthesis makes no reference cycles, which reference
counting cannot free: the acyclicity guard runs every command on every
sample circuit with the collector paused and checks that
``gc.collect()`` then finds nothing.
"""
import gc
import json
from pathlib import Path

import pytest

from tqecsynth import analysis, cli, geometry
from tqecsynth.analysis import AnalysisError, min_code_distance
from tqecsynth.circuit import ParseError
from tqecsynth.geometry import LayoutParams, collector_paused, segment_overlaps
from tqecsynth.pipeline import PipelineConfig, SparePolicy, run_pipeline
from tqecsynth.scheduling import DistillationExhausted

CIRCUITS = sorted((Path(__file__).parent.parent / "circuits").glob("*.tq"))
EXHAUSTED = PipelineConfig(success_rate=0.0, seed=0, spares=SparePolicy("explicit", y_count=0))


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state on entry to the call under test; restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def toffoli_geometry():
    return run_pipeline(CIRCUITS[-1].read_text(), PipelineConfig(seed=0)).geometry


def test_pause_nests_and_restores_on_exception():
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()    # the inner pause left it paused
            raise KeyError
    assert gc.isenabled()


def test_pause_moves_its_survivors_to_the_oldest_generation():
    # left in the youngest generation, the next collections would walk them again
    gc.collect()        # no collection of the older generations is due
    with collector_paused():
        kept = [[] for _ in range(10_000)]
    gc.disable()
    try:
        oldest = gc.get_objects(generation=2)
    finally:
        gc.enable()
    assert any(obj is kept[-1] for obj in oldest) and gc.get_freeze_count() == 0


def test_pause_leaves_a_callers_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        with collector_paused():
            pass
        assert gc.get_freeze_count() == frozen > 0
    finally:
        gc.unfreeze()


def test_paused_calls_run_with_the_collector_off(monkeypatch):
    seen = []
    bounding_box = analysis.bounding_box

    def spy(geo):
        seen.append(gc.isenabled())
        return bounding_box(geo)

    monkeypatch.setattr(analysis, "bounding_box", spy)
    run_pipeline("qubits 1\nt 0\n")
    assert seen == [False] and gc.isenabled()


def test_run_pipeline_keeps_the_collector_state(collector):
    assert run_pipeline("qubits 1\nt 0\n").geometry.defects
    assert gc.isenabled() is collector


@pytest.mark.parametrize("source,config,error", [
    ("qubits 1\nwat 0\n", None, ParseError),
    ("qubits 1\np 0\n", EXHAUSTED, DistillationExhausted),
], ids=["bad-source", "exhausted"])
def test_run_pipeline_that_raises_keeps_the_collector_state(collector, source, config, error):
    with pytest.raises(error):
        run_pipeline(source, config)
    assert gc.isenabled() is collector


def test_distance_and_overlaps_keep_the_collector_state(collector, toffoli_geometry):
    assert min_code_distance(toffoli_geometry).code_distance == 4
    assert gc.isenabled() is collector
    segment_overlaps(toffoli_geometry)
    assert gc.isenabled() is collector


def test_distance_that_raises_keeps_the_collector_state(collector):
    empty = geometry.Geometry(defects=(), pins=(), injections=(), ioports=(),
                              layout=LayoutParams())
    with pytest.raises(AnalysisError):
        min_code_distance(empty)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("source,flags,code", [
    ("qubits 1\nt 0\n", [], cli.EXIT_OK),
    ("qubits 1\nwat 0\n", [], cli.EXIT_PARSE),
    ("qubits 1\np 0\n", ["--success-rate", "0.0", "--spares-y", "0"], cli.EXIT_SYNTH),
], ids=["ok", "bad-source", "exhausted"])
def test_cli_keeps_the_collector_state(collector, tmp_path, capsys, source, flags, code):
    path = tmp_path / "c.tq"
    path.write_text(source)
    assert cli.main(["metrics", str(path), *flags]) == code
    assert gc.isenabled() is collector
    capsys.readouterr()


def command_lines(path: Path, out: Path) -> list[list[str]]:
    name = str(out / path.stem)
    return [["synth", str(path), "--out", name, "--format", "json", "--format", "obj",
             "--format", "csv"],
            ["metrics", str(path)],
            ["slice", str(path), "--out", name + ".jsonl"],
            ["verify", str(path)]]


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_commands_leave_no_reference_cycles(path, tmp_path, capsys):
    # a cycle made under the pause would be freed only by a collection
    # after it: every object a command leaves unreachable must already be
    # gone through reference counting
    for argv in command_lines(path, tmp_path):
        cli.main(argv)                  # first calls may fill caches and import lazily
        gc.collect()
        gc.disable()
        try:
            code = cli.main(argv)
            found = gc.collect()
        finally:
            gc.enable()
        assert (argv[0], code, found) == (argv[0], cli.EXIT_OK, 0)
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["pass"] is True     # the last verify report
