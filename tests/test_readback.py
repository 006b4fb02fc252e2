"""tools/readback.py: independent checks on a circuit's synth, slice and OBJ outputs."""
import json
import sys
from pathlib import Path

import pytest

from tqecsynth.cli import EXIT_OK, main

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import readback  # noqa: E402

SOURCE = ROOT / "circuits" / "t_gate.tq"


@pytest.fixture()
def outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert main(["synth", str(SOURCE), "--out", str(tmp_path / "t"),
                 "--format", "json", "--format", "obj"]) == EXIT_OK
    assert main(["slice", str(SOURCE), "--out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    return tmp_path / "t.json", tmp_path / "t.jsonl", tmp_path / "t.obj"


def test_default_outputs_read_back_clean(outputs, capsys):
    assert readback.main([str(SOURCE), *map(str, outputs)]) == 0
    assert capsys.readouterr().out == ""


def test_usage_needs_four_paths(outputs, capsys):
    assert readback.main([str(SOURCE), *map(str, outputs[:2])]) == 2
    assert "SOURCE DOCUMENT STREAM OBJ" in capsys.readouterr().err


def test_a_cut_strand_fails_its_loops(outputs, capsys):
    document, stream, obj = outputs
    doc = json.loads(document.read_text())
    # row 0's inner strand now ends 2 units after it starts, below every loop
    seg = doc["defects"][0]["segments"][0]
    seg["b"][2] = seg["a"][2] + 2
    document.write_text(json.dumps(doc))
    assert readback.main([str(SOURCE), str(document), str(stream), str(obj)]) == 1
    out = capsys.readouterr().out
    assert "encircles" in out
    # the OBJ still holds the old strand, so its first cuboid no longer fits
    assert "obj segment_0_primal: corners" in out


def test_a_truncated_stream_fails(outputs, capsys):
    document, stream, obj = outputs
    lines = stream.read_bytes().splitlines(keepends=True)
    stream.write_bytes(b"".join(lines[:-1]))
    assert readback.main([str(SOURCE), str(document), str(stream), str(obj)]) == 1
    assert "instructions" in capsys.readouterr().out


def _edit_last(obj: Path, old: str, new: str) -> None:
    text = obj.read_text()
    k = text.rindex(old)
    obj.write_text(text[:k] + new + text[k + len(old):])


@pytest.mark.parametrize("old,new,message", [
    # the last cuboid's first face reaches back into the cuboid before it
    ("\nf -8 -7 -5 -6\n", "\nf -9 -7 -5 -6\n", "face names vertex"),
    ("\nf -8 -7 -5 -6\n", "\nf 0 -7 -5 -6\n", "out of range"),
    # a face across the cuboid instead of on one side
    ("\nf -8 -7 -5 -6\n", "\nf -8 -7 -1 -6\n", "do not cover its six sides"),
    ("\nf -8 -7 -5 -6\n", "\n", "do not cover its six sides"),
    # the last corner moved
    ("\nv ", "\nv 1", "corners"),
    ("o segment_1_", "o segment_9_", "should"),
])
def test_a_broken_obj_fails(outputs, capsys, old, new, message):
    _edit_last(outputs[2], old, new)
    assert readback.main([str(SOURCE), *map(str, outputs)]) == 1
    assert message in capsys.readouterr().out


def test_an_obj_without_the_last_box_fails(outputs, capsys):
    obj = outputs[2]
    text = obj.read_text()
    obj.write_text(text[:text.rindex("o box_")])
    assert readback.main([str(SOURCE), *map(str, outputs)]) == 1
    assert "cuboids, the document" in capsys.readouterr().out
