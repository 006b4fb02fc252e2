"""tools/readback.py: the benchmark's independent checks on a circuit's synth and slice outputs."""
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
    assert main(["synth", str(SOURCE), "--out", str(tmp_path / "t"), "--format", "json"]) == EXIT_OK
    assert main(["slice", str(SOURCE), "--out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    return tmp_path / "t", tmp_path / "t.jsonl"


def test_default_outputs_read_back_clean(outputs, capsys):
    assert readback.main([str(SOURCE), *map(str, outputs)]) == 0
    assert capsys.readouterr().out == ""


def test_a_cut_strand_fails_its_loops(outputs, capsys):
    document, stream = outputs
    doc = json.loads(document.read_text())
    # row 0's inner strand now ends 2 units after it starts, below every loop
    seg = doc["defects"][0]["segments"][0]
    seg["b"][2] = seg["a"][2] + 2
    document.write_text(json.dumps(doc))
    assert readback.main([str(SOURCE), str(document), str(stream)]) == 1
    assert "encircles" in capsys.readouterr().out


def test_a_truncated_stream_fails(outputs, capsys):
    document, stream = outputs
    lines = stream.read_bytes().splitlines(keepends=True)
    stream.write_bytes(b"".join(lines[:-1]))
    assert readback.main([str(SOURCE), str(document), str(stream)]) == 1
    assert "instructions" in capsys.readouterr().out
