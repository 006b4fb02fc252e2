"""Every output of the pinned CLI run matrix keeps its recorded bytes (tools/digests.py)."""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
import digests  # noqa: E402


def test_outputs_match_recorded_digests():
    # re-record with `python tools/digests.py --write` when an output changes on purpose
    want = json.loads(digests.DIGESTS.read_text())
    assert digests.differences(want, digests.digests()) == []


def test_differences_name_each_output():
    want = {"a synth.obj": {"exit": 0, "sha256": "x", "bytes": 1},
            "a metrics": {"exit": 0, "sha256": "y", "bytes": 2}}
    got = {"a synth.obj": {"exit": 0, "sha256": "z", "bytes": 1},
           "a slice": {"exit": 0, "sha256": "y", "bytes": 2}}
    assert [line.split(":")[0] for line in digests.differences(want, got)] == [
        "a metrics", "a slice", "a synth.obj"]
    assert digests.differences(want, want) == []
