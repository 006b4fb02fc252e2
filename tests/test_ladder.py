"""tools/ladder.py: one rung's figures, and exit 1 when a rung fails or lacks one of its fields."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
import ladder  # noqa: E402

WHOLE = {field: 1 for field in ladder.FIELDS}


@pytest.mark.parametrize("rung,code", [
    (WHOLE, 0),
    ({k: v for k, v in WHOLE.items() if k != "distance_s"}, 1),
    ({k: v for k, v in WHOLE.items() if k != "document_bytes"}, 1),
    ({"toffolis": 1, "error": "timed out after 600 s"}, 1),
    # a rung above SLICE_MAX_TOFFOLIS is synthesis only; one at or below it must slice
    ({**{k: v for k, v in WHOLE.items() if k not in ladder.SLICE_FIELDS}, "toffolis": 256}, 0),
    ({**{k: v for k, v in WHOLE.items() if k != "layers"}, "toffolis": 256}, 0),
    ({**{k: v for k, v in WHOLE.items() if k not in ladder.SLICE_FIELDS}, "toffolis": 64}, 1),
    ({**{k: v for k, v in WHOLE.items() if k not in ladder.SLICE_FIELDS | {"distance_s"}},
      "toffolis": 256}, 1),
])
def test_ladder_exit_code(monkeypatch, capsys, rung, code):
    monkeypatch.setattr(ladder, "run_rung", lambda toffolis: rung)
    assert ladder.main(["1", "4"]) == code
    assert '"rungs"' in capsys.readouterr().out


def test_measure_counts_the_stream_of_the_timed_slice(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    rung = ladder.measure(1)
    assert rung.keys() == ladder.FIELDS
    assert rung["stream_bytes"] == 1_660_585 and rung["layers"] == 361
    assert (rung["min_separation"], rung["code_distance"]) == (3, 4)
    # the JSON document synth writes for the rung's circuit, and its time
    assert rung["document_bytes"] == 89_465 and rung["document_s"] >= 0
    # the peak before the slice is part of the whole rung's peak
    assert 0 < rung["pipeline_peak_rss_mb"] <= rung["peak_rss_mb"]


def test_rungs_above_the_slice_limit_are_synthesis_only():
    assert ladder.SLICE_MAX_TOFFOLIS == 64 and ladder.SLICE_FIELDS < ladder.FIELDS
    assert ladder.rung_fields(64) == ladder.FIELDS
    assert ladder.rung_fields(65) == ladder.FIELDS - {"slice_s", "stream_bytes", "layers"}
