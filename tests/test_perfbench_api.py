"""The benchmark's traced replay re-runs run_pipeline's stages one by one.

It calls the scheduling API directly and cross-checks placement, routing,
distance and volume against run_pipeline, so these tests run it unchanged.
"""
import random
import sys
from pathlib import Path

import pytest

from tqecsynth.pipeline import PipelineConfig, SparePolicy

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

CASES = [
    (path.name, path.read_text(), rate, seed)
    for path in sorted((ROOT / "circuits").glob("*.tq"))
    for rate, seed in ((1.0, 0), (0.8, 53))
] + [("4 toffolis", workloads.toffoli_source(random.Random(1), 4, 6), 0.9, 1)]


@pytest.mark.parametrize("name,source,rate,seed", CASES, ids=[
    f"{name}@{rate},{seed}" for name, _, rate, seed in CASES])
def test_replay_pipeline_matches_run_pipeline(name, source, rate, seed):
    config = PipelineConfig(success_rate=rate, seed=seed,
                            spares=SparePolicy("binomial", epsilon=1e-6))
    result, _ = workloads.replay_pipeline(workloads.UNTRACED, 0, source, config)
    # the replay re-places schedules[1:] row by row against the initial schedule
    if result.schedules:
        initial, *rows = result.schedules
        assert not any(b.spare for b in initial.boxes)
        for row in rows:
            assert row.boxes and all(b.spare and b.state is row.boxes[0].state
                                     for b in row.boxes)
