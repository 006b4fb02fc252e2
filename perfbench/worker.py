"""Run one workload in this (fresh, single-threaded) process and print one JSON line.

Modes:
  default        measure untraced passes for --seconds; end-to-end metrics
  --trace 1      alternate untraced and traced passes; per-layer metrics
  --setup-only   set up, report setup_s, exit
  --peak-probe   per-layer metrics that need a process of their own

Started by run.py, which caps BLAS pools at one thread in the environment.
Peak-memory figures come from ``ru_maxrss``, which a process inherits
across fork and exec, so workers are started from run.py's small process.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speedref
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run always makes this many passes, so that byte-identical output across
# two runs in one process is checked even when one pass outlasts --seconds.
MIN_PASSES = 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="time.monotonic() when the parent spawned us")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--peak-probe", action="store_true")
    return parser.parse_args(argv)


def import_tqecsynth():
    sys.path.insert(0, str(SRC))
    import tqecsynth
    if Path(tqecsynth.__file__).resolve().parent != SRC / "tqecsynth":
        raise SystemExit(f"tqecsynth imported from {tqecsynth.__file__}, not {SRC}")


def judge(work, res, reference: dict | None) -> dict:
    """Check a pass's outputs: fully on the first pass, by digest afterwards."""
    if reference is None:
        work.check_outputs(res)
        return dict(res.digests)
    for key, digest in res.digests.items():
        if reference.get(key) != digest:
            res.fail(key, "output differs from the first pass's")
    return reference


def measure(work, seconds: float) -> list:
    """Untraced closed loop: one pass after another until --seconds is used.

    The speed reference is sampled all through each pass (see speedref).
    Like ``traced``, it stops where the run ends nearest to --seconds.
    """
    untraced = NullTracer()
    passes = []
    durations = []
    reference = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with speedref.Sampler() as sampler:
            res = work.run_pass(untraced)
        res.wall_rel = sampler.relative(res.wall_s)
        reference = judge(work, res, reference)
        passes.append(res)
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) / 2 > seconds:
            return passes


def traced(work, seconds: float, spans_path: Path) -> tuple[list, dict]:
    """Pairs of one untraced and one traced pass plus replay and probe, until --seconds is used."""
    import workloads as wl
    untraced = NullTracer()
    tracer = Tracer()
    probe = work.probe()
    passes = []
    samples: list[dict] = []
    durations = []
    reference = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain = work.run_pass(untraced)
        reference = judge(work, plain, reference)
        mark = len(tracer.spans)
        with tracer.span("pass", work.next_op()):
            res = work.run_pass(tracer)
        reference = judge(work, res, reference)
        op = work.next_op()
        with tracer.span("replay", op):
            counts = res.attempt("replay", lambda: work.replay(tracer, op))
        probe_mark = len(tracer.spans)
        op = work.next_op()
        with tracer.span("probe", op):
            probe_counts = res.attempt("probe", lambda: probe.run(tracer, op, work.probe_layers))
        if counts is not None and probe_counts is not None:
            layer = wl.layer_metrics(tracer.totals(mark, probe_mark), counts)
            probed = wl.layer_metrics(tracer.totals(probe_mark), probe_counts)
            for group in work.probe_layers:
                layer.update({k: probed[k] for k in wl.PROBE_METRICS[group]})
            layer["trace.wall_ratio"] = res.wall_s / plain.wall_s
            samples.append(layer)
        passes += [plain, res]
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) / 2 > seconds:
            break
    tracer.write(spans_path)
    names = sorted({k for s in samples for k in s})
    return passes, {k: statistics.median(s[k] for s in samples if k in s) for k in names}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_tqecsynth()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        work = wl.WORKLOADS[args.workload](args.seed, tmp)
        if args.peak_probe:
            print(json.dumps(work.peak_probe()))
            return 0
        work.warm_up()
        speedref.snippet()
        setup_s = time.monotonic() - args.t0 if args.t0 is not None else None
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            passes, metrics = traced(work, args.seconds, spans)
        else:
            passes = measure(work, args.seconds)
            metrics = {
                "wall_rel": statistics.median(p.wall_rel for p in passes),
                "setup_s": setup_s,
                "peak_rss_mb": wl.peak_rss_mb(),
                "output_mb": statistics.median(p.out_bytes for p in passes) / 1e6,
                "volume_units": work.volume,
            }
        controls = wl.run_controls(tmp, args.seed)
        failures = [f"{label}: {msg}" for p in passes + [controls]
                    for label, msg in p.failed.items()]
        for line in failures[:20]:
            print(f"check failed: {line}", file=sys.stderr)
        print(json.dumps({
            "attempted": sum(len(p.ops) for p in passes + [controls]),
            "failed": len(failures),
            "controls": "failed" if controls.failed else "pass",
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_wall_rel": [p.wall_rel for p in passes if p.wall_rel],
            "metrics": {k: v for k, v in metrics.items() if v is not None},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
