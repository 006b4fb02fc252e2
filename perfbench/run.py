"""tqecsynth compile-time benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in a fresh Python process
with BLAS pools capped at one thread, as a closed loop with one client: each
operation starts when the previous one ends. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run. A readable summary goes to
standard error. Workloads and metrics are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-toffoli", "slice-clifford-t", "verify-oracle")

# setup_s is the median over this many fresh processes plus the measuring one.
SETUP_PROBES = 8
# Every worker is stopped by then, so that a run ends within three minutes.
RUN_LIMIT_S = 170


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("TQEC_SEED", None)
    return env


def run_worker(args: argparse.Namespace, *extra: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tqecsynth" / "__init__.py").is_file():
        print(f"error: no tqecsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, "--setup-only", deadline=deadline)["setup_s"])
    report = run_worker(args, deadline=deadline)
    metrics = report["metrics"]
    if args.trace:
        metrics.update(run_worker(args, "--peak-probe", deadline=deadline))
    else:
        metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])

    units = declared_units(args.trace)
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    unmeasured = sorted(set(units) - set(metrics))
    if unmeasured:
        raise SystemExit(f"declared metrics not measured: {unmeasured}")

    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, failed_frac={failed / attempted:.4g} (ratio), "
          f"controls: {report['controls']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}", file=sys.stderr)
    walls = " ".join(f"{w:.3f}" for w in report["pass_wall_s"])
    print(f"  {len(report['pass_wall_s'])} passes, wall seconds: {walls}", file=sys.stderr)
    if report["pass_wall_rel"]:
        rels = " ".join(f"{w:.2f}" for w in report["pass_wall_rel"])
        print(f"  relative to the speed reference: {rels}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
