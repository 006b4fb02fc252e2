"""Time the Toffoli ladder: synthesis, slicing, stream size and peak memory per rung.

Each rung is the benchmark's generated circuit
``perfbench.workloads.toffoli_source(random.Random(1), n, 6)``, compiled
at success rate 0.9, seed 1 and spare epsilon 1e-6. A rung runs in a child
process whose address space is capped with ``resource.setrlimit``, so a
rung that outgrows the cap fails on its own instead of exhausting the
host. Per rung it records:

- ``run_pipeline_s``: one ``run_pipeline`` call;
- ``distance_s``: the first read of that result's ``distance``, which
  measures the code distance (``run_pipeline`` leaves it to that read), so
  ``run_pipeline_s + distance_s`` is the whole synthesis with its reports;
- ``min_separation`` and ``code_distance``: that read's report;
- ``slice_s``: the whole ``tqecsynth slice SOURCE`` command, pipeline
  included, as the CLI runs it, with its stdout replaced by a sink that
  counts the bytes it is handed and keeps none;
- ``pipeline_peak_rss_mb``: the child's peak resident set after
  ``run_pipeline`` and the distance read, before the document and the
  slice;
- ``document_s`` and ``document_bytes``: writing the JSON document of that
  result, as ``synth --format json`` writes it (with Python's cyclic
  garbage collector paused), to a sink that counts the bytes it is handed
  and keeps none, and that byte count;
- ``peak_rss_mb``: the child's peak resident set after all of these, so
  ``peak_rss_mb - pipeline_peak_rss_mb`` is what the document and the
  slice add; the rung's own result is dropped before the slice, which
  holds one pipeline result, as ``tqecsynth slice`` does;
- ``stream_bytes`` and ``layers``: the size of that slice stream, as the
  sink counted it, and its layer count.

A rung above ``SLICE_MAX_TOFFOLIS`` is synthesis only: it skips the slice
(whose stream is 3.96 GB at 64 Toffolis) and reports neither ``slice_s``
nor ``stream_bytes`` nor ``layers``.

Usage: ``python tools/ladder.py [RUNG ...]`` (default rungs 1 4 16). It
prints one JSON document, and exits 1 if a rung failed or lacks a field.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ["--success-rate", "0.9", "--seed", "1", "--spare-epsilon", "1e-6"]
ADDRESS_SPACE_CAP = 4 * 2**30   # bytes per rung
RUNG_TIMEOUT_S = 600
SLICE_MAX_TOFFOLIS = 64
# What a rung reports; one above SLICE_MAX_TOFFOLIS lacks SLICE_FIELDS.
FIELDS = {"toffolis", "run_pipeline_s", "distance_s", "min_separation", "code_distance",
          "document_s", "document_bytes", "slice_s", "pipeline_peak_rss_mb", "peak_rss_mb",
          "stream_bytes", "layers"}
SLICE_FIELDS = {"slice_s", "stream_bytes", "layers"}


def rung_fields(toffolis: int) -> set[str]:
    """The fields a rung of ``toffolis`` Toffolis must report."""
    return FIELDS if toffolis <= SLICE_MAX_TOFFOLIS else FIELDS - SLICE_FIELDS


class ByteCount:
    """A binary sink that counts the bytes written to it."""

    def __init__(self) -> None:
        self.bytes = 0

    def write(self, data) -> int:
        self.bytes += len(data)
        return len(data)


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(toffolis: int) -> dict:
    """One rung, in this process; call it from a child under the address-space cap."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from tqecsynth import cli, pipeline
    from tqecsynth.analysis import lattice_cells
    from tqecsynth.document import document_pieces
    from tqecsynth.geometry import collector_paused
    from workloads import toffoli_source

    source = toffoli_source(random.Random(1), toffolis, 6)
    config = pipeline.PipelineConfig(
        success_rate=0.9, seed=1, spares=pipeline.SparePolicy("binomial", epsilon=1e-6))
    start = time.perf_counter()
    result = pipeline.run_pipeline(source, config)
    run_s = time.perf_counter() - start
    start = time.perf_counter()
    report = result.distance  # measured on its first read
    distance_s = time.perf_counter() - start
    pipeline_peak_mb = peak_rss_mb()

    document = ByteCount()
    start = time.perf_counter()
    with collector_paused():   # as synth writes it, inside cli.main's pause
        cli._write_runs(document, document_pieces(result))
    document_s = time.perf_counter() - start
    rung = {"toffolis": toffolis, "run_pipeline_s": round(run_s, 3),
            "distance_s": round(distance_s, 3), "min_separation": report.min_separation,
            "code_distance": report.code_distance, "document_s": round(document_s, 3),
            "document_bytes": document.bytes,
            "pipeline_peak_rss_mb": round(pipeline_peak_mb, 1)}
    if toffolis > SLICE_MAX_TOFFOLIS:
        return rung | {"peak_rss_mb": round(peak_rss_mb(), 1)}

    # the slice runs its own pipeline, as `tqecsynth slice` does: this
    # result is dropped first, so the peak counts one pipeline result
    layers = 2 * lattice_cells(result.bbox)[2] - 1
    del result, report
    sink = ByteCount()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"toffoli{toffolis}.tq"
        path.write_text(source)
        start = time.perf_counter()
        with contextlib.redirect_stdout(SimpleNamespace(buffer=sink)):
            code = cli.main(["slice", str(path), *FLAGS])
        slice_s = time.perf_counter() - start
    if code != cli.EXIT_OK:
        raise RuntimeError(f"tqecsynth slice exited {code}")

    return rung | {"slice_s": round(slice_s, 3), "peak_rss_mb": round(peak_rss_mb(), 1),
                   "stream_bytes": sink.bytes, "layers": layers}


def run_rung(toffolis: int) -> dict:
    """``measure`` in a capped child process; a failed rung reports its error."""
    try:
        proc = subprocess.run([sys.executable, __file__, "--child", str(toffolis)],
                              capture_output=True, text=True, timeout=RUNG_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"toffolis": toffolis, "error": f"timed out after {RUNG_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
        return {"toffolis": toffolis, "error": tail}
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rungs", type=int, nargs="*", default=[1, 4, 16],
                        help="Toffoli counts to run")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
        print(json.dumps(measure(args.child)))
        return 0

    doc = {
        "circuit": "perfbench.workloads.toffoli_source(random.Random(1), n, 6)",
        "flags": FLAGS,
        "address_space_cap_mb": ADDRESS_SPACE_CAP // 2**20,
        "rungs": [run_rung(n) for n in args.rungs],
    }
    print(json.dumps(doc, indent=2))
    whole = all("error" not in rung and rung_fields(rung["toffolis"]) <= rung.keys()
                for rung in doc["rungs"])
    return 0 if whole else 1


if __name__ == "__main__":
    sys.exit(main())
