"""Pin the bytes of every output of a fixed CLI run matrix: check them, or re-record them.

The matrix runs each source, every ``circuits/*.tq`` and the benchmark's
4-Toffoli circuit ``perfbench.workloads.toffoli_source(random.Random(101), 4, 6)``,
at (success rate, seed) (1.0, 0), (0.8, 53) and (0.9, 1), spare epsilon
1e-6, through ``synth`` (json, obj and csv in one call), ``metrics`` and
``slice``; and each source once through ``verify``. Every call runs in this
process through ``tqecsynth.cli.main``. An output is pinned by its call's
exit code, its sha256 and its length. ``verify`` is pinned by its exit code
and ``pass`` alone: its infidelities are BLAS floats, which may differ in
their last bits across platforms.

Usage: ``python tools/digests.py`` compares the outputs with
``tests/output_digests.json`` and exits 1 naming each one that differs;
``python tools/digests.py --write`` re-records that file.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "output_digests.json"
CONFIGS = [("1.0", "0"), ("0.8", "53"), ("0.9", "1")]
FORMATS = ["json", "obj", "csv"]


class HashSink:
    """A binary sink that keeps the sha256 and length of what is written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.bytes = 0

    def write(self, data) -> int:
        self.sha.update(data)
        self.bytes += len(data)
        return len(data)

    def record(self, code: int) -> dict:
        return {"exit": code, "sha256": self.sha.hexdigest(), "bytes": self.bytes}


def file_record(path: Path, code: int) -> dict:
    sink = HashSink()
    sink.write(path.read_bytes())
    return sink.record(code)


def sources() -> dict[str, str]:
    """Each source of the matrix by name."""
    sys.path[:0] = [str(ROOT / "perfbench")]
    try:
        from workloads import toffoli_source
    finally:
        del sys.path[0]
    named = {path.stem: path.read_text() for path in sorted((ROOT / "circuits").glob("*.tq"))}
    named["toffoli4"] = toffoli_source(random.Random(101), 4, 6)
    return named


def run(argv: list[str]) -> tuple[int, HashSink]:
    """``tqecsynth ARGV`` in this process, with its stdout hashed and its stderr dropped."""
    from tqecsynth import cli

    sink = HashSink()
    with contextlib.redirect_stdout(SimpleNamespace(buffer=sink)), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, sink


def digests() -> dict[str, dict]:
    """Every output of the matrix by name, ``SOURCE RATE/SEED COMMAND[.FORMAT]``."""
    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in sources().items():
            source = Path(tmp) / f"{name}.tq"
            source.write_text(text)
            code, sink = run(["verify", str(source)])
            out[f"{name} verify"] = {"exit": code, "pass": code == 0}
            for rate, seed in CONFIGS:
                flags = [str(source), "--success-rate", rate, "--seed", seed,
                         "--spare-epsilon", "1e-6"]
                key = f"{name} {rate}/{seed}"
                stem = Path(tmp) / f"{name}-{rate}-{seed}"
                code, _ = run(["synth", *flags, "--out", str(stem),
                               *(arg for fmt in FORMATS for arg in ("--format", fmt))])
                for fmt in FORMATS:
                    path = stem.with_name(f"{stem.name}.{fmt}")
                    out[f"{key} synth.{fmt}"] = file_record(path, code)
                    path.unlink()
                for command in ("metrics", "slice"):
                    code, sink = run([command, *flags])
                    out[f"{key} {command}"] = sink.record(code)
    return out


def differences(want: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """One line per output that is missing, new or different."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            lines.append(f"{name}: missing")
        elif name not in want:
            lines.append(f"{name}: not recorded")
        elif want[name] != got[name]:
            lines.append(f"{name}: recorded {want[name]}, now {got[name]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true", help=f"re-record {DIGESTS.name}")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src")]
    got = digests()
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(got)} outputs in {DIGESTS}")
        return 0
    lines = differences(json.loads(DIGESTS.read_text()), got)
    print("\n".join(lines) or f"all {len(got)} outputs match {DIGESTS}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
