"""Read a circuit's synth document and slice stream back with the benchmark's checks.

The checks in ``perfbench/checks.py`` do not rest on the compiler's own
verdicts: ``check_document`` rebuilds parity, the routes, the volume and
every CNOT loop from the JSON document (each loop must encircle exactly
the inner strands live at its t), and ``check_layer_stream`` reads the
JSON lines back against the geometry. Both outputs must come from the
default settings, ``tqecsynth synth SOURCE --format json`` and
``tqecsynth slice SOURCE``, because the stream check compares against
``run_pipeline(SOURCE)``.

Usage: ``python tools/readback.py SOURCE DOCUMENT STREAM``. It prints each
failure and exits 1 if there is one.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readback(source: Path, document: Path, stream: Path) -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import checks
    from tqecsynth.pipeline import run_pipeline

    geometry = run_pipeline(source.read_text(encoding="utf-8")).geometry
    doc = json.loads(document.read_text(encoding="utf-8"))
    return (checks.check_document(doc)
            + checks.check_layer_stream(stream, geometry, seed=0))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        print("usage: python tools/readback.py SOURCE DOCUMENT STREAM", file=sys.stderr)
        return 2
    problems = readback(*map(Path, args))
    for message in problems:
        print(f"{args[0]}: {message}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
