"""Read a circuit's synth document, slice stream and OBJ back with independent checks.

The checks in ``perfbench/checks.py`` do not rest on the compiler's own
verdicts: ``check_document`` rebuilds parity, the routes, the volume and
every CNOT loop from the JSON document (each loop must encircle exactly
the inner strands live at its t), and ``check_layer_stream`` reads the
JSON lines back against the geometry. ``check_obj`` reads the OBJ back
against the JSON document without ``document.export_obj``: one cuboid per
segment (defects, then connections) and per box, in that order, each
named for it, with the eight corners of its extent widened by one unit,
and six faces that each resolve to one whole side of their own cuboid.
The outputs must come from the default settings, ``tqecsynth synth SOURCE
--format json --format obj`` and ``tqecsynth slice SOURCE``, because the
stream check compares against ``run_pipeline(SOURCE)``.

Usage: ``python tools/readback.py SOURCE DOCUMENT STREAM OBJ``. It prints
each failure and exits 1 if there is one.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def _document_cuboids(doc: dict) -> Iterator[tuple[str, list[int], list[int]]]:
    """Each cuboid the OBJ must hold, in order: its name and its lowest and highest point."""
    segments = [s for d in doc["defects"] for s in d["segments"]]
    segments += [s for c in doc["connections"] for s in c["segments"]]
    for n, seg in enumerate(segments):
        yield (f"segment_{n}_{seg['kind']}", list(map(min, seg["a"], seg["b"])),
               list(map(max, seg["a"], seg["b"])))
    for n, box in enumerate(doc["boxes"]):
        lo = box["origin"]
        yield (f"box_{n}_{box['state']}", lo,
               [lo[k] + 2 * (box["spans"][k] - 1) for k in range(3)])


def _read_obj(data: str) -> list[tuple[str, list[tuple[int, ...]], list[list[int]]]]:
    """Each object's name, vertices and faces; a face is a list of indices into its vertices.

    Absolute (1-based) and relative (negative) indices are both resolved.
    Raises ``ValueError`` on a line it cannot read, index 0, an index
    outside the vertices written so far, or a face that names a vertex of
    another object.
    """
    objects: list[tuple[str, list, list]] = []
    count = 0
    for n, line in enumerate(data.splitlines(), 1):
        tag, *fields = line.split() or [""]
        if tag == "o" and len(fields) == 1:
            objects.append((fields[0], [], []))
        elif tag == "v" and len(fields) == 3 and objects:
            objects[-1][1].append(tuple(map(int, fields)))
            count += 1
        elif tag == "f" and len(fields) >= 3 and objects:
            first = count - len(objects[-1][1])
            face = []
            for k in map(int, fields):
                if k == 0 or not -count <= k <= count:
                    raise ValueError(f"line {n}: vertex index {k} is out of range")
                k = k - 1 if k > 0 else count + k
                if k < first:
                    raise ValueError(f"line {n}: face names vertex {k + 1} of an earlier object")
                face.append(k - first)
            objects[-1][2].append(face)
        elif tag:
            raise ValueError(f"line {n}: cannot read {line!r}")
    return objects


def check_obj(doc: dict, data: str) -> list[str]:
    """Failures of the OBJ ``data`` against the JSON document ``doc``."""
    want = list(_document_cuboids(doc))
    try:
        got = _read_obj(data)
    except ValueError as exc:
        return [f"obj: {exc}"]
    if len(got) != len(want):
        return [f"obj has {len(got)} cuboids, the document {len(want)} segments and boxes"]
    problems = []
    for (name, lo, hi), (got_name, vertices, faces) in zip(want, got):
        if got_name != name:
            problems.append(f"obj cuboid {got_name!r} stands where {name!r} should")
            continue
        corners = list(itertools.product(*((a - 1, b + 1) for a, b in zip(lo, hi))))
        if sorted(vertices) != corners:
            problems.append(f"obj {name}: corners {vertices} are not {corners}")
            continue
        sides = set()
        for face in faces:
            points = {vertices[k] for k in face}
            shared = [(ax, x) for ax, x in enumerate(next(iter(points)))
                      if all(p[ax] == x for p in points)]
            if len(face) == len(points) == 4 and len(shared) == 1:
                sides.add(shared[0])
        if len(faces) != 6 or len(sides) != 6:
            problems.append(f"obj {name}: its {len(faces)} faces do not cover its six sides")
    return problems


def readback(source: Path, document: Path, stream: Path, obj: Path) -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import checks
    from tqecsynth.pipeline import run_pipeline

    geometry = run_pipeline(source.read_text(encoding="utf-8")).geometry
    doc = json.loads(document.read_text(encoding="utf-8"))
    return (checks.check_document(doc)
            + checks.check_layer_stream(stream, geometry, seed=0)
            + check_obj(doc, obj.read_text(encoding="ascii")))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 4:
        print("usage: python tools/readback.py SOURCE DOCUMENT STREAM OBJ", file=sys.stderr)
        return 2
    problems = readback(*map(Path, args))
    for message in problems:
        print(f"{args[0]}: {message}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
