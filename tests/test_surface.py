"""Every public definition in ``src/tqecsynth`` has a reader outside the tests.

Each function, class, method and property that ``src/tqecsynth/*.py``
defines at module or class level, and whose name does not start with
``_``, must appear as a NAME token somewhere other than its own definition
line: in ``src/``, ``perfbench/*.py``, ``tools/*.py`` or
``tests/test_acceptance.py``, that is in the pipeline, the CLI, the
benchmark, the tools or the acceptance criteria. A name that none of them
reads must be named in README.md, which documents the library API
(``branch_outputs``, ``random_product_state``). The other tests do not
count: an API that only they read is code kept alive by its own test.

The scan matches tokens, not bindings, so a name that is also a local
variable, a parameter or a keyword argument anywhere in those files reads
as used. A property named ``face_t`` on ``scheduling.BoxInstance`` would
go unseen this way, because ``face_t`` is a local of
``scheduling.place_boxes``.
"""
from __future__ import annotations

import ast
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "tqecsynth"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "tools").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def public_definitions(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` of each public function, class, method and property
    defined at module level or in a class body of ``path``."""
    out: list[tuple[str, int]] = []
    bodies = [ast.parse(path.read_text(), str(path)).body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.append((node.name, node.lineno))
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
    return out


def name_lines(paths: list[Path]) -> dict[str, set[tuple[Path, int]]]:
    """Each NAME token of ``paths`` with the ``(path, line)`` places it stands on."""
    out: dict[str, set[tuple[Path, int]]] = defaultdict(set)
    for path in paths:
        with tokenize.open(path) as f:
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME:
                    out[tok.string].add((path, tok.start[0]))
    return out


def unread_definitions() -> list[str]:
    """``module.name`` of each public definition nothing outside the tests reads."""
    places = name_lines(READERS)
    readme = (ROOT / "README.md").read_text()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in public_definitions(path):
            if places[name] - {(path, line)}:
                continue
            if re.search(rf"\b{re.escape(name)}\b", readme):
                continue
            unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_definition_has_a_reader():
    unread = unread_definitions()
    assert not unread, "read only by tests: " + ", ".join(unread)
