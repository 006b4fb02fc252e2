"""In-memory spans recorded around the benchmark's calls into tqecsynth.

A span has a name (``module.function``), start and end times from
``time.perf_counter``, the index of the span that was open when it began,
and the operation id shared by every span of one operation. Spans stay in
memory and are written out as JSON lines when the run ends.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        parent = self._open[-1] if self._open else None
        rec = Span(name, op, parent, time.perf_counter())
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def totals(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Seconds per span name over the spans recorded in ``[since, until)``."""
        out: dict[str, float] = {}
        for rec in self.spans[since:until]:
            out[rec.name] = out.get(rec.name, 0.0) + rec.seconds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    def span(self, name: str, op: int):
        return contextlib.nullcontext()
