"""In-memory span recorder for the traced benchmark run.

A span is one call from the benchmark into a library module: its name,
start and end (``time.perf_counter`` seconds), the index of the enclosing
span and the id of the op it belongs to.  Spans stay in memory and are
written out once, when the run ends.  The untraced run uses
``NullRecorder``, whose spans record nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

ROOT_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Recorder:
    """Collects spans; ``span(name)`` nests under the innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, op_id: int):
        """The root span of one op; every span opened inside carries ``op_id``."""
        self._op = op_id
        with self.span(ROOT_SPAN):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), float("nan"), parent, self._op)
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullRecorder:
    """Recorder for the untraced run: spans cost one call and store nothing."""

    _null = nullcontext()

    def op(self, op_id: int):
        return self._null

    def span(self, name: str):
        return self._null


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def per_op(spans: list[Span]) -> dict[int, dict[str, tuple[float, int]]]:
    """For each op id, every span name's summed self time and call count."""
    out: dict[int, dict[str, tuple[float, int]]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        names = out.setdefault(s.op, {})
        total, calls = names.get(s.name, (0.0, 0))
        names[s.name] = (total + self_s, calls + 1)
    return out
