"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, question). The layer is the part of the
name before the first dot. Spans are kept in memory and written out once,
when the run ends. With tracing off, `span()` returns a shared no-op context
and records nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> int:
        self.tracer.spans[self.index]["start"] = time.perf_counter()
        self.tracer._stack.append(self.index)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, question: str):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": 0.0, "end": 0.0, "parent": parent, "question": question})
        return _Span(self, len(self.spans) - 1)

    def add(self, name: str, start: float, end: float, parent: int | None, question: str) -> None:
        """Record a span measured elsewhere, such as a stub job from the run log."""
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "question": question})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n", encoding="utf-8")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            children.setdefault(s["parent"], []).append(
                (max(s["start"], p["start"]), min(s["end"], p["end"]))
            )
    return [
        (s["end"] - s["start"]) - _union(children.get(i, []))
        for i, s in enumerate(spans)
    ]


def _by_group(spans: list[dict], values: list[float], key) -> dict[str, dict[str, float]]:
    """{question: {key(span): summed value}}."""
    out: dict[str, dict[str, float]] = {}
    for s, v in zip(spans, values):
        bucket = out.setdefault(s["question"], {})
        k = key(s)
        bucket[k] = bucket.get(k, 0.0) + v
    return out


def span_seconds(spans: list[dict], questions: list[str]) -> dict[str, float]:
    """Median per span name of its summed duration in each group that has it.

    Groups are the timed questions when the name occurs in one; otherwise
    (set-up and probe calls) every group that has it.
    """
    groups = _by_group(spans, [s["end"] - s["start"] for s in spans], lambda s: s["name"])
    names = {s["name"] for s in spans}
    out = {}
    for name in names:
        in_q = [groups[q][name] for q in questions if name in groups.get(q, {})]
        vals = in_q or [g[name] for g in groups.values() if name in g]
        out[name] = statistics.median(vals)
    return out


def layer_self_seconds(spans: list[dict], questions: list[str]) -> dict[str, float]:
    """Median over the timed questions of each layer's summed self time."""
    groups = _by_group(spans, self_times(spans), lambda s: s["name"].split(".", 1)[0])
    layers = {layer for q in questions for layer in groups.get(q, {})}
    return {
        layer: statistics.median(groups.get(q, {}).get(layer, 0.0) for q in questions)
        for layer in layers
    }
