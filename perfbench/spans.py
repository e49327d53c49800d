"""Spans and counts recorded by the benchmark around calls into the package.

A span is (name, start, end, parent); a layer's self time is its span's
duration minus the part of that interval its child spans cover. Spans stay
in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = {"name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def merge(self, other: dict) -> None:
        """Adopt the spans and counts of a tracer dumped by ``as_dict``
        (e.g. one that ran in a subprocess) as children of the open span."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for s in other["spans"]:
            p = parent if s["parent"] is None else s["parent"] + base
            self.spans.append({**s, "parent": p})
        for k, v in other["counts"].items():
            self.count(k, v)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover
        (children of one span run one after another in this tracer)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child_s):
            out[s["name"]] += s["end"] - s["start"] - c
        return dict(out)

    def as_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write(self, path, extra: dict | None = None) -> None:
        summary = {
            name: {"n": sum(1 for s in self.spans if s["name"] == name),
                   "total_s": self.total(name), "self_s": self_s}
            for name, self_s in self.self_times().items()
        }
        with open(path, "w") as f:
            json.dump({"summary": summary, **self.as_dict(), **(extra or {})}, f, indent=1)
