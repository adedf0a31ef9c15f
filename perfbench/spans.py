"""In-memory spans around the benchmark's calls into romcomp's layers.

A span records its name, start, end, parent span and op id, plus the work
counts attached at the same boundary.  Spans stay in memory until the run
ends; ``layer_summary`` then turns them into per-layer self time, calls and
counts.  With tracing off, ``call`` runs the function and records nothing.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None, "op": self.op_id,
            "counts": {},
        })
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[self._open.pop()]["end"] = time.perf_counter()

    def add(self, counter: str, amount_of, *args) -> None:
        """Attach ``amount_of(*args)`` to the span that ended last.

        The amount is computed only when tracing, so counting costs the
        untraced run nothing.
        """
        if self.enabled:
            counts = self.spans[-1]["counts"]
            counts[counter] = counts.get(counter, 0) + amount_of(*args)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children of one parent run back to back on one thread, so that part is
    the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_summary(spans: list[dict], scales: dict[int, float]) -> dict[str, float]:
    """``<name>.s`` (summed self time), ``<name>.calls`` and summed counts.

    Each span's self time is multiplied by ``scales[op id]``, the speed
    correction of the op it belongs to.
    """
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        out[name + ".s"] = out.get(name + ".s", 0.0) + own * scales[span["op"]]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        for counter, amount in span["counts"].items():
            out[counter] = out.get(counter, 0) + amount
    return out
