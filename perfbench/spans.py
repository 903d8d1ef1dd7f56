"""In-memory spans around the benchmark's calls into torlinks, and the
per-layer figures derived from them.

A span is one timed call: name (``module.function``), start, end, parent
span, op id and a few attributes (``bytes``, ``failed``, ``replay`` and the
quality values ``residual`` and ``ratio``). Spans live in a list until the
run ends and are then written out as JSON lines.

Composite layers call public sub-functions that the benchmark cannot see
into without patching the package. The traced run therefore calls those
sub-functions again, separately, on the same inputs, and records them as
``replay`` spans whose parent is the composite span. A span's self time is
its duration minus the durations of its child spans, replayed or nested.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Layers the traced run reports, in output order, with the extra figures
#: each one carries beyond ``calls``, ``busy_s`` and ``failed``.
LAYERS = {
    "cli.gen_bundle": (),
    "cli.encode": ("bytes",),
    "cli.decode": ("self_s", "bytes"),
    "jointspec.NormalTuple": (),
    "homotopy.toral_links": ("self_s",),
    "spectral_match.isospectral_approximant": ("self_s",),
    "spectral_match.bottleneck_assign": (),
    "jointspec.joint_diagonalize": ("residual_max",),
    "matcore.gap_branch_log": (),
    "homotopy.certify": (),
    "lifting.lifted_links": ("self_s",),
    "softtorus.bott_index": (),
    "ncrel.membership": (),
}

UNITS = {
    "calls": "calls/op",
    "busy_s": "s/op",
    "self_s": "s/op",
    "failed": "count",
    "bytes": "B/op",
    "residual_max": "norm",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    out = {}
    for layer, extra in LAYERS.items():
        for figure in ("calls", "busy_s", "failed") + extra:
            out[f"{layer}.{figure}"] = UNITS[figure]
    out["spectral_match.bottleneck_over_delta"] = "ratio"
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    """Records spans; ``op`` is the id of the traced op in progress."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self.aside_s = 0.0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Time the enclosed block. Without ``parent`` the innermost open
        span is the parent. The yielded record takes extra attributes; an
        exception escaping the block marks it failed."""
        if parent is None and self._open:
            parent = self._open[-1]
        rec = {"id": len(self.spans), "name": name, "op": self.op, "parent": parent}
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except Exception:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; returns (result, span)."""
        with self.span(name) as rec:
            return fn(*args, **kwargs), rec

    def replay(self, name: str, parent: dict, fn, *args, **kwargs):
        """A sub-call of the composite span ``parent``, timed on its own."""
        with self.span(name, parent=parent["id"], replay=True) as rec:
            return fn(*args, **kwargs), rec

    @contextmanager
    def aside(self):
        """Time spent in the block (replays) is not part of the op's time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.aside_s += time.perf_counter() - start

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict], traced_ops: int) -> dict:
    """Per-layer figures, normalized per traced op where they are rates."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    per_op = 1.0 / max(traced_ops, 1)
    out = {}
    for layer, extra in LAYERS.items():
        mine = [s for s in spans if s["name"] == layer]
        busy = sum(s["end"] - s["start"] for s in mine)
        out[f"{layer}.calls"] = len(mine) * per_op
        out[f"{layer}.busy_s"] = busy * per_op
        out[f"{layer}.failed"] = sum(1 for s in mine if s.get("failed"))
        if "self_s" in extra:
            children = sum(child_time.get(s["id"], 0.0) for s in mine)
            out[f"{layer}.self_s"] = (busy - children) * per_op
        if "bytes" in extra:
            out[f"{layer}.bytes"] = sum(s.get("bytes", 0) for s in mine) * per_op
        if "residual_max" in extra:
            out[f"{layer}.residual_max"] = max((s.get("residual", 0.0) for s in mine), default=0.0)
    out["spectral_match.bottleneck_over_delta"] = max(
        (s["ratio"] for s in spans if "ratio" in s), default=0.0
    )
    return out
