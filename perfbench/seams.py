"""Outside-in per-layer tracing of the repro package.

The tracer times calls into each layer by temporarily replacing the
names the *callers* bind (``repro.workloads.exec.merge_programs``,
``repro.service.exec.run_async_vectorized``, ...) with thin wrappers
that record one span per call.  Nothing under ``src/`` is edited: the
original objects are put back when :meth:`Tracer.installed` exits.

A span is ``[layer, name, start, end, parent, counts]``, where
``parent`` is the index of the enclosing span (-1 at the top).  Spans stay in
memory; the caller writes them out once, when the benchmark ends.  A
layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children, so nested layers (lowering
inside the per-job split, routing inside the admission loop) are
never counted twice.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# (layer, module, attribute): every binding a caller looks up at call
# time.  Module-level ``from x import f`` copies are separate bindings,
# so a function bound in two caller modules appears twice.
SEAMS: tuple[tuple[str, str, str], ...] = (
    ("routing", "repro.collectives.api", "collective_schedule"),
    ("routing", "repro.service.scheduler", "collective_schedule"),
    ("sync", "repro.collectives.api", "run_synchronous"),
    ("lower", "repro.service.exec", "lower_schedule"),
    ("lower", "repro.sim.vectorized", "lower_schedule"),
    ("merge", "repro.service.scheduler", "merge_programs"),
    ("merge", "repro.workloads.exec", "merge_programs"),
    ("untag", "repro.service.exec", "untag_holdings"),
    ("untag", "repro.workloads.exec", "untag_holdings"),
    ("engine", "repro.service.exec", "run_async_vectorized"),
    ("engine", "repro.sim.vectorized", "run_async_vectorized"),
    ("engine", "repro.sim.engine", "run_async"),
    ("split", "repro.service.scheduler", "execute_program"),
    ("split", "repro.workloads.exec", "execute_program"),
    ("check", "repro.service.scheduler", "check_delivery"),
    ("check", "repro.workloads.exec", "check_delivery"),
    ("loop", "repro.service", "run_service"),
    ("loop", "repro.workloads", "run_workload"),
    ("sweep", "repro.experiments.figures", "run_sweep"),
)

# the routing generators are whatever repro.collectives.api imported
# from repro.routing; discovered at install time so a renamed or added
# generator is still timed
_ROUTING_CALLER = "repro.collectives.api"


def _lowered_counts(out: Any) -> dict[str, int]:
    return {
        "transfers": int(out.n_transfers),
        "slots": int(out.n_slots),
        "table_bytes": int(out.table_bytes),
    }


def _merged_counts(out: Any) -> dict[str, int]:
    return {"transfers": len(out.owners)}


def _sweep_counts(out: Any) -> dict[str, int]:
    return {"points": len(out.values)}


# per-layer work counts read off a seam's return value
_COUNTS: dict[str, Callable[[Any], dict[str, int]]] = {
    "lower": _lowered_counts,
    "merge": _merged_counts,
    "sweep": _sweep_counts,
}


class Tracer:
    """Span recorder plus the seam wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counts_of = _COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counts_of is not None:
                span[5] = counts_of(out)
            return out

        return traced

    def _bindings(self) -> list[tuple[str, Any, str]]:
        found: list[tuple[str, Any, str]] = []
        for layer, module_name, attr in SEAMS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                found.append((layer, module, attr))
            else:
                self.missing.append(f"{module_name}.{attr}")
        api = importlib.import_module(_ROUTING_CALLER)
        for attr, obj in sorted(vars(api).items()):
            if callable(obj) and getattr(obj, "__module__", "").startswith(
                "repro.routing"
            ):
                found.append(("routing", api, attr))
        return found

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every seam for the duration of the block, then restore."""
        saved: list[tuple[Any, str, Any]] = []
        self.missing.clear()
        try:
            for layer, module, attr in self._bindings():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                name = f"{module.__name__}.{attr}"
                setattr(module, attr, self._wrap(layer, name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack.clear()


def layer_totals(spans: list[list], first: int) -> dict[str, dict[str, float]]:
    """Per-layer self seconds, entries and summed counts of one run.

    ``spans`` is the tracer's whole list and ``first`` the index of the
    run's first span (parents are absolute indexes).  ``calls`` counts
    entries into a layer: spans whose parent is in another layer.
    """
    child_time = [0.0] * (len(spans) - first)
    for i in range(first, len(spans)):
        _, _, start, end, parent, _ = spans[i]
        if parent >= first:
            child_time[parent - first] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i in range(first, len(spans)):
        layer, _, start, end, parent, counts = spans[i]
        t = totals.setdefault(layer, {"s": 0.0, "calls": 0})
        t["s"] += (end - start) - child_time[i - first]
        if parent < first or spans[parent][0] != layer:
            t["calls"] += 1
        for key, value in counts.items():
            if key == "table_bytes":
                t[key] = max(t.get(key, 0), value)
            else:
                t[key] = t.get(key, 0) + value
        if layer == "merge":
            t["last_transfers"] = counts.get("transfers", 0)
    return totals
