"""In-memory span recorder wrapped around the library's layer entry points.

The benchmark never edits the library: a traced run replaces a fixed set
of module and class attributes with timing wrappers (:data:`TRACE_POINTS`)
for the duration of one operation and restores the originals afterwards,
so untraced operations run the pristine code.  Because the facade and the
sweep engine look these names up at call time, the wrapped path is the
exact ``SLiMFast.fit_predict`` / ``SweepRunner.run`` / ``FusionServer``
path.

A span records its name, start, end, parent span and the operation id it
shares with every other span of the same operation.  Spans stay in memory
and are written out once, when the run ends.  A span's *self time* is its
duration minus the durations of its children (children of one span run on
its thread, one after another, so they never overlap).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name).  An attribute path with a dot is a
#: method on a class; the span name's prefix (up to the last dot) is the
#: layer it belongs to.
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.slimfast", "encode_dataset", "fusion.encoding.encode_dataset"),
    ("repro.experiments.sweeps", "encode_dataset", "fusion.encoding.encode_dataset"),
    ("repro.fusion.encoding", "DenseEncoding.design", "fusion.encoding.design"),
    ("repro.core.slimfast", "decide", "core.optimizer.decide"),
    ("repro.experiments.sweeps", "decide", "core.optimizer.decide"),
    ("repro.core.optimizer", "estimate_average_accuracy", "core.agreement.estimate"),
    ("repro.experiments.sweeps", "estimate_average_accuracy", "core.agreement.estimate"),
    ("repro.core.agreement", "agreement_matrix", "core.agreement.matrix"),
    ("repro.core.optimizer", "em_information_units", "core.optimizer.em_units"),
    ("repro.core.em", "EMLearner.fit", "core.em.fit"),
    ("repro.core.erm", "ERMLearner.fit", "core.erm.fit"),
    ("repro.core.model", "AccuracyModel.accuracies", "core.model.accuracies"),
    ("repro.core.slimfast", "build_pair_structure", "core.structure.build"),
    ("repro.experiments.sweeps", "build_pair_structure", "core.structure.build"),
    ("repro.core.slimfast", "posterior_rows", "core.inference.posterior_rows"),
    ("repro.experiments.sweeps", "posterior_rows", "core.inference.posterior_rows"),
    ("repro.fusion.result", "FusionResult.from_rows", "fusion.result.from_rows"),
    ("repro.experiments.sweeps", "SweepRunner.run", "experiments.sweeps.run"),
    ("repro.serve.server", "FusionServer.append", "extensions.streaming.append"),
    ("repro.serve.server", "FusionServer.publish", "serve.snapshot.publish"),
)


@dataclass
class Span:
    """One timed call: ``[start, end)`` in ``time.perf_counter`` seconds."""

    span_id: int
    name: str
    op_id: int
    parent: Optional[int]
    start: float
    end: float = float("nan")
    thread: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "op": self.op_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
        }


class Tracer:
    """Collects spans; hands out operation ids; patches trace points.

    One tracer serves every thread of the process: each thread keeps its
    own stack of open spans (for parent links), while the operation id is
    shared, so spans the writer thread records during a serving round
    belong to that round.  ``hooks`` maps a span name to a callback
    ``hook(tracer, args, kwargs, result)`` run after the call returns, used
    to record counts at the same boundary (e.g. the agreement join size).
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.hooks = dict(hooks or {})
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            op_id=self.op_id,
            parent=stack[-1].span_id if stack else None,
            start=time.perf_counter(),
            thread=threading.current_thread().name,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a per-operation counter."""
        with self._lock:
            self.counts[(self.op_id, name)] += amount

    def begin_operation(self, op_id: int) -> None:
        self.op_id = op_id

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every trace point for the duration of the block."""
        restore = []
        try:
            for module_name, path, name in TRACE_POINTS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name))
                else:
                    patched = self.wrap(raw, name)
                restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[Tuple[int, str], float]:
        """Per (operation, span name) total self time in seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[Tuple[int, str], float] = defaultdict(float)
        for span in self.spans:
            totals[(span.op_id, span.name)] += span.duration - child_time[span.span_id]
        return totals

    def durations(self, name: str) -> np.ndarray:
        """Every recorded duration of spans called ``name``."""
        return np.asarray([s.duration for s in self.spans if s.name == name], dtype=float)

    def calls(self, name: str) -> Dict[int, int]:
        """Per-operation count of spans called ``name``."""
        out: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.name == name:
                out[span.op_id] += 1
        return dict(out)

    def op_durations(self, name: str, parent: Optional[str] = None) -> Dict[int, float]:
        """Per-operation summed duration of spans called ``name``
        (only those whose parent span is called ``parent``, if given)."""
        names = {span.span_id: span.name for span in self.spans}
        out: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name and (parent is None or names.get(span.parent) == parent):
                out[span.op_id] += span.duration
        return dict(out)


def span_cost(calls: int = 2000) -> float:
    """Seconds one traced call adds over a bare call (median of 5 batches)."""

    def noop():
        return None

    samples = []
    for _ in range(5):
        traced = Tracer().wrap(noop, "calibration")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - start - bare) / calls)
    return float(np.median(samples))


def self_time_table(tracer: Tracer, ops: List[int]) -> List[dict]:
    """Rows of (span name, calls, median per-op self time, share).

    The share is of the operation's traced time: the summed duration of
    its root spans, so the shares of one workload add up to 100%.
    """
    totals = tracer.self_times()
    calls: Dict[str, int] = defaultdict(int)
    traced: Dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        if span.op_id in ops:
            calls[span.name] += 1
            if span.parent is None:
                traced[span.op_id] += span.duration
    rows = []
    for name in sorted(calls):
        per_op = [totals.get((op, name), 0.0) for op in ops]
        shares = [totals.get((op, name), 0.0) / traced[op] for op in ops if traced[op] > 0]
        rows.append(
            {
                "span": name,
                "calls": calls[name],
                "self_s_median": float(np.median(per_op)),
                "share_median": float(np.median(shares)) if shares else 0.0,
            }
        )
    return rows
