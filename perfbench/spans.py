"""Spans and counts recorded around the calls into each layer.

The benchmark wraps public methods of the program's classes from here,
outside the program: a wrapped call opens a span (name, start, end,
parent span, run id) when the recorder is enabled and is a plain call
otherwise.  Spans stay in memory until the benchmark writes them out.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.

The ``mesh`` counts come from a separate :class:`CallCounter` pass that
only counts, so the cost of counting millions of ``IntVector`` calls
never enters a timing.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

#: the root span the benchmark opens around each timed step
STEP = "step"

_PATCH_KERNELS = ("ideal_gas", "viscosity", "calc_dt", "pdv", "accelerate",
                  "flux_calc", "advec_cell", "advec_mom", "reset_field")

#: (module, class, method, span name) for every traced layer call
LAYER_CALLS = (
    ("repro.xfer.refine_schedule", "RefineSchedule", "fill", "xfer.fill"),
    ("repro.xfer.coarsen_schedule", "CoarsenSchedule", "coarsen",
     "xfer.coarsen"),
    ("repro.xfer.refine_schedule", "RefineSchedule", "__init__", "xfer.build"),
    ("repro.xfer.coarsen_schedule", "CoarsenSchedule", "__init__",
     "xfer.build"),
    ("repro.xfer.refine_schedule", "RefineSchedule", "emit_tasks",
     "xfer.emit"),
    ("repro.xfer.coarsen_schedule", "CoarsenSchedule", "emit_tasks",
     "xfer.emit"),
    ("repro.exec.batch", "LaunchBatcher", "flush", "exec.flush"),
    *(("repro.hydro.patch_integrator", "CleverleafPatchIntegrator", k,
       "hydro.call") for k in _PATCH_KERNELS),
    ("repro.regrid.regridder", "Regridder", "regrid", "regrid"),
    ("repro.regrid.regridder", "Regridder", "generate_boxes",
     "regrid.cluster"),
    ("repro.sched.driver", "StepScheduler", "advance", "sched.build"),
    ("repro.sched.executor", "GraphExecutor", "execute", "sched.execute"),
)

#: span names whose self time is reported per layer, in report order
LAYER_SPANS = tuple(dict.fromkeys(name for *_, name in LAYER_CALLS))


def _resolve(module: str, cls: str):
    return getattr(importlib.import_module(module), cls)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent (never the case for nested calls) cannot drive self time
    below zero.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
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
        out[s.id] = (s.end - s.start) - covered
    return out


class _Patcher:
    """Replaces class attributes and puts the originals back."""

    def __init__(self):
        self._saved: list = []

    def patch(self, owner, attr: str, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """In-memory span tree over the wrapped layer calls.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original methods.  Spans are recorded only while
    :attr:`enabled` is true, i.e. inside the benchmark's step spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self._open: list[list] = []   # [name, parent, start] per open span
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self._patcher = _Patcher()

    def begin(self, name: str) -> int:
        sid = len(self._open)
        parent = self._stack[-1] if self._stack else None
        self._open.append([name, parent, perf_counter()])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        t = perf_counter()
        self._stack.pop()
        name, parent, start = self._open[sid]
        self.spans.append(Span(sid, parent, name, start, t, self.run_id))

    def _wrap(self, name: str):
        rec = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not rec.enabled:
                    return original(*args, **kwargs)
                sid = rec.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    rec.end(sid)
            return traced
        return make

    def __enter__(self):
        for module, cls, attr, name in LAYER_CALLS:
            self._patcher.patch(_resolve(module, cls), attr, self._wrap(name))
        return self

    def __exit__(self, *exc):
        self.enabled = False
        self._patcher.restore()

    def summary(self) -> dict:
        """Per span name: total self and inclusive seconds, and calls."""
        own = self_times(self.spans)
        out = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        for s in self.spans:
            row = out[s.name]
            row["self_s"] += own[s.id]
            row["incl_s"] += s.end - s.start
            row["calls"] += 1
        return dict(out)


class CallCounter:
    """Counts constructions and off-rank messages; records no time."""

    def __init__(self):
        self.enabled = False
        self.counts: dict[str, int] = defaultdict(int)
        self._patcher = _Patcher()

    def _counting(self, key: str):
        def make(original):
            fn = original.__func__ if isinstance(original, staticmethod) \
                else original

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.enabled:
                    self.counts[key] += 1
                return fn(*args, **kwargs)
            return staticmethod(counted) if isinstance(
                original, staticmethod) else counted
        return make

    def _messages(self, single: bool):
        def make(original):
            @functools.wraps(original)
            def counted(comm, messages, *args, **kwargs):
                if self.enabled:
                    for m in ([messages] if single else messages):
                        if m.src != m.dst:
                            self.counts["comm.messages"] += 1
                            self.counts["comm.bytes"] += int(m.nbytes)
                return original(comm, messages, *args, **kwargs)
            return counted
        return make

    def __enter__(self):
        box = importlib.import_module("repro.mesh.box")
        comm = _resolve("repro.comm.simcomm", "SimCommunicator")
        self._patcher.patch(box.IntVector, "__new__",
                            self._counting("mesh.intvector_new"))
        self._patcher.patch(box.Box, "__init__",
                            self._counting("mesh.box_new"))
        self._patcher.patch(comm, "exchange", self._messages(single=False))
        self._patcher.patch(comm, "isend", self._messages(single=True))
        return self

    def __exit__(self, *exc):
        self.enabled = False
        self._patcher.restore()
