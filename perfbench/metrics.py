"""Metric definitions and their arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the single list of what the
benchmark reports; ``BENCHMARK.json`` at the repository root carries the
same names and units.  Each per-layer row states the end-to-end metric
it should move and on which workload, so a change claiming a gain names
its metric before it is measured.

End-to-end host times are scaled to the reference machine speed by the
run's calibration probe (see ``run.probe_s``).  Per-layer host times are
unscaled seconds per timed step from the traced sessions; counts and
ratios come from the untraced sessions' metrics manifests, as the
difference between the end of the run and the end of set-up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

MIB = 2 ** 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end to end: the definition; per layer: the end-to-end metric it
    #: should move and the workload it should move it on
    doc: str = ""


END_TO_END = (
    Metric("cell_steps_per_s", "cell-step/s", "higher",
           "median over timed steps of the cells at the step's start "
           "over the step's host seconds, at the reference machine speed"),
    Metric("step_ms_p50", "ms", "lower",
           "median host time of one step, at the reference machine speed"),
    Metric("setup_s", "s", "lower",
           "median host seconds to construct a RunSession, at the "
           "reference machine speed"),
    Metric("modelled_grind_s", "s/cell-step", "lower",
           "RunResult.grind_time, virtual seconds per cell per step"),
    Metric("device_peak_mb", "MiB", "lower",
           "max over ranks of device.peak_bytes"),
    Metric("peak_rss_mb", "MiB", "lower", "ru_maxrss of the process"),
    Metric("passed_run_share", "fraction", "higher",
           "sessions that completed and matched the reference, over "
           "sessions attempted"),
)

_HOST = "s/step"
_PER = "1/step"

PER_LAYER = (
    Metric("xfer.fill.host_s", _HOST, "lower",
           "cell_steps_per_s, step_ms_p50 on amr_steady, regrid_churn; "
           "not on uniform_kernels"),
    Metric("xfer.fill.calls", _PER, "lower",
           "cell_steps_per_s on amr_steady, regrid_churn"),
    Metric("xfer.coarsen.host_s", _HOST, "lower",
           "cell_steps_per_s on amr_steady"),
    Metric("xfer.build.host_s", _HOST, "lower",
           "cell_steps_per_s on regrid_churn; setup_s everywhere"),
    Metric("xfer.build.calls", _PER, "lower",
           "cell_steps_per_s on regrid_churn; setup_s everywhere"),
    Metric("xfer.emit.host_s", _HOST, "lower",
           "cell_steps_per_s on overlap_graph"),
    Metric("xfer.cache.hit_ratio", "ratio", "higher",
           "base: schedule_cache hits + misses; explains regrid_churn "
           "against amr_steady"),
    Metric("exec.flush.host_s", _HOST, "lower",
           "cell_steps_per_s on uniform_kernels"),
    Metric("exec.flush.calls", _PER, "lower",
           "cell_steps_per_s on uniform_kernels"),
    Metric("exec.slab.fused_ratio", "ratio", "higher",
           "base: slab_fused + slab_fallback launches; cell_steps_per_s "
           "on uniform_kernels, amr_steady"),
    Metric("exec.batch.members_per_launch", "count", "higher",
           "base: batch.launches; modelled_grind_s on amr_steady"),
    Metric("exec.stack.fallback_ratio", "ratio", "lower",
           "base: stack.regions + stack.fallback_regions; "
           "xfer.fill.host_s on amr_steady"),
    Metric("hydro.call.host_s", _HOST, "lower",
           "cell_steps_per_s on amr_steady"),
    Metric("hydro.call.calls", _PER, "lower",
           "cell_steps_per_s on amr_steady"),
    Metric("hydro.modelled_s", _HOST, "lower",
           "modelled_grind_s on uniform_kernels"),
    Metric("regrid.host_s", _HOST, "lower",
           "self time; cell_steps_per_s on regrid_churn, nothing on "
           "amr_steady"),
    Metric("regrid.incl_host_s", _HOST, "lower",
           "inclusive time; cell_steps_per_s on regrid_churn"),
    Metric("regrid.calls", _PER, "lower", "regrid_churn"),
    Metric("regrid.cluster.host_s", _HOST, "lower",
           "cell_steps_per_s on regrid_churn"),
    Metric("regrid.reuse_ratio", "ratio", "higher",
           "base: levels rebuilt + kept; regrid_churn"),
    Metric("sched.build.host_s", _HOST, "lower",
           "self time of StepScheduler.advance; cell_steps_per_s on "
           "overlap_graph"),
    Metric("sched.execute.host_s", _HOST, "lower",
           "cell_steps_per_s on overlap_graph"),
    Metric("sched.tasks_per_step", _PER, "lower", "overlap_graph"),
    Metric("sched.hidden_modelled_s", _HOST, "higher",
           "modelled_grind_s on overlap_graph"),
    Metric("comm.messages_per_step", _PER, "lower",
           "modelled_grind_s on amr_steady, regrid_churn, overlap_graph"),
    Metric("comm.bytes_per_step", "B/step", "lower",
           "modelled_grind_s on amr_steady, regrid_churn, overlap_graph"),
    Metric("gpu.launches_per_step", _PER, "lower",
           "modelled_grind_s on amr_steady"),
    Metric("gpu.pcie_bytes_per_step", "B/step", "lower",
           "modelled_grind_s; the paper's residency claim"),
    Metric("mesh.intvector_new_per_step", _PER, "lower",
           "cell_steps_per_s on amr_steady, regrid_churn"),
    Metric("mesh.box_new_per_step", _PER, "lower",
           "cell_steps_per_s on amr_steady, regrid_churn"),
    Metric("phase.hydro.modelled_s", _HOST, "lower", "modelled_grind_s"),
    Metric("phase.timestep.modelled_s", _HOST, "lower", "modelled_grind_s"),
    Metric("phase.sync.modelled_s", _HOST, "lower", "modelled_grind_s"),
    Metric("phase.regrid.modelled_s", _HOST, "lower",
           "modelled_grind_s on regrid_churn"),
    Metric("step.host_s", _HOST, "lower",
           "traced step time; the base of every host share"),
    Metric("other.host_s", _HOST, "lower",
           "step host time outside every layer span"),
    Metric("trace.coverage_frac", "fraction", "higher",
           "base: step.host_s; layer self time over step time"),
    Metric("trace.overhead_frac", "fraction", "lower",
           "1 - traced / untraced cell_steps_per_s"),
)


@dataclass
class Session:
    """One RunSession built, stepped and checked by the benchmark."""

    error: str | None = None
    setup_s: float = 0.0
    step_s: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    digest: str = ""
    grind: float = 0.0
    device_peak_bytes: float = 0.0
    #: counter deltas from the end of set-up to the end of the run
    counters: dict = field(default_factory=dict)
    #: modelled phase timer deltas over the same interval
    timers: dict = field(default_factory=dict)
    hidden_s: float = 0.0
    patches: list = field(default_factory=list)
    #: calibration probe seconds, one before set-up and each step
    probe_s: list = field(default_factory=list)
    passed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _sum(counters: dict, prefix: str, label: str = "") -> float:
    """Sum of a counter over its labels (``name{...}`` keys)."""
    total = 0.0
    for key, value in counters.items():
        base, _, labels = key.partition("{")
        if base == prefix and label in labels:
            total += value
    return total


def ratio(num: float, base: float) -> float:
    """``num / base``; 0.0 when the base is empty (nothing attempted)."""
    return num / base if base else 0.0


def cell_steps_per_s(sessions) -> float:
    """Median over timed steps of cells at the step's start / its seconds."""
    rates = [c / t for s in sessions if s.ok
             for c, t in zip(s.cells, s.step_s)]
    return statistics.median(rates) if rates else 0.0


def end_to_end(sessions, setups: list[float], peak_rss_kib: float,
               scale: float) -> dict:
    """The seven end-to-end values from a run's untraced sessions.

    Host times are multiplied by ``scale`` (reference over measured probe
    time), i.e. reported at the reference machine speed.
    """
    done = [s for s in sessions if s.ok]
    steps = [t for s in done for t in s.step_s]
    passed = sum(s.passed for s in sessions)
    return {
        "cell_steps_per_s": cell_steps_per_s(sessions) / scale,
        "step_ms_p50": (statistics.median(steps) * 1e3 * scale
                        if steps else 0.0),
        "setup_s": statistics.median(setups) * scale if setups else 0.0,
        "modelled_grind_s": (statistics.median(s.grind for s in done)
                             if done else 0.0),
        "device_peak_mb": max((s.device_peak_bytes for s in done),
                              default=0.0) / MIB,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "passed_run_share": ratio(passed, len(sessions)),
    }


def manifest_layers(sessions) -> dict:
    """Per-layer counts and ratios from the untraced sessions' manifests."""
    done = [s for s in sessions if s.ok]
    steps = sum(len(s.step_s) for s in done)
    c: dict = {}
    for s in done:
        for key, value in s.counters.items():
            c[key] = c.get(key, 0.0) + value
    t: dict = {}
    for s in done:
        for key, value in s.timers.items():
            t[key] = t.get(key, 0.0) + value
    hits = _sum(c, "schedule_cache.hits")
    fused = _sum(c, "slab_fused")
    stacked = _sum(c, "stack.regions")
    fallback = _sum(c, "stack.fallback_regions")
    reused = _sum(c, "regrid.levels_reused") + _sum(c, "regrid.levels_kept")
    return {
        "xfer.cache.hit_ratio": ratio(
            hits, hits + _sum(c, "schedule_cache.misses")),
        "exec.slab.fused_ratio": ratio(
            fused, fused + _sum(c, "slab_fallback")),
        "exec.batch.members_per_launch": ratio(
            _sum(c, "batch.members"), _sum(c, "batch.launches")),
        "exec.stack.fallback_ratio": ratio(fallback, fallback + stacked),
        "hydro.modelled_s": ratio(
            _sum(c, "kernel.seconds", "kernel=hydro."), steps),
        "regrid.reuse_ratio": ratio(
            reused, _sum(c, "regrid.levels_rebuilt")
            + _sum(c, "regrid.levels_kept")),
        "sched.tasks_per_step": ratio(_sum(c, "sched.tasks"), steps),
        "sched.hidden_modelled_s": ratio(
            sum(s.hidden_s for s in done), steps),
        "gpu.launches_per_step": ratio(
            _sum(c, "device.kernel_launches"), steps),
        "gpu.pcie_bytes_per_step": ratio(_sum(c, "transfer.bytes"), steps),
        **{f"phase.{p}.modelled_s": ratio(t.get(p, 0.0), steps)
           for p in ("hydro", "timestep", "sync", "regrid")},
    }


def traced_layers(summary: dict, steps: int, layer_spans, step_span: str
                  ) -> dict:
    """Per-layer host seconds and calls per step from a span summary."""
    def row(name):
        return summary.get(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})

    out = {}
    for name in layer_spans:
        out[f"{name}.host_s"] = ratio(row(name)["self_s"], steps)
        out[f"{name}.calls"] = ratio(row(name)["calls"], steps)
    out["regrid.incl_host_s"] = ratio(row("regrid")["incl_s"], steps)
    step_total = row(step_span)["incl_s"]
    other = row(step_span)["self_s"]
    out["step.host_s"] = ratio(step_total, steps)
    out["other.host_s"] = ratio(other, steps)
    out["trace.coverage_frac"] = 1.0 - ratio(other, step_total)
    return out


def counted_layers(counts: dict, steps: int) -> dict:
    return {
        "comm.messages_per_step": ratio(counts.get("comm.messages", 0), steps),
        "comm.bytes_per_step": ratio(counts.get("comm.bytes", 0), steps),
        "mesh.intvector_new_per_step": ratio(
            counts.get("mesh.intvector_new", 0), steps),
        "mesh.box_new_per_step": ratio(counts.get("mesh.box_new", 0), steps),
    }
