"""Golden values pinning modelled charging exactly, per execution engine.

The timestep body is written once and driven by two engines: the serial
integrator and the task-graph :class:`~repro.sched.driver.StepScheduler`.
The perf gate only guards modelled grind to a 10% tolerance; these
tests pin it with ``==``: every rank's final virtual clock, the dt
history, total kernel launches and PCIe bytes, and the graph executor's
counters, and every rank's peak device memory.  A 2-level Sod problem
on 2 ranks runs 3 steps in each mode; a 2-level batched triple point
pins the fills that clamp temporaries at domain corners and gather
coarse data across ranks, which Sod does not reach; a 1-level sanitized
scheduler run pins the empty sync graph each step executes and the
sanitizer's graph count.

An intended change to modelled charging updates these values and says
so in CHANGES.md; any other mismatch is a regression.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, RunConfig, run
from repro.hydro.problems import SodProblem, TriplePointProblem
from repro.obs.lanes import D2H, H2D

DT_HISTORY = [0.00924387466109315, 0.009181009161323798, 0.007805215882457527]

#: mode -> (execution policy, rank clocks, launches, PCIe bytes, counters)
GOLDEN = {
    "serial": (
        ExecutionPolicy(scheduler=False, overlap=False, batch=False,
                        kernels="patch"),
        [0.015539790598039232, 0.015547114739215709], 2826, 481282, None),
    "batch": (
        ExecutionPolicy(scheduler=False, overlap=False, batch=True,
                        kernels="slab"),
        [0.01121321506862745, 0.011210223915686272], 1650, 481186, None),
    "scheduler": (
        ExecutionPolicy(scheduler=True, overlap=False, batch=False,
                        kernels="patch"),
        [0.020381411837255017, 0.02048371643333346], 2826, 481282,
        {"graphs": 12, "tasks": 4143, "collectives": 3}),
    "overlap_batch": (
        ExecutionPolicy(scheduler=True, overlap=True, batch=True,
                        kernels="slab"),
        [0.011176471696078468, 0.011188682080392186], 2430, 481186,
        {"graphs": 12, "tasks": 3789, "collectives": 3}),
}


#: mode -> each rank's ``device.stats.peak_bytes_allocated``; the peak
#: is the diagnostics readback at the end of the run, not a fill
DEVICE_PEAKS = {
    "serial": [276624, 276624],
    "batch": [276624, 276624],
    "scheduler": [283424, 283424],
    "overlap_batch": [283456, 284880],
}


def _sod(execution, max_levels=2, sanitize=False):
    return run(RunConfig(problem=SodProblem((32, 32)), nranks=2,
                         max_levels=max_levels, max_patch_size=16,
                         max_steps=3, sanitize=sanitize,
                         execution=execution))


@pytest.mark.parametrize("mode", list(GOLDEN))
def test_modelled_charging_is_pinned(mode):
    execution, clocks, launches, pcie, counters = GOLDEN[mode]
    res = _sod(execution)
    sim = res.sim
    assert sim.hierarchy.num_levels == 2
    assert [r.clock.time for r in sim.comm.ranks] == clocks
    assert res.dt_history == DT_HISTORY
    stats = [r.exec_stats for r in sim.comm.ranks]
    assert sum(c.launches for s in stats for c in s.kernels.values()) \
        == launches
    assert sum(c.bytes for s in stats for lane, c in s.transfers.items()
               if lane in (D2H, H2D)) == pcie
    assert [r.device.stats.peak_bytes_allocated
            for r in sim.comm.ranks] == DEVICE_PEAKS[mode]
    if counters is None:
        assert sim._step_scheduler is None
    else:
        assert sim._step_scheduler.executor.counters == counters


def test_single_level_graph_counts_are_pinned():
    """One level: the sync phase still executes its (empty) graph, the
    timestep phase executes exactly its reduction graph."""
    res = _sod(ExecutionPolicy(scheduler=True, overlap=True, batch=False,
                               kernels="patch"),
               max_levels=1, sanitize=True)
    sim = res.sim
    assert sim.hierarchy.num_levels == 1
    assert [r.clock.time for r in sim.comm.ranks] == [
        0.0045673792784313855, 0.004599218650980405]
    assert sim._step_scheduler.executor.counters == {
        "graphs": 12, "tasks": 1275, "collectives": 3}
    assert res.sanitize_counters == {"tasks": 1275, "kernels": 12,
                                     "graphs": 12}


def test_batched_triple_point_fill_is_pinned():
    """Two ranks, batched slab kernels: the fine level's fills clamp
    temporaries reaching outside the coarse domain and gather coarse data
    from the other rank.  The peak device memory is reached while a fill
    holds its interpolation temporaries: each rank carves them from one
    slab per fill, so a cross-rank staging buffer lands on top of the
    whole slab (the per-region temporaries before it peaked at
    ``[335792, 319136]``)."""
    res = run(RunConfig(
        problem=TriplePointProblem((28, 12)), nranks=2, max_levels=2,
        max_patch_size=8, max_steps=3,
        execution=ExecutionPolicy(scheduler=False, overlap=False, batch=True,
                                  kernels="slab")))
    sim = res.sim
    assert [len(level) for level in sim.hierarchy] == [8, 24]
    plans = [sched.plan for (kind, _), (_, sched)
             in sim.schedule_cache._entries.items() if kind == "fill"]
    interps = [ip for plan in plans for ip in plan.interps]
    assert any(ip.clamp is not None for ip in interps)
    assert any(ip.streams for ip in interps)
    assert [r.clock.time for r in sim.comm.ranks] == [
        0.032585616974509735, 0.03254551419803915]
    assert res.dt_history == [0.0739509972887452, 0.07189115737338181,
                              0.062270572295192145]
    stats = [r.exec_stats for r in sim.comm.ranks]
    assert sum(c.launches for s in stats for c in s.kernels.values()) == 4578
    assert sum(c.bytes for s in stats for lane, c in s.transfers.items()
               if lane in (D2H, H2D)) == 716370
    assert [r.device.stats.peak_bytes_allocated
            for r in sim.comm.ranks] == [336176, 319616]
