"""Transfer plans: cached replay is bitwise-identical to fresh planning.

A :class:`~repro.xfer.refine_schedule.RefineSchedule` or
:class:`~repro.xfer.coarsen_schedule.CoarsenSchedule` lowers itself once,
on first use, into flat transfer plans (:mod:`repro.exec.plan`) and
replays them on every later fill.  These tests pin the contract: replay
changes no field bit, no launch/element/transfer count and no virtual
clock; a plan compiles once per schedule; it dies with its schedule when
the schedule cache purges a regridded level; it never hides a
use-after-free; and sanitized runs stay clean.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, run
from repro.comm.simcomm import SimCommunicator
from repro.exec.plan import CopyPlan, StreamPlan
from repro.geom.operators import CellConservativeLinearRefine
from repro.gpu.device import K20X
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import CudaDataFactory, VariableRegistry
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.xfer import coarsen_schedule as cs
from repro.xfer import refine_schedule as rs
from repro.xfer.schedule_cache import ScheduleCache

FIELDS = ("density0", "energy0", "pressure", "xvel0", "yvel0")


def _config(backend: str, batch: bool, scheduler: bool = False) -> RunConfig:
    return RunConfig(
        problem=SodProblem((24, 24)),
        nranks=2,
        use_gpu=backend != "host",
        resident=backend != "nonresident",
        max_levels=2,
        max_patch_size=8,
        regrid=RegridPolicy(interval=2),
        max_steps=3,
        execution=ExecutionPolicy(batch=batch, scheduler=scheduler),
    )


def _fresh_plans(monkeypatch) -> None:
    """Make every fill and synchronisation compile a brand-new plan."""
    monkeypatch.setattr(rs.RefineSchedule, "plan",
                        property(lambda self: rs._FillPlan(self)))
    monkeypatch.setattr(
        cs.CoarsenSchedule, "plan",
        property(lambda self: [cs._ShipPlan(t, self.specs)
                               for t in self.transactions]))


def _counters(counters: dict) -> dict:
    return {k: {f: v for f, v in vars(c).items() if f != "host_seconds"}
            for k, c in counters.items()}


def _accounting(result) -> dict:
    """Every modelled count and clock of a finished run, per rank."""
    out = {}
    for rank in result.sim.comm.ranks:
        st = rank.exec_stats
        record = {
            "clock": rank.clock.time,
            "kernels": _counters(st.kernels),
            "transfers": _counters(st.transfers),
            "streams": _counters(st.streams),
            "batches": _counters(st.batches),
            "stacked": _counters(st.stacked),
        }
        if rank.device is not None:
            record["device_clock"] = rank.device.default_stream.clock.time
            record["device_peak"] = rank.device.stats.peak_bytes_allocated
        out[rank.index] = record
    return out


def _fields(result) -> dict:
    hier = result.sim.hierarchy
    return {(lnum, f): gather_level_field(hier.level(lnum), f)
            for lnum in range(hier.num_levels) for f in FIELDS}


MODES = [(backend, batch) for backend in ("host", "resident", "nonresident")
         for batch in (False, True)]


@pytest.mark.parametrize("backend,batch", MODES)
def test_cached_replay_matches_fresh_planning(backend, batch, monkeypatch):
    """Replay equals recompilation: both sides run the same lowering, so
    this pins caching, not the lowering itself (see
    :func:`test_plans_match_per_region_copies` and the parity suites)."""
    cached = run(_config(backend, batch))
    cached_acc = _accounting(cached)
    with monkeypatch.context() as m:
        _fresh_plans(m)
        fresh = run(_config(backend, batch))
    assert _accounting(fresh) == cached_acc
    assert fresh.dt_history == cached.dt_history
    want, got = _fields(fresh), _fields(cached)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True), key


@pytest.mark.parametrize("batch", [False, True])
def test_task_graph_replay_matches_fresh_planning(batch, monkeypatch):
    """The scheduler path emits tasks from the same cached plans."""
    cached = run(_config("resident", batch, scheduler=True))
    with monkeypatch.context() as m:
        _fresh_plans(m)
        fresh = run(_config("resident", batch, scheduler=True))
    assert _accounting(fresh) == _accounting(cached)
    want, got = _fields(fresh), _fields(cached)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True), key


def _level_world(nranks: int = 2):
    """One resident level of four arena-backed patches, data filled."""
    comm = SimCommunicator(nranks, IPA_CPU_NODE, FDR_INFINIBAND, K20X)
    geom = CartesianGridGeometry(Box([0, 0], [15, 15]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=2)
    reg = VariableRegistry()
    reg.declare("a", "cell", 2)
    reg.declare("b", "cell", 2)
    factory = CudaDataFactory(arena=True)
    boxes = [Box([0, 0], [7, 7]), Box([8, 0], [15, 7]),
             Box([0, 8], [7, 15]), Box([8, 8], [15, 15])]
    level = hier.make_level(0, boxes, [i % nranks for i in range(4)])
    level.allocate_all(reg, factory, comm)
    hier.set_level(level)
    for patch in level:
        for name in ("a", "b"):
            patch.data(name).fill(float(patch.global_id + 1))
    specs = [rs.FillSpec(reg["a"], CellConservativeLinearRefine()),
             rs.FillSpec(reg["b"], CellConservativeLinearRefine())]
    return comm, hier, reg, factory, specs


def _random_world(seed: int):
    """A one-rank :func:`_level_world` with random data in every frame,
    and its same-level halo copies as ``(dst_pd, src_pd, region)``."""
    comm, hier, _, factory, specs = _level_world(nranks=1)
    rng = np.random.default_rng(seed)
    level = hier.level(0)
    for patch in level:
        for name in ("a", "b"):
            data = patch.data(name).data
            data.from_host_array(rng.random(tuple(data.frame.shape())))
    sched = rs.RefineSchedule(level, None, specs, comm, factory)
    items = [(dst.data(spec.var.name), src.data(spec.var.name), region)
             for spec, geom in sched.items
             for src, dst, region in geom.copies]
    return comm.rank(0), level, items


def _frames(level) -> list:
    return [patch.data(name).data.to_host_array()
            for patch in level for name in ("a", "b")]


def test_plans_match_per_region_copies():
    """Plan execution (stacked groups and fallback entries) against an
    independent per-region path: each region copied by the patch data's
    own ``copy``, packed and unpacked through whole-frame host arrays."""
    from repro.xfer.message import copy_batch_local, pack_batch, unpack_batch

    rank, level, items = _random_world(7)
    plan = CopyPlan.compile(items)
    assert plan.groups and len(plan) == len(items) > plan.fallback
    copy_batch_local(plan, rank)
    _, ref_level, ref_items = _random_world(7)
    for dst_pd, src_pd, region in ref_items:
        dst_pd.copy(src_pd, region)
    for got, want in zip(_frames(level), _frames(ref_level)):
        assert np.array_equal(got, want)

    stream = [(src_pd, region) for _, src_pd, region in items]
    buffer = pack_batch(stream, rank)
    want = np.concatenate([
        src_pd.data.to_host_array()[region.slices_in(src_pd.data.frame)]
        .ravel() for _, src_pd, region in ref_items])
    assert np.array_equal(buffer, want)

    unpack_batch(buffer[::-1].copy(), [(dst_pd, region)
                                       for dst_pd, _, region in items], rank)
    off = 0
    for dst_pd, _, region in ref_items:
        host = dst_pd.data.to_host_array()
        n = region.size()
        host[region.slices_in(dst_pd.data.frame)] = \
            want[::-1][off:off + n].reshape(tuple(region.shape()))
        dst_pd.data.from_host_array(host)
        off += n
    for got, ref in zip(_frames(level), _frames(ref_level)):
        assert np.array_equal(got, ref)


def test_plan_compiles_once_per_schedule(monkeypatch):
    comm, hier, _, factory, specs = _level_world()
    compiled = []
    real = rs._FillPlan

    class Counting(real):
        def __init__(self, sched):
            compiled.append(sched)
            super().__init__(sched)

    monkeypatch.setattr(rs, "_FillPlan", Counting)
    sched = rs.RefineSchedule(hier.level(0), None, specs, comm, factory,
                              batch=True)
    assert compiled == []  # lazily: building the schedule compiles nothing
    for _ in range(5):
        sched.fill()
    assert compiled == [sched]
    assert sched.plan is sched.plan


def test_coarsen_plan_compiles_once():
    run_result = run(_config("resident", batch=True))
    sim = run_result.sim
    sched = sim._coarsen_schedule_for(1)
    plan = sched.plan
    sched.coarsen()
    sched.coarsen()
    assert sched.plan is plan
    assert len(plan) == sched.num_transactions()


def test_replay_records_the_compiled_stack_split():
    """A replayed fill reports the same stacked/fallback split as the
    fill that compiled the plan, and the plan covers every copy."""
    comm, hier, _, factory, specs = _level_world(nranks=1)
    sched = rs.RefineSchedule(hier.level(0), None, specs, comm, factory,
                              batch=True)
    stats = comm.rank(0).exec_stats.stacked

    def split():
        c = stats["pdat.copy"]
        return (c.calls, c.stacked, c.groups, c.fallback)

    sched.fill()
    first = split()
    sched.fill()
    assert tuple(b - a for a, b in zip(first, split())) == first
    plans = [plan for _, plan in sched.plan.copies_by_owner()]
    assert sum(len(p) for p in plans) == sum(
        len(g.copies) for _, g in sched.items)


def test_purge_after_regrid_drops_the_plan():
    comm, hier, reg, factory, specs = _level_world()
    cache = ScheduleCache()
    level = hier.level(0)
    sched = rs.RefineSchedule(level, None, specs, comm, factory,
                              geometry_cache=cache.geometry_cache)
    cache.put("fill", "key", (level, None), sched)
    sched.fill()
    plan = weakref.ref(sched.plan)
    # a regrid installs a new level object with the same layout
    new = hier.make_level(0, [p.box for p in level],
                          [p.owner for p in level])
    new.allocate_all(reg, factory, comm)
    hier.set_level(new)
    assert cache.purge(hier) == 1
    assert cache.get("fill", "key", (new, None)) is None
    del sched
    gc.collect()
    assert plan() is None


def test_replay_after_free_raises_use_after_free():
    comm, hier, _, factory, specs = _level_world()
    level = hier.level(0)
    sched = rs.RefineSchedule(level, None, specs, comm, factory, batch=True)
    sched.fill()
    for patch in level:
        for name in ("a", "b"):
            patch.data(name).free()
    with pytest.raises(RuntimeError, match="use after free"):
        sched.fill()


def test_stream_plan_checks_containment_at_compile_time():
    comm, hier, _, _, _ = _level_world()
    pd = hier.level(0).patches[0].data("a")
    with pytest.raises(IndexError):
        StreamPlan.compile([(pd, Box([0, 0], [20, 3]))])
    with pytest.raises(IndexError):
        CopyPlan.compile([(pd, pd, Box([-5, 0], [3, 3]))])


SANITIZED = [
    {"scheduler": True, "overlap": True},
    {"batch": True, "kernels": "patch"},
    {"batch": True, "kernels": "slab"},
]


@pytest.mark.parametrize("execution", SANITIZED,
                         ids=["overlap", "batch-patch", "batch-slab"])
def test_sanitized_sod_runs_stay_clean(execution):
    cfg = RunConfig(problem=SodProblem((24, 24)), max_levels=2,
                    max_patch_size=12, max_steps=3, sanitize=True,
                    execution=ExecutionPolicy(**execution))
    result = run(cfg)
    assert result.steps == 3
    assert result.sanitize_counters is not None
    plain = run(RunConfig(problem=SodProblem((24, 24)), max_levels=2,
                          max_patch_size=12, max_steps=3,
                          execution=ExecutionPolicy(**execution)))
    want, got = _fields(plain), _fields(result)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True), key
