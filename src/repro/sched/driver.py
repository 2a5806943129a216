"""The task-graph engine of the timestep: one graph per step phase.

The step script is written once, in
``LagrangianEulerianIntegrator._advance``; :class:`StepScheduler` is the
engine it runs on under ``use_scheduler``.  Where the integrator's own
engine executes each call as it is made, this one *records* each
phase's work into a :class:`~repro.sched.task.TaskGraph` (kernel sweeps
through the patch integrator's task sink, halo fills and fine-to-coarse
sync through the schedules' ``emit_tasks``) and hands the graph to a
:class:`~repro.sched.executor.GraphExecutor` when the phase ends.
Graphs are per phase so the ``hydro`` / ``timestep`` / ``sync`` timer
decomposition keeps its meaning: every phase starts and ends with all
timelines joined.

Because the default topological order is emission order, the executor
replays the serial call sequence exactly; overlap mode changes only
which virtual timeline each transfer's cost lands on.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING

from ..hydro.fields import FIELD_GROUPS
from .builder import GraphBuilder
from .executor import GraphExecutor
from .task import TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..hydro.integrator import LagrangianEulerianIntegrator

__all__ = ["StepScheduler"]


class StepScheduler:
    """Advances an integrator's hierarchy one step via task graphs."""

    def __init__(self, integrator: "LagrangianEulerianIntegrator",
                 overlap: bool = False, order_key=None):
        self.integrator = integrator
        self.executor = GraphExecutor(
            integrator.comm, overlap=overlap, order_key=order_key)
        #: the open phase's graph; None outside a phase, or once the
        #: phase's graph has been executed
        self._gb: GraphBuilder | None = None

    def advance(self) -> float:
        """One global timestep; returns dt.  The caller owns the step
        bookkeeping (time/step_count/regrid), as with the serial engine."""
        return self.integrator._advance(self)

    def _execute(self, gb: GraphBuilder) -> None:
        gb.flush_fusion()
        self.executor.execute(gb.graph)

    # -- the engine the step script runs on ------------------------------------

    @contextmanager
    def _phase(self, name: str):
        """Record one phase into a fresh graph; execute it at the end.

        With batching on, same-kernel, same-level tasks coalesce into
        batched launches.  The timestep phase executes its graph early,
        since the rest of the step needs dt, and nothing at the end.
        """
        it = self.integrator
        with it._phase(name):
            self._gb = GraphBuilder(it.comm, fuse=it.config.batch_launches)
            yield
            if self._gb is not None:
                self._execute(self._gb)
                self._gb = None

    def _sweep(self, fn) -> None:
        """Route one sweep's kernel launches into the phase's graph."""
        pi = self.integrator.patch_integrator
        pi.task_sink = self._gb
        try:
            self.integrator._foreach_patch(fn)
        finally:
            pi.task_sink = None

    def _fill_group(self, group: str) -> None:
        it = self.integrator
        names = FIELD_GROUPS[group]
        for level in it.hierarchy:
            it._fill_schedule_for(level, names).emit_tasks(
                self._gb, time=it.time)

    def _synchronise(self) -> None:
        it = self.integrator
        for fine_num in range(it.hierarchy.num_levels - 1, 0, -1):
            it._coarsen_schedule_for(fine_num).emit_tasks(self._gb)

    def _compute_dt(self) -> float:
        """CFL kernels + scalar readbacks + one global min reduction.

        In overlap mode each per-patch dt readback (one PCIe latency) rides
        the d2h copy stream, so the readbacks hide under the next patch's
        calc_dt kernel instead of stalling the host per patch.
        """
        it = self.integrator
        pi = it.patch_integrator
        dt_tasks: list[tuple[int, object]] = []
        self._sweep(lambda p, r: dt_tasks.append((p.owner, pi.calc_dt(p, r))))
        gb, self._gb = self._gb, None
        # With fusion on, calc_dt launches coalesce per (backend, level)
        # and each fused group contributes one readback task instead of
        # one per patch (the fused patches' calc_dt returns None).
        gb.flush_fusion()
        dt_tasks = [(o, t) for o, t in dt_tasks if t is not None]
        dt_tasks.extend(gb.fused_readbacks)

        def reduce_fn(stream):
            local = [math.inf] * it.comm.size
            for owner, task in dt_tasks:
                if task.result < local[owner]:
                    local[owner] = task.result
            return it.comm.allreduce_min(local)

        red = gb.add(TaskKind.REDUCE, None, "dt.allreduce", reduce_fn,
                     reads=[t for _, t in dt_tasks])
        self._execute(gb)
        return it._apply_dt_policy(red.result)
