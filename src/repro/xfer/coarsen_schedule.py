"""Fine-to-coarse synchronisation (SAMRAI's ``CoarsenSchedule``).

After advancing the hierarchy, coarse cells covered by fine patches are
overwritten with the conservative average of their fine children (§II).
The averaging kernel runs on the *fine* patch's owner (on its GPU for
resident data) into a small temporary block, which is then streamed to the
coarse patch's owner — so only the already-coarsened bytes cross the
network, as on the real machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from ..exec.backend import frame_of
from ..exec.plan import CopyPlan, StreamPlan, relative
from ..mesh.box import Box
from ..mesh.variables import Variable
from ..geom.operators import CellMassWeightedCoarsen
from .refine_schedule import _free, temp_box_for, temp_variable
from .overlap import index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from ..geom.operators import CoarsenOperator
    from ..mesh.patch import Patch
    from ..mesh.patch_level import PatchLevel

__all__ = ["CoarsenSpec", "CoarsenSchedule"]


@dataclass(frozen=True)
class CoarsenSpec:
    """One variable to synchronise, with its coarsen operator.

    ``weight_name`` names the fine-side weight field for mass-weighted
    coarsening (density when coarsening specific internal energy).
    """

    var: Variable
    coarsen_op: "CoarsenOperator"
    weight_name: str | None = None


@dataclass
class _CoarsenTransaction:
    fine_patch: "Patch"
    coarse_patch: "Patch"
    region: Box  # coarse centring index space


class _ShipEntry(NamedTuple):
    """One variable of a lowered coarsen transaction."""

    spec: CoarsenSpec
    region: Box        # coarse centring index space
    temp_var: Variable
    temp_box: Box
    coarse_pd: object
    temp_slices: tuple   # the region in the temp (its frame is the region)
    coarse_slices: tuple  # the region in the coarse patch data
    start: int         # stream offsets of a cross-rank ship
    stop: int
    shape: tuple


class _ShipPlan:
    """One coarsen transaction lowered for replay.

    Per variable a :class:`_ShipEntry`; for a cross-rank transaction also
    the coarse side's stream plan and the message size.  The temps
    themselves are allocated and freed on every synchronisation.
    """

    __slots__ = ("t", "fine_owner", "coarse_owner", "entries", "total",
                 "unpack", "nbytes")

    def __init__(self, t: _CoarsenTransaction, specs: list[CoarsenSpec]):
        from .transfer import MESSAGE_HEADER_BYTES

        self.t = t
        self.fine_owner = t.fine_patch.owner
        self.coarse_owner = t.coarse_patch.owner
        self.entries: list[_ShipEntry] = []
        off = 0
        for spec in specs:
            var = spec.var
            region = index_box_for(var, t.region)
            coarse_pd = t.coarse_patch.data(var.name)
            n = region.size()
            temp_slices, shape = relative(region, region)
            self.entries.append(_ShipEntry(
                spec, region, temp_variable(var), temp_box_for(var, region),
                coarse_pd, temp_slices,
                relative(region, frame_of(coarse_pd))[0], off, off + n,
                shape))
            off += n
        self.total = off
        self.unpack = None
        self.nbytes = 0
        if self.fine_owner != self.coarse_owner:
            self.unpack = StreamPlan.compile(
                [(e.coarse_pd, e.region) for e in self.entries])
            self.nbytes = off * 8 + MESSAGE_HEADER_BYTES

    def copy_plan(self, temps) -> CopyPlan:
        """Same-rank ship: temps into the coarse patch data."""
        return CopyPlan(
            [e.coarse_pd for e in self.entries], list(temps), self.total, (),
            [(e.coarse_pd, temp, e.coarse_slices, e.temp_slices)
             for e, temp in zip(self.entries, temps)])

    def pack_plan(self, temps) -> StreamPlan:
        """Cross-rank ship, fine side: temps packed back-to-back."""
        return StreamPlan(
            list(temps), self.total, (),
            [(temp, e.temp_slices, e.start, e.stop, e.shape)
             for e, temp in zip(self.entries, temps)])


class CoarsenSchedule:
    """Synchronises data from ``fine_level`` onto ``coarse_level``."""

    def __init__(
        self,
        fine_level: "PatchLevel",
        coarse_level: "PatchLevel",
        specs: list[CoarsenSpec],
        comm: "SimCommunicator",
        factory,
        batch: bool = False,
        slab: bool = False,
    ):
        self.fine_level = fine_level
        self.coarse_level = coarse_level
        self.specs = specs
        self.comm = comm
        self.factory = factory
        #: fuse the per-variable coarsen kernels into batched launches
        self.batch = batch
        #: ``--kernels slab``: coarsening runs through per-region temps,
        #: inherently per-patch work — its fused launches are marked as
        #: deliberate slab fallbacks
        self.slab = slab
        self.transactions: list[_CoarsenTransaction] = []
        self._build()
        self._plan: list[_ShipPlan] | None = None

    @property
    def plan(self) -> list[_ShipPlan]:
        """Every transaction lowered for replay, compiled on first use
        (dropped with the schedule when the schedule cache purges it)."""
        plan = self._plan
        if plan is None:
            plan = self._plan = [_ShipPlan(t, self.specs)
                                 for t in self.transactions]
        return plan

    def _member_for(self, spec: CoarsenSpec, fine_patch: "Patch", temp,
                    region: Box, ratio):
        """One variable's coarsen work as a fusable batch member."""
        fine_pd = fine_patch.data(spec.var.name)
        op = spec.coarsen_op
        if isinstance(op, CellMassWeightedCoarsen):
            member = op.batch_member_weighted(
                fine_pd, fine_patch.data(spec.weight_name), temp, region, ratio)
        else:
            member = op.batch_member(fine_pd, temp, region, ratio)
        if self.slab:
            from ..exec.batch import SLAB_FALLBACK
            member.slab = SLAB_FALLBACK
        return member

    def _build(self) -> None:
        ratio = self.fine_level.ratio_to_coarser
        for coarse in self.coarse_level:
            for fine in self.fine_level:
                overlap = coarse.box.intersection(fine.box.coarsen(ratio))
                if not overlap.is_empty():
                    self.transactions.append(_CoarsenTransaction(fine, coarse, overlap))

    def coarsen(self) -> None:
        """Execute the synchronisation.

        Per fine/coarse patch pair: each variable is coarsened on the fine
        owner's resource into a small temporary block, then all blocks
        travel together — one fused copy (same rank) or one message stream
        (cross rank) — so only already-coarsened bytes cross the network.
        """
        from ..check.context import active as _check_active

        chk = _check_active()
        messages = []
        ratio = self.fine_level.ratio_to_coarser
        if self.batch:
            self._coarsen_batched(messages, chk, ratio)
            self.comm.exchange(messages)
            return
        for sp in self.plan:
            t = sp.t
            fine_rank = self.comm.rank(sp.fine_owner)
            temps = []
            for spec, region, temp_var, temp_box, *_ in sp.entries:
                var = spec.var
                temp = self.factory.allocate(temp_var, temp_box, fine_rank)
                fine_pd = t.fine_patch.data(var.name)
                op = spec.coarsen_op
                if isinstance(op, CellMassWeightedCoarsen):
                    weight_pd = t.fine_patch.data(spec.weight_name)
                    op.apply_weighted(fine_pd, weight_pd, temp, region, ratio,
                                      rank=fine_rank)
                else:
                    op.apply(fine_pd, temp, region, ratio, rank=fine_rank)
                temps.append(temp)
            self._ship(sp, temps, messages, chk)
        self.comm.exchange(messages)

    def _coarsen_batched(self, messages, chk, ratio) -> None:
        """Batched execution: one ``geom.coarsen`` launch per fine backend
        covering every (transaction, variable) pair, then the per-pair
        ship phase exactly as in the reference path."""
        from ..exec.backend import backend_for

        staged: list[tuple[_ShipPlan, list]] = []
        groups: dict[int, tuple[object, list]] = {}
        for sp in self.plan:
            fine_rank = self.comm.rank(sp.fine_owner)
            temps = []
            for spec, region, temp_var, temp_box, *_ in sp.entries:
                temp = self.factory.allocate(temp_var, temp_box, fine_rank)
                member = self._member_for(spec, sp.t.fine_patch, temp, region,
                                          ratio)
                backend = backend_for(temp, fine_rank)
                entry = groups.setdefault(id(backend), (backend, []))
                entry[1].append(member)
                temps.append(temp)
            staged.append((sp, temps))
        for backend, members in groups.values():
            backend.run_batched("geom.coarsen", members)
        for sp, temps in staged:
            self._ship(sp, temps, messages, chk)

    def _ship(self, sp: _ShipPlan, temps, messages, chk) -> None:
        """Move one transaction's coarsened temps to the coarse owner."""
        from ..comm.simcomm import Message
        from .message import copy_batch_local, pack_batch, unpack_batch

        coarse_rank = self.comm.rank(sp.coarse_owner)
        if sp.unpack is None:
            copy_batch_local(sp.copy_plan(temps), coarse_rank)
        else:
            buf = pack_batch(sp.pack_plan(temps),
                             self.comm.rank(sp.fine_owner))
            messages.append(Message(sp.fine_owner, sp.coarse_owner,
                                    sp.nbytes))
            unpack_batch(buf, sp.unpack, coarse_rank)
        if chk is not None:
            for entry in sp.entries:
                chk.note_interior_write(entry.coarse_pd)
        _free(temps)

    def emit_tasks(self, gb) -> None:
        """Record this synchronisation into a graph builder.

        Same work and emission order as :meth:`coarsen`: per transaction,
        one coarsen kernel per variable into a temp, one fused copy or one
        six-stage message stream to the coarse owner, then a host-side
        free.  The builder's read/write tracking orders the mass-weighted
        energy coarsen against any finer level's sync that wrote this
        level's density interiors earlier in the same graph.
        """
        from ..sched.task import TaskKind

        ratio = self.fine_level.ratio_to_coarser
        for sp in self.plan:
            t = sp.t
            fine_rank = self.comm.rank(sp.fine_owner)
            coarse_rank = self.comm.rank(sp.coarse_owner)
            temps = []
            for spec, region, temp_var, temp_box, *_ in sp.entries:
                var = spec.var
                temp = self.factory.allocate(temp_var, temp_box, fine_rank)
                temps.append(temp)
                fine_pd = t.fine_patch.data(var.name)
                op = spec.coarsen_op
                if self.batch:
                    # Route through the builder's fusion pass: members
                    # coalesce into one geom.coarsen task per transaction
                    # (the following copy/stream flushes the group).
                    from ..exec.backend import backend_for

                    member = self._member_for(spec, t.fine_patch, temp,
                                              region, ratio)
                    gb.kernel_task(backend_for(temp, fine_rank), fine_rank,
                                   "geom.coarsen", member.elements,
                                   member.body, list(member.reads),
                                   list(member.writes),
                                   level=self.fine_level.level_number,
                                   slab=member.slab)
                    continue
                if isinstance(op, CellMassWeightedCoarsen):
                    weight_pd = t.fine_patch.data(spec.weight_name)
                    reads = [fine_pd, weight_pd]

                    def fn(stream, op=op, f=fine_pd, w=weight_pd, tmp=temp,
                           r=region, rk=fine_rank):
                        op.apply_weighted(f, w, tmp, r, ratio, rank=rk)
                else:
                    reads = [fine_pd]

                    def fn(stream, op=op, f=fine_pd, tmp=temp, r=region,
                           rk=fine_rank):
                        op.apply(f, tmp, r, ratio, rank=rk)

                gb.add(TaskKind.KERNEL, fine_rank.index,
                       f"sync.coarsen.{var.name}", fn,
                       reads=reads, writes=[temp])
            if sp.unpack is None:
                gb.copy(coarse_rank, sp.copy_plan(temps), "sync.copy")
            else:
                gb.stream_batch(
                    fine_rank, coarse_rank, sp.pack_plan(temps), sp.unpack,
                    f"sync.L{self.fine_level.level_number}",
                )

            def free_temps(stream, temps=temps):
                _free(temps)

            gb.add(TaskKind.HOST, fine_rank.index, "sync.free", free_temps,
                   writes=list(temps))

    def num_transactions(self) -> int:
        return len(self.transactions)
