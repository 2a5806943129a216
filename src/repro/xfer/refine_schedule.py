"""Ghost-region fill for a patch level (SAMRAI's ``RefineSchedule``).

Boundary data for each patch is filled from three sources, in the order
the paper describes (§II, §IV-B):

1. **same-level copy** — ghost regions overlapping a neighbouring patch's
   interior are copied (packed/streamed across ranks when the owner
   differs);
2. **coarse-level interpolation** — remaining in-domain regions are filled
   by a refine operator from a temporary coarse-data block gathered from
   the next coarser level (which must already have valid ghosts — the
   integrator fills levels coarse-to-fine);
3. **physical boundary conditions** — applied last by the application's
   boundary object, overwriting all out-of-domain ghosts.

The transaction *geometry* depends only on the level structure and the
data centring — not on which variable is being moved — so it is computed
once per (level, centring signature) in :func:`build_fill_geometry` and
shared by every variable and every fill group until a regrid invalidates
it.  This mirrors SAMRAI, which caches schedules per variable context.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..check.context import active as _check_active
from ..exec.backend import frame_of
from ..exec.plan import CopyPlan, StreamPlan, relative
from ..mesh.box import Box, IntVector
from ..mesh.box_container import BoxContainer
from ..mesh.variables import Variable
from .overlap import clamp_extend, frame_box_for, ghost_fill_pieces, index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from ..geom.operators import RefineOperator
    from ..mesh.patch import Patch
    from ..mesh.patch_level import PatchLevel

__all__ = [
    "FillSpec", "RefineSchedule", "build_fill_geometry", "FillGeometry",
    "needed_coarse_frame", "temp_box_for", "signature_of",
]


@dataclass(frozen=True)
class FillSpec:
    """One variable to fill, with its coarse-fine interpolation operator.

    ``refine_op`` may be None for variables never filled from a coarser
    level (build fails loudly if such a variable turns out to need it).
    """

    var: Variable
    refine_op: "RefineOperator | None" = None


def signature_of(var: Variable) -> Variable:
    """The centring signature of a variable: geometry-equivalent key."""
    return Variable("_sig", var.centring, var.ghosts, var.axis)


def needed_coarse_frame(var: Variable, region: Box, ratio: IntVector) -> Box:
    """Coarse centring-space frame an interpolation of ``region`` reads."""
    c = region.coarsen(ratio)
    if var.centring == "cell":
        return c.grow(1)  # MC slopes read +-1
    if var.centring == "node":
        return Box(c.lower, c.upper + IntVector.uniform(1, c.dim))  # bilinear corners
    out = c.grow(1)  # transverse slopes
    upper = list(out.upper)
    upper[var.axis] += 1  # bracketing coarse face in the normal direction
    return Box(out.lower, upper)


@functools.lru_cache(maxsize=256)
def temp_variable(var: Variable) -> Variable:
    """The zero-ghost variable of a schedule temporary holding ``var``."""
    return Variable(f"_tmp_{var.name}", var.centring, 0, var.axis)


def temp_box_for(var: Variable, frame: Box) -> Box:
    """Cell box whose zero-ghost storage frame equals ``frame``."""
    if var.centring == "cell":
        return frame
    if var.centring == "node":
        return Box(frame.lower, frame.upper - IntVector.uniform(1, frame.dim))
    shift = [0] * frame.dim
    shift[var.axis] = 1
    return Box(frame.lower, frame.upper - IntVector(shift))


@dataclass
class _InterpGeom:
    dst_patch: "Patch"
    region: Box                         # fine centring space, to interpolate
    coarse_frame: Box                   # coarse centring space, temp extent
    sources: list[tuple["Patch", Box]]  # (coarse patch, region of temp)


@dataclass
class FillGeometry:
    """Variable-independent transactions for one (level, signature)."""

    copies: list[tuple["Patch", "Patch", Box]] = field(default_factory=list)
    interps: list[_InterpGeom] = field(default_factory=list)


def build_fill_geometry(
    dst_level: "PatchLevel",
    coarse_level: "PatchLevel | None",
    sig: Variable,
    src_level: "PatchLevel | None",
    interior: bool = False,
) -> FillGeometry:
    """Compute the fill transactions for one centring signature.

    ``interior=True`` fills patch interiors (regrid solution transfer)
    from ``src_level`` (the old level, possibly None) instead of ghost
    regions from the level itself.
    """
    geom = FillGeometry()
    domain_idx = index_box_for(sig, dst_level.domain)
    src_patches = list(src_level) if src_level is not None else []
    src_interiors = [index_box_for(sig, s.box) for s in src_patches]

    for dst in dst_level:
        if interior:
            pieces = BoxContainer([index_box_for(sig, dst.box)])
        else:
            pieces = ghost_fill_pieces(sig, dst)
        dst_frame = frame_box_for(sig, dst.box)
        # Prefilter: only neighbours whose interior meets this frame.
        candidates = [
            (s, sbox) for s, sbox in zip(src_patches, src_interiors)
            if (s is not dst or interior) and sbox.intersects(dst_frame)
        ]
        remaining = BoxContainer()
        for piece in pieces:
            left = [piece]
            for src, src_interior in candidates:
                nxt = []
                for r in left:
                    overlap = r.intersection(src_interior)
                    if overlap.is_empty():
                        nxt.append(r)
                    else:
                        geom.copies.append((src, dst, overlap))
                        nxt.extend(r.remove_intersection(overlap))
                left = nxt
                if not left:
                    break
            remaining.extend(left)
        interp_regions = remaining.intersect(domain_idx).coalesce()
        if interp_regions.is_empty():
            continue
        if coarse_level is None:
            raise ValueError(
                f"level {dst_level.level_number} needs coarse-level fill "
                "but no coarser level exists"
            )
        for region in interp_regions:
            geom.interps.append(
                _build_interp_geom(sig, dst, region, dst_level, coarse_level)
            )
    return geom


def _build_interp_geom(sig, dst, region, dst_level, coarse_level) -> _InterpGeom:
    ratio = dst_level.ratio_to_coarser
    frame = needed_coarse_frame(sig, region, ratio)
    coarse_domain_idx = index_box_for(sig, coarse_level.domain)
    needed = BoxContainer([frame.intersection(coarse_domain_idx)])
    sources: list[tuple["Patch", Box]] = []
    # Prefer coarse interiors, then coarse ghost frames (valid after the
    # coarse level's own fill, which runs first).
    for use_frame in (False, True):
        if needed.is_empty():
            break
        for src in coarse_level:
            src_box = (
                frame_box_for(sig, src.box) if use_frame
                else index_box_for(sig, src.box)
            )
            if not src_box.intersects(frame):
                continue
            nxt = BoxContainer()
            for r in needed:
                overlap = r.intersection(src_box)
                if overlap.is_empty():
                    nxt.append(r)
                else:
                    sources.append((src, overlap))
                    nxt.extend(r.remove_intersection(overlap))
            needed = nxt
            if needed.is_empty():
                break
    if not needed.is_empty():
        raise ValueError(
            f"coarse level does not cover interpolation stencil near "
            f"{region} (nesting violation?)"
        )
    return _InterpGeom(dst, region, frame, sources)


def _free(temps) -> None:
    for temp in temps:
        free = getattr(temp, "free", None)
        if free is not None:
            free()


class _InterpPlan:
    """One interpolation region of one signature group, lowered.

    Holds what every fill of the region needs, derived once: the
    temporary coarse blocks' variables and boxes, the relative slices of
    every gather into them, the source-side stream plans of cross-rank
    gathers, which temps need a clamp (and against which valid box), the
    destination patch data and the sources each halo stamp names.  The
    temps themselves are allocated and freed on every fill.
    """

    __slots__ = ("specs", "ig", "dst_owner", "temps", "dst_pds",
                 "stamp_srcs", "gathers", "gather_total", "streams",
                 "clamps")

    def __init__(self, specs: list[FillSpec], ig: _InterpGeom,
                 coarse_level: "PatchLevel"):
        self.specs = specs
        self.ig = ig
        self.dst_owner = ig.dst_patch.owner
        #: (temp variable, temp box) per spec; every temp's storage
        #: frame is ``ig.coarse_frame`` (see :func:`temp_box_for`)
        self.temps = tuple((temp_variable(spec.var),
                            temp_box_for(spec.var, ig.coarse_frame))
                           for spec in specs)
        names = [spec.var.name for spec in specs]
        self.dst_pds = tuple(ig.dst_patch.data(n) for n in names)
        self.stamp_srcs = tuple(
            tuple(sp.data(n) for sp, _ in ig.sources) for n in names)
        #: same-rank sources: (spec index, src_pd, temp slices, source
        #: slices)
        gathers = []
        self.gather_total = 0
        #: cross-rank sources: (src owner, source stream plan, temp
        #: slices, elements per spec, region shape)
        streams = []
        for src_patch, sub in ig.sources:
            temp_sl, shape = relative(sub, ig.coarse_frame)
            if src_patch.owner == self.dst_owner:
                for j, name in enumerate(names):
                    src_pd = src_patch.data(name)
                    gathers.append((
                        j, src_pd, temp_sl,
                        relative(sub, frame_of(src_pd))[0]))
                    self.gather_total += sub.size()
            else:
                pack = StreamPlan.compile(
                    [(src_patch.data(n), sub) for n in names])
                streams.append((src_patch.owner, pack, temp_sl, sub.size(),
                                shape))
        self.gathers = tuple(gathers)
        self.streams = tuple(streams)
        #: (spec index, temp frame, valid box) of temps reaching outside
        #: the coarse domain
        clamps = []
        for j, spec in enumerate(specs):
            valid = index_box_for(spec.var, coarse_level.domain)
            if not valid.contains_box(ig.coarse_frame):
                clamps.append((j, ig.coarse_frame, valid))
        self.clamps = tuple(clamps)

    def allocate(self, factory, rank) -> list:
        """This fill's temporary coarse blocks, one per spec."""
        return [factory.allocate(temp_var, temp_box, rank)
                for temp_var, temp_box in self.temps]

    def extend_gather(self, temps, dsts, srcs, rest) -> None:
        """Append the same-rank gathers into ``temps`` to a copy batch."""
        for j, src_pd, temp_sl, src_sl in self.gathers:
            temp = temps[j]
            dsts.append(temp)
            srcs.append(src_pd)
            rest.append((temp, src_pd, temp_sl, src_sl))

    def gather_plan(self, temps) -> CopyPlan:
        dsts, srcs, rest = [], [], []
        self.extend_gather(temps, dsts, srcs, rest)
        return CopyPlan(dsts, srcs, self.gather_total, (), rest)

    @staticmethod
    def unpack_plan(temps, temp_sl, n: int, shape) -> StreamPlan:
        """The destination side of one cross-rank gather: ``n`` elements
        per temp, in spec order."""
        return StreamPlan(
            temps, n * len(temps), (),
            [(temp, temp_sl, j * n, (j + 1) * n, shape)
             for j, temp in enumerate(temps)])


def _group_copies(items) -> tuple[list, list]:
    """Same-level copies grouped as the fill executes them.

    Returns ``(local, remote)``: ``local`` holds ``(dst, [(dst_pd,
    src_pd, region)])`` per destination patch of same-rank copies,
    ``remote`` holds ``(src, dst, [(name, region)])`` per (source,
    destination) pair of cross-rank copies, both in first-use order.
    """
    local: dict = {}
    remote: dict = {}
    for spec, geom in items:
        name = spec.var.name
        for src, dst, region in geom.copies:
            if src.owner == dst.owner:
                entry = local.setdefault(id(dst), (dst, []))
                entry[1].append((dst.data(name), src.data(name), region))
            else:
                entry = remote.setdefault((id(src), id(dst)), (src, dst, []))
                entry[2].append((name, region))
    return list(local.values()), list(remote.values())


class _FillPlan:
    """A :class:`RefineSchedule` lowered once for replay.

    The same-level copies are grouped once (:func:`_group_copies`, the
    one lowering :meth:`RefineSchedule.fill` and
    :meth:`RefineSchedule.emit_tasks` both consume): each cross-rank
    stream's pack and unpack side becomes a :class:`StreamPlan` with its
    message size precomputed, and the same-rank copies a
    :class:`CopyPlan` per owning rank (batched fills) or per destination
    patch (unbatched fills and the task graph), compiled on first request.
    """

    def __init__(self, sched: "RefineSchedule"):
        from .transfer import MESSAGE_HEADER_BYTES

        self._items = sched.items
        remote = _group_copies(sched.items)[1]
        #: (src owner, dst owner, pack plan, unpack plan, message bytes)
        self.streams: list = []
        for src, dst, named in remote:
            pack = StreamPlan.compile([(src.data(n), r) for n, r in named])
            unpack = StreamPlan.compile([(dst.data(n), r) for n, r in named])
            self.streams.append((src.owner, dst.owner, pack, unpack,
                                 pack.total * 8 + MESSAGE_HEADER_BYTES))
        self.interps = [_InterpPlan(group, ig, sched.coarse_level)
                        for geom, group in sched.sig_groups
                        for ig in geom.interps]
        #: (dst patch, patch data) whose timestamps a timed fill sets
        self.timed = [(dst, [dst.data(spec.var.name) for spec, _ in sched.items])
                      for dst in sched.dst_level]
        self._by_owner: list | None = None
        self._by_dst: list | None = None

    def copies_by_owner(self) -> list:
        """(owner, CopyPlan): one fused copy per owning rank (batched).

        Arena-backed regions of the whole level then collapse to stacked
        slab ops — bitwise identical, since destinations are disjoint —
        and the modelled launch count drops, as for every ``--batch``
        fusion.
        """
        if self._by_owner is None:
            by_owner: dict[int, list] = {}
            for dst, items in _group_copies(self._items)[0]:
                by_owner.setdefault(dst.owner, []).extend(items)
            self._by_owner = [(owner, CopyPlan.compile(items))
                              for owner, items in by_owner.items()]
        return self._by_owner

    def copies_by_dst(self) -> list:
        """(owner, CopyPlan): one fused copy per destination patch."""
        if self._by_dst is None:
            self._by_dst = [(dst.owner, CopyPlan.compile(items))
                            for dst, items in _group_copies(self._items)[0]]
        return self._by_dst


class RefineSchedule:
    """Fills the ghost regions of every variable on a destination level."""

    def __init__(
        self,
        dst_level: "PatchLevel",
        coarse_level: "PatchLevel | None",
        specs: list[FillSpec],
        comm: "SimCommunicator",
        factory,
        boundary=None,
        src_level: "PatchLevel | None" = None,
        interior: bool = False,
        geometry_cache: dict | None = None,
        batch: bool = False,
        slab: bool = False,
    ):
        self.dst_level = dst_level
        self.coarse_level = coarse_level
        self.specs = specs
        self.comm = comm
        self.factory = factory
        self.boundary = boundary
        self.interior = interior
        #: fuse clamp/refine/boundary kernels into batched launches
        self.batch = batch
        #: ``--kernels slab``: fill work is inherently per-region (ragged
        #: halo bodies, per-region interpolation temps), so its fused
        #: launches are marked as deliberate slab fallbacks
        self.slab = slab
        if src_level is None and not interior:
            src_level = dst_level
        cache = geometry_cache if geometry_cache is not None else {}
        self.items: list[tuple[FillSpec, FillGeometry]] = []
        self.sig_groups: list[tuple[FillGeometry, list[FillSpec]]] = []
        by_geom: dict[int, list[FillSpec]] = {}
        for spec in specs:
            sig = signature_of(spec.var)
            # Keyed on the level *objects* (identity hash), not their ids:
            # a persistent cache (xfer.schedule_cache) must pin the levels
            # so a freed level's id can never be reused by a new one.
            key = (dst_level, coarse_level, src_level, interior, sig)
            geom = cache.get(key)
            if geom is None:
                geom = build_fill_geometry(
                    dst_level, coarse_level, sig, src_level, interior
                )
                cache[key] = geom
            if geom.interps and spec.refine_op is None:
                raise ValueError(
                    f"variable {spec.var.name!r} on level "
                    f"{dst_level.level_number} needs coarse-level fill but "
                    "has no refine operator"
                )
            self.items.append((spec, geom))
            group = by_geom.get(id(geom))
            if group is None:
                group = []
                by_geom[id(geom)] = group
                self.sig_groups.append((geom, group))
            group.append(spec)
        #: every filled variable, in spec order (boundary fills)
        self.variables = [spec.var for spec, _ in self.items]
        self._plan: _FillPlan | None = None

    # -- transfer plan ----------------------------------------------------------

    @property
    def plan(self) -> "_FillPlan":
        """This schedule lowered for replay, compiled on first use.

        The plan lives on the schedule, so it is dropped with it when
        :class:`~repro.xfer.schedule_cache.ScheduleCache` purges the
        schedule after a regrid; a schedule used once compiles it once.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = _FillPlan(self)
        return plan

    # -- execution --------------------------------------------------------------

    def _note_fill_start(self, chk) -> None:
        """Tell the sanitizer this fill begins (emission order).

        A ghost fill repartitions *every* ghost region of every
        destination (copies + interpolation cover in-domain, physical BCs
        cover out-of-domain), so old halo stamps are dropped before the
        new ones land.  An interior fill instead writes destination
        interiors (regrid solution transfer).
        """
        for dst in self.dst_level:
            for spec, _ in self.items:
                pd = dst.data(spec.var.name)
                if self.interior:
                    chk.note_interior_write(pd)
                else:
                    chk.reset_stamps(pd)

    def fill(self, time: float | None = None) -> None:
        """Execute the schedule: copies, interpolation, physical BCs.

        Same-rank copies are fused into one kernel per destination patch
        (per owning rank under ``--batch``); cross-rank copies are packed
        per (src, dst) pair into one message stream covering every
        variable (the paper's MessageStream path).  Every batch replays
        its lowered plan (:attr:`plan`).
        """
        from ..comm.simcomm import Message
        from .message import copy_batch_local, pack_batch, unpack_batch

        plan = self.plan
        chk = _check_active()
        if chk is not None:
            self._note_fill_start(chk)
        messages = []
        ranks = self.comm.ranks
        copies = (plan.copies_by_owner() if self.batch
                  else plan.copies_by_dst())
        for owner, copy in copies:
            copy_batch_local(copy, ranks[owner])
        if chk is not None and not self.interior:
            for _, copy in copies:
                for dst_pd, src_pd in zip(copy.dsts, copy.srcs):
                    chk.stamp(dst_pd, (src_pd,))
        for src_owner, dst_owner, pack, unpack, nbytes in plan.streams:
            buf = pack_batch(pack, ranks[src_owner])
            messages.append(Message(src_owner, dst_owner, nbytes))
            unpack_batch(buf, unpack, ranks[dst_owner])
            if chk is not None and not self.interior:
                for src_pd, dst_pd in zip(pack.pds, unpack.pds):
                    chk.stamp(dst_pd, (src_pd,))
        if self.batch:
            self._fill_interps_batched(messages)
        else:
            for ip in plan.interps:
                self._execute_interp_group(ip, messages)
        self.comm.exchange(messages)
        if self.boundary is not None:
            if self.batch:
                self._apply_boundary_batched(self.variables, ranks)
            else:
                for dst in self.dst_level:
                    self.boundary.apply_all(dst, self.variables,
                                            ranks[dst.owner])
        if time is not None:
            for _dst, pds in plan.timed:
                for pd in pds:
                    pd.set_time(time)

    def emit_tasks(self, gb, time: float | None = None) -> None:
        """Record this fill into a graph builder (the scheduler path).

        Emits the same work as :meth:`fill`, in the same order, but
        decomposed into typed tasks: fused local copies, six-stage message
        streams for cross-rank batches, interpolation gathers + refines,
        physical BCs, and a final host-side timestamp update.  Dependencies
        come from the builder's read/write tracking, so any topological
        order reproduces :meth:`fill` bit for bit.  The tasks replay the
        same lowered plan as :meth:`fill`.
        """
        plan = self.plan
        chk = _check_active()
        if chk is not None:
            self._note_fill_start(chk)
        ghost = not self.interior
        ranks = self.comm.ranks
        for owner, copies in plan.copies_by_dst():
            gb.copy(ranks[owner], copies, "fill.copy", ghost=ghost)
        for src_owner, dst_owner, pack, unpack, _ in plan.streams:
            gb.stream_batch(
                ranks[src_owner], ranks[dst_owner], pack, unpack,
                f"fill.L{self.dst_level.level_number}",
                ghost=ghost,
            )
        for ip in plan.interps:
            self._emit_interp_group(gb, ip)
        if self.boundary is not None:
            for dst in self.dst_level:
                gb.boundary(dst, self.variables, ranks[dst.owner],
                            self.boundary)
        if time is not None:
            from ..sched.task import TaskKind

            for dst, pds in plan.timed:

                def set_times(stream, pds=pds):
                    for pd in pds:
                        pd.set_time(time)

                gb.add(TaskKind.HOST, dst.owner, "fill.set_time", set_times,
                       reads=pds)

    def _emit_interp_group(self, gb, ip: "_InterpPlan") -> None:
        """Task-graph counterpart of :meth:`_execute_interp_group`."""
        from ..exec.backend import array_of, backend_for
        from ..sched.task import TaskKind

        dst_rank = self.comm.rank(ip.dst_owner)
        temps = ip.allocate(self.factory, dst_rank)
        for src_owner, pack, *unpack in ip.streams:
            gb.stream_batch(
                self.comm.rank(src_owner), dst_rank, pack,
                ip.unpack_plan(temps, *unpack),
                f"fill.interp.L{self.dst_level.level_number}",
            )
        if ip.gathers:
            gb.copy(dst_rank, ip.gather_plan(temps), "fill.gather")

        for j, frame, valid in ip.clamps:
            temp = temps[j]
            gb.kernel_task(
                backend_for(temp, dst_rank), dst_rank, "pdat.copy",
                frame.size(),
                lambda temp=temp, frame=frame, valid=valid: clamp_extend(
                    array_of(temp), frame, valid),
                [temp], [temp])

        specs = ip.specs
        ghost = not self.interior
        marks = ([("stamp", pd, srcs)
                  for pd, srcs in zip(ip.dst_pds, ip.stamp_srcs)]
                 if ghost else ())
        gb.add(TaskKind.KERNEL, dst_rank.index, "fill.refine",
               lambda _stream: self._fused_refine(specs, temps, ip.ig,
                                                  dst_rank),
               reads=temps, writes=list(ip.dst_pds), ghost_only=ghost,
               marks=marks)

        def free_temps(stream):
            _free(temps)

        gb.add(TaskKind.HOST, dst_rank.index, "fill.free", free_temps,
               writes=temps)

    def _execute_interp_group(self, ip: "_InterpPlan", messages) -> None:
        """Interpolate one region for every variable of one signature.

        Temporary coarse blocks (one per variable) are gathered together:
        same-rank source copies fuse into one kernel, cross-rank sources
        send one message stream covering all variables, and the refine
        operator runs once per region with all variables fused.
        """
        from ..comm.simcomm import Message
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        dst_rank = self.comm.rank(ip.dst_owner)
        temps = ip.allocate(self.factory, dst_rank)
        for src_owner, pack, *unpack in ip.streams:
            buf = pack_batch(pack, self.comm.rank(src_owner))
            messages.append(Message(src_owner, ip.dst_owner,
                                    pack.total * 8 + MESSAGE_HEADER_BYTES))
            unpack_batch(buf, ip.unpack_plan(temps, *unpack), dst_rank)
        if ip.gathers:
            copy_batch_local(ip.gather_plan(temps), dst_rank)

        for j, frame, valid in ip.clamps:
            self._clamp_temp(temps[j], frame, valid, dst_rank)
        self._fused_refine(ip.specs, temps, ip.ig, dst_rank)
        chk = _check_active()
        if chk is not None and not self.interior:
            for pd, srcs in zip(ip.dst_pds, ip.stamp_srcs):
                chk.stamp(pd, srcs)
        _free(temps)

    def _fill_interps_batched(self, messages) -> None:
        """Batched interpolation: gather every temp block first, then one
        clamp launch and one refine launch per destination backend.

        Interp regions are mutually disjoint (per-destination remainders
        after copy subtraction, coalesced) and each temp is private to its
        region, so fusing across regions and variables is bitwise-safe.
        Halo stamps ride the fused launch as marks, replacing the
        per-region ``chk.stamp`` calls of the reference path.
        """
        from ..comm.simcomm import Message
        from ..exec.backend import array_of, backend_for
        from ..exec.batch import SLAB_FALLBACK, BatchMember
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        slab = SLAB_FALLBACK if self.slab else None

        entries = []  # (interp plan, temps, dst_rank)
        gathers: dict[int, tuple] = {}  # dst owner -> (rank, copy batch)
        for ip in self.plan.interps:
            dst_rank = self.comm.rank(ip.dst_owner)
            temps = ip.allocate(self.factory, dst_rank)
            for src_owner, pack, *unpack in ip.streams:
                buf = pack_batch(pack, self.comm.rank(src_owner))
                messages.append(Message(
                    src_owner, ip.dst_owner,
                    pack.total * 8 + MESSAGE_HEADER_BYTES))
                unpack_batch(buf, ip.unpack_plan(temps, *unpack), dst_rank)
            if ip.gathers:
                entry = gathers.get(ip.dst_owner)
                if entry is None:
                    entry = gathers[ip.dst_owner] = (dst_rank, [], [], [], [0])
                ip.extend_gather(temps, entry[1], entry[2], entry[3])
                entry[4][0] += ip.gather_total
            entries.append((ip, temps, dst_rank))
        for rank, dsts, srcs, rest, total in gathers.values():
            copy_batch_local(CopyPlan(dsts, srcs, total[0], (), rest), rank)

        ghost = not self.interior
        ratio = self.dst_level.ratio_to_coarser
        clamps: dict[int, tuple[object, list]] = {}
        refines: dict[int, tuple[object, list]] = {}
        for ip, temps, dst_rank in entries:
            for j, frame, valid in ip.clamps:
                temp = temps[j]
                backend = backend_for(temp, dst_rank)
                entry = clamps.setdefault(id(backend), (backend, []))
                entry[1].append(BatchMember(
                    frame.size(),
                    lambda temp=temp, frame=frame, valid=valid:
                        clamp_extend(array_of(temp), frame, valid),
                    reads=(temp,), writes=(temp,), slab=slab))
            for spec, temp, dst_pd, srcs in zip(ip.specs, temps, ip.dst_pds,
                                                ip.stamp_srcs):
                member = spec.refine_op.batch_member(
                    temp, dst_pd, ip.ig.region, ratio)
                member.slab = slab
                if ghost:
                    member.marks = (("stamp", dst_pd, srcs),)
                backend = backend_for(dst_pd, dst_rank)
                entry = refines.setdefault(id(backend), (backend, []))
                entry[1].append(member)
        for backend, members in clamps.values():
            backend.run_batched("pdat.copy", members)
        for backend, members in refines.values():
            backend.run_batched("geom.refine", members, ghost_only=ghost)
        for _, temps, _ in entries:
            _free(temps)

    def _apply_boundary_batched(self, variables, ranks) -> None:
        """One ``update_halo`` launch per rank over its boundary patches."""
        from ..exec.backend import backend_for

        from ..exec.batch import SLAB_FALLBACK

        groups: dict[int, tuple[object, list]] = {}
        for dst in self.dst_level:
            member = self.boundary.batch_member(dst, variables)
            if member is None:
                continue
            if self.slab:
                member.slab = SLAB_FALLBACK
            backend = backend_for(member.writes[0], ranks[dst.owner])
            entry = groups.setdefault(id(backend), (backend, []))
            entry[1].append(member)
        for backend, members in groups.values():
            backend.run_batched("hydro.update_halo", members, ghost_only=True)

    def _fused_refine(self, specs, temps, ig: _InterpGeom, dst_rank) -> None:
        """One refine launch covering every variable of the signature."""
        ratio = self.dst_level.ratio_to_coarser
        if self.batch:
            # Scheduler path: the surrounding fill.refine task declares the
            # union of operands; one batched launch replaces the
            # per-variable (or homogeneous-op fused) launches.
            from ..exec.backend import backend_for
            from ..exec.batch import SLAB_FALLBACK

            members = [
                spec.refine_op.batch_member(
                    temp, ig.dst_patch.data(spec.var.name), ig.region, ratio)
                for spec, temp in zip(specs, temps)
            ]
            if self.slab:
                for member in members:
                    member.slab = SLAB_FALLBACK
            backend_for(temps[0], dst_rank).run_batched("geom.refine", members)
            return
        op0 = specs[0].refine_op
        if len(specs) == 1 or any(type(s.refine_op) is not type(op0) for s in specs):
            for spec, temp in zip(specs, temps):
                spec.refine_op.apply(
                    temp, ig.dst_patch.data(spec.var.name),
                    ig.region, ratio, rank=dst_rank,
                )
            return
        from ..geom.operators import fused_refine_apply

        pairs = [
            (temp, ig.dst_patch.data(spec.var.name))
            for spec, temp in zip(specs, temps)
        ]
        fused_refine_apply(specs[0].refine_op, pairs, ig.region, ratio, dst_rank)

    def _clamp_temp(self, temp, frame: Box, valid: Box, rank) -> None:
        """Zero-gradient-extend temp cells outside the coarse domain."""
        from ..exec.backend import array_of, run_on

        run_on(
            temp, rank, "pdat.copy", frame.size(),
            lambda: clamp_extend(array_of(temp), frame, valid),
        )

    # -- statistics ---------------------------------------------------------------

    def num_transactions(self) -> tuple[int, int]:
        copies = sum(len(g.copies) for _, g in self.items)
        interps = sum(len(g.interps) for _, g in self.items)
        return copies, interps

    # Backwards-compatible views used by a few tests.
    @property
    def copies(self):
        return [t for _, g in self.items for t in g.copies]

    @property
    def interps(self):
        return [t for _, g in self.items for t in g.interps]
