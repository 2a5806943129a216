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

import numpy as np

from ..check.context import active as _check_active
from ..exec.backend import frame_of
from ..exec.plan import CopyPlan, StreamPlan
from ..mesh.box import Box, IntVector
from ..mesh.box_container import BoxContainer
from ..mesh.variables import Variable
from .interp_program import (
    ClampProgram, GatherProgram, RefineProgram, TempBlock, UnpackPlan,
    block_indices, check_extent, flat_of, index_array, region_indices)
from .overlap import frame_box_for, ghost_fill_pieces, index_box_for

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
    temporaries' variables, boxes and frame shape (spec ``j``'s temp
    starts at ``j * frame_size`` of the region's temp block), the
    same-rank coarse sources, the source-side stream plans of cross-rank
    sources and where each stream lands in the temp block, the clamp
    program of temps reaching outside the coarse domain, the destination
    patch data and the sources each halo stamp names.  The index arrays
    of the refine and gather work (:mod:`repro.xfer.interp_program`)
    are lowered on demand: into this region's own programs (unbatched
    fills, the task graph) or into the stacked programs of its
    destination rank (batched fills, :meth:`_FillPlan.stacked`).  Only
    the temp storage is made per fill: one arena per region or per
    destination rank.
    """

    __slots__ = ("specs", "ig", "ratio", "dst_owner", "temps", "frame_size",
                 "dst_pds", "stamp_srcs", "local_sources", "streams",
                 "clamp", "_gather", "_program", "_unpacks")

    def __init__(self, specs: list[FillSpec], ig: _InterpGeom,
                 coarse_level: "PatchLevel", ratio: IntVector):
        self.specs = specs
        self.ig = ig
        self.ratio = ratio
        self.dst_owner = ig.dst_patch.owner
        frame = ig.coarse_frame
        shape = tuple(frame.shape())
        #: (temp variable, temp box, frame shape) per spec; every temp's
        #: storage frame is ``ig.coarse_frame`` (see :func:`temp_box_for`)
        self.temps = tuple((temp_variable(spec.var),
                            temp_box_for(spec.var, frame), shape)
                           for spec in specs)
        self.frame_size = frame.size()
        names = [spec.var.name for spec in specs]
        self.dst_pds = tuple(ig.dst_patch.data(n) for n in names)
        self.stamp_srcs = tuple(
            tuple(sp.data(n) for sp, _ in ig.sources) for n in names)
        #: same-rank sources: (coarse patch, region of the temps)
        self.local_sources = tuple(
            (sp, sub) for sp, sub in ig.sources if sp.owner == self.dst_owner)
        #: cross-rank sources: (src owner, source stream plan, region of
        #: the temps)
        self.streams = tuple(
            (sp.owner, StreamPlan.compile([(sp.data(n), sub) for n in names]),
             sub)
            for sp, sub in ig.sources if sp.owner != self.dst_owner)
        #: clamp of one temp, when the frame reaches outside the coarse
        #: domain (every spec of a signature group shares frame and valid
        #: box, so all of its temps clamp alike)
        valid = index_box_for(specs[0].var, coarse_level.domain)
        self.clamp = (None if valid.contains_box(frame)
                      else ClampProgram.compile(frame, valid))
        self._gather: GatherProgram | None = None
        self._program: RefineProgram | None = None
        self._unpacks: list | None = None

    def regions(self, offsets=None) -> list:
        """The region's refine work as :class:`RefineProgram` regions:
        ``(formula, stencil indices, weights, [(temp offset, dst_pd,
        destination indices)])`` per distinct stencil (one, unless the
        specs mix operators).  ``offsets[j]`` places spec ``j``'s temp,
        by default at ``j * frame_size``."""
        frame, region = self.ig.coarse_frame, self.ig.region
        stencils: dict = {}
        dsts: dict = {}
        for j, (spec, dst_pd) in enumerate(zip(self.specs, self.dst_pds)):
            op, axis = spec.refine_op, spec.var.axis
            key = (type(op), axis)
            entry = stencils.get(key)
            if entry is None:
                entry = stencils[key] = (
                    op.formula, *op.stencil(frame, region, self.ratio, axis),
                    [])
            dst_frame = frame_of(dst_pd)
            dst = dsts.get(dst_frame)
            if dst is None:
                dst = dsts[dst_frame] = region_indices(region, dst_frame)
            entry[3].append((j * self.frame_size if offsets is None
                             else offsets[j], dst_pd, dst))
        return list(stencils.values())

    def gathers(self) -> list:
        """``(spec index, offset in the temp block, src_pd, source
        indices, temp indices)`` per same-rank source and spec."""
        frame = self.ig.coarse_frame
        items = []
        for src_patch, sub in self.local_sources:
            into = region_indices(sub, frame)
            srcs: dict = {}
            for j, spec in enumerate(self.specs):
                src_pd = src_patch.data(spec.var.name)
                src_frame = frame_of(src_pd)
                src = srcs.get(src_frame)
                if src is None:
                    src = srcs[src_frame] = region_indices(sub, src_frame)
                items.append((j, j * self.frame_size, src_pd, src, into))
        return items

    def stream_indices(self) -> list:
        """Flat indices, in one temp, of each cross-rank stream's region."""
        return [region_indices(sub, self.ig.coarse_frame)
                for _, _, sub in self.streams]

    @property
    def unpacks(self) -> list:
        """Where each cross-rank stream lands in the region's own temp
        block: every spec's temp in turn, as the stream packs them."""
        if self._unpacks is None:
            self._unpacks = [
                block_indices(into, len(self.specs), self.frame_size)
                for into in self.stream_indices()]
        return self._unpacks

    @property
    def refine_elements(self) -> int:
        """Fine elements one fill of the region writes, over all specs."""
        return self.ig.region.size() * len(self.specs)

    @property
    def program(self) -> RefineProgram:
        """The region's refine program over its own temp block."""
        if self._program is None:
            self._program = RefineProgram.compile(self.regions())
        return self._program

    def allocate(self, factory, rank) -> TempBlock:
        """This fill's temporary coarse blocks, one per spec, in one arena."""
        return TempBlock(*factory.allocate_temps(self.temps, rank))

    @property
    def gather(self) -> GatherProgram:
        """The region's same-rank gathers into its own temp block."""
        if self._gather is None:
            self._gather = GatherProgram.compile(self.gathers())
        return self._gather


class _RankInterps:
    """Every interpolation region with one destination rank, stacked.

    ``items`` lays out the rank's temp slab: per signature group, the
    temps of its first spec for every region, then of its second, and
    so on, so every region of the group finds its specs' temps at the
    same relative offsets and the group's refines stack into one
    broadcast gather (:class:`RefineProgram`).  ``gather``, ``clamp`` and
    ``refine`` are the fused same-rank gather, clamp and refine programs
    over the slab; ``slots`` maps each region (by id) to its temps'
    indices and where its cross-rank streams land.  ``clamp_members`` holds ``(temp
    index, elements)`` and ``refine_members`` ``(temp index, elements,
    dst_pd, marks)``: the per-temp declarations the fused launches
    carry, in the order the per-region launches had them.
    """

    __slots__ = ("owner", "items", "slots", "gather", "clamp",
                 "clamp_members", "refine", "refine_members")

    def __init__(self, owner: int, interps, ghost: bool):
        self.owner = owner
        groups: dict[int, list] = {}
        for ip in interps:
            groups.setdefault(id(ip.specs), []).append(ip)
        items: list = []
        #: (id(region), spec index) -> (temp index, offset in the slab)
        place: dict = {}
        offset = 0
        for ips in groups.values():
            for j in range(len(ips[0].specs)):
                for ip in ips:
                    place[id(ip), j] = (len(items), offset)
                    items.append(ip.temps[j])
                    offset += ip.frame_size
        check_extent(offset)
        self.items = tuple(items)
        self.slots: dict[int, tuple] = {}
        gathers = []
        clamps = []
        self.clamp_members = []
        regions = []
        self.refine_members = []
        for ip in interps:
            temps = [place[id(ip), j] for j in range(len(ip.specs))]
            self.slots[id(ip)] = (
                tuple(i for i, _ in temps),
                tuple(index_array(np.concatenate(
                          [off + into for _, off in temps]))
                      for into in ip.stream_indices()))
            gathers.extend((temps[j][0], temps[j][1], src_pd, src, into)
                           for j, _, src_pd, src, into in ip.gathers())
            regions.extend(ip.regions([off for _, off in temps]))
            n = ip.ig.region.size()
            for j, dst_pd in enumerate(ip.dst_pds):
                index, off = temps[j]
                if ip.clamp is not None:
                    clamps.append((off, ip.clamp))
                    self.clamp_members.append((index, ip.clamp.elements))
                marks = ((("stamp", dst_pd, ip.stamp_srcs[j]),) if ghost
                         else ())
                self.refine_members.append((index, n, dst_pd, marks))
        self.gather = GatherProgram.compile(gathers) if gathers else None
        self.clamp = ClampProgram.stack(clamps) if clamps else None
        self.refine = RefineProgram.compile(regions)

    def clamp_batch(self, block: TempBlock, slab) -> tuple[list, object]:
        """``(members, body)`` of this fill's fused clamp launch."""
        from ..exec.batch import BatchMember

        temps = [block.pds[i] for i, _ in self.clamp_members]
        members = [BatchMember(n, None, reads=(t,), writes=(t,), slab=slab)
                   for t, (_, n) in zip(temps, self.clamp_members)]
        clamp = self.clamp
        return members, lambda: clamp.run(block.flat(temps))

    def refine_batch(self, block: TempBlock, slab) -> tuple[list, object]:
        """``(members, body)`` of this fill's fused refine launch."""
        from ..exec.batch import BatchMember

        temps = block.pds
        members = [BatchMember(n, None, reads=(temps[i],), writes=(pd,),
                               marks=marks, slab=slab)
                   for i, n, pd, marks in self.refine_members]
        refine = self.refine
        return members, lambda: refine.run(block.flat())


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
        self._ghost = not sched.interior
        self.interps = [_InterpPlan(group, ig, sched.coarse_level,
                                    sched.dst_level.ratio_to_coarser)
                        for geom, group in sched.sig_groups
                        for ig in geom.interps]
        #: (dst patch, patch data) whose timestamps a timed fill sets
        self.timed = [(dst, [dst.data(spec.var.name) for spec, _ in sched.items])
                      for dst in sched.dst_level]
        self._by_owner: list | None = None
        self._by_dst: list | None = None
        self._stacked: tuple | None = None

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

    def _first_use(self, ranks: dict, uses) -> list:
        """The entries of ``ranks`` whose regions ``uses``, in the order
        of their first such region."""
        owners = [ip.dst_owner for ip in self.interps if uses(ip)]
        return [ranks[o] for o in dict.fromkeys(owners)]

    def stacked(self) -> tuple:
        """``(ranks, gathered, clamped)``: the interpolation regions
        stacked per destination rank (batched fills), compiled on first
        request.

        ``ranks`` maps each destination rank, in first-use order, to its
        :class:`_RankInterps`; ``gathered``/``clamped`` list those with
        same-rank gathers/clamps in first-use order (the launch orders of
        the per-region path).
        """
        if self._stacked is None:
            by_owner: dict[int, list] = {}
            for ip in self.interps:
                by_owner.setdefault(ip.dst_owner, []).append(ip)
            ranks = {owner: _RankInterps(owner, ips, self._ghost)
                     for owner, ips in by_owner.items()}
            self._stacked = (
                ranks,
                self._first_use(ranks, lambda ip: ip.local_sources),
                self._first_use(ranks, lambda ip: ip.clamp is not None))
        return self._stacked


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
        #: ``--kernels slab``: fill work does not tile a uniform arena
        #: (ragged halo bodies, interpolation regions), so its fused
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
        block = ip.allocate(self.factory, dst_rank)
        temps = block.pds
        for (src_owner, pack, _), idx in zip(ip.streams, ip.unpacks):
            gb.stream_batch(
                self.comm.rank(src_owner), dst_rank, pack,
                UnpackPlan(temps, block, idx),
                f"fill.interp.L{self.dst_level.level_number}",
            )
        if ip.local_sources:
            gb.copy(dst_rank, ip.gather.plan(block), "fill.gather")

        clamp = ip.clamp
        if clamp is not None:
            for temp in temps:
                gb.kernel_task(
                    backend_for(temp, dst_rank), dst_rank, "pdat.copy",
                    clamp.elements,
                    lambda temp=temp: clamp.run(flat_of(array_of(temp))),
                    [temp], [temp])

        ghost = not self.interior
        marks = ([("stamp", pd, srcs)
                  for pd, srcs in zip(ip.dst_pds, ip.stamp_srcs)]
                 if ghost else ())
        gb.add(TaskKind.KERNEL, dst_rank.index, "fill.refine",
               lambda _stream: self._refine_region(ip, block, dst_rank),
               reads=temps, writes=list(ip.dst_pds), ghost_only=ghost,
               marks=marks)

        def free_temps(stream):
            _free(block.pds)

        gb.add(TaskKind.HOST, dst_rank.index, "fill.free", free_temps,
               writes=temps)

    def _execute_interp_group(self, ip: "_InterpPlan", messages) -> None:
        """Interpolate one region for every variable of one signature.

        Temporary coarse blocks (one per variable, carved from one arena)
        are gathered together: same-rank source copies fuse into one
        kernel, cross-rank sources send one message stream covering all
        variables, and the region's refine program runs once with all
        variables fused.
        """
        from ..comm.simcomm import Message
        from ..exec.backend import array_of, run_on
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        dst_rank = self.comm.rank(ip.dst_owner)
        block = ip.allocate(self.factory, dst_rank)
        temps = block.pds
        for (src_owner, pack, _), idx in zip(ip.streams, ip.unpacks):
            buf = pack_batch(pack, self.comm.rank(src_owner))
            messages.append(Message(src_owner, ip.dst_owner,
                                    pack.total * 8 + MESSAGE_HEADER_BYTES))
            unpack_batch(buf, UnpackPlan(temps, block, idx), dst_rank)
        if ip.local_sources:
            copy_batch_local(ip.gather.plan(block), dst_rank)

        clamp = ip.clamp
        if clamp is not None:
            for temp in temps:
                run_on(temp, dst_rank, "pdat.copy", clamp.elements,
                       lambda temp=temp: clamp.run(flat_of(array_of(temp))))
        self._refine_region(ip, block, dst_rank)
        chk = _check_active()
        if chk is not None and not self.interior:
            for pd, srcs in zip(ip.dst_pds, ip.stamp_srcs):
                chk.stamp(pd, srcs)
        _free(block.pds)

    def _refine_region(self, ip: "_InterpPlan", block, dst_rank) -> None:
        """One refine launch running the region's program for every
        variable of its signature (a fused launch of one member per
        variable under ``--batch``)."""
        program = ip.program

        def body():
            program.run(block.flat())

        if not self.batch:
            from ..exec.backend import run_on

            run_on(ip.dst_pds[0], dst_rank, "geom.refine",
                   ip.refine_elements, body)
            return
        # Scheduler path: the surrounding fill.refine task declares the
        # union of operands and carries the halo stamps.
        from ..exec.backend import backend_for
        from ..exec.batch import SLAB_FALLBACK, BatchMember

        slab = SLAB_FALLBACK if self.slab else None
        n = ip.ig.region.size()
        members = [BatchMember(n, None, reads=(temp,), writes=(pd,), slab=slab)
                   for temp, pd in zip(block.pds, ip.dst_pds)]
        backend_for(block.pds[0], dst_rank).run_batched(
            "geom.refine", members, body=body)

    def _fill_interps_batched(self, messages) -> None:
        """Batched interpolation: gather every temp block first, then one
        clamp launch and one refine launch per destination rank.

        Each rank's temps of this fill are carved from one slab, laid out
        by the stacked plan (:meth:`_FillPlan.stacked`); a launch runs
        that rank's compiled program — a few gathers, one formula
        evaluation per operator and one scatter per destination storage.
        Interp regions are mutually disjoint (per-destination remainders
        after copy subtraction, coalesced) and each temp is private to its
        region, so stacking regions and variables is bitwise-safe.  The
        launches keep one member per temp, so kernel names, element
        totals, declarations and counters are those of per-region
        launches; halo stamps ride them as marks, replacing the
        per-region ``chk.stamp`` calls of the reference path.
        """
        from ..comm.simcomm import Message
        from ..exec.backend import backend_for
        from ..exec.batch import SLAB_FALLBACK
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        slab = SLAB_FALLBACK if self.slab else None
        plan = self.plan
        ranks, gathered, clamped = plan.stacked()
        blocks: dict[int, TempBlock] = {}
        for ip in plan.interps:
            stack = ranks[ip.dst_owner]
            dst_rank = self.comm.rank(ip.dst_owner)
            block = blocks.get(ip.dst_owner)
            if block is None:
                block = blocks[ip.dst_owner] = TempBlock(
                    *self.factory.allocate_temps(stack.items, dst_rank))
            indices, streams = stack.slots[id(ip)]
            if not streams:
                continue
            temps = [block.pds[i] for i in indices]
            for (src_owner, pack, _), idx in zip(ip.streams, streams):
                buf = pack_batch(pack, self.comm.rank(src_owner))
                messages.append(Message(
                    src_owner, ip.dst_owner,
                    pack.total * 8 + MESSAGE_HEADER_BYTES))
                unpack_batch(buf, UnpackPlan(temps, block, idx), dst_rank)
        for stack in gathered:
            copy_batch_local(stack.gather.plan(blocks[stack.owner]),
                             self.comm.rank(stack.owner))

        for stack in clamped:
            block = blocks[stack.owner]
            members, body = stack.clamp_batch(block, slab)
            backend_for(block.pds[0], self.comm.rank(stack.owner)).run_batched(
                "pdat.copy", members, body=body)
        ghost = not self.interior
        for stack in ranks.values():
            members, body = stack.refine_batch(blocks[stack.owner], slab)
            backend_for(stack.refine_members[0][2],
                        self.comm.rank(stack.owner)).run_batched(
                "geom.refine", members, ghost_only=ghost, body=body)
        for block in blocks.values():
            _free(block.pds)

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

    # -- statistics ---------------------------------------------------------------

    def num_transactions(self) -> tuple[int, int]:
        copies = sum(len(g.copies) for _, g in self.items)
        interps = sum(len(g.interps) for _, g in self.items)
        return copies, interps
