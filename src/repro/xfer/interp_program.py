"""Interpolation programs: coarse–fine refines lowered to flat gathers.

A ghost fill interpolates every in-domain region no same-level
neighbour covers from temporary coarse blocks — one temp per variable,
covering the region's ``needed_coarse_frame``.  Which coarse points feed
each temp, which temp points each fine element reads with which
weights, and where its value lands depend only on the cached schedule's
geometry, so they are compiled once into flat index arrays:

* :class:`GatherProgram` — same-rank coarse data into the temps, one
  ``block[dst] = source[src]`` per source storage; :class:`UnpackPlan`
  lands a cross-rank stream at its temp indices.
* :class:`ClampProgram` — the zero-gradient extension of temps that
  reach outside the coarse domain, one gather/scatter.
* :class:`RefineProgram` — the refines: per operator formula and temp
  layout, one gather of the stencil points, one formula evaluation
  (:mod:`repro.geom.interp_math`) and one scatter per destination
  storage (a level arena, or a patch data outside any arena).

Indices are relative to a *temp block* (:class:`TempBlock`): the temps
of one region back to back (unbatched fills, the task graph), or those of
every region on one rank (the one slab of a batched fill).  Evaluation is
elementwise, so a stacked program gives every fine element the bits the
per-region ``interp_math.refine_*`` functions give it.  Index arrays are
int32; every arena and stacked temp slab a program indexes is checked
against :data:`INDEX_LIMIT` when the program is compiled.

Programs hold index arrays, weights and references to patch data and
arenas, never an ndarray view.  The run methods obtain every array inside
the launch, through :func:`~repro.exec.backend.array_of` or the checker's
slab handout, so device-access checks and ``--sanitize`` see a stacked
access as they see a per-region one.
"""

from __future__ import annotations

import numpy as np

from ..check.context import active as _check_active
from ..exec.backend import array_of
from ..exec.plan import CopyPlan, StreamPlan
from ..mesh.box import Box
from .overlap import clamp_indices

__all__ = ["RefineProgram", "ClampProgram", "GatherProgram", "UnpackPlan",
           "TempBlock", "region_indices", "block_indices", "index_array",
           "check_extent", "flat_of"]


#: elements one flat int32 index can address; storages and temp slabs
#: are checked against it when a program is compiled
INDEX_LIMIT = 2**31


def index_array(a) -> np.ndarray:
    """Indices ``a`` into a checked storage or block, as int32."""
    return np.asarray(a).astype(np.int32)


def _cat(parts, axis: int = 0) -> np.ndarray:
    """``parts`` joined along ``axis`` (a lone part is not copied)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def block_indices(idx: np.ndarray, count: int, size: int) -> np.ndarray:
    """``idx`` into each of ``count`` temps of ``size`` elements laid
    back to back, temp by temp."""
    return index_array((np.arange(count)[:, None] * size + idx).reshape(-1))


def region_indices(region: Box, frame: Box) -> np.ndarray:
    """Flat indices of ``region``'s elements, in row-major order, in a
    C-ordered array covering ``frame`` (containment checked)."""
    s0, s1 = region.slices_in(frame)
    row = frame.upper[1] - frame.lower[1] + 1
    return ((np.arange(s0.start, s0.stop) * row)[:, None]
            + np.arange(s1.start, s1.stop)[None, :]).reshape(-1)


def flat_of(arr: np.ndarray) -> np.ndarray:
    """A flat view of a whole C-contiguous frame array (never a copy)."""
    if not arr.flags.c_contiguous:
        raise ValueError("flat access needs C-contiguous storage")
    return arr.reshape(-1)


def _slab(arena, pds) -> np.ndarray:
    """``arena``'s flat slab handed to a launch body touching ``pds``."""
    flat = arena.flat_view()
    chk = _check_active()
    return flat if chk is None else chk.on_slab_handout(pds, flat)


def _storage(pd):
    """``(key, arena or None, flat offset)`` of the storage holding ``pd``."""
    arena = getattr(pd, "_arena", None)
    if arena is None:
        return id(pd), None, 0
    check_extent(arena.slab.size)
    return id(arena), arena, arena.offsets[pd._arena_index]


def check_extent(elements: int) -> None:
    """Raise unless int32 indices address a storage of ``elements``."""
    if elements > INDEX_LIMIT:
        raise IndexError(f"{elements} elements exceed int32 flat indexing")


def _storage_view(arena, pds) -> np.ndarray:
    """The flat storage of a scatter/gather group, inside a launch:
    ``arena``'s slab, or the single patch data ``pds`` when it has none."""
    return flat_of(array_of(pds)) if arena is None else _slab(arena, pds)


def _group_by_storage(items):
    """``[(arena, pds, parts)]`` of ``(pd, *part)`` items, one per
    storage in first-use order; ``pds`` is the arena's distinct members
    (or the single arena-less patch data), each part gains the storage
    offset of its patch data as first element."""
    stores: dict = {}
    for pd, *part in items:
        key, arena, base = _storage(pd)
        store = stores.get(key)
        if store is None:
            store = stores[key] = (arena, {}, [])
        store[1][id(pd)] = pd
        store[2].append((base, *part))
    return [(arena, tuple(pds.values()) if arena is not None
             else next(iter(pds.values())), parts)
            for arena, pds, parts in stores.values()]


class TempBlock:
    """The temps of one fill carved back to back from one arena."""

    __slots__ = ("arena", "pds")

    def __init__(self, arena, pds):
        self.arena = arena
        self.pds = pds

    def flat(self, pds=None) -> np.ndarray:
        """The block as one flat array (inside a launch); ``pds`` names
        the temps the launch declares, all of them by default."""
        return _slab(self.arena, self.pds if pds is None else pds)


class ClampProgram:
    """Zero-gradient extension of temps as one flat gather/scatter.

    ``dst``/``src`` index a temp (compiled per region) or a temp block
    (stacked); ``elements`` is the modelled size of one temp's clamp.
    """

    __slots__ = ("dst", "src", "elements")

    def __init__(self, dst: np.ndarray, src: np.ndarray, elements: int):
        self.dst = dst
        self.src = src
        self.elements = elements

    @classmethod
    def compile(cls, frame: Box, valid: Box) -> "ClampProgram":
        dst, src = clamp_indices(frame, valid)
        return cls(index_array(dst), index_array(src), frame.size())

    @classmethod
    def stack(cls, parts) -> "ClampProgram":
        """One program over ``(offset, program)`` parts of a block."""
        def shifted(field):
            return index_array(np.concatenate(
                [off + getattr(p, field).astype(np.int64) for off, p in parts]))

        return cls(shifted("dst"), shifted("src"),
                   sum(p.elements for _, p in parts))

    def run(self, flat: np.ndarray) -> None:
        flat[self.dst] = flat[self.src]


class RefineProgram:
    """Refine work grouped for evaluation: one gather, one formula
    evaluation and one scatter per destination storage and variable.

    The input is *regions* ``(formula, idx, w, dsts)``: one region's
    stencil indices (points, n) into a temp and weight columns (2, n),
    shared by its variables, and per variable ``(offset, dst_pd, dst)``
    — where its temp starts in the block, the destination and the flat
    destination indices in the destination's frame.  Regions whose
    variables' temps lie at equal relative offsets (a signature group
    laid out variable by variable, as :class:`TempBlock` layouts are)
    stack into one group ``(formula, idx, offsets, w, scatters)``:
    ``idx`` and ``w`` concatenate the regions along n, ``idx`` shifted to
    each region's first temp, and ``offsets`` (k,) holds the variables'
    temps relative to it.  The gather is ``block[idx + offsets]``
    (points, k, n), so row ``j`` of the output is variable ``j``'s and
    the stencil is stored once, not per variable.  ``scatters`` holds
    ``(arena, pds, start, stop, dst)``: elements ``start:stop`` of the
    flattened output land at flat ``dst`` of the arena's slab, or of the
    single patch data ``pds`` when ``arena`` is None.
    """

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = tuple(groups)

    @classmethod
    def compile(cls, regions) -> "RefineProgram":
        """Lower ``(formula, idx, w, [(offset, dst_pd, dst)])`` regions;
        destinations of different regions must be disjoint
        (interpolation regions are)."""
        stacks: dict = {}
        for formula, idx, w, dsts in regions:
            first = dsts[0][0]
            key = (formula, tuple(off - first for off, _, _ in dsts))
            stacks.setdefault(key, []).append((idx + first, w, dsts))
        groups = []
        for (formula, offsets), parts in stacks.items():
            idx = index_array(_cat([i for i, _, _ in parts], axis=1))
            n = idx.shape[1]
            shared: dict = {}
            scatters = []
            for j in range(len(offsets)):
                start = j * n
                runs = _group_runs([dsts[j][1:] for _, _, dsts in parts])
                for arena, pds, pieces in runs:
                    key = tuple((base, id(d)) for base, d in pieces)
                    dst = shared.get(key)
                    if dst is None:
                        dst = shared[key] = index_array(_cat(
                            [base + d for base, d in pieces]))
                    scatters.append((arena, pds, start, start + dst.size,
                                     dst))
                    start += dst.size
            groups.append((formula, idx, index_array(offsets),
                           _cat([w for _, w, _ in parts], axis=1),
                           tuple(scatters)))
        return cls(groups)

    def run(self, src: np.ndarray) -> None:
        """Evaluate every region from the flat temp block ``src`` (inside
        a launch on the destinations' resource)."""
        for formula, idx, offsets, w, scatters in self.groups:
            out = formula(src[idx[:, None, :] + offsets[:, None]], w)
            out = out.reshape(-1)
            for arena, pds, start, stop, dst in scatters:
                _storage_view(arena, pds)[dst] = out[start:stop]


def _group_runs(items):
    """``[(arena, pds, pieces)]``: consecutive ``(pd, dst)`` items
    sharing a storage merged into one run (a level's arena takes every
    region of one variable); ``pieces`` are ``(storage offset, dst)``
    and ``pds`` as for :func:`_group_by_storage`."""
    runs = []
    key = None
    for pd, dst in items:
        k, arena, base = _storage(pd)
        if k != key:
            key = k
            runs.append((arena, {}, []))
        runs[-1][1][id(pd)] = pd
        runs[-1][2].append((base, dst))
    return [(arena, tuple(pds.values()) if arena is not None
             else next(iter(pds.values())), pieces)
            for arena, pds, pieces in runs]


class GatherProgram:
    """Same-rank copies of coarse data into a temp block, as flat
    gathers: one ``block[dst] = source[src]`` per source storage.

    ``temps``/``srcs`` are the items' temp indices in the block and
    source patch data, in item order (the declarations of the copy),
    ``total`` their element count.
    """

    __slots__ = ("groups", "temps", "srcs", "total")

    def __init__(self, groups, temps, srcs, total: int):
        self.groups = tuple(groups)
        self.temps = tuple(temps)
        self.srcs = tuple(srcs)
        self.total = total

    @classmethod
    def compile(cls, items) -> "GatherProgram":
        """Lower ``(temp index, offset, src_pd, src, dst)`` items: ``src``
        indexes the source's frame, ``dst`` the temp starting at
        ``offset`` of the block."""
        groups = []
        for arena, pds, parts in _group_by_storage(
                (src_pd, off, src, dst) for _, off, src_pd, src, dst in items):
            groups.append((arena, pds,
                           index_array(_cat([base + s for base, _, s, _ in parts])),
                           index_array(_cat([off + d for _, off, _, d in parts]))))
        return cls(groups, [i for i, *_ in items], [it[2] for it in items],
                   sum(it[4].size for it in items))

    def plan(self, block: "TempBlock") -> "CopyPlan":
        """This fill's copy over ``block``, runnable by any backend."""
        return _GatherPlan(self, block)

    def run(self, dst: np.ndarray) -> None:
        for arena, pds, src, idx in self.groups:
            dst[idx] = _storage_view(arena, pds)[src]


class _GatherPlan(CopyPlan):
    """A :class:`~repro.exec.plan.CopyPlan` whose body is a compiled
    gather program over one fill's temp block."""

    __slots__ = ("_program", "_block")

    def __init__(self, program: GatherProgram, block: "TempBlock"):
        pds = block.pds
        super().__init__([pds[i] for i in program.temps], program.srcs,
                         program.total, (), ())
        self._program = program
        self._block = block

    def run(self) -> None:
        self._program.run(self._block.flat(self.dsts))


class UnpackPlan(StreamPlan):
    """The destination side of a cross-rank gather into a temp block:
    the stream lands at flat ``idx`` of the block, in stream order."""

    __slots__ = ("_block", "_idx")

    def __init__(self, temps, block: "TempBlock", idx: np.ndarray):
        super().__init__(temps, idx.size, (), ())
        self._block = block
        self._idx = idx

    def unpack_from(self, buffer: np.ndarray) -> None:
        self._block.flat(self.pds)[self._idx] = buffer
