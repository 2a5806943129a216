"""Flat transfer plans: batched region motion lowered once, replayed often.

Executing a batch of region copies (``(dst_pd, src_pd, region)`` items)
or of stream items (``(pd, region)``, packed back-to-back) needs each
region's slices relative to its operands' frames, a containment check
and the region's stacking group.  None of that changes between
executions of the same batch, so a plan does the box arithmetic once:

* regions whose operands tile uniform arenas at identical frame offsets
  become **stacked groups** — arena references plus the stacked index
  tuple ready for one fancy-indexed NumPy op (and, for streams, the flat
  gather/scatter indices into the contiguous buffer);
* everything else becomes **rest** entries with precomputed relative
  slices (and stream offsets and shapes) for the per-region fallback
  loop;
* the element total and the stacked/fallback split the backends record
  as ``StackCounter`` in :class:`~repro.exec.stats.ExecStats`.

Containment of every region in its operand's frame is checked here, at
compile time; an out-of-frame region raises ``IndexError`` before any
launch is charged.

Plans hold slices, index arrays, offsets and references to patch data
and arenas — never an ndarray view.  The replay methods run inside a
backend launch and obtain every array through ``full_view()`` (the
device ``kernel_view()``) or ``stacked_view()``, once per fallback entry
or stacked group, so use-after-free errors, device-access checks and
sanitizer hooks fire exactly as they do on a freshly planned batch.

The backends' ``copy_batch``/``pack_batch``/``unpack_batch`` execute
plans only: one-shot callers compile a plan and run it at once
(:mod:`repro.xfer.message`), cached transfer schedules keep theirs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CopyPlan", "StreamPlan", "relative"]


def _stack_member(pd):
    """(arena, stacked index) when ``pd`` tiles a uniform arena, else None."""
    arena = getattr(pd, "_arena", None)
    if arena is None or not arena.uniform:
        return None
    index = getattr(pd, "_arena_index", None)
    return None if index is None else (arena, index)


#: interned (slices, shape) per relative region, shared by every plan.
#: Halo geometry repeats few relative regions: 817 distinct among the
#: 32.7k lowered per ``amr_steady`` session of perfbench, 4302 for the
#: largest (``regrid_churn``); sharing them keeps plan memory within the
#: peak-RSS bound (measurements in DESIGN.md, "Transfer plans").  The
#: bound is twice the largest measured count; clearing the table never
#: changes or invalidates a plan.
_RELATIVE: dict[tuple, tuple] = {}
_RELATIVE_MAX = 8192


def _relative(region, frame) -> tuple[tuple, tuple, tuple]:
    """(slices, shape, key) of ``region`` inside an array covering
    ``frame``; raises IndexError when the frame does not contain it."""
    sl = region.slices_in(frame)
    key = tuple([x for s in sl for x in (s.start, s.stop)])
    hit = _RELATIVE.get(key)
    if hit is None:
        if len(_RELATIVE) >= _RELATIVE_MAX:
            _RELATIVE.clear()
        hit = _RELATIVE[key] = (sl, tuple(region.shape()))
    return hit[0], hit[1], key


def relative(region, frame) -> tuple[tuple, tuple]:
    """Interned ``(slices, shape)`` of ``region`` inside an array covering
    ``frame`` (containment checked, as :meth:`~repro.mesh.box.Box.slices_in`)."""
    sl, shape, _ = _relative(region, frame)
    return sl, shape


class CopyPlan:
    """Same-resource region copies, lowered for replay.

    ``dsts``/``srcs`` are the items' patch data in item order.
    ``groups`` holds ``(dst_arena, src_arena, dst_key, src_key)`` with
    the keys the stacked index tuples ``(member_indices, *slices)``;
    ``rest`` holds the per-region fallback as ``(dst_pd, src_pd,
    dst_slices, src_slices)`` in item order; ``fallback``
    counts them and ``eligible`` the items whose operands were both arena
    members (0 means no stacked/fallback split is recorded).
    """

    __slots__ = ("dsts", "srcs", "total", "groups", "rest", "fallback",
                 "eligible")

    def __init__(self, dsts, srcs, total: int, groups, rest,
                 eligible: int = 0):
        self.dsts = tuple(dsts)
        self.srcs = tuple(srcs)
        self.total = total
        self.groups = tuple(groups)
        self.rest = tuple(rest)
        self.fallback = len(self.rest)
        self.eligible = eligible

    def __len__(self) -> int:
        return len(self.dsts)

    @classmethod
    def compile(cls, items) -> "CopyPlan":
        """Lower ``(dst_pd, src_pd, region)`` items (destinations disjoint)."""
        dsts, srcs = [], []
        total = 0
        rest = []
        eligible = 0
        buckets: dict = {}
        stackable = len(items) >= 2
        for dst_pd, src_pd, region in items:
            dsts.append(dst_pd)
            srcs.append(src_pd)
            total += region.size()
            dsl, _, dkey = _relative(region, dst_pd.data.frame)
            ssl, _, skey = _relative(region, src_pd.data.frame)
            entry = (dst_pd, src_pd, dsl, ssl)
            d = _stack_member(dst_pd) if stackable else None
            s = _stack_member(src_pd) if d is not None else None
            if s is None:
                rest.append(entry)
                continue
            eligible += 1
            key = (id(d[0]), id(s[0]), dkey, skey)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = (d[0], s[0], dsl, ssl, [], [], [])
            bucket[4].append(d[1])
            bucket[5].append(s[1])
            bucket[6].append(entry)
        groups = []
        for darena, sarena, dsl, ssl, di, si, members in buckets.values():
            if len(members) < 2 or len(set(di)) != len(di):
                rest.extend(members)
                continue
            groups.append((darena, sarena, (np.asarray(di),) + dsl,
                           (np.asarray(si),) + ssl))
        return cls(dsts, srcs, total, groups, rest, eligible)

    def run(self) -> None:
        """The copy body; call inside a launch on the operands' resource."""
        for darena, sarena, dkey, skey in self.groups:
            darena.stacked_view()[dkey] = sarena.stacked_view()[skey]
        for d, s, dsl, ssl in self.rest:
            d.data.full_view()[dsl] = s.data.full_view()[ssl]


class StreamPlan:
    """Pack/unpack items laid back-to-back in one stream, lowered.

    ``pds`` are the items' patch data in stream order.  ``groups`` holds
    ``(arena, key, flat, rows, stacked)``: the stacked index tuple, the
    flat buffer indices of the group's members (one row per member, in
    member order), and the group's data as (members, elements) rows and
    as a stacked (members, *region shape) block.  ``rest`` holds
    ``(pd, slices, start, stop, shape)`` entries; ``fallback`` and
    ``eligible`` count as for :class:`CopyPlan`.
    """

    __slots__ = ("pds", "total", "groups", "rest", "fallback", "eligible")

    def __init__(self, pds, total: int, groups, rest, eligible: int = 0):
        self.pds = tuple(pds)
        self.total = total
        self.groups = tuple(groups)
        self.rest = tuple(rest)
        self.fallback = len(self.rest)
        self.eligible = eligible

    def __len__(self) -> int:
        return len(self.pds)

    @classmethod
    def compile(cls, items) -> "StreamPlan":
        """Lower ``(pd, region)`` items; offsets follow item order."""
        pds = []
        rest = []
        eligible = 0
        buckets: dict = {}
        stackable = len(items) >= 2
        off = 0
        for pd, region in items:
            pds.append(pd)
            n = region.size()
            sl, shape, key = _relative(region, pd.data.frame)
            entry = (pd, sl, off, off + n, shape)
            m = _stack_member(pd) if stackable else None
            if m is None:
                rest.append(entry)
            else:
                eligible += 1
                key = (id(m[0]), key)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = (m[0], sl, n, [], [], [])
                bucket[3].append(m[1])
                bucket[4].append(off)
                bucket[5].append(entry)
            off += n
        groups = []
        for arena, sl, n, idx, offs, members in buckets.values():
            if len(members) < 2 or len(set(idx)) != len(idx):
                rest.extend(members)
                continue
            flat = np.asarray(offs)[:, None] + np.arange(n)
            shape = tuple(s.stop - s.start for s in sl)
            groups.append((arena, (np.asarray(idx),) + sl, flat,
                           (len(idx), n), (len(idx),) + shape))
        return cls(pds, off, groups, rest, eligible)

    def pack_into(self, out: np.ndarray) -> None:
        """Gather every item into the flat buffer ``out`` (in a launch)."""
        for arena, key, flat, rows, _stacked in self.groups:
            out[flat] = arena.stacked_view()[key].reshape(rows)
        for pd, sl, start, stop, _shape in self.rest:
            out[start:stop] = pd.data.full_view()[sl].reshape(-1)

    def unpack_from(self, buffer: np.ndarray) -> None:
        """Scatter the flat ``buffer`` into every item (in a launch)."""
        for arena, key, flat, _rows, stacked in self.groups:
            arena.stacked_view()[key] = buffer[flat].reshape(stacked)
        for pd, sl, start, stop, shape in self.rest:
            pd.data.full_view()[sl] = buffer[start:stop].reshape(shape)
