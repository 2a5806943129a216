"""Batched region packing: the paper's ``MessageStream`` path.

SAMRAI aggregates every region of every variable destined for one remote
patch into a single contiguous message stream; on the GPU this means one
pack kernel, one PCIe copy, and one MPI message per (source, destination)
patch pair per fill phase — not one per region.  This module provides the
batched pack/unpack/copy primitives the schedules use; the resource
dispatch (one fused device kernel + one PCIe copy vs one charged CPU
pass) lives in the owning :mod:`repro.exec` backend.

An *item* is ``(patch_data, region_box)``; a batch is a list of items
whose regions are packed back-to-back in order.

Each primitive accepts either a list of items, which it compiles into a
one-shot :mod:`repro.exec.plan` plan, or a plan compiled earlier and
cached by a transfer schedule — both run through the same backend plan
executor.  Under ``--batch`` regions whose operands tile uniform arenas
at identical frame offsets execute as one stacked (fancy-indexed) NumPy
op per group, with a per-region fallback for everything else — bitwise
identical either way, counted as ``StackCounter`` in
:class:`~repro.exec.stats.ExecStats` (``--profile`` shows the split).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import backend_for
from ..exec.plan import CopyPlan, StreamPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank

__all__ = [
    "batch_size_bytes",
    "copy_plan",
    "stream_plan",
    "pack_batch",
    "unpack_batch",
    "copy_batch_local",
]


def batch_size_bytes(items) -> int:
    return sum(region.size() for _, region in items) * 8


def stream_plan(items) -> StreamPlan:
    """``items`` lowered to a stream plan (a plan passes through)."""
    return items if isinstance(items, StreamPlan) else StreamPlan.compile(items)


def copy_plan(items) -> CopyPlan:
    """``items`` lowered to a copy plan (a plan passes through)."""
    return items if isinstance(items, CopyPlan) else CopyPlan.compile(items)


def pack_batch(items, rank: "Rank") -> np.ndarray:
    """Pack all items into one contiguous host buffer.

    Device-resident batches use one pack kernel into a single device
    buffer followed by one D2H transfer; host batches use one charged
    CPU pass.
    """
    plan = stream_plan(items)
    return backend_for(plan.pds[0], rank).pack_batch(plan)


def unpack_batch(buffer: np.ndarray, items, rank: "Rank") -> None:
    """Unpack one contiguous host buffer into all items, in pack order."""
    plan = stream_plan(items)
    if buffer.size != plan.total:
        raise ValueError(
            f"stream size {buffer.size} != batch size {plan.total}")
    backend_for(plan.pds[0], rank).unpack_batch(buffer, plan)


def copy_batch_local(items, rank: "Rank") -> None:
    """Execute many same-rank region copies as one fused kernel.

    ``items`` is a list of ``(dst_pd, src_pd, region)`` (or their plan);
    all data must be on the same resource (all host, or all on one
    device).  This models a fused halo-copy kernel (one launch per
    destination patch per fill), which is how tuned implementations
    amortise launch overheads.
    """
    plan = copy_plan(items)
    backend_for(plan.dsts[0], rank).copy_batch(plan)
