"""Overlap geometry helpers for the communication schedules.

Computes, in the index space of each data centring, which regions of a
destination patch's ghost frame must be filled and where each piece can
come from: a same-level neighbour, the next coarser level, or the physical
boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mesh.box import Box, IntVector
from ..mesh.box_container import BoxContainer

if TYPE_CHECKING:  # pragma: no cover
    from ..mesh.patch import Patch
    from ..mesh.variables import Variable

__all__ = ["index_box_for", "frame_box_for", "ghost_fill_pieces", "clamp_indices",
           "clamp_extend"]


def index_box_for(var: "Variable", box: Box) -> Box:
    """Interior index box of ``box`` in the centring space of ``var``."""
    if var.centring == "cell":
        return box
    if var.centring == "node":
        return Box(box.lower, box.upper + IntVector.uniform(1, box.dim))
    shift = [0] * box.dim
    shift[var.axis] = 1
    return Box(box.lower, box.upper + IntVector(shift))


def frame_box_for(var: "Variable", box: Box) -> Box:
    """Full storage frame (interior + ghosts) in centring index space."""
    return index_box_for(var, box.grow(var.ghosts))


def ghost_fill_pieces(var: "Variable", patch: "Patch") -> BoxContainer:
    """Disjoint regions of the ghost frame outside the patch interior."""
    frame = frame_box_for(var, patch.box)
    interior = index_box_for(var, patch.box)
    return BoxContainer(frame.remove_intersection(interior))


def clamp_indices(frame: Box, valid: Box):
    """``(dst, src)`` flat indices extending ``valid`` over ``frame``.

    Every element of a C-ordered array covering ``frame`` that lies
    outside ``valid`` takes the value of the nearest valid element
    (zero-gradient extension); elements inside map to themselves and are
    left out.
    """
    import numpy as np

    v = frame.intersection(valid)
    if v.is_empty():
        raise ValueError("no valid region to extend from")
    idx = [np.clip(np.arange(frame.lower[a], frame.upper[a] + 1),
                   v.lower[a], v.upper[a]) - frame.lower[a]
           for a in range(frame.dim)]
    src = np.ravel_multi_index(np.ix_(*idx), tuple(frame.shape())).reshape(-1)
    moved = src != np.arange(src.size)
    return np.flatnonzero(moved), src[moved]


def clamp_extend(arr, frame: Box, valid: Box) -> None:
    """Fill every element outside ``valid`` from the nearest valid element.

    Zero-gradient extension used as the fallback for interpolation-stencil
    cells that poke outside the physical domain; the fine patch's physical
    boundary routine overwrites anything that actually matters afterwards.
    The schedules run the same indices compiled once
    (:class:`~repro.xfer.interp_program.ClampProgram`).
    """
    import numpy as np

    dst, src = clamp_indices(frame, valid)
    shape = tuple(frame.shape())
    arr[np.unravel_index(dst, shape)] = arr[np.unravel_index(src, shape)]
