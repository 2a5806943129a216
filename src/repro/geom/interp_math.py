"""Pure interpolation/averaging math for the refine and coarsen operators.

Every function here is a frame-explicit NumPy routine: arrays cover an
index *frame* box, regions are boxes in the same index space, and all
loops over fine indices are replaced by the dependency-free index algebra
the paper derives for its data-parallel kernels (Fig. 5b, Fig. 8).

A refine is written in two halves.  Its *stencil* (``*_stencil``) does
the index algebra of one region once: flat indices of the coarse points
each fine element reads, plus per-element weight columns.  Its
*formula* evaluates the stencil on gathered coarse values, one thread
per fine element.  The per-region ``refine_*`` functions are thin
wrappers joining the two; the transfer schedules keep the stencils of
every cached region and evaluate all of a fill's regions in one stacked
gather and formula call (:mod:`repro.xfer.interp_program`).

These functions are shared verbatim by the CPU operators and by the
simulated-GPU operators (which execute them inside kernel launches), so a
CPU/GPU comparison test can demand exact agreement.
"""

from __future__ import annotations

import numpy as np

from ..mesh.box import Box, IntVector

__all__ = [
    "node_linear_stencil",
    "cell_conservative_stencil",
    "side_conservative_stencil",
    "node_linear",
    "cell_conservative_linear",
    "side_conservative_linear",
    "refine",
    "refine_node_linear",
    "refine_cell_conservative_linear",
    "refine_side_conservative_linear",
    "coarsen_cell_volume_weighted",
    "coarsen_cell_mass_weighted",
    "coarsen_node_injection",
    "coarsen_side_sum",
    "block_reduce",
]


def _axis_offsets(lo: int, hi: int, ratio: int):
    """Fine indices [lo, hi] → (coarse indices, fractional offsets in [0,1))."""
    f = np.arange(lo, hi + 1)
    ic = np.floor_divide(f, ratio)
    frac = (f - ic * ratio) / float(ratio)
    return ic, frac


def _frame_axis(frame: Box, region: Box, ratio: IntVector, axis: int,
                below: int, above: int):
    """(coarse indices relative to ``frame``, fractional offsets) of the
    region's fine indices on one axis.

    The stencil reads ``below`` coarse points under and ``above`` over
    each index; that reach must lie inside the frame, which is checked
    here, once, instead of letting a negative index wrap around.
    """
    ic, frac = _axis_offsets(region.lower[axis], region.upper[axis],
                             ratio[axis])
    i = ic - frame.lower[axis]
    if i[0] - below < 0 or i[-1] + above > frame.upper[axis] - frame.lower[axis]:
        raise IndexError(
            f"refine stencil of {region} reaches outside coarse frame {frame}")
    return i, frac


def _grid(i0: np.ndarray, i1: np.ndarray, row: int) -> np.ndarray:
    """Flat frame indices of the ``i0 x i1`` grid, in fine-element order."""
    return (i0[:, None] * row + i1[None, :]).reshape(-1)


# -- stencils: flat coarse-frame indices and weight columns per fine element --
#
# Each ``*_stencil`` lowers one region's interpolation to index algebra
# done once: ``idx`` is (points, n) flat indices into the C-ordered coarse
# frame array, ``w`` is (2, n) weight columns, n the region's size in
# fine-element (row-major) order.  The matching formula evaluates the
# stencil on gathered values ``v = coarse.reshape(-1)[idx]``.  Every
# operation is elementwise, so evaluating one region, or many regions
# stacked side by side, gives each fine element the same bits.


def node_linear_stencil(frame: Box, region: Box, ratio: IntVector):
    """Corners c00, c10, c01, c11 and weights (x, y) of the bilinear refine."""
    i0, x = _frame_axis(frame, region, ratio, 0, 0, 1)
    i1, y = _frame_axis(frame, region, ratio, 1, 0, 1)
    row = frame.upper[1] - frame.lower[1] + 1
    c = _grid(i0, i1, row)
    idx = np.stack((c, c + row, c + 1, c + (row + 1)))
    w = np.stack((np.repeat(x, i1.size), np.tile(y, i0.size)))
    return idx, w


def cell_conservative_stencil(frame: Box, region: Box, ratio: IntVector):
    """Points c, -x, +x, -y, +y and centre offsets (ox, oy) in coarse-cell
    units of the conservative cell refine."""
    i0, f0 = _frame_axis(frame, region, ratio, 0, 1, 1)
    i1, f1 = _frame_axis(frame, region, ratio, 1, 1, 1)
    row = frame.upper[1] - frame.lower[1] + 1
    c = _grid(i0, i1, row)
    idx = np.stack((c, c - row, c + row, c - 1, c + 1))
    # Centre offset of the fine cell within the coarse cell, in [-0.5, 0.5).
    ox = f0 + 0.5 / ratio[0] - 0.5
    oy = f1 + 0.5 / ratio[1] - 0.5
    w = np.stack((np.repeat(ox, i1.size), np.tile(oy, i0.size)))
    return idx, w


def side_conservative_stencil(frame: Box, region: Box, ratio: IntVector,
                              axis: int):
    """Lower and upper bracketing coarse faces, each with its two
    transverse neighbours, and weights (transverse offset, normal
    fraction) of the side refine."""
    trans = 1 - axis
    # Normal direction: face coordinate, fraction between coarse faces.
    inorm, fn = _frame_axis(frame, region, ratio, axis, 0, 1)
    # Transverse direction: cell-centred offsets like the cell refine.
    itrans, ft = _frame_axis(frame, region, ratio, trans, 1, 1)
    ot = ft + 0.5 / ratio[trans] - 0.5
    row = frame.upper[1] - frame.lower[1] + 1
    if axis == 0:
        lo = _grid(inorm, itrans, row)
        normal, step = row, 1
        w = np.stack((np.tile(ot, inorm.size), np.repeat(fn, itrans.size)))
    else:
        lo = _grid(itrans, inorm, row)
        normal, step = 1, row
        w = np.stack((np.repeat(ot, inorm.size), np.tile(fn, itrans.size)))
    hi = lo + normal
    idx = np.stack((lo, lo - step, lo + step, hi, hi - step, hi + step))
    return idx, w


# -- formulas: one evaluation over gathered stencil values -------------------


def node_linear(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bilinear blend of the four surrounding coarse nodes."""
    x, y = w[0], w[1]
    return (v[0] * (1.0 - x) + v[1] * x) * (1.0 - y) + (v[2] * (1.0 - x) + v[3] * x) * y


def _mc_slopes(center: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Monotonised-central limited slope per coarse cell.

    ``lo``/``hi`` are the neighbouring values in the slope direction.  The
    returned slope is per unit coarse cell width.
    """
    fwd = hi - center
    bwd = center - lo
    cen = 0.5 * (hi - lo)
    slope = np.sign(cen) * np.minimum(
        np.abs(cen), 2.0 * np.minimum(np.abs(fwd), np.abs(bwd))
    )
    return np.where(fwd * bwd > 0.0, slope, 0.0)


def cell_conservative_linear(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """C[ic] + sx * ox + sy * oy with MC-limited slopes sx, sy."""
    c = v[0]
    sx = _mc_slopes(c, v[1], v[2])
    sy = _mc_slopes(c, v[3], v[4])
    return c + sx * w[0] + sy * w[1]


def side_conservative_linear(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normal blend of the two transversely reconstructed coarse faces."""
    ot, wn = w[0], w[1]
    lo_face = v[0] + _mc_slopes(v[0], v[1], v[2]) * ot
    hi_face = v[3] + _mc_slopes(v[3], v[4], v[5]) * ot
    return lo_face * (1.0 - wn) + hi_face * wn


# -- per-region refines -------------------------------------------------------


def refine(formula, stencil, coarse: np.ndarray, fine: np.ndarray,
           fine_frame: Box, region: Box) -> None:
    """Evaluate a lowered stencil on ``coarse`` into ``region`` of ``fine``."""
    idx, w = stencil
    out = formula(coarse.reshape(-1)[idx], w)
    fine[region.slices_in(fine_frame)] = out.reshape(tuple(region.shape()))


def refine_node_linear(
    coarse: np.ndarray,
    coarse_frame: Box,
    fine: np.ndarray,
    fine_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Bilinear node-centred refine (the paper's Fig. 5b kernel).

    For fine node f: ic = floor(f / r), x = (f - ic*r)/r, and the value is
    the bilinear blend of the four surrounding coarse nodes.  Fine nodes
    coincident with coarse nodes (x == y == 0) receive the coarse value
    exactly.
    """
    refine(node_linear, node_linear_stencil(coarse_frame, region, ratio),
           coarse, fine, fine_frame, region)


def refine_cell_conservative_linear(
    coarse: np.ndarray,
    coarse_frame: Box,
    fine: np.ndarray,
    fine_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Conservative linear cell-centred refine with MC-limited slopes.

    value(f) = C[ic] + sx * ox + sy * oy, where ox/oy are the fine-cell
    centre offsets from the coarse centre in coarse-cell units.  Offsets
    within a coarse cell sum to zero, so the volume-weighted mean of the
    fine values equals the coarse value — the operator conserves mass for
    any slope choice.
    """
    refine(cell_conservative_linear,
           cell_conservative_stencil(coarse_frame, region, ratio),
           coarse, fine, fine_frame, region)


def refine_side_conservative_linear(
    coarse: np.ndarray,
    coarse_frame: Box,
    fine: np.ndarray,
    fine_frame: Box,
    region: Box,
    ratio: IntVector,
    axis: int,
) -> None:
    """Side-centred refine: linear in the normal, limited-linear transverse.

    Fine faces aligned with a coarse face take the (transversely
    reconstructed) coarse-face value; unaligned fine faces blend the two
    bracketing coarse faces linearly in the normal direction.
    """
    refine(side_conservative_linear,
           side_conservative_stencil(coarse_frame, region, ratio, axis),
           coarse, fine, fine_frame, region)


def block_reduce(fine_region: np.ndarray, ratio: IntVector, op: str) -> np.ndarray:
    """Reduce each ratio[0] x ratio[1] block of a fine region array."""
    m0 = fine_region.shape[0] // ratio[0]
    m1 = fine_region.shape[1] // ratio[1]
    blocks = fine_region.reshape(m0, ratio[0], m1, ratio[1])
    if op == "sum":
        return blocks.sum(axis=(1, 3))
    if op == "mean":
        return blocks.mean(axis=(1, 3))
    raise ValueError(f"unknown block op {op!r}")


def coarsen_cell_volume_weighted(
    fine: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Volume-weighted coarsen (paper Fig. 7/8).

    c_i = sum_j f_j * vol(j) / vol(i); with uniform spacing this is the
    block mean over the ratio[0] x ratio[1] fine children.
    """
    fine_region = region.refine(ratio)
    f = fine[fine_region.slices_in(fine_frame)]
    coarse[region.slices_in(coarse_frame)] = block_reduce(f, ratio, "mean")


def coarsen_cell_mass_weighted(
    fine: np.ndarray,
    fine_weight: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Mass-weighted coarsen: c_i = sum(f_j w_j vol) / sum(w_j vol).

    Used for specific internal energy with density as the weight, so that
    total internal energy (mass x specific energy) is conserved exactly.
    """
    fine_region = region.refine(ratio)
    sl = fine_region.slices_in(fine_frame)
    f = fine[sl]
    w = fine_weight[sl]
    num = block_reduce(f * w, ratio, "sum")
    den = block_reduce(w, ratio, "sum")
    coarse[region.slices_in(coarse_frame)] = num / den


def coarsen_node_injection(
    fine: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Node injection: coarse node <- coincident fine node (exact)."""
    i0 = np.arange(region.lower[0], region.upper[0] + 1) * ratio[0] - fine_frame.lower[0]
    i1 = np.arange(region.lower[1], region.upper[1] + 1) * ratio[1] - fine_frame.lower[1]
    coarse[region.slices_in(coarse_frame)] = fine[np.ix_(i0, i1)]


def coarsen_side_sum(
    fine: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
    axis: int,
) -> None:
    """Side-centred coarsen: each coarse face sums its aligned fine faces.

    Fluxes are extensive, so the coarse-face flux is the sum over the
    ratio[transverse] fine faces tiling it; normal-direction children at
    unaligned positions do not contribute.
    """
    trans = 1 - axis
    in_ = np.arange(region.lower[axis], region.upper[axis] + 1) * ratio[axis] - fine_frame.lower[axis]
    out = None
    for k in range(ratio[trans]):
        it = (
            np.arange(region.lower[trans], region.upper[trans] + 1) * ratio[trans]
            + k
            - fine_frame.lower[trans]
        )
        idx = np.ix_(in_, it) if axis == 0 else np.ix_(it, in_)
        contrib = fine[idx]
        out = contrib.copy() if out is None else out + contrib
    coarse[region.slices_in(coarse_frame)] = out
