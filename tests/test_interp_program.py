"""Differential tests for the compiled interpolation programs.

A batched ghost fill evaluates every interpolation region of a rank as
one stacked program (:mod:`repro.xfer.interp_program`): gathers from one
temp slab, one formula evaluation per operator and one scatter per
destination arena.  These tests demand that it writes exactly the bits
the per-region ``interp_math.refine_*`` functions write — over random
regions and frames, ratios 2 and 4, cell/node/side data on both axes,
temps at arbitrary slab offsets, and uniform, ragged and arena-less
destinations — and that those functions still compute the pre-lowering
``np.ix_`` formulas bit for bit.  Bits are compared as ``uint64`` so
signed zeros and NaN payloads count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import interp_math as m
from repro.mesh.box import Box, IntVector
from repro.mesh.variables import Variable
from repro.pdat.arena import HostArena
from repro.pdat.array_data import ArrayData
from repro.xfer.interp_program import ClampProgram, RefineProgram, region_indices
from repro.xfer.overlap import clamp_extend
from repro.xfer.refine_schedule import needed_coarse_frame

KINDS = ("cell", "node", "side0", "side1")

#: kind -> (stencil(frame, region, ratio), formula, per-region refine)
LOWERED = {
    "cell": (m.cell_conservative_stencil, m.cell_conservative_linear,
             m.refine_cell_conservative_linear),
    "node": (m.node_linear_stencil, m.node_linear, m.refine_node_linear),
    "side0": (lambda f, r, q: m.side_conservative_stencil(f, r, q, 0),
              m.side_conservative_linear,
              lambda *a: m.refine_side_conservative_linear(*a, 0)),
    "side1": (lambda f, r, q: m.side_conservative_stencil(f, r, q, 1),
              m.side_conservative_linear,
              lambda *a: m.refine_side_conservative_linear(*a, 1)),
}


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


# -- the pre-lowering formulas, written with np.ix_ -----------------------------


def _ref_axis(region, ratio, axis, frame):
    f = np.arange(region.lower[axis], region.upper[axis] + 1)
    ic = np.floor_divide(f, ratio[axis])
    return ic - frame.lower[axis], (f - ic * ratio[axis]) / float(ratio[axis])


def _ref_mc(c, lo, hi):
    fwd, bwd, cen = hi - c, c - lo, 0.5 * (hi - lo)
    slope = np.sign(cen) * np.minimum(
        np.abs(cen), 2.0 * np.minimum(np.abs(fwd), np.abs(bwd)))
    return np.where(fwd * bwd > 0.0, slope, 0.0)


def _ref_refine(kind, coarse, frame, region, ratio):
    """The value block the operators computed before lowering."""
    i0, f0 = _ref_axis(region, ratio, 0, frame)
    i1, f1 = _ref_axis(region, ratio, 1, frame)
    g = lambda a, b: coarse[np.ix_(a, b)]  # noqa: E731
    if kind == "node":
        x, y = f0[:, None], f1[None, :]
        return ((g(i0, i1) * (1.0 - x) + g(i0 + 1, i1) * x) * (1.0 - y)
                + (g(i0, i1 + 1) * (1.0 - x) + g(i0 + 1, i1 + 1) * x) * y)
    if kind == "cell":
        ox = (f0 + 0.5 / ratio[0] - 0.5)[:, None]
        oy = (f1 + 0.5 / ratio[1] - 0.5)[None, :]
        c = g(i0, i1)
        sx = _ref_mc(c, g(i0 - 1, i1), g(i0 + 1, i1))
        sy = _ref_mc(c, g(i0, i1 - 1), g(i0, i1 + 1))
        return c + sx * ox + sy * oy
    axis = int(kind[-1])
    if axis == 0:
        ot = (f1 + 0.5 / ratio[1] - 0.5)[None, :]

        def face(n):
            c = g(n, i1)
            return c + _ref_mc(c, g(n, i1 - 1), g(n, i1 + 1)) * ot

        lo, hi, w = face(i0), face(i0 + 1), f0[:, None]
    else:
        ot = (f0 + 0.5 / ratio[0] - 0.5)[:, None]

        def face(n):
            c = g(i0, n)
            return c + _ref_mc(c, g(i0 - 1, n), g(i0 + 1, n)) * ot

        lo, hi, w = face(i1), face(i1 + 1), f1[None, :]
    return lo * (1.0 - w) + hi * w


# -- strategies -----------------------------------------------------------------

ratios = st.sampled_from([IntVector(2, 2), IntVector(4, 4), IntVector(2, 4),
                          IntVector(4, 2)])


@st.composite
def regions(draw):
    lo = [draw(st.integers(-9, 9)), draw(st.integers(-9, 9))]
    shape = [draw(st.integers(1, 7)), draw(st.integers(1, 7))]
    return Box(lo, [lo[0] + shape[0] - 1, lo[1] + shape[1] - 1])


@st.composite
def coarse_frames(draw, kind, region, ratio):
    """The frame the fill's temp covers, grown by an arbitrary margin."""
    var = Variable("q", kind[:4], 0, int(kind[-1]) if kind[:4] == "side" else 0)
    need = needed_coarse_frame(var, region, ratio)
    below = [draw(st.integers(0, 2)) for _ in range(2)]
    above = [draw(st.integers(0, 2)) for _ in range(2)]
    return Box([need.lower[a] - below[a] for a in range(2)],
               [need.upper[a] + above[a] for a in range(2)])


def _values(rng, n):
    """Coarse data with ties and exact zeros, so every limiter branch runs."""
    v = np.round(rng.standard_normal(n), 1)
    v[rng.random(n) < 0.1] = -0.0
    return v


# -- per-region functions versus the pre-lowering formulas -----------------------


@given(st.data(), st.sampled_from(KINDS), ratios, st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_refine_functions_match_ix_formulas(data, kind, ratio, seed):
    region = data.draw(regions())
    frame = data.draw(coarse_frames(kind, region, ratio))
    rng = np.random.default_rng(seed)
    coarse = _values(rng, frame.size()).reshape(tuple(frame.shape()))
    fine_frame = region.grow(data.draw(st.integers(0, 2)))
    fine = rng.standard_normal(tuple(fine_frame.shape()))
    want = fine.copy()
    want[region.slices_in(fine_frame)] = _ref_refine(kind, coarse, frame,
                                                     region, ratio)
    LOWERED[kind][2](coarse, frame, fine, fine_frame, region, ratio)
    assert np.array_equal(_bits(fine), _bits(want))


# -- stacked programs versus per-region functions -------------------------------


class _Dst:
    """A destination patch data: a frame array, standalone or in an arena."""

    def __init__(self, frame, arena=None):
        buffer = None
        if arena is not None:
            self._arena = arena
            self._arena_index = arena.member_count
            buffer = arena.place(tuple(frame.shape()))
        self.data = ArrayData(frame, buffer=buffer)


@st.composite
def dst_frames(draw, region, shape=None):
    """A frame containing ``region``: of ``shape`` (uniform arenas) or
    grown by an arbitrary margin (ragged arenas, standalone data)."""
    if shape is None:
        return Box([region.lower[a] - draw(st.integers(0, 2)) for a in (0, 1)],
                   [region.upper[a] + draw(st.integers(0, 2)) for a in (0, 1)])
    lo = [region.lower[a] - draw(st.integers(0, shape[a] - region.shape()[a]))
          for a in (0, 1)]
    return Box(lo, [lo[a] + shape[a] - 1 for a in (0, 1)])


@given(st.data(), ratios, st.sampled_from(["uniform", "ragged", "none", "mixed"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_programs_match_per_region_refines(data, ratio, layout, seed):
    """Regions of mixed kinds, each refining 1-3 variables that share its
    stencil (as the variables of one signature group do): the stacked
    program over all of them and each region's own program write the
    per-region functions' bits and only read the temps."""
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 5))
    kinds = [data.draw(st.sampled_from(KINDS)) for _ in range(n)]
    regs = [data.draw(regions()) for _ in range(n)]
    frames = [data.draw(coarse_frames(k, r, ratio)) for k, r in zip(kinds, regs)]
    nvars = [data.draw(st.integers(1, 3)) for _ in range(n)]

    # one temp per (region, variable) in one slab: the regions refining k
    # variables form a group laid out variable by variable, as a rank's
    # temp slab is, with arbitrary gaps between temps
    offsets = [[0] * k for k in nvars]
    end = data.draw(st.integers(0, 5))
    for k in sorted(set(nvars)):
        group = [i for i in range(n) if nvars[i] == k]
        pads = [data.draw(st.integers(0, 3)) for _ in group]
        for v in range(k):
            end += data.draw(st.integers(0, 5))
            for i, pad in zip(group, pads):
                offsets[i][v] = end
                end += frames[i].size() + pad
    slab = _values(rng, end)

    # destinations: variable v of every region is a member of arena v
    # or stands alone, per layout; the variables of a region share a
    # frame except in ragged arenas
    shape = [max(r.shape()[a] for r in regs) + 4 for a in (0, 1)]
    room = n * shape[0] * shape[1]
    arenas = [HostArena(room) for _ in range(3)]
    same_shape = layout == "uniform" or (layout == "mixed"
                                         and data.draw(st.booleans()))
    dsts = []
    for region, k in zip(regs, nvars):
        if layout == "ragged":
            dframes = [data.draw(dst_frames(region)) for _ in range(k)]
        else:
            dframes = [data.draw(dst_frames(
                region, shape if same_shape else None))] * k
        in_arena = [layout in ("uniform", "ragged") or (
            layout == "mixed" and data.draw(st.booleans())) for _ in range(k)]
        dsts.append([_Dst(f, arenas[v] if a else None)
                     for v, (f, a) in enumerate(zip(dframes, in_arena))])
    for arena in arenas:
        arena.slab[:] = rng.standard_normal(arena.slab.size)
    for pd in (pd for row in dsts for pd in row):
        if getattr(pd, "_arena", None) is None:
            pd.data.array[...] = rng.standard_normal(pd.data.array.shape)
    if layout == "uniform":
        assert all(a.uniform for a in arenas if a.member_count)
    initial = [[pd.data.array.copy() for pd in row] for row in dsts]

    want = [[a.copy() for a in row] for row in initial]
    for i, (kind, region, frame) in enumerate(zip(kinds, regs, frames)):
        for v, off in enumerate(offsets[i]):
            coarse = slab[off:off + frame.size()].reshape(tuple(frame.shape()))
            LOWERED[kind][2](coarse, frame, want[i][v], dsts[i][v].data.frame,
                             region, ratio)

    lowered = []
    for i, (kind, region, frame) in enumerate(zip(kinds, regs, frames)):
        stencil, formula, _ = LOWERED[kind]
        by_frame: dict = {}
        dests = []
        for v, off in enumerate(offsets[i]):
            dframe = dsts[i][v].data.frame
            if dframe not in by_frame:
                by_frame[dframe] = region_indices(region, dframe)
            dests.append((off, dsts[i][v], by_frame[dframe]))
        lowered.append((formula, *stencil(frame, region, ratio), dests))

    stacked = RefineProgram.compile(lowered)
    # regions of one formula and variable count share relative offsets,
    # so each such set is one gather
    assert len(stacked.groups) == len({(r[0], k) for r, k in
                                       zip(lowered, nvars)})
    programs = {"stacked": [stacked],
                "per region": [RefineProgram.compile([r]) for r in lowered]}
    before = slab.copy()
    for name, progs in programs.items():
        for row, init in zip(dsts, initial):
            for pd, a in zip(row, init):
                pd.data.array[...] = a
        for program in progs:
            program.run(slab)
        assert np.array_equal(_bits(slab), _bits(before))  # temps only read
        for row, refs in zip(dsts, want):
            for pd, ref in zip(row, refs):
                assert np.array_equal(_bits(pd.data.array), _bits(ref)), name


def test_stencil_outside_its_frame_raises_at_compile_time():
    region = Box([0, 0], [3, 3])
    frame = needed_coarse_frame(Variable("q", "cell", 0), region,
                                IntVector(2, 2))
    m.cell_conservative_stencil(frame, region, IntVector(2, 2))
    short = Box(frame.lower, [frame.upper[0] - 1, frame.upper[1]])
    with pytest.raises(IndexError):
        m.cell_conservative_stencil(short, region, IntVector(2, 2))
    with pytest.raises(IndexError):
        region_indices(region, Box([1, 0], [3, 3]))


# -- clamps ---------------------------------------------------------------------


def _ref_clamp(arr, frame, valid):
    """The pre-lowering zero-gradient extension."""
    v = frame.intersection(valid)
    idx = [np.clip(np.arange(frame.lower[a], frame.upper[a] + 1),
                   v.lower[a], v.upper[a]) - frame.lower[a] for a in (0, 1)]
    arr[...] = arr[np.ix_(*idx)]


@st.composite
def clamped_frames(draw):
    frame = draw(regions())
    lo = [draw(st.integers(frame.lower[a] - 3, frame.upper[a]))
          for a in (0, 1)]
    hi = [draw(st.integers(max(lo[a], frame.lower[a]), frame.upper[a] + 3))
          for a in (0, 1)]
    return frame, Box(lo, hi)


@given(st.lists(clamped_frames(), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=5, max_size=5),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_clamp_matches_clamp_extend(pairs, gaps, seed):
    rng = np.random.default_rng(seed)
    offsets, end = [], gaps[0]
    for (frame, _), gap in zip(pairs, gaps):
        offsets.append(end)
        end += frame.size() + gap
    slab = rng.standard_normal(end)
    want = slab.copy()
    parts = []
    for off, (frame, valid) in zip(offsets, pairs):
        block = want[off:off + frame.size()].reshape(tuple(frame.shape()))
        ref = block.copy()
        _ref_clamp(ref, frame, valid)
        clamp_extend(block, frame, valid)
        assert np.array_equal(_bits(block), _bits(ref))
        parts.append((off, ClampProgram.compile(frame, valid)))
    program = ClampProgram.stack(parts)
    assert program.elements == sum(f.size() for f, _ in pairs)
    program.run(slab)
    assert np.array_equal(_bits(slab), _bits(want))
