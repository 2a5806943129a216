"""Unit and property tests for the Box/IntVector index calculus."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.box import Box, IntVector


def boxes(min_coord=-40, max_coord=40, max_extent=20):
    """Strategy producing nonempty 2-D boxes."""
    def make(lo0, lo1, e0, e1):
        return Box([lo0, lo1], [lo0 + e0 - 1, lo1 + e1 - 1])
    return st.builds(
        make,
        st.integers(min_coord, max_coord), st.integers(min_coord, max_coord),
        st.integers(1, max_extent), st.integers(1, max_extent),
    )


class TestIntVector:
    def test_construction_from_iterable(self):
        assert IntVector([1, 2]) == IntVector(1, 2)

    def test_uniform(self):
        assert IntVector.uniform(3) == (3, 3)

    def test_arithmetic(self):
        a = IntVector(1, 2)
        b = IntVector(3, 5)
        assert a + b == (4, 7)
        assert b - a == (2, 3)
        assert a * 2 == (2, 4)
        assert b * a == (3, 10)
        assert IntVector(7, 9) // 2 == (3, 4)
        assert -a == (-1, -2)

    def test_scalar_add(self):
        assert IntVector(1, 2) + 1 == (2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntVector(1, 2) + IntVector(1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntVector()

    def test_product_min_max(self):
        v = IntVector(3, 4)
        assert v.product() == 12
        assert v.min() == 3
        assert v.max() == 4

    def test_hashable(self):
        assert len({IntVector(1, 2), IntVector(1, 2), IntVector(2, 1)}) == 2


class TestBoxBasics:
    def test_shape_and_size(self):
        b = Box([0, 0], [3, 1])
        assert b.shape() == (4, 2)
        assert b.size() == 8

    def test_empty(self):
        e = Box.empty()
        assert e.is_empty()
        assert e.size() == 0
        assert e.shape() == (0, 0)

    def test_from_shape(self):
        b = Box.from_shape((4, 8), origin=(2, 3))
        assert b.lower == (2, 3)
        assert b.upper == (5, 10)

    def test_contains(self):
        b = Box([0, 0], [3, 3])
        assert b.contains((0, 0)) and b.contains((3, 3))
        assert not b.contains((4, 0))

    def test_contains_box(self):
        b = Box([0, 0], [7, 7])
        assert b.contains_box(Box([2, 2], [5, 5]))
        assert not b.contains_box(Box([2, 2], [8, 5]))
        assert b.contains_box(Box.empty())

    def test_indices_iteration(self):
        b = Box([1, 1], [2, 2])
        assert list(b.indices()) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_equality_and_hash(self):
        assert Box([0, 0], [1, 1]) == Box([0, 0], [1, 1])
        assert Box.empty() == Box([5, 5], [0, 0])
        assert hash(Box([0, 0], [1, 1])) == hash(Box([0, 0], [1, 1]))

    def test_grow_dir(self):
        b = Box([0, 0], [3, 3]).grow_dir(0, 1, 2)
        assert b.lower == (-1, 0)
        assert b.upper == (5, 3)


class TestBoxAlgebra:
    def test_intersection(self):
        a = Box([0, 0], [5, 5])
        b = Box([3, 3], [9, 9])
        assert a.intersection(b) == Box([3, 3], [5, 5])
        assert a * b == a.intersection(b)

    def test_disjoint_intersection_empty(self):
        assert Box([0, 0], [1, 1]).intersection(Box([5, 5], [6, 6])).is_empty()

    def test_refine_coarsen_exact(self):
        b = Box([2, 3], [5, 7])
        f = b.refine(2)
        assert f == Box([4, 6], [11, 15])
        assert f.coarsen(2) == b

    def test_coarsen_negative_indices(self):
        # floor semantics: cell -1 coarsens to cell -1 at ratio 2
        assert Box([-4, -1], [-1, 0]).coarsen(2) == Box([-2, -1], [-1, 0])

    def test_bounding(self):
        a = Box([0, 0], [1, 1])
        b = Box([4, 4], [5, 5])
        assert a.bounding(b) == Box([0, 0], [5, 5])

    def test_remove_intersection_hole(self):
        outer = Box([0, 0], [7, 7])
        inner = Box([2, 2], [5, 5])
        pieces = outer.remove_intersection(inner)
        assert sum(p.size() for p in pieces) == outer.size() - inner.size()
        # pieces are disjoint
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not p.intersects(q)

    def test_remove_intersection_no_overlap(self):
        b = Box([0, 0], [3, 3])
        assert b.remove_intersection(Box([10, 10], [11, 11])) == [b]

    def test_remove_intersection_full_cover(self):
        b = Box([0, 0], [3, 3])
        assert b.remove_intersection(Box([-1, -1], [4, 4])) == []

    def test_slices_in(self):
        frame = Box([-2, -2], [5, 5])
        sl = Box([0, 0], [3, 3]).slices_in(frame)
        arr = np.zeros(tuple(frame.shape()))
        arr[sl] = 1
        assert arr.sum() == 16
        assert arr[2, 2] == 1 and arr[1, 1] == 0

    def test_slices_in_out_of_frame(self):
        with pytest.raises(IndexError):
            Box([0, 0], [9, 9]).slices_in(Box([0, 0], [5, 5]))


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(boxes(), boxes())
    def test_intersection_contained(self, a, b):
        c = a.intersection(b)
        if not c.is_empty():
            assert a.contains_box(c) and b.contains_box(c)

    @given(boxes(), st.integers(1, 4))
    def test_refine_coarsen_roundtrip(self, b, r):
        assert b.refine(r).coarsen(r) == b

    @given(boxes(), st.integers(1, 4))
    def test_coarsen_covers(self, b, r):
        """Coarsened box refined back must cover the original."""
        assert b.coarsen(r).refine(r).contains_box(b)

    @given(boxes(), st.integers(1, 4))
    def test_refine_size(self, b, r):
        assert b.refine(r).size() == b.size() * r * r

    @given(boxes(), boxes())
    def test_remove_intersection_partition(self, a, b):
        pieces = a.remove_intersection(b)
        inter = a.intersection(b)
        assert sum(p.size() for p in pieces) + inter.size() == a.size()
        for p in pieces:
            assert a.contains_box(p)
            assert not p.intersects(b)

    @given(boxes(), st.integers(-3, 5))
    def test_grow_shape(self, b, w):
        grown = b.grow(w)
        if not grown.is_empty():
            assert grown.shape() == b.shape() + IntVector.uniform(2 * w)

    @given(boxes(), st.tuples(st.integers(-10, 10), st.integers(-10, 10)))
    def test_shift_preserves_size(self, b, off):
        assert b.shift(off).size() == b.size()


class TestIntegerCoercion:
    """Components go through ``operator.index``: integers only."""

    def test_float_components_rejected(self):
        with pytest.raises(TypeError):
            IntVector(1.7, 2)
        with pytest.raises(TypeError):
            IntVector([1.0, 2.0])

    def test_float_operand_rejected(self):
        with pytest.raises(TypeError):
            IntVector(4, 4) + (1.5, 0)
        with pytest.raises(TypeError):
            IntVector(4, 4) * 2.0
        with pytest.raises(TypeError):
            Box([0, 0], [3.5, 3])

    def test_numpy_integers_accepted(self):
        v = IntVector(np.int64(3), np.int32(-2))
        assert v == (3, -2) and all(type(c) is int for c in v)
        assert IntVector(1, 2) + np.array([2, 3]) == (3, 5)
        b = Box(np.array([0, 0]), np.array([3, 1]))
        assert b.size() == 8 and type(b.size()) is int

    def test_dimension_mismatch_is_checked_before_coercion(self):
        with pytest.raises(ValueError):
            IntVector(1, 2) + (1.5, 0, 0)


class TestEmptyBoxEquality:
    def test_empty_boxes_of_different_dimension_differ(self):
        assert Box.empty(2) != Box.empty(3)
        assert Box.empty(2) == Box([4, 4], [0, 9])

    @given(st.integers(1, 3), st.integers(1, 3))
    def test_equal_empty_boxes_hash_equal(self, d1, d2):
        a, b = Box.empty(d1), Box([5] * d2, [0] * d2)
        assert (a == b) == (d1 == d2)
        if a == b:
            assert hash(a) == hash(b)


# -- differential reference ----------------------------------------------------
#
# The generator-expression calculus the lean IntVector/Box replaced, kept
# verbatim apart from the two fixes above (operator.index coercion and
# dimension-aware empty equality).  Every operation of the lean
# implementation must agree with it on 1-D, 2-D and 3-D boxes, empty
# boxes and NumPy-integer inputs.

class RefIntVector(tuple):
    def __new__(cls, *components):
        if len(components) == 1 and not isinstance(components[0], int):
            components = tuple(components[0])
        components = tuple(operator.index(c) for c in components)
        if not components:
            raise ValueError("IntVector needs at least one component")
        return super().__new__(cls, components)

    @classmethod
    def uniform(cls, value, dim=2):
        return cls(*([value] * dim))

    def _binary(self, other, op):
        if isinstance(other, int):
            other = (other,) * len(self)
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return RefIntVector(*(op(a, operator.index(b))
                              for a, b in zip(self, other)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._binary(other, lambda a, b: a // b)

    def __neg__(self):
        return RefIntVector(*(-a for a in self))

    def product(self):
        out = 1
        for a in self:
            out *= a
        return out


class RefBox:
    def __init__(self, lower, upper):
        self.lower = RefIntVector(lower)
        self.upper = RefIntVector(upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper dimension mismatch")
        self._empty = any(u < l for l, u in zip(self.lower, self.upper))

    @classmethod
    def empty(cls, dim=2):
        return cls([0] * dim, [-1] * dim)

    @property
    def dim(self):
        return len(self.lower)

    def is_empty(self):
        return self._empty

    def shape(self):
        if self._empty:
            return RefIntVector.uniform(0, self.dim)
        return self.upper - self.lower + RefIntVector.uniform(1, self.dim)

    def size(self):
        return self.shape().product()

    def contains_box(self, other):
        if other.is_empty():
            return True
        return all(sl <= ol and ou <= su for sl, su, ol, ou
                   in zip(self.lower, self.upper, other.lower, other.upper))

    def intersection(self, other):
        if self._empty or other._empty:
            return RefBox.empty(self.dim)
        box = RefBox(list(map(max, self.lower, other.lower)),
                     list(map(min, self.upper, other.upper)))
        return box if not box._empty else RefBox.empty(self.dim)

    def intersects(self, other):
        return not self.intersection(other).is_empty()

    def _ratio(self, r):
        return (RefIntVector(r) if not isinstance(r, int)
                else RefIntVector.uniform(r, self.dim))

    def grow(self, width):
        w = self._ratio(width)
        return RefBox(self.lower - w, self.upper + w)

    def shift(self, offset):
        off = RefIntVector(offset)
        return RefBox(self.lower + off, self.upper + off)

    def coarsen(self, ratio):
        r = self._ratio(ratio)
        if self._empty:
            return RefBox.empty(self.dim)
        return RefBox([i // k for i, k in zip(self.lower, r)],
                      [i // k for i, k in zip(self.upper, r)])

    def refine(self, ratio):
        r = self._ratio(ratio)
        if self._empty:
            return RefBox.empty(self.dim)
        return RefBox([i * k for i, k in zip(self.lower, r)],
                      [(i + 1) * k - 1 for i, k in zip(self.upper, r)])

    def bounding(self, other):
        if self._empty:
            return other
        if other._empty:
            return self
        return RefBox([min(a, b) for a, b in zip(self.lower, other.lower)],
                      [max(a, b) for a, b in zip(self.upper, other.upper)])

    def remove_intersection(self, other):
        inter = self.intersection(other)
        if inter.is_empty():
            return [] if self._empty else [self]
        if inter == self:
            return []
        pieces = []
        remaining = self
        for axis in range(self.dim):
            lo, hi = list(remaining.lower), list(remaining.upper)
            if remaining.lower[axis] < inter.lower[axis]:
                cut_hi = hi.copy()
                cut_hi[axis] = inter.lower[axis] - 1
                pieces.append(RefBox(lo, cut_hi))
                lo = lo.copy()
                lo[axis] = inter.lower[axis]
                remaining = RefBox(lo, hi)
            lo, hi = list(remaining.lower), list(remaining.upper)
            if remaining.upper[axis] > inter.upper[axis]:
                cut_lo = lo.copy()
                cut_lo[axis] = inter.upper[axis] + 1
                pieces.append(RefBox(cut_lo, hi))
                hi = hi.copy()
                hi[axis] = inter.upper[axis]
                remaining = RefBox(lo, hi)
        return pieces

    def slices_in(self, frame):
        if not frame.contains_box(self):
            raise IndexError("not contained")
        return tuple(slice(l - fl, u - fl + 1) for l, u, fl
                     in zip(self.lower, self.upper, frame.lower))

    def __eq__(self, other):
        if self._empty and other._empty:
            return self.dim == other.dim
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self):
        if self._empty:
            return hash(("Box", "empty", self.dim))
        return hash(("Box", tuple(self.lower), tuple(self.upper)))


def _coord(lo=-12, hi=12):
    """An integer coordinate, sometimes as a NumPy integer."""
    return st.one_of(st.integers(lo, hi),
                     st.integers(lo, hi).map(np.int64),
                     st.integers(lo, hi).map(np.int32))


@st.composite
def box_pairs(draw, dim=None):
    """Two (lower, upper) corner pairs of one dimension, possibly empty."""
    d = draw(st.integers(1, 3)) if dim is None else dim

    def corners():
        lower = draw(st.lists(_coord(), min_size=d, max_size=d))
        extent = draw(st.lists(st.integers(-2, 9), min_size=d, max_size=d))
        return lower, [int(a) + e - 1 for a, e in zip(lower, extent)]

    return corners(), corners()


def _same(lean, ref):
    """Lean and reference results agree (boxes, lists, vectors, scalars)."""
    if isinstance(lean, list):
        assert len(lean) == len(ref)
        for a, b in zip(lean, ref):
            _same(a, b)
    elif isinstance(lean, Box):
        assert lean.is_empty() == ref.is_empty()
        assert tuple(lean.lower) == tuple(ref.lower)
        assert tuple(lean.upper) == tuple(ref.upper)
        assert tuple(lean.shape()) == tuple(ref.shape())
        assert lean.size() == ref.size()
        assert type(lean.size()) is int
        assert all(type(c) is int for c in (*lean.lower, *lean.upper))
    else:
        assert lean == ref


def _both(pair):
    (lo, hi) = pair
    return Box(lo, hi), RefBox(lo, hi)


class TestDifferentialCalculus:
    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    def test_binary_box_algebra(self, pairs):
        (a, ra), (b, rb) = _both(pairs[0]), _both(pairs[1])
        _same(a, ra)
        _same(a.intersection(b), ra.intersection(rb))
        _same(a.bounding(b), ra.bounding(rb))
        _same(a.remove_intersection(b), ra.remove_intersection(rb))
        assert a.intersects(b) == ra.intersects(rb)
        assert a.contains_box(b) == ra.contains_box(rb)
        assert (a == b) == (ra == rb)
        if a == b:
            assert hash(a) == hash(b)
        assert hash(a) == hash(ra)

    @settings(max_examples=300, deadline=None)
    @given(box_pairs(), st.integers(1, 4), st.integers(-3, 3),
           st.data())
    def test_unary_box_algebra(self, pairs, ratio, width, data):
        (a, ra) = _both(pairs[0])
        d = a.dim
        vec = data.draw(st.lists(_coord(1, 4), min_size=d, max_size=d))
        off = data.draw(st.lists(_coord(), min_size=d, max_size=d))
        _same(a.coarsen(ratio), ra.coarsen(ratio))
        _same(a.coarsen(vec), ra.coarsen(vec))
        _same(a.refine(ratio), ra.refine(ratio))
        _same(a.refine(vec), ra.refine(vec))
        _same(a.grow(width), ra.grow(width))
        _same(a.grow(off), ra.grow(off))
        _same(a.shift(off), ra.shift(off))

    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    def test_slices_in(self, pairs):
        (a, ra), (frame, rframe) = _both(pairs[0]), _both(pairs[1])
        try:
            want = ra.slices_in(rframe)
        except IndexError:
            with pytest.raises(IndexError):
                a.slices_in(frame)
            return
        assert a.slices_in(frame) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(_coord(-9, 9), min_size=d, max_size=d),
        st.lists(_coord(-9, 9), min_size=d, max_size=d))),
        st.integers(-4, 4).filter(bool))
    def test_intvector_arithmetic(self, vectors, k):
        u, v = vectors
        a, b = IntVector(u), IntVector(v)
        ra, rb = RefIntVector(u), RefIntVector(v)
        assert all(type(c) is int for c in a)
        for lean, ref in [(a + b, ra + rb), (a - b, ra - rb),
                          (a * b, ra * rb), (-a, -ra),
                          (a + k, ra + k), (a - k, ra - k),
                          (k + a, k + ra), (k * a, k * ra),
                          (a // k, ra // k), (tuple(v) - a, tuple(v) - ra),
                          (a + tuple(v), ra + tuple(v))]:
            assert type(lean) is IntVector
            assert tuple(lean) == tuple(ref)
        assert a.product() == ra.product()
        nonzero = [c if c else 1 for c in v]
        assert tuple(a // IntVector(nonzero)) == tuple(ra // nonzero)
        with pytest.raises(ValueError):
            a + (1,) * (len(a) + 1)
        with pytest.raises(ValueError):
            ra + (1,) * (len(ra) + 1)
