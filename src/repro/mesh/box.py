"""Integer index-space calculus: :class:`IntVector` and :class:`Box`.

These are the fundamental geometric primitives of block-structured AMR,
modelled on SAMRAI's ``hier::IntVector`` and ``hier::Box``.  A box is an
axis-aligned rectangle of *cell* indices with inclusive lower and upper
corners, living in the index space of one refinement level.

All operations are pure: boxes are immutable value types, cheap to hash and
compare, so they can be used as dictionary keys in overlap computations.

Every halo fill, schedule build and regrid runs through this module, so
the arithmetic is written for the interpreter: 2-D (the only dimension
the hydro runs) is inlined with no per-operation lambda or generator
expression, other dimensions take a general ``map`` fallback, and a box
caches its shape, size and hash.  Results are constructed with
``tuple.__new__``/``object.__new__`` once operands are known to be plain
ints, skipping re-validation — the public constructors still validate.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = ["IntVector", "Box"]

_index = operator.index
_tuple_new = tuple.__new__
_object_new = object.__new__


def _mismatch(a, b) -> ValueError:
    return ValueError(f"dimension mismatch: {a} vs {b}")


class IntVector(tuple):
    """A small integer vector used for ghost widths, ratios, and shifts.

    Behaves like a tuple but supports elementwise arithmetic, which keeps
    index manipulation in the schedules short and obviously correct.
    Components must be integers (``operator.index``): NumPy integers are
    accepted, floats raise ``TypeError`` rather than truncate.
    """

    __slots__ = ()

    def __new__(cls, *components: int | Iterable[int]) -> "IntVector":
        if len(components) == 1 and not isinstance(components[0], int):
            components = tuple(components[0])
        for c in components:
            if type(c) is not int:  # slow path: coerce numpy ints, etc.
                components = tuple(map(_index, components))
                break
        if not components:
            raise ValueError("IntVector needs at least one component")
        return _tuple_new(cls, components)

    @classmethod
    def uniform(cls, value: int, dim: int = 2) -> "IntVector":
        """An IntVector with every component equal to ``value``."""
        return cls(*([value] * dim))

    @property
    def dim(self) -> int:
        return len(self)

    def _operand(self, other) -> tuple:
        """``other`` as a tuple of ints of this vector's dimension."""
        n = len(self)
        if type(other) is IntVector:
            if len(other) != n:
                raise _mismatch(self, other)
            return other
        if isinstance(other, int):
            return (_index(other),) * n
        if len(other) != n:
            raise _mismatch(self, other)
        return tuple(map(_index, other))

    def __add__(self, other) -> "IntVector":
        if type(other) is not IntVector or len(other) != len(self):
            other = self._operand(other)
        if len(self) == 2:
            return _tuple_new(IntVector, (self[0] + other[0],
                                          self[1] + other[1]))
        return _tuple_new(IntVector, tuple(map(operator.add, self, other)))

    __radd__ = __add__

    def __sub__(self, other) -> "IntVector":
        if type(other) is not IntVector or len(other) != len(self):
            other = self._operand(other)
        if len(self) == 2:
            return _tuple_new(IntVector, (self[0] - other[0],
                                          self[1] - other[1]))
        return _tuple_new(IntVector, tuple(map(operator.sub, self, other)))

    def __rsub__(self, other) -> "IntVector":
        other = self._operand(other)
        if len(self) == 2:
            return _tuple_new(IntVector, (other[0] - self[0],
                                          other[1] - self[1]))
        return _tuple_new(IntVector, tuple(map(operator.sub, other, self)))

    def __mul__(self, other) -> "IntVector":
        if type(other) is not IntVector or len(other) != len(self):
            other = self._operand(other)
        if len(self) == 2:
            return _tuple_new(IntVector, (self[0] * other[0],
                                          self[1] * other[1]))
        return _tuple_new(IntVector, tuple(map(operator.mul, self, other)))

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "IntVector":
        if type(other) is not IntVector or len(other) != len(self):
            other = self._operand(other)
        if len(self) == 2:
            return _tuple_new(IntVector, (self[0] // other[0],
                                          self[1] // other[1]))
        return _tuple_new(IntVector,
                          tuple(map(operator.floordiv, self, other)))

    def __neg__(self) -> "IntVector":
        return _tuple_new(IntVector, tuple(map(operator.neg, self)))

    def min(self) -> int:
        return min(self)

    def max(self) -> int:
        return max(self)

    def product(self) -> int:
        if len(self) == 2:
            return self[0] * self[1]
        out = 1
        for a in self:
            out *= a
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntVector{tuple(self)}"


def _vec(components: tuple) -> IntVector:
    """An IntVector from a tuple already known to hold plain ints."""
    return _tuple_new(IntVector, components)


def _box(lower: IntVector, upper: IntVector) -> "Box":
    """A Box from two same-dimension IntVectors (no re-validation)."""
    b = _object_new(Box)
    b.lower = lower
    b.upper = upper
    if len(lower) == 2:
        b._empty = upper[0] < lower[0] or upper[1] < lower[1]
    else:
        b._empty = any(map(operator.lt, upper, lower))
    b._shape = None
    b._size = None
    b._hash = None
    return b


#: canonical empty box per dimension (boxes are immutable, so shared)
_EMPTY: dict[int, "Box"] = {}


class Box:
    """An axis-aligned box of cell indices, inclusive at both corners.

    An *empty* box is represented by any box with ``upper < lower`` in some
    direction; :meth:`empty` constructs a canonical one.  Empty boxes
    propagate sanely through intersections.
    """

    __slots__ = ("lower", "upper", "_empty", "_shape", "_size", "_hash")

    def __init__(self, lower: Sequence[int], upper: Sequence[int]):
        lower = lower if type(lower) is IntVector else IntVector(lower)
        upper = upper if type(upper) is IntVector else IntVector(upper)
        if len(lower) != len(upper):
            raise ValueError("lower/upper dimension mismatch")
        self.lower = lower
        self.upper = upper
        self._empty = any(map(operator.lt, upper, lower))
        self._shape = None
        self._size = None
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, dim: int = 2) -> "Box":
        box = _EMPTY.get(dim)
        if box is None:
            box = _EMPTY[dim] = cls([0] * dim, [-1] * dim)
        return box

    @classmethod
    def from_shape(cls, shape: Sequence[int], origin: Sequence[int] | None = None) -> "Box":
        """A box of ``shape`` cells with its lower corner at ``origin``."""
        origin = IntVector(origin) if origin is not None else IntVector.uniform(0, len(shape))
        return cls(origin, origin + IntVector(shape) - IntVector.uniform(1, len(shape)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lower)

    def is_empty(self) -> bool:
        return self._empty

    def shape(self) -> IntVector:
        s = self._shape
        if s is None:
            lo, hi = self.lower, self.upper
            if self._empty:
                s = _vec((0,) * len(lo))
            elif len(lo) == 2:
                s = _vec((hi[0] - lo[0] + 1, hi[1] - lo[1] + 1))
            else:
                s = hi - lo + 1
            self._shape = s
        return s

    def size(self) -> int:
        """Number of cells in the box (0 if empty)."""
        n = self._size
        if n is None:
            lo, hi = self.lower, self.upper
            if self._empty:
                n = 0
            elif len(lo) == 2:
                n = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
            else:
                n = self.shape().product()
            self._size = n
        return n

    def contains(self, index: Sequence[int]) -> bool:
        return all(l <= i <= u for l, i, u in zip(self.lower, index, self.upper))

    def contains_box(self, other: "Box") -> bool:
        if other._empty:
            return True
        sl, su, ol, ou = self.lower, self.upper, other.lower, other.upper
        if len(sl) == 2 and len(ol) == 2:
            return (sl[0] <= ol[0] and ou[0] <= su[0]
                    and sl[1] <= ol[1] and ou[1] <= su[1])
        return all(map(operator.le, sl, ol)) and all(map(operator.le, ou, su))

    def indices(self) -> Iterator[Tuple[int, ...]]:
        """Iterate all cell indices in the box (row-major, for tests)."""
        if self.is_empty():
            return iter(())
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return itertools.product(*ranges)

    # -- algebra -----------------------------------------------------------

    def intersection(self, other: "Box") -> "Box":
        if self._empty or other._empty:
            return Box.empty(self.dim)
        a, b, c, d = self.lower, other.lower, self.upper, other.upper
        if len(a) == 2 and len(b) == 2:
            l0 = a[0] if a[0] > b[0] else b[0]
            l1 = a[1] if a[1] > b[1] else b[1]
            u0 = c[0] if c[0] < d[0] else d[0]
            u1 = c[1] if c[1] < d[1] else d[1]
            if u0 < l0 or u1 < l1:
                return Box.empty(2)
            return _box(_vec((l0, l1)), _vec((u0, u1)))
        box = _box(_vec(tuple(map(max, a, b))), _vec(tuple(map(min, c, d))))
        return box if not box._empty else Box.empty(self.dim)

    __mul__ = intersection

    def intersects(self, other: "Box") -> bool:
        return not self.intersection(other)._empty

    def grow(self, width: int | Sequence[int]) -> "Box":
        """Grow (or shrink, for negative widths) the box in all directions."""
        lo, hi = self.lower, self.upper
        if isinstance(width, int) and len(lo) == 2:
            w = _index(width)
            return _box(_vec((lo[0] - w, lo[1] - w)),
                        _vec((hi[0] + w, hi[1] + w)))
        w = IntVector(width) if not isinstance(width, int) else IntVector.uniform(width, self.dim)
        return _box(lo - w, hi + w)

    def grow_dir(self, axis: int, lower: int, upper: int) -> "Box":
        """Grow only along one axis, independently at each face."""
        lo = list(self.lower)
        hi = list(self.upper)
        lo[axis] -= lower
        hi[axis] += upper
        return Box(lo, hi)

    def shift(self, offset: Sequence[int]) -> "Box":
        off = IntVector(offset)
        return _box(self.lower + off, self.upper + off)

    def coarsen(self, ratio: int | Sequence[int]) -> "Box":
        """Coarsen the box by a refinement ratio (SAMRAI semantics).

        The coarse box covers every coarse cell touched by this box.
        Floor division keeps negative indices correct.
        """
        r = IntVector(ratio) if not isinstance(ratio, int) else IntVector.uniform(ratio, self.dim)
        if self._empty:
            return Box.empty(self.dim)
        lo, hi = self.lower, self.upper
        if len(lo) == 2 and len(r) == 2:
            r0, r1 = r
            return _box(_vec((lo[0] // r0, lo[1] // r1)),
                        _vec((hi[0] // r0, hi[1] // r1)))
        return Box(_vec(tuple(map(operator.floordiv, lo, r))),
                   _vec(tuple(map(operator.floordiv, hi, r))))

    def refine(self, ratio: int | Sequence[int]) -> "Box":
        """Refine the box: the fine box covering exactly the same region."""
        r = IntVector(ratio) if not isinstance(ratio, int) else IntVector.uniform(ratio, self.dim)
        if self._empty:
            return Box.empty(self.dim)
        lo, hi = self.lower, self.upper
        if len(lo) == 2 and len(r) == 2:
            r0, r1 = r
            return _box(_vec((lo[0] * r0, lo[1] * r1)),
                        _vec(((hi[0] + 1) * r0 - 1, (hi[1] + 1) * r1 - 1)))
        return Box(_vec(tuple(map(operator.mul, lo, r))),
                   _vec(tuple((i + 1) * k - 1 for i, k in zip(hi, r))))

    def bounding(self, other: "Box") -> "Box":
        """Smallest box containing both boxes."""
        if self._empty:
            return other
        if other._empty:
            return self
        return Box(_vec(tuple(map(min, self.lower, other.lower))),
                   _vec(tuple(map(max, self.upper, other.upper))))

    def remove_intersection(self, other: "Box") -> list["Box"]:
        """Return disjoint boxes covering ``self`` minus ``other``.

        Standard sweep decomposition: peel off slabs axis by axis.  The
        result boxes are disjoint and their union is exactly the set
        difference.
        """
        inter = self.intersection(other)
        if inter._empty:
            return [] if self._empty else [self]
        if inter == self:
            return []
        pieces: list[Box] = []
        lo = list(self.lower)
        hi = list(self.upper)
        ilo, ihi = inter.lower, inter.upper
        for axis in range(len(lo)):
            if lo[axis] < ilo[axis]:
                cut_hi = hi.copy()
                cut_hi[axis] = ilo[axis] - 1
                pieces.append(_box(_vec(tuple(lo)), _vec(tuple(cut_hi))))
                lo[axis] = ilo[axis]
            if hi[axis] > ihi[axis]:
                cut_lo = lo.copy()
                cut_lo[axis] = ihi[axis] + 1
                pieces.append(_box(_vec(tuple(cut_lo)), _vec(tuple(hi))))
                hi[axis] = ihi[axis]
        return pieces

    # -- slicing helpers ---------------------------------------------------

    def slices_in(self, frame: "Box") -> tuple[slice, ...]:
        """Numpy slices selecting this box inside an array covering ``frame``.

        The array is assumed to have one element per cell of ``frame`` with
        element (0, 0, ...) at ``frame.lower``.  Raises if the box is not
        contained in the frame — out-of-frame access is always a bug.
        """
        lo, hi, fl = self.lower, self.upper, frame.lower
        if len(lo) == 2 and len(fl) == 2:
            f0, f1 = fl
            if not self._empty:
                fu = frame.upper
                if not (f0 <= lo[0] and hi[0] <= fu[0]
                        and f1 <= lo[1] and hi[1] <= fu[1]):
                    raise IndexError(f"{self} not contained in frame {frame}")
            return (slice(lo[0] - f0, hi[0] - f0 + 1),
                    slice(lo[1] - f1, hi[1] - f1 + 1))
        if not frame.contains_box(self):
            raise IndexError(f"{self} not contained in frame {frame}")
        return tuple(
            slice(l - f, u - f + 1) for l, u, f in zip(lo, hi, fl)
        )

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        if self._empty and other._empty:
            return len(self.lower) == len(other.lower)
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self._empty:
                h = hash(("Box", "empty", len(self.lower)))
            else:
                h = hash(("Box", self.lower, self.upper))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"Box({tuple(self.lower)}, {tuple(self.upper)})"
