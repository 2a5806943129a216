"""Contiguous array storage over an index frame (SAMRAI's ``ArrayData``).

``ArrayData`` owns a C-contiguous float64 array with one element per index
of its frame box and provides the three primitive data-motion operations
every centring needs: region copy, pack-to-buffer, unpack-from-buffer.
All region arguments are boxes in the same index space as the frame.
"""

from __future__ import annotations

import numpy as np

from ..mesh.box import Box

__all__ = ["ArrayData"]


class ArrayData:
    """Host-memory array covering ``frame`` (inclusive index box)."""

    def __init__(self, frame: Box, fill: float | None = None, dtype=np.float64,
                 buffer: np.ndarray | None = None):
        """``buffer``, if given, is preallocated storage of the frame's
        shape (an arena member view) used instead of a fresh array."""
        self.frame = frame
        if buffer is not None:
            if buffer.shape != tuple(frame.shape()):
                raise ValueError(
                    f"buffer shape {buffer.shape} != frame shape "
                    f"{tuple(frame.shape())}")
            self.array = buffer
            if fill is not None:
                self.array.fill(fill)
        elif fill is None:
            self.array = np.empty(tuple(frame.shape()), dtype=dtype)
        else:
            self.array = np.full(tuple(frame.shape()), fill, dtype=dtype)

    def view(self, box: Box) -> np.ndarray:
        """A writable view of the region ``box`` (must lie in the frame)."""
        return self.array[box.slices_in(self.frame)]

    def full_view(self) -> np.ndarray:
        """The whole frame array (the device storage's kernel-view twin)."""
        return self.array

    def fill(self, value: float, box: Box | None = None) -> None:
        if box is None:
            self.array.fill(value)
        else:
            self.view(box)[...] = value

    def copy_from(self, src: "ArrayData", box: Box, src_shift=None) -> None:
        """Copy region ``box`` from ``src`` (same index space unless shifted).

        ``src_shift`` maps destination indices to source indices (used for
        periodic images); None means identity.
        """
        src_box = box if src_shift is None else box.shift(src_shift)
        self.view(box)[...] = src.view(src_box)

    def pack(self, box: Box) -> np.ndarray:
        """Pack region ``box`` into a new contiguous 1-D buffer."""
        return np.ascontiguousarray(self.view(box)).reshape(-1).copy()

    def unpack(self, buffer: np.ndarray, box: Box) -> None:
        """Unpack a contiguous 1-D buffer into region ``box``."""
        expected = box.size()
        if buffer.size != expected:
            raise ValueError(f"buffer size {buffer.size} != region size {expected}")
        self.view(box)[...] = buffer.reshape(tuple(box.shape()))
