"""Variable declarations and patch-data factories.

A :class:`Variable` describes one simulation quantity (name, centring,
ghost width).  A factory turns a variable plus a patch box into a concrete
``PatchData`` object — host-resident or GPU-resident — which is the single
point where the CPU and GPU builds of the application diverge, mirroring
how the paper swaps ``PatchData`` implementations under an unchanged
SAMRAI framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exec.backend import allocate_device, allocate_host

if TYPE_CHECKING:  # pragma: no cover
    from ..pdat.patch_data import PatchData
    from .box import Box

__all__ = ["Variable", "VariableRegistry", "HostDataFactory", "CudaDataFactory"]

CENTRINGS = ("cell", "node", "side")


@dataclass(frozen=True)
class Variable:
    """Declaration of one mesh quantity."""

    name: str
    centring: str
    ghosts: int = 2
    axis: int = 0  # only meaningful for side centring

    def __post_init__(self):
        if self.centring not in CENTRINGS:
            raise ValueError(f"unknown centring {self.centring!r}")


class VariableRegistry:
    """Ordered set of variables a simulation declares up front."""

    def __init__(self):
        self._vars: dict[str, Variable] = {}

    def declare(self, name: str, centring: str, ghosts: int = 2, axis: int = 0) -> Variable:
        if name in self._vars:
            raise ValueError(f"variable {name!r} already declared")
        var = Variable(name, centring, ghosts, axis)
        self._vars[name] = var
        return var

    def __iter__(self):
        return iter(self._vars.values())

    def __getitem__(self, name: str) -> Variable:
        return self._vars[name]

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def names(self) -> list[str]:
        return list(self._vars)


class HostDataFactory:
    """Allocates CPU-resident patch data.

    With ``arena=True``, level-wide allocation pools each variable's
    storage for all of a rank's patches into one
    :class:`~repro.pdat.arena.HostArena` slab (per-patch ``allocate``
    calls — schedule temporaries — stay individual allocations).
    """

    location = "host"

    def __init__(self, arena: bool = False):
        self.arena = arena

    def allocate(self, var: Variable, box: "Box", rank) -> "PatchData":  # noqa: ARG002
        return allocate_host(var, box)

    def allocate_temps(self, items, rank) -> tuple:  # noqa: ARG002
        """Schedule temporaries carved back to back from one arena.

        ``items`` are ``(var, box, frame shape)``; returns the
        :class:`~repro.pdat.arena.HostArena` and the patch data, member
        ``i`` at ``arena.offsets[i]``.
        """
        import math

        from ..pdat.arena import HostArena

        arena = HostArena(sum(math.prod(shape) for _, _, shape in items))
        return arena, [allocate_host(var, box, buffer=arena.place(shape))
                       for var, box, shape in items]

    def allocate_level(self, level, variables, comm) -> None:
        """Arena-pooled allocation of every variable on every patch."""
        import math

        from ..pdat.arena import HostArena, frame_box_of

        for owner in sorted({p.owner for p in level.patches}):
            patches = level.local_patches(owner)
            for var in variables:
                shapes = [tuple(frame_box_of(var, p.box).shape())
                          for p in patches]
                arena = HostArena(sum(math.prod(s) for s in shapes))
                for index, (patch, shape) in enumerate(zip(patches, shapes)):
                    pd = allocate_host(var, patch.box,
                                       buffer=arena.place(shape))
                    # Backlink for the whole-slab fast path: this patch
                    # data is member ``index`` of the arena's stacked view.
                    pd._arena = arena
                    pd._arena_index = index
                    patch.set_data(var.name, pd)


class CudaDataFactory:
    """Allocates GPU-resident patch data on the owning rank's device.

    With ``arena=True``, level-wide allocation pools each variable's
    storage for all of a rank's patches into one
    :class:`~repro.cupdat.arena.DeviceArena` slab on the owning device.
    """

    location = "device"

    def __init__(self, arena: bool = False):
        self.arena = arena

    def allocate(self, var: Variable, box: "Box", rank) -> "PatchData":
        if rank.device is None:
            raise ValueError(f"rank {rank.index} has no device for CUDA data")
        return allocate_device(var, box, rank.device)

    def allocate_temps(self, items, rank) -> tuple:
        """Schedule temporaries carved back to back from one device slab
        (:class:`~repro.cupdat.arena.DeviceArena`, released with its last
        member); ``items`` and the result as for
        :meth:`HostDataFactory.allocate_temps`."""
        import math

        from ..cupdat.arena import DeviceArena

        if rank.device is None:
            raise ValueError(f"rank {rank.index} has no device for CUDA data")
        arena = DeviceArena(rank.device,
                            sum(math.prod(shape) for _, _, shape in items))
        return arena, [allocate_device(var, box, rank.device,
                                       darr=arena.place(shape))
                       for var, box, shape in items]

    def allocate_level(self, level, variables, comm) -> None:
        """Arena-pooled allocation of every variable on every patch."""
        import math

        from ..cupdat.arena import DeviceArena
        from ..pdat.arena import frame_box_of

        for owner in sorted({p.owner for p in level.patches}):
            rank = comm.rank(owner)
            if rank.device is None:
                raise ValueError(
                    f"rank {rank.index} has no device for CUDA data")
            patches = level.local_patches(owner)
            for var in variables:
                shapes = [tuple(frame_box_of(var, p.box).shape())
                          for p in patches]
                arena = DeviceArena(rank.device,
                                    sum(math.prod(s) for s in shapes))
                for index, (patch, shape) in enumerate(zip(patches, shapes)):
                    pd = allocate_device(var, patch.box, rank.device,
                                         darr=arena.place(shape))
                    pd._arena = arena
                    pd._arena_index = index
                    patch.set_data(var.name, pd)
