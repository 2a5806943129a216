"""The execution-backend seam: one place that knows where data lives.

The AMR framework drives patch integration as a black box (paper Fig. 6);
everything that used to re-answer "is this patch data host- or
device-resident?" ad hoc — hydro kernels, boundary fills, geometry
operators, transfer schedules, tag flagging, diagnostics — now asks a
:class:`Backend` instead.  A backend owns

* array allocation (what the patch-data factories delegate to),
* array views (``array``: the frame array, host- or kernel-space),
* kernel launch with cost charged to the owning rank's clocks,
* memcpy charging and batched pack/unpack across the PCIe bus, and
* the per-kernel / per-transfer counters in :mod:`repro.exec.stats`.

Three implementations cover the paper's builds: :class:`HostBackend`
(CPU code), :class:`ResidentDeviceBackend` (the paper's resident design,
wrapping :mod:`repro.gpu`), and :class:`NonResidentDeviceBackend` (the
copy-per-kernel porting style the paper criticises, kept for the
residency ablation).  A future backend — heterogeneous CPU+GPU split,
multiple devices per rank — is one new subclass, not another sweep over
the framework.
"""

from __future__ import annotations

import abc
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..check.context import active as _check_active
from ..check.context import seam_scope
from ..check.errors import DeclaredAccessError
from ..gpu.memory import DeviceArray
from ..obs.context import active_tracer
from ..obs.lanes import HOST
from .batch import SlabSpec, union_pds
from .plan import CopyPlan, StreamPlan
from .stats import ExecStats, attribution_report

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank
    from ..mesh.box import Box
    from ..mesh.patch import Patch
    from ..mesh.variables import Variable
    from ..pdat.patch_data import PatchData

__all__ = [
    "Backend",
    "HostBackend",
    "ResidentDeviceBackend",
    "NonResidentDeviceBackend",
    "is_resident",
    "backend_for",
    "array_of",
    "frame_of",
    "run_on",
    "allocate_host",
    "allocate_device",
    "read_patch_fields",
]


def is_resident(pd) -> bool:
    """True if a patch-data object's storage lives in device memory."""
    return getattr(pd, "RESIDENT", False)


def array_of(pd) -> np.ndarray:
    """The full frame array of a patch-data object.

    For device-resident data this is a kernel view, legal only inside a
    launch on the owning device — call it from within a backend ``run``
    body.  With a sanitize checker active, handouts inside a declared
    kernel/task scope are instrumented (read-only views for declared
    reads, shadow checksums for undeclared accesses).
    """
    arr = pd.data.full_view() if is_resident(pd) else pd.data.array
    chk = _check_active()
    if chk is not None:
        return chk.on_handout(pd, arr)
    return arr


def frame_of(pd) -> "Box":
    """The index frame (ghost box) of a patch-data object's storage."""
    return pd.data.frame


def _pdat_classes() -> tuple[dict, dict]:
    """(host, device) patch-data class per centring, imported on first use
    (the concrete classes import this module).  Schedules allocate their
    temporaries on every fill, so the lookup is kept off that path."""
    global _PDAT_CLASSES
    if _PDAT_CLASSES is None:
        from ..cupdat.cuda_cell_data import CudaCellData
        from ..cupdat.cuda_node_data import CudaNodeData
        from ..cupdat.cuda_side_data import CudaSideData
        from ..pdat.cell_data import CellData
        from ..pdat.node_data import NodeData
        from ..pdat.side_data import SideData

        _PDAT_CLASSES = (
            {"cell": CellData, "node": NodeData, "side": SideData},
            {"cell": CudaCellData, "node": CudaNodeData, "side": CudaSideData})
    return _PDAT_CLASSES


_PDAT_CLASSES = None


def allocate_host(var: "Variable", box: "Box", buffer=None) -> "PatchData":
    cls = _pdat_classes()[0][var.centring]
    if var.centring == "side":
        pd = cls(box, var.ghosts, var.axis, buffer=buffer)
    else:
        pd = cls(box, var.ghosts, buffer=buffer)
    pd.var_name = var.name  # debug name used in sanitizer reports
    return pd


def allocate_device(var: "Variable", box: "Box", device, darr=None) -> "PatchData":
    cls = _pdat_classes()[1][var.centring]
    if var.centring == "side":
        pd = cls(box, var.ghosts, var.axis, device, darr=darr)
    else:
        pd = cls(box, var.ghosts, device, darr=darr)
    pd.var_name = var.name  # debug name used in sanitizer reports
    return pd


def _interior_box(patch: "Patch", pd) -> "Box":
    return type(pd).index_box(patch.box, getattr(pd, "axis", None))


def _fused_pack_to_host(device, plan: StreamPlan) -> np.ndarray:
    """One pack kernel into one device buffer, one D2H, for many regions
    laid back-to-back (the paper's MessageStream scheme)."""
    dbuf = _device_pack(device, plan)
    host = device.to_host(dbuf)
    dbuf.free()
    return host


def _device_pack(device, plan: StreamPlan):
    """One ``pdat.pack`` launch gathering ``plan`` into a device buffer."""
    dbuf = DeviceArray(device, (plan.total,))
    device.launch("pdat.pack", plan.total,
                  lambda: plan.pack_into(dbuf.kernel_view()))
    return dbuf


def _device_unpack(device, dbuf, plan: StreamPlan) -> None:
    """One ``pdat.unpack`` launch scattering a device buffer into ``plan``."""
    device.launch("pdat.unpack", plan.total,
                  lambda: plan.unpack_from(dbuf.kernel_view()))


class Backend(abc.ABC):
    """One execution resource of a rank: allocation, launch, data motion."""

    #: short identifier used in reports
    name: str = "backend"
    #: True if data allocated by this backend lives in device memory
    resident: bool = False

    def __init__(self, rank: "Rank | None"):
        self.rank = rank

    # -- allocation -----------------------------------------------------------

    @abc.abstractmethod
    def allocate(self, var: "Variable", box: "Box") -> "PatchData":
        """Allocate patch data for one variable on this backend's memory."""

    # -- views ---------------------------------------------------------------

    def array(self, pd) -> np.ndarray:
        """Frame array of ``pd`` (kernel view for device-resident data)."""
        return array_of(pd)

    # -- kernel launch --------------------------------------------------------

    def run(self, kernel: str, elements: int, fn, *args,
            reads: Iterable = (), writes: Iterable = (),
            ghost_reads: Iterable = (), ghost_only: bool = False,
            marks: Iterable = ()):
        """Execute ``fn(*args)`` as a kernel over ``elements`` elements.

        The modelled cost is charged to the owning rank's clock (and
        device stream, for device backends) and recorded in the rank's
        :class:`~repro.exec.stats.ExecStats`.  ``reads``/``writes``
        declare the patch-data operands — the non-resident ablation moves
        them per launch, the scheduler derives dependency edges from
        them, and ``--sanitize`` verifies them against actual accesses.
        ``ghost_reads`` names the operands whose *ghost regions* the
        kernel stencil reaches, ``ghost_only`` marks a kernel whose
        writes touch only ghost regions (no interior-generation bump),
        and ``marks`` carries ghost-stamp directives — all consumed by
        the checker only.
        """
        chk = _check_active()
        if chk is None:
            return self._launch(kernel, elements, fn, *args,
                                reads=reads, writes=writes)
        scope = chk.begin_kernel(kernel, reads, writes,
                                 ghost_reads=ghost_reads,
                                 ghost_only=ghost_only, marks=marks)
        try:
            result = self._launch(kernel, elements, fn, *args,
                                  reads=reads, writes=writes)
        except ValueError as e:
            chk.abort_kernel(scope)
            if "read-only" in str(e):
                names = ", ".join(sorted(chk.name_of(pd) for pd in reads))
                raise DeclaredAccessError(
                    f"kernel {kernel!r} wrote an array it declared "
                    f"read-only (declared reads: {names})") from e
            raise
        except Exception:
            chk.abort_kernel(scope)
            raise
        chk.end_kernel(scope)
        return result

    def run_batched(self, kernel: str, members, combine=None,
                    ghost_only: bool = False, body=None):
        """Execute many per-patch kernel bodies as one fused launch.

        ``members`` is a sequence of :class:`~repro.exec.batch.BatchMember`;
        their bodies run in order over disjoint patch data inside a single
        launch whose element count is the members' sum and whose declared
        reads/writes/ghost-reads are the identity union of the members' —
        so the cost model charges one launch overhead instead of N, the
        non-resident ablation moves each operand once, and the sanitizer
        still sees every operand.  ``combine`` reduces the members' return
        values inside the launch (the CFL min); the result is returned.

        When every member carries a matching :class:`SlabSpec`
        (``--kernels slab``), the launch instead executes as one
        vectorized NumPy op over the whole stacked arena slab — same
        kernel name, element total, declarations and modelled cost, so
        only host wall-clock changes; the fused CFL min reduces over the
        stacked axis, which selects the exact same scalar.  Slab-marked
        groups that fail eligibility replay their bodies and are counted
        as ``slab_fallback``.

        ``body``, when given, is one compiled program doing every
        member's work (the transfer schedules' interpolation programs);
        it runs in place of the member bodies, under the same launch,
        declarations and counters.
        """
        members = list(members)
        if not members:
            return None
        if len(members) == 1 and combine is None:
            m = members[0]
            return self.run(kernel, m.elements,
                            m.body if body is None else body,
                            reads=m.reads, writes=m.writes,
                            ghost_reads=m.ghost_reads, ghost_only=ghost_only,
                            marks=m.marks)
        reads = union_pds(m.reads for m in members)
        writes = union_pds(m.writes for m in members)
        ghost_reads = union_pds(m.ghost_reads for m in members)
        marks = [mk for m in members for mk in m.marks]
        total = sum(m.elements for m in members)
        slab_body = self._slab_plan(members)

        def fused_body():
            if slab_body is not None:
                return slab_body()
            if body is not None:
                return body()
            results = [m.body() for m in members]
            return combine(results) if combine is not None else None

        tracer = active_tracer()
        device = getattr(self, "device", None)
        clock = (device.default_stream.clock if device is not None
                 else self.rank.clock if self.rank is not None else None)
        t0 = clock.time if (tracer is not None and clock is not None) else 0.0
        w0 = _perf_counter()
        result = self.run(kernel, total, fused_body, reads=reads,
                          writes=writes, ghost_reads=ghost_reads,
                          ghost_only=ghost_only, marks=marks)
        host_seconds = _perf_counter() - w0
        if len(members) > 1 and self.rank is not None:
            self.rank.exec_stats.record_batch(
                kernel, len(members), self._batch_overhead_saved(len(members)),
                host_seconds=host_seconds)
            if any(m.slab is not None for m in members):
                self.rank.exec_stats.record_slab(
                    kernel, fused=slab_body is not None)
            if tracer is not None and clock is not None:
                lane = device.default_stream.label if device is not None else HOST
                tracer.emit(kernel, "fused", self.rank.index, lane,
                            t0, clock.time, members=len(members),
                            elements=total, slab=slab_body is not None)
        return result

    def _slab_plan(self, members):
        """A zero-arg callable running a fused group as one whole-slab
        stacked NumPy op, or None when the group must replay per-patch
        bodies.

        Eligibility (all checked before launch, so the fallback never
        half-executes): every member carries a :class:`SlabSpec` with the
        same key and operand count; each operand position's patch data
        tiles exactly one uniform arena in stacked order 0..P-1 covering
        the whole arena; and each position is declared with one role
        (all reads or all writes) so the sanitizer can instrument the
        stacked handout like the per-patch ones.
        """
        spec0 = members[0].slab
        if not isinstance(spec0, SlabSpec):
            return None
        n = len(members)
        nops = len(spec0.operands)
        specs = []
        for m in members:
            s = m.slab
            if (not isinstance(s, SlabSpec) or s.key != spec0.key
                    or len(s.operands) != nops):
                return None
            specs.append(s)
        write_ids = [set(map(id, m.writes)) for m in members]
        read_ids = [set(map(id, m.reads)) for m in members]
        arenas = []
        writable = []
        for j in range(nops):
            arena = getattr(spec0.operands[j], "_arena", None)
            if arena is None or not arena.uniform or arena.member_count != n:
                return None
            role = None
            for i, s in enumerate(specs):
                pd = s.operands[j]
                if (getattr(pd, "_arena", None) is not arena
                        or getattr(pd, "_arena_index", None) != i):
                    return None
                if id(pd) in write_ids[i]:
                    r = "write"
                elif id(pd) in read_ids[i]:
                    r = "read"
                else:
                    return None
                if role is None:
                    role = r
                elif role != r:
                    return None
            arenas.append(arena)
            writable.append(role == "write")
        pds_by_op = [tuple(s.operands[j] for s in specs) for j in range(nops)]
        fn = spec0.fn

        def slab_body():
            chk = _check_active()
            args = []
            for j, arena in enumerate(arenas):
                stacked = arena.stacked_view()
                if chk is not None:
                    stacked = chk.on_slab_handout(pds_by_op[j], stacked)
                args.append(stacked)
            return fn(*args)

        return slab_body

    def _batch_overhead_saved(self, n: int) -> float:
        """Modelled fixed per-launch cost avoided by fusing ``n`` launches."""
        device = getattr(self, "device", None)
        if device is not None:
            spec = device.spec
            return (n - 1) * (spec.host_launch_overhead + spec.kernel_overhead)
        if self.rank is not None:
            return (n - 1) * self.rank.cpu.kernel_overhead
        return 0.0

    @abc.abstractmethod
    def _launch(self, kernel: str, elements: int, fn, *args,
                reads: Iterable = (), writes: Iterable = ()):
        """Backend-specific execution of one kernel (cost charging only;
        the declared-access checking lives in :meth:`run`)."""

    # -- transfers ------------------------------------------------------------

    def charge_transfer(self, direction: str, nbytes: int,
                        stream=None) -> None:
        """Charge a raw PCIe transfer (reduced scalars, tag words).

        ``stream`` selects an async copy timeline (device backends only);
        None models the blocking host path.  No-op on host backends: host
        data never crosses the bus.
        """

    def lane_stream(self, lane: str):  # noqa: ARG002 — lane selects a stream on device backends
        """The device stream backing a scheduler lane (``d2h``/``h2d``).

        None on host backends — host data motion has no second timeline
        to overlap onto, so every lane collapses onto the host clock.
        """
        return None

    def write_frame(self, pd, host: np.ndarray) -> None:
        """Overwrite the full frame of ``pd`` from a host array."""
        pd.data.array[...] = host

    def read_fields(self, patch: "Patch", names) -> dict[str, np.ndarray]:
        """Host arrays of field interiors (one fused D2H per patch)."""
        return read_patch_fields(patch, names)

    def pack_region(self, pd, region: "Box") -> np.ndarray:
        """Pack one region into a contiguous host buffer."""
        return self._cpu("pdat.pack", region.size(),
                         lambda: pd.pack_stream(region))

    def unpack_region(self, pd, buf: np.ndarray, region: "Box") -> None:
        """Unpack a contiguous host buffer into one region."""
        self._cpu("pdat.unpack", region.size(),
                  lambda: pd.unpack_stream(buf, region))

    def _note_stack(self, kernel: str, plan) -> None:
        """Record a plan's stacked/fallback split when arenas were in play."""
        if plan.eligible and self.rank is not None:
            self.rank.exec_stats.record_stack(
                kernel, len(plan) - plan.fallback, len(plan.groups),
                plan.fallback)

    # -- batched transfers --------------------------------------------------
    #
    # The batched pack/unpack/copy primitives execute lowered plans
    # (:mod:`repro.exec.plan`): uniform-arena regions at identical frame
    # offsets run as one stacked NumPy op per group, everything else as a
    # per-region loop over precomputed slices — bitwise identical either
    # way, with the split recorded as ``StackCounter`` in ExecStats.

    def pack_batch(self, plan: StreamPlan) -> np.ndarray:
        """Pack a stream plan's items into one host buffer."""

        def body():
            out = np.empty(plan.total, dtype=np.float64)
            plan.pack_into(out)
            return out

        result = self._cpu("pdat.pack", plan.total, body)
        self._note_stack("pdat.pack", plan)
        return result

    def unpack_batch(self, buffer: np.ndarray, plan: StreamPlan) -> None:
        """Unpack one host buffer into a stream plan's items, in pack order."""
        self._cpu("pdat.unpack", plan.total, plan.unpack_from, buffer)
        self._note_stack("pdat.unpack", plan)

    def copy_batch(self, plan: CopyPlan) -> None:
        """Run a plan of same-resource ``(dst_pd, src_pd, region)`` copies
        as one fused pass; the split is bitwise inert because copies in
        one batch have disjoint destinations."""
        self._cpu("pdat.copy", plan.total, plan.run)
        self._note_stack("pdat.copy", plan)

    # -- staged batch transfers (the task-graph decomposition) ----------------
    #
    # ``pack_batch``/``unpack_batch`` are single blocking calls; the
    # scheduler needs the same work split into pipeline stages so the PCIe
    # legs can run on copy streams: pack → staging, staging → host (D2H),
    # host → staging (H2D), staging → unpack.  On host backends the
    # staging buffer *is* the host buffer and the copy legs are free.

    def pack_batch_staged(self, plan: StreamPlan):
        """Pack a batch into a staging buffer on the data's resource."""
        return self.pack_batch(plan)

    def copy_out(self, staging, stream=None) -> np.ndarray:  # noqa: ARG002
        """Move a staging buffer to host memory (D2H leg; host: no-op)."""
        return staging

    def copy_in(self, host_buf: np.ndarray, stream=None):  # noqa: ARG002
        """Move a host buffer to a staging buffer (H2D leg; host: no-op)."""
        return host_buf

    def unpack_batch_staged(self, staging, plan: StreamPlan) -> None:
        """Unpack a staging buffer into the batch items, in pack order."""
        self.unpack_batch(staging, plan)

    def _cpu(self, kernel: str, elements: int, fn, *args):
        """Run a charged host pass (uncharged when no rank is attached)."""
        if self.rank is not None:
            return self.rank.cpu_run(kernel, elements, fn, *args)
        return fn(*args)

    # -- stats ----------------------------------------------------------------

    @property
    def exec_stats(self) -> ExecStats:
        return self.rank.exec_stats if self.rank is not None else ExecStats()

    def stats_report(self, timers: dict[str, float] | None = None) -> str:
        """The per-kernel / per-transfer attribution table for this rank."""
        return "\n".join(attribution_report(self.exec_stats, timers=timers))


class HostBackend(Backend):
    """CPU-resident data, kernels charged to the rank's CPU model."""

    name = "host"
    resident = False

    def allocate(self, var, box):
        return allocate_host(var, box)

    def _launch(self, kernel, elements, fn, *args, reads=(), writes=()):  # noqa: ARG002
        return self._cpu(kernel, elements, fn, *args)


class ResidentDeviceBackend(Backend):
    """The paper's design: data stays in device memory for the whole run."""

    name = "resident"
    resident = True

    def __init__(self, rank: "Rank"):
        super().__init__(rank)
        self.device = rank.device
        self._lane_streams: dict[str, object] = {}

    def allocate(self, var, box):
        return allocate_device(var, box, self.device)

    def _launch(self, kernel, elements, fn, *args, reads=(), writes=()):  # noqa: ARG002
        return self.device.launch(kernel, elements, fn, *args)

    def lane_stream(self, lane: str):
        """Copy-engine streams, one per direction (dual-copy-engine GPUs)."""
        s = self._lane_streams.get(lane)
        if s is None:
            s = self.device.create_stream(label=lane)
            self._lane_streams[lane] = s
        return s

    def charge_transfer(self, direction, nbytes, stream=None):
        self.device._charge_transfer(nbytes, stream, direction=direction)

    def write_frame(self, pd, host):
        with seam_scope():
            pd.from_host(host)

    def pack_region(self, pd, region):
        return pd.pack_stream(region)  # device kernel + D2H, self-charging

    def unpack_region(self, pd, buf, region):
        pd.unpack_stream(buf, region)  # H2D + device kernel, self-charging

    def pack_batch(self, plan):
        return self.copy_out(self.pack_batch_staged(plan))

    def unpack_batch(self, buffer, plan):
        dbuf = self.device.from_host(np.ascontiguousarray(buffer))
        _device_unpack(self.device, dbuf, plan)
        self._note_stack("pdat.unpack", plan)
        dbuf.free()

    def copy_batch(self, plan):
        self.device.launch("pdat.copy", plan.total, plan.run)
        self._note_stack("pdat.copy", plan)

    # -- staged batch transfers ------------------------------------------------

    def pack_batch_staged(self, plan):
        """One pack kernel into one device buffer; the D2H leg is separate."""
        dbuf = _device_pack(self.device, plan)
        self._note_stack("pdat.pack", plan)
        return dbuf

    def copy_out(self, staging, stream=None):
        host = self.device.to_host(staging, stream=stream)
        staging.free()
        return host

    def copy_in(self, host_buf, stream=None):
        return self.device.from_host(np.ascontiguousarray(host_buf),
                                     stream=stream)

    def unpack_batch_staged(self, staging, plan):
        _device_unpack(self.device, staging, plan)
        self._note_stack("pdat.unpack", plan)
        staging.free()


class NonResidentDeviceBackend(HostBackend):
    """Copy-per-kernel ablation: host data, GPU kernels, PCIe both ways.

    Models the pre-resident porting style (paper §I, §III, Wang et al.):
    every launch is bracketed by H2D copies of its operands and D2H
    copies of its outputs.  Data handling (allocation, views, pack paths)
    is inherited from :class:`HostBackend` because the data *is*
    host-resident — only kernel execution differs.
    """

    name = "nonresident"
    resident = False

    def __init__(self, rank: "Rank"):
        super().__init__(rank)
        if rank.device is None:
            raise ValueError("non-resident GPU integrator needs a device")
        self.device = rank.device

    def _launch(self, kernel, elements, fn, *args, reads=(), writes=()):
        writes = list(writes)
        for pd in dict.fromkeys([*reads, *writes]):
            self.device._charge_transfer(pd.data.array.nbytes, None,
                                         direction="h2d")
        result = self.device.launch(kernel, elements, fn, *args)
        for pd in writes:
            self.device._charge_transfer(pd.data.array.nbytes, None,
                                         direction="d2h")
        return result


#: uncharged host execution, used when no rank context exists (unit tests,
#: operator application outside a simulation)
UNCHARGED_HOST = HostBackend(None)


def backend_for(pd, rank: "Rank | None") -> Backend:
    """The backend matching where ``pd``'s storage actually lives.

    This is the single replacement for every former ad hoc
    ``getattr(pd, "RESIDENT", False)`` dispatch site.
    """
    if is_resident(pd):
        if rank is None or rank.resident_backend is None:
            raise ValueError(
                "device-resident patch data needs a rank with a device")
        return rank.resident_backend
    return rank.host_backend if rank is not None else UNCHARGED_HOST


def run_on(pd, rank: "Rank | None", kernel: str, elements: int, fn, *args):
    """Dispatch one kernel to the resource owning ``pd``.

    Unlike :func:`backend_for`, this tolerates ``rank=None`` for
    device-resident data by launching on the data's own device (operators
    applied outside a simulation still execute on the right resource).
    """
    if is_resident(pd):
        return pd.device.launch(kernel, elements, fn, *args)
    if rank is not None:
        return rank.cpu_run(kernel, elements, fn, *args)
    return fn(*args)


def read_patch_fields(patch: "Patch", names) -> dict[str, np.ndarray]:
    """Host arrays of the named fields' interiors on one patch.

    Host-resident fields return live views (no copy, no charge).  All
    device-resident fields of the patch are packed by one fused kernel
    and cross the PCIe bus in a single D2H transfer — the backend read
    path diagnostics use instead of one full-frame copy per field.
    """
    out: dict[str, np.ndarray] = {}
    device_items = []
    for name in names:
        pd = patch.data(name)
        interior = _interior_box(patch, pd)
        if is_resident(pd):
            device_items.append((name, pd, interior))
        else:
            out[name] = pd.data.view(interior)
    if device_items:
        device = device_items[0][1].device
        host = _fused_pack_to_host(device, StreamPlan.compile(
            [(pd, box) for _, pd, box in device_items]))
        off = 0
        for name, _pd, box in device_items:
            n = box.size()
            out[name] = host[off:off + n].reshape(tuple(box.shape()))
            off += n
    return out
