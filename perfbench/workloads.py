"""The benchmark's four pinned workloads and their seeded inputs.

Each workload is one closed, single-threaded batch job: a fixed problem
family at a fixed size, run for a fixed number of steps per session.  The
seed draws only the problem's physical parameters (Sod interface, blast
radius and inner pressure, triple-point region splits); the program under
test receives nothing but the generated :class:`Problem` and a
:class:`RunConfig` that pins the policy fields the ROADMAP keeps
(``batch``, ``overlap``, regrid ``interval``).  ``scheduler`` and
``kernels`` are left to resolve from those.

Where a workload regrids during its timed steps, the draws stay inside
ranges where every seed gives the same hierarchy, so modelled numbers do
not jump between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.api import (
    BlastProblem,
    ExecutionPolicy,
    RegridPolicy,
    RunConfig,
    SodProblem,
    TriplePointProblem,
)

#: the seed whose reference digests are recorded in ``reference.json``
DEFAULT_SEED = 1

#: a regrid interval longer than any run: the hierarchy is built at set-up
NEVER = 10**6


class SeededTriplePoint(TriplePointProblem):
    """Triple point with its region splits moved off ``x = 1``, ``y = 1.5``."""

    def __init__(self, base_resolution, x_split: float = 1.0,
                 y_split: float = 1.5):
        super().__init__(base_resolution)
        self.x_split = x_split
        self.y_split = y_split

    def initial_state(self, xc, yc):
        driver = xc < self.x_split
        top = yc >= self.y_split
        shape = np.broadcast_shapes(xc.shape, yc.shape)
        density = np.broadcast_to(
            np.where(driver, 1.0, np.where(top, 0.125, 1.0)), shape).copy()
        pressure = np.where(driver, 1.0, 0.1) + 0.0 * yc
        energy = pressure / ((self.gamma - 1.0) * density)
        return density, energy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: steps per timed session; fixed so modelled numbers repeat exactly
    steps: int
    problem: type
    base_resolution: tuple[int, int]
    #: problem keyword -> (lo, hi) of the uniform draw
    draws: dict
    max_levels: int
    max_patch_size: int
    nranks: int
    execution: dict
    regrid: dict
    #: (min, max) patches on the hierarchy after set-up, over all seeds
    patch_range: tuple[int, int]

    def params(self, seed: int) -> dict:
        """The problem parameters ``seed`` draws for this workload."""
        rng = random.Random(f"{self.name}/{seed}")
        return {k: round(rng.uniform(lo, hi), 6)
                for k, (lo, hi) in self.draws.items()}

    def config(self, params: dict, execution: ExecutionPolicy | None = None
               ) -> RunConfig:
        """A fresh run config; ``execution`` overrides the pinned policy."""
        return RunConfig(
            problem=self.problem(self.base_resolution, **params),
            nranks=self.nranks,
            max_levels=self.max_levels,
            max_patch_size=self.max_patch_size,
            max_steps=self.steps,
            execution=(execution if execution is not None
                       else ExecutionPolicy(**self.execution)),
            regrid=RegridPolicy(**self.regrid),
        )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="amr_steady",
        why=("steady-state halo replay through cached schedules over "
             "~75 small patches; ghost fill dominates host time"),
        steps=6, problem=SeededTriplePoint, base_resolution=(56, 24),
        draws={"x_split": (0.94, 1.06), "y_split": (1.44, 1.56)},
        max_levels=2, max_patch_size=8, nranks=2,
        execution={"batch": True}, regrid={"interval": NEVER},
        patch_range=(60, 90),
    ),
    Workload(
        name="uniform_kernels",
        why=("one 384x384 patch on one rank: slab hydro kernels dominate; "
             "bypasses fill, regrid and task-graph changes"),
        steps=10, problem=SodProblem, base_resolution=(384, 384),
        draws={"interface": (0.40, 0.60)},
        max_levels=1, max_patch_size=384, nranks=1,
        execution={"batch": True}, regrid={}, patch_range=(1, 1),
    ),
    Workload(
        name="regrid_churn",
        why=("3-level blast regridded from scratch every step on 4 ranks: "
             "schedule build and regrid pay on every step"),
        steps=4, problem=BlastProblem, base_resolution=(64, 64),
        # a wider draw flips the refined region between two shapes whose
        # modelled cost differs by ~5%
        draws={"radius": (0.1002, 0.10035), "p_in": (9.98, 10.0)},
        max_levels=3, max_patch_size=16, nranks=4,
        execution={"batch": True}, regrid={"interval": 1},
        patch_range=(40, 70),
    ),
    Workload(
        name="overlap_graph",
        why=("overlapped, batched task-graph execution on 4 ranks: the only "
             "workload on the scheduler path"),
        steps=6, problem=SeededTriplePoint, base_resolution=(56, 24),
        # splits below the fine-cell centres x = 1.03125, y = 1.53125 and
        # above y = 1.46875: crossing one reshapes the step-5 regrid
        draws={"x_split": (0.94, 1.03), "y_split": (1.47, 1.53)},
        max_levels=2, max_patch_size=16, nranks=4,
        execution={"overlap": True, "batch": True}, regrid={"interval": 5},
        patch_range=(15, 40),
    ),
)}
