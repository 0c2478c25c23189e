"""The benchmark's three workloads: set-up, one sweep, one solve, and
the output oracle each operation is checked against.

Every workload is a paper scenario at its scaled-down top point (see
``benchmarks/_common.py`` for the scaling convention); they differ in
which layers they load:

* ``kobayashi`` - JSNT-S Kobayashi-24, 24 angles, 6^3 patches, 384
  simulated cores (Fig. 12a).  Few events, large programs: the
  intra-patch ready heap of ``sweep_program`` dominates the drive and
  the level kernels dominate the solve.
* ``ball`` - JSNT-U ball-14 (~10k tets), S4, 120-cell patches, 384
  cores (Fig. 14a).  ~260k events on the batched clean loop: the
  per-event cost of scheduler, loop, simulator and transport dominates.
* ``ball-faults`` - JSNT-U ball-10, 96 cores, resilient ``compute=True``
  programs under a crash of process 1 plus 2% drops and 2% duplicates,
  with a 1 s virtual deadline as service jobs carry.  The one-event-
  at-a-time general loop, ack/timer traffic and checkpoint deep copies.

The seed feeds the ``ball`` mesh and the ``ball-faults`` fault plan.
The ``ball-faults`` mesh stays at seed 0: over eight mesh seeds its
virtual makespan moved by 20% (3.66-4.49 ms) against 6% over eight
plan seeds, which would bury any scheduling change.  The Kobayashi
geometry has no random input, so its outputs are the same for every
seed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from _common import KOBA_ANGLES, KOBA_MIDDLE, MACHINE
from repro import DataDrivenRuntime, PatchSet, ball_tet_mesh
from repro.apps import kobayashi_materials, kobayashi_mesh, kobayashi_source
from repro.runtime import CrashFault, FaultPlan
from repro.sweep import (
    Material, MaterialMap, SnSolver, level_symmetric, product_quadrature,
)

__all__ = ["SCENARIOS", "SMOKE", "Scenario", "Setup", "Sweep", "Workload"]

#: Virtual-time budget of a ``ball-faults`` run (service jobs carry one).
DEADLINE_S = 1.0
#: Convergence tolerance of the timed source iteration.
SOLVE_TOL = 1e-6


@dataclass(frozen=True)
class Scenario:
    structured: bool  # Kobayashi hex mesh, else ball tet mesh
    size: int  # Kobayashi cells per axis, or ball resolution
    cores: int  # simulated cores, hybrid mode (12 per process)
    patch: int  # patch edge in cells (hex) or cells per patch (tet)
    grain: int  # vertex-clustering grain
    crash_at: float = 0.0  # virtual time of proc 1's crash; 0 = no faults

    @property
    def faults(self) -> bool:
        return self.crash_at > 0.0


SCENARIOS = {
    "kobayashi": Scenario(True, KOBA_MIDDLE, 384, 6, 1000),
    "ball": Scenario(False, 14, 384, 120, 64),
    "ball-faults": Scenario(False, 10, 96, 120, 64, crash_at=1e-3),
}

#: Seconds-scale stand-ins on the same code paths (the benchmark's tests).
SMOKE = {
    "kobayashi": Scenario(True, 6, 48, 3, 1000),
    "ball": Scenario(False, 4, 48, 40, 64),
    "ball-faults": Scenario(False, 4, 24, 40, 64, crash_at=1e-4),
}


def _ball_materials(mesh) -> tuple[MaterialMap, np.ndarray]:
    """JSNT-U's ball configuration (``JSNTU.ball``), one energy group:
    heavier absorption in every third region, source in the innermost."""
    mats = {
        int(mid): Material.isotropic(
            0.5 + 0.25 * (int(mid) % 3), scatter_ratio=0.3, name=f"mat{mid}"
        )
        for mid in np.unique(mesh.materials)
    }
    q = np.zeros((mesh.num_cells, 1))
    q[mesh.materials == mesh.materials.min(), 0] = 1.0
    return MaterialMap(mats, mesh.materials), q


@dataclass
class Setup:
    """A built scenario plus the sizes the per-layer report needs."""

    solver: SnSolver
    cells: int
    patches: int
    vertices: int
    remote_edges: int
    programs: int


@dataclass
class Sweep:
    """One DES sweep: report, per-angle face arrays, host seconds."""

    report: object
    faces: dict
    sweep_s: float  # build_programs + DataDrivenRuntime.run
    run_s: float  # DataDrivenRuntime.run alone


def _untraced(name: str):
    return nullcontext()


def build(sc: Scenario, seed: int, span=_untraced) -> Setup:
    """Mesh -> partition -> solver -> DAG + priorities -> first programs.

    ``span(name)`` brackets each stage (a no-op outside the traced run,
    where ``SweepTopology.__init__`` is wrapped as ``dag.build`` so the
    ``priorities.build`` span's self time is ``apply_priorities``).
    """
    nprocs = MACHINE.layout(sc.cores, "hybrid").nprocs
    if sc.structured:
        with span("mesh.build"):
            mesh = kobayashi_mesh(sc.size)
        with span("partition.build"):
            pset = PatchSet.from_structured(mesh, (sc.patch,) * 3, nprocs=nprocs)
        with span("solver.init"):
            solver = SnSolver(
                pset, product_quadrature(*KOBA_ANGLES),
                MaterialMap(kobayashi_materials(), mesh.material_flat()),
                kobayashi_source(mesh), scheme="dd", grain=sc.grain,
            )
    else:
        with span("mesh.build"):
            mesh = ball_tet_mesh(sc.size, seed=0 if sc.faults else seed)
        with span("partition.build"):
            pset = PatchSet.from_unstructured(mesh, sc.patch, nprocs=nprocs, method="rcb")
        with span("solver.init"):
            mm, q = _ball_materials(mesh)
            solver = SnSolver(pset, level_symmetric(4), mm, q, scheme="step", grain=sc.grain)
    with span("priorities.build"):
        topo = solver.topology
    programs, _ = solver.build_programs(compute=sc.faults, resilient=sc.faults)
    return Setup(
        solver=solver,
        cells=mesh.num_cells,
        patches=pset.num_patches,
        vertices=sum(g.n_local for g in topo.graphs.values()),
        remote_edges=sum(g.num_remote_edges for g in topo.graphs.values()),
        programs=len(programs),
    )


class Workload:
    """One scenario at one seed: its operations and their oracle.

    Each ``check_*`` returns the list of problems found (empty = the
    output is right).  The first clean sweep and the first solve set
    the reference that every later one must reproduce exactly.
    """

    def __init__(self, name: str, seed: int, smoke: bool = False):
        self.seed = seed
        self.sc = (SMOKE if smoke else SCENARIOS)[name]
        self.plan = None
        if self.sc.faults:
            self.plan = FaultPlan(
                crashes=(CrashFault(proc=1, time=self.sc.crash_at),),
                p_drop=0.02, p_duplicate=0.02, seed=seed,
            )
        self.setup: Setup | None = None
        self.ref_setup: tuple | None = None  # (cells, vertices)
        self.ref_flux: np.ndarray | None = None
        self.ref_run: tuple | None = None  # (events, makespan)
        self.ref_solve = None  # SweepResult

    # -- operations -------------------------------------------------------------

    def build(self, span=_untraced) -> Setup:
        return build(self.sc, self.seed, span)

    def adopt(self, setup: Setup) -> None:
        """Make ``setup`` the solver later operations run on; a faulty
        workload also gets its serial reference flux here."""
        self.setup = setup
        if self.sc.faults:
            self.ref_flux = setup.solver.sweep_once(mode="fast")[0]

    def sweep(self, trace: bool = False) -> Sweep:
        """One DES sweep as a user pays it: fresh programs, one run.

        ``trace`` is the program's own event trace, not the benchmark's
        spans.
        """
        sc, solver = self.sc, self.setup.solver
        t0 = time.perf_counter()
        programs, faces = solver.build_programs(compute=sc.faults, resilient=sc.faults)
        rt = DataDrivenRuntime(sc.cores, machine=MACHINE, faults=self.plan, trace=trace)
        t1 = time.perf_counter()
        report = rt.run(
            programs, solver.pset.patch_proc,
            deadline=DEADLINE_S if sc.faults else None,
        )
        t2 = time.perf_counter()
        return Sweep(report, faces, t2 - t0, t2 - t1)

    def solve(self):
        return self.setup.solver.source_iteration(tol=SOLVE_TOL)

    # -- oracle -----------------------------------------------------------------

    def check_setup(self, s: Setup) -> list[str]:
        out = []
        if s.vertices != s.cells * self._angles(s):
            out.append(f"patch DAGs hold {s.vertices} vertices for {s.cells} cells")
        if s.programs != s.patches * self._angles(s):
            out.append(f"{s.programs} programs for {s.patches} patches")
        if self.ref_setup is None:
            self.ref_setup = (s.cells, s.vertices)
        elif (s.cells, s.vertices) != self.ref_setup:
            out.append("set-up is not reproducible for the same seed")
        return out

    @staticmethod
    def _angles(s: Setup) -> int:
        return s.solver.quadrature.num_angles

    def check_sweep(self, sw: Sweep) -> list[str]:
        rep, out = sw.report, []
        if self.sc.faults:
            phi, _ = self.setup.solver.accumulate(sw.faces)
            if not np.array_equal(phi, self.ref_flux):
                out.append("DES flux differs from the serial sweep_once flux")
            if rep.crashes != 1:
                out.append(f"{rep.crashes} crashes fired, expected 1")
            if rep.retries <= 0:
                out.append("no retransmissions: the lossy plan did not fire")
        elif rep.vertices_solved != self.setup.vertices:
            out.append(
                f"solved {rep.vertices_solved} of {self.setup.vertices} vertices"
            )
        got = (rep.events, rep.makespan)
        if self.ref_run is None:
            self.ref_run = got
        elif got != self.ref_run:
            out.append(f"events/makespan {got} differ from the first sweep's {self.ref_run}")
        return out

    def check_solve(self, res) -> list[str]:
        out = []
        if not res.converged:
            out.append(f"source iteration did not converge in {res.iterations}")
        ref = self.ref_solve
        if ref is None:
            self.ref_solve = res
        elif res.iterations != ref.iterations or not np.array_equal(res.phi, ref.phi):
            out.append("solve is not reproducible (iterations or flux differ)")
        return out
