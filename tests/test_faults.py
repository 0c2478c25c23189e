"""Fault injection & fault-tolerant runtime tests.

The headline invariant: a faulty run (crashes + message drops +
duplications) with recovery enabled produces *bitwise-identical*
numerics to the fault-free reference sweep, and a zero-fault run with
the recovery machinery armed stays within the checkpoint overhead
budget of the fault-free makespan.
"""

import copy
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro._util import ReproError
from repro.framework import PatchSet
from repro.mesh import cube_structured, disk_tri_mesh
from repro.persist.codec import decode, encode
from repro.runtime import (
    CrashFault,
    DataDrivenRuntime,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Machine,
    RecoveryConfig,
    StragglerWindow,
)
from tests.conftest import make_solver

CORES = 16  # 4 procs x (1 master + 3 workers) on the small machine


def _setup(nprocs=4, **solver_kw):
    machine = Machine(cores_per_proc=4)
    mesh = cube_structured(8, length=4.0)
    pset = PatchSet.from_structured(mesh, (4, 4, 4), nprocs=nprocs)
    solver = make_solver(pset, grain=16, **solver_kw)
    return machine, pset, solver


def _reference_phi():
    _, _, s = _setup()
    ref, _, _ = s.sweep_once(mode="fast")
    return ref


# -- fault plan / injector / config ----------------------------------------------


class TestFaultPlan:
    def test_crash_validation(self):
        with pytest.raises(ReproError):
            CrashFault(proc=-1, time=0.0)
        with pytest.raises(ReproError):
            CrashFault(proc=0, time=-1.0)

    def test_straggler_validation(self):
        with pytest.raises(ReproError):
            StragglerWindow(0, 2.0, 1.0, 2.0)  # start >= end
        with pytest.raises(ReproError):
            StragglerWindow(0, 0.0, 1.0, 0.5)  # speeds things up
        with pytest.raises(ReproError):
            StragglerWindow(-1, 0.0, 1.0, 2.0)

    def test_probability_validation(self):
        with pytest.raises(ReproError):
            FaultPlan(p_drop=1.0)
        with pytest.raises(ReproError):
            FaultPlan(p_duplicate=-0.1)

    def test_needs_recovery(self):
        assert not FaultPlan().needs_recovery()
        assert not FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1.0, 2.0),)
        ).needs_recovery()
        assert FaultPlan(p_drop=0.1).needs_recovery()
        assert FaultPlan(p_duplicate=0.1).needs_recovery()
        assert FaultPlan(crashes=(CrashFault(0, 1.0),)).needs_recovery()

    def test_crashed_procs(self):
        plan = FaultPlan(crashes=(CrashFault(2, 1.0), CrashFault(0, 2.0)))
        assert plan.crashed_procs() == {0, 2}

    def test_lists_normalized_to_tuples(self):
        plan = FaultPlan(crashes=[CrashFault(0, 1.0)],
                         stragglers=[StragglerWindow(0, 0.0, 1.0, 2.0)])
        assert isinstance(plan.crashes, tuple)
        assert isinstance(plan.stragglers, tuple)

    def test_validate_warns_when_window_starts_past_horizon(self):
        # A straggler or partition window that only opens at or beyond
        # the armed watchdog horizon silently tests nothing: the run
        # quiesces or is declared stalled before the fault fires.
        late = FaultPlan(
            stragglers=(StragglerWindow(0, 5.0, 6.0, 2.0),),
            partitions=(LinkPartition(0, 1, 5.0, 6.0),),
        )
        with pytest.warns(UserWarning, match="straggler window"):
            with pytest.warns(UserWarning, match="partition of link"):
                late.validate(4, [], horizon=1.0)
        # Windows inside the horizon - or no horizon armed at all -
        # must stay silent.
        early = FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1.0, 2.0),),
            partitions=(LinkPartition(0, 1, 0.0, 0.5),),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            early.validate(4, [], horizon=1.0)
            late.validate(4, [])


class TestFaultInjector:
    def test_slowdown_windows_multiply(self):
        inj = FaultInjector(FaultPlan(stragglers=(
            StragglerWindow(1, 0.0, 2.0, 3.0),
            StragglerWindow(1, 1.0, 3.0, 2.0),
        )))
        assert inj.slowdown(1, 0.5) == 3.0
        assert inj.slowdown(1, 1.5) == 6.0  # overlap multiplies
        assert inj.slowdown(1, 2.5) == 2.0
        assert inj.slowdown(1, 3.5) == 1.0  # window closed
        assert inj.slowdown(0, 1.5) == 1.0  # other procs unaffected

    def test_zero_rate_injector_is_inert(self):
        inj = FaultInjector(FaultPlan(seed=5))
        assert all(inj.message_fate() == "deliver" for _ in range(50))
        assert not any(inj.ack_dropped() for _ in range(50))

    def test_fates_deterministic_under_seed(self):
        a = FaultInjector(FaultPlan(p_drop=0.3, p_duplicate=0.3, seed=9))
        b = FaultInjector(FaultPlan(p_drop=0.3, p_duplicate=0.3, seed=9))
        assert [a.message_fate() for _ in range(200)] == [
            b.message_fate() for _ in range(200)
        ]

    def test_all_fates_occur(self):
        inj = FaultInjector(FaultPlan(p_drop=0.3, p_duplicate=0.3, seed=0))
        fates = {inj.message_fate() for _ in range(200)}
        assert fates == {"deliver", "drop", "duplicate"}


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            RecoveryConfig(ack_timeout=0.0)
        with pytest.raises(ReproError):
            RecoveryConfig(checkpoint_interval=-1.0)
        with pytest.raises(ReproError):
            RecoveryConfig(backoff=0.5)
        with pytest.raises(ReproError):
            RecoveryConfig(max_retries=0)
        with pytest.raises(ReproError):
            RecoveryConfig(detection_delay=-1e-6)


# -- program checkpoint/restore --------------------------------------------------


class TestCheckpointRestore:
    def test_restore_rewinds_local_context(self):
        _, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        for p in progs:
            p.init()
        prog = max(progs, key=lambda p: len(p._heap))  # has ready work
        snap = prog.checkpoint()
        before = prog.remaining_workload()
        prog.compute()  # consumes ready vertices
        assert prog.remaining_workload() < before
        prog.restore(snap)
        assert prog.remaining_workload() == before
        # Snapshot is reusable (second failure): restore again.
        prog.compute()
        prog.restore(snap)
        assert prog.remaining_workload() == before

    def test_shared_attrs_not_copied(self):
        _, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        prog = progs[0]
        prog.init()
        snap = prog.checkpoint()
        g, cg = prog.graph, prog.cells_global
        prog.compute()
        prog.restore(snap)
        assert prog.graph is g  # topology stays shared, not deep-copied
        assert prog.cells_global is cg
        assert "graph" not in snap

    @staticmethod
    def _drive(progs, rounds, dup=False):
        """Compute every program ``rounds`` times, delivering each
        emitted stream at once (twice with ``dup``); returns the
        streams delivered, by destination."""
        by_id = {p.id: p for p in progs}
        delivered = {}
        for _ in range(rounds):
            for p in progs:
                p.compute()
                for o in p.drain_outputs():
                    by_id[o.dst].input(o)
                    if dup:
                        by_id[o.dst].input(o)
                    delivered.setdefault(o.dst, []).append(o)
        return delivered

    def _mid_sweep(self):
        """A resilient program set two rounds into a sweep, one program
        whose mutable context is non-trivial at that point, and the
        streams delivered to it so far."""
        _, _, s = _setup()
        progs, _ = s.build_programs(
            compute=False, resilient=True, record_clusters=True
        )
        for p in progs:
            p.init()
        delivered = self._drive(progs, 2)
        prog = next(
            p for p in progs if p._heap and p._applied and p.clusters
        )
        return progs, prog, delivered[prog.id]

    def test_snapshot_isolated_from_later_mutation(self):
        progs, prog, delivered = self._mid_sweep()
        shared = prog.checkpoint_shared()
        snap = prog.checkpoint()
        ref = copy.deepcopy(
            {k: v for k, v in prog.__dict__.items() if k not in shared}
        )
        assert list(snap) == list(ref)
        # A redelivered stream is deduped edge by edge but still counts
        # into ``_last``; further duplicated traffic moves the dedup
        # sets, recorded clusters, counters and heap on in place.
        prog.input(delivered[-1])
        self._drive(progs, 3, dup=True)
        assert prog.clusters != ref["clusters"]
        for _ in range(2):  # the same snapshot restores twice
            prog.restore(snap)
            state = {k: v for k, v in prog.__dict__.items() if k not in shared}
            assert state == ref
            prog.compute()

    def test_snapshot_shares_only_rebound_tables(self):
        _, prog, _ = self._mid_sweep()
        snap = prog.checkpoint()
        live = prog.__dict__
        for k, v in snap.items():
            if not isinstance(v, (list, dict, set)):
                continue
            if k in ("_prio", "_keys"):
                assert v is live[k]
            else:
                assert v is not live[k], k
        for patch, ids in snap["_applied"].items():
            assert ids is not live["_applied"][patch]

    def test_prio_and_keys_unchanged_by_faulty_sweep(self):
        """Snapshots share ``_prio``/``_keys``, so nothing may mutate
        them in place: after a sweep with crash recovery (snapshots
        taken and restored) they equal a fresh program's."""
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(proc=1, time=150e-6),),
            p_drop=0.05, p_duplicate=0.05, seed=7,
        )
        progs, _ = s.build_programs(compute=False, resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        assert rep.checkpoints > 0 and rep.reexecutions > 0
        fresh, _ = s.build_programs(compute=False, resilient=True)
        for p, f in zip(progs, fresh):
            f.init()
            assert p.remaining_workload() == 0
            assert p._prio == f._prio and p._keys == f._keys

    def test_restore_into_never_initialized_program(self):
        """The durable-resume path: a snapshot that went through the
        codec restores into a freshly built program."""
        _, prog, _ = self._mid_sweep()
        snap = decode(encode(prog.checkpoint()))
        _, _, s = _setup()
        fresh_progs, _ = s.build_programs(
            compute=False, resilient=True, record_clusters=True
        )
        fresh = next(p for p in fresh_progs if p.id == prog.id)
        fresh.restore(snap)
        shared = prog.checkpoint_shared()
        assert {k: v for k, v in fresh.__dict__.items() if k not in shared} == {
            k: v for k, v in prog.__dict__.items() if k not in shared
        }
        prog.compute()
        fresh.compute()
        assert fresh.remaining_workload() == prog.remaining_workload()
        a, b = prog.drain_outputs(), fresh.drain_outputs()
        assert [o.dst for o in a] == [o.dst for o in b]
        for x, y in zip(a, b):
            assert_array_equal(x.payload, y.payload)

    def test_coarsened_program_shares_topology(self):
        _, _, s = _setup()
        progs, _ = s.build_coarsened_programs(s.record_coarsened())
        prog = progs[0]
        prog.init()
        cg, cells, solve = prog.cg, prog.cells_global, prog.solve_fn
        snap = prog.checkpoint()
        assert not {"cg", "cells_global", "solve_fn"} & set(snap)
        prog.compute()
        prog.restore(snap)
        assert prog.cg is cg and prog.cells_global is cells
        assert prog.solve_fn is solve

    def test_particle_program_shares_topology(self):
        from repro.apps.particle_trace import Particle, ParticleTraceProgram

        mesh = disk_tri_mesh(8)
        ps = PatchSet.from_unstructured(mesh, 40, nprocs=2)
        cell = int(ps.patches[0].cells[0])
        seed = Particle(0, mesh.cell_centroids[cell].copy(),
                        np.array([1.0, 0.0]), cell)
        prog = ParticleTraceProgram(ps, 0, [seed])
        prog.init()
        cells = prog._cells
        snap = prog.checkpoint()
        assert not {"pset", "mesh", "_cells"} & set(snap)
        prog.compute()
        assert not prog._pending
        prog.restore(snap)
        assert prog.pset is ps and prog.mesh is ps.mesh and prog._cells is cells
        assert len(prog._pending) == 1 and prog._pending[0] is not seed

    def test_resilient_input_dedupes_edges(self):
        """Duplicate stream content (same edge ids) must be a no-op."""
        _, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        # Find a program with a remote upwind dependency and feed it a
        # synthetic duplicated stream via a real sender's emissions.
        by_id = {p.id: p for p in progs}
        for p in progs:
            p.init()
        sender = max(progs, key=lambda p: len(p._heap))
        sender.compute()
        outs = []
        while (o := sender.output()) is not None:
            outs.append(o)
        remote = [o for o in outs if o.dst != sender.id]
        if not remote:  # pragma: no cover - mesh-dependent
            pytest.skip("no remote stream emitted")
        s0 = remote[0]
        dst = by_id[s0.dst]
        before = dst.remaining_workload()
        dst.input(s0)
        counts_after_one = list(dst._counts)
        dst.input(s0)  # exact duplicate: must change nothing
        assert dst._counts == counts_after_one
        assert dst.remaining_workload() == before  # input never solves


# -- fault-tolerant runtime integration ------------------------------------------


class TestFaultTolerantRun:
    def test_crash_recovery_bitwise_identical_numerics(self):
        """Headline: crash + drops + duplicates, same flux bit-for-bit."""
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(proc=1, time=150e-6),),
            p_drop=0.05, p_duplicate=0.05, seed=7,
        )
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 1
        assert rep.reexecutions > 0
        assert rep.failover_time > 0
        assert rep.checkpoints > 0
        assert rep.breakdown.by_category["recovery"] > 0

    def test_crash_failover_completes_all_work(self):
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(proc=2, time=100e-6),), seed=1)
        progs, _ = s.build_programs(compute=False, resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        # Every program drained its workload (checked by the runtime,
        # which raises otherwise) and all vertices were solved at least
        # once; re-execution means possibly more runs, never fewer.
        assert rep.vertices_solved >= s.topology.num_vertices
        assert all(p.remaining_workload() == 0 for p in progs)
        assert rep.crashes == 1

    def test_drops_and_duplicates_without_crash(self):
        """Lossy network alone (no replay): uid dedup + retries suffice,
        even for non-resilient programs."""
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(p_drop=0.1, p_duplicate=0.05, seed=3)
        progs, faces = s.build_programs()  # resilient NOT required
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.drops > 0
        assert rep.retries > 0
        assert rep.timeouts >= rep.retries
        assert rep.reexecutions == 0

    def test_double_crash_recovers(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(1, 120e-6), CrashFault(2, 400e-6)),
            p_drop=0.08, p_duplicate=0.04, seed=3,
        )
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(
            CORES, machine=machine, faults=plan, termination="consensus"
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 2
        assert rep.termination_hops > 0

    def test_crash_under_mpi_only_mode(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(3, 200e-6),), seed=11)
        progs, faces = s.build_programs(resilient=True)
        DataDrivenRuntime(
            CORES, machine=machine, mode="mpi_only", faults=plan
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)

    def test_zero_fault_overhead_within_budget(self):
        """Recovery machinery armed but no faults: makespan within the
        checkpoint overhead budget of the plain run, counters all zero."""
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        base = DataDrivenRuntime(CORES, machine=machine).run(
            progs, pset.patch_proc
        )
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(
            CORES, machine=machine,
            faults=FaultPlan(seed=1), recovery=RecoveryConfig(),
        ).run(progs, pset.patch_proc)
        assert rep.makespan <= base.makespan * 1.10
        assert rep.drops == rep.duplicates == rep.retries == 0
        assert rep.crashes == rep.reexecutions == 0
        assert rep.checkpoints > 0
        assert rep.failover_time == 0.0
        assert rep.recovery_fraction() > 0

    def test_faulty_run_deterministic(self):
        """Same plan + seed => identical report, event for event."""
        reports = []
        for _ in range(2):
            machine, pset, s = _setup()
            plan = FaultPlan(
                crashes=(CrashFault(1, 150e-6),),
                p_drop=0.05, p_duplicate=0.05, seed=7,
            )
            progs, _ = s.build_programs(resilient=True)
            reports.append(
                DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                    progs, pset.patch_proc
                )
            )
        a, b = reports
        for f in ("makespan", "events", "executions", "drops", "duplicates",
                  "retries", "timeouts", "reexecutions", "checkpoints",
                  "crashes", "failover_time", "vertices_solved", "messages",
                  "message_bytes", "local_streams", "stream_items"):
            assert getattr(a, f) == getattr(b, f), f
        assert a.breakdown.by_category == b.breakdown.by_category

    def test_straggler_slows_run_without_recovery(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        base = DataDrivenRuntime(CORES, machine=machine).run(
            progs, pset.patch_proc
        )
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        plan = FaultPlan(stragglers=(StragglerWindow(0, 0.0, 300e-6, 4.0),))
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        assert rep.makespan > base.makespan
        # Stragglers need no recovery machinery: none was armed.
        assert rep.checkpoints == 0
        assert rep.breakdown.by_category["recovery"] == 0.0

    def test_crash_after_quiescence_is_ignored(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(0, 10.0),), seed=2)  # way late
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 0
        assert rep.reexecutions == 0

    def test_fault_summary_shape(self):
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(1, 150e-6),), p_drop=0.02, seed=4)
        progs, _ = s.build_programs(compute=False, resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        summary = rep.fault_summary()
        assert set(summary) == {
            "drops", "duplicates", "retries", "timeouts", "reexecutions",
            "checkpoints", "crashes", "failover_time", "partition_drops",
            "corruptions", "nacks", "cascade_crashes", "recovery_time",
        }
        assert summary["crashes"] == 1
        assert summary["recovery_time"] > 0

    # -- plan validation against the layout --------------------------------------

    def test_crash_requires_resilient_programs(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)  # not resilient
        plan = FaultPlan(crashes=(CrashFault(1, 1e-4),))
        with pytest.raises(ReproError, match="resilient"):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_crash_proc_out_of_range(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        plan = FaultPlan(crashes=(CrashFault(99, 1e-4),))
        with pytest.raises(ReproError):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_all_procs_crashing_rejected(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        plan = FaultPlan(
            crashes=tuple(CrashFault(p, 1e-4) for p in range(4))
        )
        with pytest.raises(ReproError, match="survivor"):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_straggler_proc_out_of_range(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        plan = FaultPlan(stragglers=(StragglerWindow(99, 0.0, 1.0, 2.0),))
        with pytest.raises(ReproError):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )


class TestMpiOnlyFaultParity:
    """Scheduler-policy parity: the ``mpi_only`` layout (master and the
    single worker fused on one core per rank) survives the same fault
    plans as ``hybrid`` with bitwise-identical flux."""

    MPI_CORES = 4  # one rank per core; 4 procs, matching _setup()

    def test_crash_and_drops_bitwise_identical_numerics(self):
        """Mirror of the hybrid headline test under mpi_only."""
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(proc=1, time=150e-6),),
            p_drop=0.05, p_duplicate=0.05, seed=7,
        )
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(
            self.MPI_CORES, machine=machine, mode="mpi_only", faults=plan
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 1
        assert rep.reexecutions > 0
        assert rep.failover_time > 0
        assert rep.checkpoints > 0
        assert rep.breakdown.by_category["recovery"] > 0

    def test_drops_and_duplicates_without_crash(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(p_drop=0.1, p_duplicate=0.05, seed=3)
        progs, faces = s.build_programs()  # resilient NOT required
        rep = DataDrivenRuntime(
            self.MPI_CORES, machine=machine, mode="mpi_only", faults=plan
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.drops > 0
        assert rep.retries > 0
        assert rep.reexecutions == 0

    def test_faulty_mpi_only_run_deterministic(self):
        """Same plan + seed => identical report under mpi_only."""
        reports = []
        for _ in range(2):
            machine, pset, s = _setup()
            plan = FaultPlan(
                crashes=(CrashFault(1, 150e-6),),
                p_drop=0.05, p_duplicate=0.05, seed=7,
            )
            progs, _ = s.build_programs(resilient=True)
            reports.append(
                DataDrivenRuntime(
                    self.MPI_CORES, machine=machine, mode="mpi_only",
                    faults=plan,
                ).run(progs, pset.patch_proc)
            )
        a, b = reports
        for f in ("makespan", "events", "executions", "drops", "duplicates",
                  "retries", "timeouts", "reexecutions", "checkpoints",
                  "crashes", "failover_time", "vertices_solved", "messages",
                  "message_bytes", "local_streams", "stream_items"):
            assert getattr(a, f) == getattr(b, f), f
        assert a.breakdown.by_category == b.breakdown.by_category
