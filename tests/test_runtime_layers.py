"""Layered-runtime architecture tests.

Guards the decomposition of the DES runtime into its layer stack
(simulator < router < transport < scheduler < recovery < engine_des):
the import DAG must stay acyclic bottom-up, the scheduler policies own
their core layouts (no resource aliasing), and the simulator's trace
hook feeds the Chrome-trace exporter.
"""

import ast
import pathlib

import pytest

from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import (
    DataDrivenRuntime,
    HybridPolicy,
    Machine,
    MpiOnlyPolicy,
    Resource,
    Simulator,
)
from tests.conftest import make_solver

#: Bottom-up layer order: a module may import strictly-lower ones only.
LAYERS = [
    "simulator",
    "router",
    "transport",
    "scheduler",
    "recovery",
    "engine_des",
]

RUNTIME_DIR = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "runtime"
)


def _runtime_imports(module: str) -> set[str]:
    """Names of repro.runtime modules imported by ``module``."""
    tree = ast.parse((RUNTIME_DIR / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            name = node.module
            if name.startswith("repro.runtime."):
                name = name.rsplit(".", 1)[-1]
            if node.level == 1:  # from .xxx import ...
                name = name.split(".")[0]
            if name in LAYERS:
                found.add(name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.runtime."):
                    name = alias.name.rsplit(".", 1)[-1]
                    if name in LAYERS:
                        found.add(name)
    return found


class TestLayering:
    @pytest.mark.parametrize("module", LAYERS)
    def test_no_layer_imports_a_layer_above_it(self, module):
        rank = LAYERS.index(module)
        for imported in _runtime_imports(module):
            assert LAYERS.index(imported) < rank, (
                f"{module} imports {imported}, which sits above it "
                f"in the layer stack {LAYERS}"
            )

    def test_all_layer_modules_exist_with_docstrings(self):
        for module in LAYERS:
            path = RUNTIME_DIR / f"{module}.py"
            assert path.exists(), f"missing layer module {module}"
            assert ast.get_docstring(ast.parse(path.read_text())), (
                f"{module} lacks a module docstring"
            )

    def test_engine_is_a_thin_composition_root(self):
        n = len((RUNTIME_DIR / "engine_des.py").read_text().splitlines())
        assert n < 260, f"engine_des.py has {n} lines; should stay thin"


class TestSchedulerPolicies:
    def test_mpi_only_shares_one_core_per_rank(self):
        """No aliasing hack: the policy itself fuses master and worker
        on one timeline, labeled as the worker core."""
        machine = Machine(cores_per_proc=4)
        lay = machine.layout(4, "mpi_only")
        masters, workers = MpiOnlyPolicy().build_resources(lay.nprocs, lay)
        assert len(masters) == lay.nprocs
        for p, m in enumerate(masters):
            assert workers[p] == [m]
            assert m is workers[p][0]  # literally one shared timeline
            assert m.core == ("w", p, 0)

    def test_hybrid_separates_master_from_workers(self):
        machine = Machine(cores_per_proc=4)
        lay = machine.layout(16, "hybrid")
        masters, workers = HybridPolicy().build_resources(lay.nprocs, lay)
        for p, m in enumerate(masters):
            assert m.core == ("m", p)
            assert len(workers[p]) == lay.workers_per_proc
            for w, res in enumerate(workers[p]):
                assert res is not m
                assert res.core == ("w", p, w)


class TestSimulator:
    def test_event_order_time_then_fifo(self):
        sim = Simulator()
        sim.push(2.0, "b", 1)
        sim.push(1.0, "a", 2)
        sim.push(1.0, "a", 3)  # same time: FIFO by push sequence
        popped = [sim.pop() for _ in range(len(sim))]
        assert popped == [(1.0, "a", 2), (1.0, "a", 3), (2.0, "b", 1)]
        assert not sim

    def test_live_counts_progress_kinds_only(self):
        sim = Simulator(progress_kinds=frozenset({"work"}))
        sim.push(0.0, "work", None)
        sim.push(0.0, "timer", None)
        assert sim.live == 1
        sim.pop()  # pops "work" (pushed first)
        assert sim.live == 0
        sim.pop()
        assert sim.live == 0

    def test_next_seq_shared_with_pushes(self):
        sim = Simulator()
        first = sim.next_seq()
        sim.push(0.0, "x", None)
        assert sim.next_seq() == first + 2

    def test_observe_keeps_high_water_mark(self):
        sim = Simulator()
        sim.observe(3.0)
        sim.observe(1.0)
        assert sim.makespan == 3.0

    def test_resource_books_serially(self):
        r = Resource(("w", 0, 0))
        assert r.book(1.0, 2.0) == (1.0, 3.0)
        assert r.book(0.5, 1.0) == (3.0, 4.0)  # busy until 3.0
        assert r.core == ("w", 0, 0)

    def test_trace_hook_fires_per_pop(self):
        seen = []
        sim = Simulator(
            trace_hook=seen.append,
            trace_fields=lambda kind, data: (data, None, None),
        )
        sim.push(1.0, "k", 7)
        sim.pop()
        assert len(seen) == 1
        te = seen[0]
        assert (te.time, te.kind, te.proc) == (1.0, "k", 7)


def _small_run(trace: bool, deadline=None):
    machine = Machine(cores_per_proc=4)
    mesh = cube_structured(8, length=4.0)
    pset = PatchSet.from_structured(mesh, (4, 4, 4), nprocs=4)
    s = make_solver(pset, grain=16)
    progs, _ = s.build_programs(compute=False)
    rt = DataDrivenRuntime(16, machine=machine, trace=trace)
    return rt.run(progs, pset.patch_proc, deadline=deadline)


class TestEventTrace:
    def test_trace_off_by_default(self):
        rep = _small_run(trace=False)
        assert rep.trace_events == []
        assert rep.to_chrome_trace() == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }

    def test_structured_trace_and_chrome_export(self):
        rep = _small_run(trace=True)
        assert len(rep.trace_events) == rep.events
        kinds = {te.kind for te in rep.trace_events}
        assert {"run_start", "run_end", "deliver"} <= kinds
        starts = [te for te in rep.trace_events if te.kind == "run_start"]
        ends = [te for te in rep.trace_events if te.kind == "run_end"]
        assert len(starts) == len(ends) == rep.executions
        assert all(te.core[0] == "w" for te in starts)

        doc = rep.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        assert len(evs) == len(rep.trace_events)
        phs = {e["ph"] for e in evs}
        assert phs <= {"B", "E", "i"}
        slices = [e for e in evs if e["ph"] in ("B", "E")]
        assert len(slices) == 2 * rep.executions
        for e in evs:
            assert e["ts"] >= 0.0
            if e["ph"] == "i":
                assert e["args"]["kind"] not in ("run_start", "run_end")


# -- the one event loop: deadline and makespan oracles ---------------------------

#: Kinds that never count as progress, whatever the run.
CONTROL_KINDS = frozenset(
    ("ack", "nack", "timer", "hedge", "hbeat", "hback", "restart")
)


def _golden_faulty(trace: bool, deadline=None):
    """The golden ``structured-hybrid-faulty`` run (one crash, 5% drops
    and duplicates), optionally traced and under a deadline."""
    from tests.test_golden_fixtures import _fault_plan, _machine, _solver

    pset, s = _solver("structured", 4)
    progs, _ = s.build_programs(resilient=True)
    rt = DataDrivenRuntime(16, machine=_machine(), faults=_fault_plan(),
                           trace=trace)
    return rt.run(progs, pset.patch_proc, deadline=deadline)


def _counted(trace, deadline: float) -> int:
    """Events a run counts up to ``deadline``, derived from its trace
    alone: everything but control-plane kinds and the residue of a
    crashed process (its runs, arrivals, checkpoints, a second crash).
    Valid before quiescence, when checkpoints are never inert."""
    dead, n = set(), 0
    for ev in trace:
        if ev.time > deadline:
            break
        if ev.kind in CONTROL_KINDS:
            continue
        if ev.kind in ("run_start", "run_end", "msg_arrive", "ckpt",
                       "crash") and ev.proc in dead:
            continue
        if ev.kind == "crash":
            dead.add(ev.proc)
        n += 1
    return n


class TestEventLoop:
    def test_deadline_at_a_batch_time_runs_the_whole_batch(self):
        from repro.runtime import DeadlineExceeded

        ref = _golden_faulty(trace=True).trace_events
        times = [ev.time for ev in ref]
        last_progress = max(
            ev.time for ev in ref if ev.kind not in CONTROL_KINDS
        )
        # A multi-event batch mid-run, after the crash, holding both
        # progress and control events.
        t = next(
            t for k, t in enumerate(times)
            if k > len(times) // 2 and 150e-6 < t < last_progress
            and len({ev.kind in CONTROL_KINDS
                     for ev in ref if ev.time == t}) == 2
        )
        batch = [ev for ev in ref if ev.time == t]
        assert len(batch) >= 2
        with pytest.raises(DeadlineExceeded) as exc:
            _golden_faulty(trace=True, deadline=t)
        rep = exc.value.report
        # Every event at the deadline ran; nothing past it did.
        assert rep.trace_events == [ev for ev in ref if ev.time <= t]
        assert rep.events == _counted(ref, t)
        assert rep.makespan >= t

    def test_unbounded_deadline_is_observation_free(self):
        rep = _small_run(trace=True)
        bounded = _small_run(trace=True, deadline=1e9)
        assert bounded.state_dict() == rep.state_dict()
        assert bounded.makespan == rep.makespan
        assert bounded.event_counts == rep.event_counts
        assert bounded.peak_heap == rep.peak_heap
        assert bounded.trace_events == rep.trace_events
        assert bounded.breakdown.by_category == rep.breakdown.by_category
        # Loop-level makespan: every clean event counts, so the
        # makespan is the last dispatched event's time.
        assert rep.makespan == rep.trace_events[-1].time
        assert rep.events == sum(rep.event_counts.values())
