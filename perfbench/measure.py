"""Closed-loop measurement of one workload.

:func:`end_to_end` gives the user-visible metrics from untraced runs;
:func:`per_layer` gives the layer split from one separately traced
sweep and solve.  One process runs one operation after another; every
operation's output goes through the workload's oracle, and a failure
(an exception, a deadline overrun, a failed check) is counted, never
timed.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from heapq import heappop, heappush

from repro import DataDrivenRuntime, PatchProgram, SweepTopology
from repro.runtime import Scheduler, Transport
from repro.runtime.recovery import RecoveryManager
from repro.sweep import AngleKernel, SnSolver, SweepPatchProgram

from spans import LayerStats, Target, Tracer
from workloads import Workload

__all__ = [
    "E2E_UNITS", "LAYER_UNITS", "SpeedReference", "Tally", "closed_loop",
    "end_to_end", "host_fingerprint", "per_layer",
]

#: Share of the measured seconds each closed-loop operation gets, and
#: the fewest runs it gets however short the run.  ``traced`` is a sweep
#: with the program's own ``trace=True``.
SHARES = {"setup": 0.1, "sweep": 0.35, "solve": 0.35, "traced": 0.2}
MIN_RUNS = {"setup": 5, "sweep": 4, "solve": 4, "traced": 2}
#: Share of the measured seconds the traced run spends on untraced
#: sweeps (the baseline of the tracing overhead and of events/s).
BASELINE_SHARE = 0.3
#: End-to-end host seconds are reported at the host speed where one
#: :class:`SpeedReference` pass takes this long ...
REF_NOMINAL_S = 0.025
#: ... judged from the passes within this many seconds of the operation.
REF_WINDOW_S = 10.0

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "virtual_makespan_s": "virtual_s",
    "solve_s": "s",
    "traced_sweep_s": "s",
    "peak_rss_mb": "MB",
    "traced_peak_rss_mb": "MB",
}

#: Public methods whose calls become spans in the traced run.
_SPANNED = {
    "scheduler": ("execute", "complete"),
    "transport": ("send", "receive", "on_ack", "on_timer"),
    "recovery": ("on_ckpt", "checkpoint"),
    "sweep_program": ("compute", "input"),
    "kernels": ("solve_level", "solve_cells"),
}


def _cells(args) -> int:
    return len(args[1])


TARGETS = (
    Target(DataDrivenRuntime, "run", "runtime.run"),
    Target(Scheduler, "execute", "scheduler.execute"),
    Target(Scheduler, "complete", "scheduler.complete"),
    Target(Transport, "send", "transport.send"),
    Target(Transport, "receive", "transport.receive"),
    Target(Transport, "on_ack", "transport.on_ack"),
    Target(Transport, "on_timer", "transport.on_timer"),
    Target(RecoveryManager, "on_ckpt", "recovery.on_ckpt"),
    Target(RecoveryManager, "on_failover", "recovery.on_failover"),
    Target(PatchProgram, "checkpoint", "recovery.checkpoint"),
    Target(SweepPatchProgram, "compute", "sweep_program.compute"),
    Target(SweepPatchProgram, "input", "sweep_program.input"),
    Target(AngleKernel, "solve_level", "kernels.solve_level", _cells),
    Target(AngleKernel, "solve_cells", "kernels.solve_cells", _cells),
    Target(SweepTopology, "__init__", "dag.build"),
    Target(SnSolver, "build_programs", "solver.build_programs"),
)

LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.cells": "count",
    "partition.build_s": "s",
    "partition.patches": "count",
    "solver.init_s": "s",
    "dag.build_s": "s",
    "dag.vertices": "count",
    "dag.remote_edges": "count",
    "priorities.build_s": "s",
    "solver.build_programs_s": "s",
    "solver.programs": "count",
    "runtime.run_s": "s",
    "runtime.loop.self_s": "s",
    "runtime.events": "count",
    "runtime.events_per_s": "1/s",
    "runtime.peak_heap": "count",
    **{
        f"{layer}.{m}.{k}": u
        for layer, ms in _SPANNED.items()
        for m in ms
        for k, u in (("calls", "count"), ("self_s", "s"))
    },
    "scheduler.executions": "count",
    "scheduler.vertices_per_execution": "ratio",
    "transport.messages": "count",
    "transport.message_bytes": "B",
    "transport.retries": "count",
    "transport.drops": "count",
    "transport.duplicates": "count",
    "transport.delivery_ratio": "ratio",
    "recovery.on_failover.self_s": "s",
    "recovery.checkpoints": "count",
    "recovery.reexecutions": "count",
    "recovery.reexec_ratio": "ratio",
    "sweep_program.vertices": "count",
    "sweep_program.stream_items": "count",
    "kernels.cells": "count",
    "kernels.cells_per_s": "1/s",
    **{
        f"virtual.{c}_s": "virtual_s"
        for c in ("kernel", "graph_op", "pack", "unpack", "sched", "comm", "recovery")
    },
    "virtual.idle_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class SpeedReference:
    """A fixed pure-Python heap + dict workload that gauges host speed.

    On a shared machine one core's effective speed drifts by up to 1.5x
    for tens of seconds at a time, more than the changes the benchmark
    must resolve.  This reference, timed right before and right after
    every operation, drifts with the interpreter-bound program around
    it, so end-to-end samples are rescaled by ``REF_NOMINAL_S / median
    reference seconds`` over the passes within :data:`REF_WINDOW_S` of
    the sample (README.md gives the measurements).  It is the
    benchmark's own code: no change to the program moves it.
    """

    def __init__(self, items: int = 20_000, seed: int = 2023):
        rnd = random.Random(seed)
        self.keys = [rnd.random() for _ in range(items)]
        self.passes: list[tuple[float, float]] = []  # (end time, seconds)

    def __call__(self) -> float:
        keys = self.keys
        # Collector passes would scale with whatever the program keeps
        # alive (a traced report holds ~10^6 objects); refcounting
        # alone frees everything the reference allocates.
        gc_was = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            heap, index = [], {}
            for i, k in enumerate(keys):
                heappush(heap, (k, i))
                index[i] = k
            while heap:
                del index[heappop(heap)[1]]
            dt = time.perf_counter() - t0
        finally:
            if gc_was:
                gc.enable()
        self.passes.append((t0 + dt, dt))
        return dt

    def scale(self, t0: float, t1: float) -> float:
        """``REF_NOMINAL_S`` over the median pass near ``[t0, t1]``."""
        near = [dt for t, dt in self.passes if t0 - REF_WINDOW_S <= t <= t1 + REF_WINDOW_S]
        return REF_NOMINAL_S / statistics.median(near)


@dataclass
class Outcome:
    """One checked operation."""

    out: object  # None when the operation raised
    seconds: float  # host seconds of the operation
    t0: float  # clock at its start and end
    t1: float
    ok: bool  # ran and passed its output check


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = SpeedReference()

    def op(self, label: str, fn, check) -> Outcome:
        """Run ``fn`` once, between two reference passes, and check its
        output outside the timed region."""
        self.attempted += 1
        out, dt = None, 0.0
        # Start every operation from a collected heap, so a collection
        # owed by earlier garbage does not land in its timed region.
        gc.collect()
        self.reference()
        t0 = time.perf_counter()
        try:
            out = fn()
            dt = time.perf_counter() - t0
            self.reference()
            problems = check(out)
        except Exception:  # any program error is a failed operation
            problems = [traceback.format_exc().rstrip()]
        for p in problems:
            print(f"FAILED {label}: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return Outcome(out, dt, t0, t0 + dt, not problems)


def closed_loop(tally: Tally, ops: dict, seconds: float) -> dict[str, list]:
    """Run operations back to back, interleaved, for ``seconds``.

    ``ops[name] = (fn, check, sample)``.  The next operation is the one
    furthest below its :data:`SHARES` of the time spent so far, so every
    operation samples the whole run; each runs at least
    :data:`MIN_RUNS` times.  Returns, per operation, ``(sample(output,
    seconds), start, end)`` of every run that passed its check.
    """
    spent = dict.fromkeys(ops, 0.0)
    runs = dict.fromkeys(ops, 0)
    samples: dict[str, list] = {k: [] for k in ops}
    end = time.perf_counter() + seconds
    while True:
        if time.perf_counter() < end:
            pool = list(ops)
        else:
            pool = [k for k in ops if runs[k] < MIN_RUNS[k]]
            if not pool:
                return samples
        k = min(pool, key=lambda k: spent[k] / SHARES[k])
        fn, check, sample = ops[k]
        t0 = time.perf_counter()
        o = tally.op(k, fn, check)
        spent[k] += time.perf_counter() - t0
        runs[k] += 1
        if o.ok:
            samples[k].append((sample(o.out, o.seconds), o.t0, o.t1))
        # Free the output now: a traced report kept alive into the next
        # operation makes any full collection there scan ~10^6 objects.
        del o


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(wl: Workload, tally: Tally, span=None):
    """One checked set-up; ``span`` brackets its stages when traced."""
    build = wl.build if span is None else (lambda: wl.build(span))
    o = tally.op("setup", build, wl.check_setup)
    if o.out is None:
        raise RuntimeError("set-up failed")
    return o


def _warm(wl: Workload, tally: Tally, setup) -> None:
    """Adopt ``setup``, then the untimed warm-up sweep (which fills the
    lazy topology caches and sets the oracle's reference run) and a
    serial sweep that fills the kernel caches the solves use."""
    wl.adopt(setup)
    tally.op("warm-up sweep", wl.sweep, wl.check_sweep)
    setup.solver.sweep_once()


def end_to_end(wl: Workload, seconds: float, tally: Tally) -> dict[str, float]:
    """Untraced closed loop of set-ups, sweeps, solves and sweeps with
    the program's own ``trace=True``, after one warm-up."""
    first = _setup(wl, tally)
    _warm(wl, tally, first.out)
    rss = peak_rss_mb()  # before any sweep with the program's trace on
    samples = closed_loop(tally, {
        "setup": (wl.build, wl.check_setup, lambda s, dt: dt),
        "sweep": (wl.sweep, wl.check_sweep, lambda sw, dt: sw.sweep_s),
        "solve": (wl.solve, wl.check_solve, lambda res, dt: dt),
        "traced": (lambda: wl.sweep(trace=True), wl.check_sweep, lambda sw, dt: sw.sweep_s),
    }, seconds)
    if first.ok:
        samples["setup"].insert(0, (first.seconds, first.t0, first.t1))
    names = {"setup": "setup_s", "sweep": "sweep_s", "solve": "solve_s",
             "traced": "traced_sweep_s"}
    scale = tally.reference.scale
    out = {}
    for op, name in names.items():
        raw = [v for v, _, _ in samples[op]]
        scaled = [v * scale(t0, t1) for v, t0, t1 in samples[op]]
        _print_samples(name, raw, scaled)
        # A metric with no passing sample reads 0; the run already failed.
        out[name] = _median(scaled)
    out.update({
        "virtual_makespan_s": wl.ref_run[1] if wl.ref_run else 0.0,
        "peak_rss_mb": rss,
        "traced_peak_rss_mb": peak_rss_mb(),
    })
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _print_samples(name: str, raw: list[float], scaled: list[float]) -> None:
    """Host and reference-scaled median and quartiles, plus - with
    enough samples - the highest percentile that still has ten samples
    beyond it."""
    n = len(raw)
    if n < 2:
        print(f"{name}: {n} samples; " + ", ".join(
            f"host {v:.4f} s, scaled {w:.4f} s" for v, w in zip(raw, scaled)))
        return
    line = f"{name}: {n} samples"
    for label, values in (("host", raw), ("scaled", scaled)):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        line += f"; {label} median {q2:.4f} s, IQR [{q1:.4f}, {q3:.4f}]"
        if n >= 20:
            pct = 100 * (n - 10) // n
            line += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    print(line)


def per_layer(wl: Workload, seconds: float, tally: Tally, tracer: Tracer) -> dict[str, float]:
    """One traced set-up, sweep and solve (run ids 0, 1, 2) after an
    untraced warm set-up and an untraced sweep baseline."""
    _setup(wl, tally)  # first-call costs stay out of the traced set-up
    with tracer.installed(TARGETS):
        setup = _setup(wl, tally, tracer.span).out
    _warm(wl, tally, setup)
    base = closed_loop(tally, {
        "sweep": (wl.sweep, wl.check_sweep, lambda sw, dt: (sw.sweep_s, sw.run_s)),
    }, seconds * BASELINE_SHARE)["sweep"]
    with tracer.installed(TARGETS):
        tracer.run_id = 1
        traced = tally.op("traced sweep", wl.sweep, wl.check_sweep)
        tracer.run_id = 2
        tally.op("traced solve", wl.solve, wl.check_solve)
    sw = traced.out
    if sw is None:
        raise RuntimeError("traced sweep failed")
    by_run = tracer.stats_by_run()
    m = _layer_metrics(by_run, tracer, setup, sw, _median([r for (_, r), _, _ in base]))
    # Both sides at reference speed: they ran at different moments.
    scale = tally.reference.scale
    untraced = _median([s * scale(t0, t1) for (s, _), t0, t1 in base])
    traced_s = sw.sweep_s * scale(traced.t0, traced.t1)
    m["trace.overhead_s"] = traced_s - untraced
    print(f"tracing overhead at reference speed: traced sweep {traced_s:.4f} s"
          f" vs untraced {untraced:.4f} s ({len(tracer)} spans)")
    _print_shares(by_run.get(1, {}), sw.sweep_s)
    idle = [n for n in LAYER_UNITS if n.endswith(".calls") and m[n] == 0]
    if idle:
        print("not exercised by this workload (reported as 0): "
              + ", ".join(n[: -len(".calls")] for n in idle))
    return m


def _layer_metrics(by_run, tracer, setup, sw, base_run_s) -> dict:
    st0, st1, st2 = (by_run.get(r, {}) for r in (0, 1, 2))

    def span(stats, name):
        return stats.get(name) or LayerStats()

    rep = sw.report
    m = {
        "mesh.build_s": span(st0, "mesh.build").total_s,
        "mesh.cells": setup.cells,
        "partition.build_s": span(st0, "partition.build").total_s,
        "partition.patches": setup.patches,
        "solver.init_s": span(st0, "solver.init").total_s,
        "dag.build_s": span(st0, "dag.build").total_s,
        "dag.vertices": setup.vertices,
        "dag.remote_edges": setup.remote_edges,
        "priorities.build_s": span(st0, "priorities.build").self_s,
        "solver.build_programs_s": span(st0, "solver.build_programs").total_s,
        "solver.programs": setup.programs,
        "runtime.run_s": span(st1, "runtime.run").total_s,
        "runtime.loop.self_s": span(st1, "runtime.run").self_s,
        "runtime.events": rep.events,
        "runtime.events_per_s": rep.events / base_run_s if base_run_s else 0.0,
        "runtime.peak_heap": rep.peak_heap,
    }
    for layer, methods in _SPANNED.items():
        for meth in methods:
            # Kernel levels run in the solve (run 2), everything else in the sweep.
            s = span(st2 if meth == "solve_level" else st1, f"{layer}.{meth}")
            m[f"{layer}.{meth}.calls"] = s.calls
            m[f"{layer}.{meth}.self_s"] = s.self_s
    execs = rep.executions
    kernel_s = m["kernels.solve_level.self_s"] + m["kernels.solve_cells.self_s"]
    cells = sum(tracer.work.values())
    m.update({
        "scheduler.executions": execs,
        "scheduler.vertices_per_execution": rep.vertices_solved / execs,
        "transport.messages": rep.messages,
        "transport.message_bytes": rep.message_bytes,
        "transport.retries": rep.retries,
        "transport.drops": rep.drops,
        "transport.duplicates": rep.duplicates,
        "transport.delivery_ratio": (
            rep.messages / (rep.messages + rep.retries) if rep.messages else 1.0
        ),
        "recovery.on_failover.self_s": span(st1, "recovery.on_failover").self_s,
        "recovery.checkpoints": rep.checkpoints,
        "recovery.reexecutions": rep.reexecutions,
        "recovery.reexec_ratio": rep.reexecutions / execs,
        "sweep_program.vertices": rep.vertices_solved,
        "sweep_program.stream_items": rep.stream_items,
        "kernels.cells": cells,
        "kernels.cells_per_s": cells / kernel_s if kernel_s > 0 else 0.0,
    })
    for cat, v in rep.avg_seconds_per_core().items():
        if f"virtual.{cat}_s" in LAYER_UNITS:
            m[f"virtual.{cat}_s"] = v
    m["virtual.idle_frac"] = rep.idle_fraction()
    m["trace.spans"] = len(tracer)
    return m


def _print_shares(sweep_stats: dict, sweep_s: float) -> None:
    """Self time per layer as a share of the traced sweep."""
    by_layer: dict[str, float] = {}
    for name, s in sweep_stats.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s.self_s
    parts = sorted(by_layer.items(), key=lambda kv: -kv[1])
    print("traced sweep self time by layer: " + ", ".join(
        f"{k} {100 * v / sweep_s:.1f}%" for k, v in parts
    ))


def host_fingerprint(reference: SpeedReference) -> dict:
    """Interpreter, libraries, CPU, cores, and the run's median speed
    reference time (the calibration that compares hosts)."""
    import numpy
    import scipy

    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next(
            (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
        )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": statistics.median(dt for _, dt in reference.passes),
    }
