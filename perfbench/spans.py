"""In-memory span recorder for the benchmark's traced run.

A :class:`Tracer` records one span per call into a layer's public
method: its name, start, end, parent span and run id.  Spans are kept
in flat typed arrays (a traced ``ball`` sweep records ~10^6 of them)
and written out once, when the run ends.

Wrappers are installed on the *classes* for the duration of
:meth:`Tracer.installed` and the original class attributes are put
back afterwards, so untraced runs execute the unwrapped code.  Class
level is what makes them see every call: the clean event loop binds
``sched.execute`` / ``sched.complete`` / ``transport.receive`` once per
run, and those bound methods resolve through the class.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Target", "Tracer", "LayerStats"]


@dataclass(frozen=True)
class Target:
    """One method to wrap: ``cls.attr`` recorded as span ``name``.

    ``work``, when given, maps the call's positional arguments to an
    item count added to :attr:`Tracer.work` (e.g. cells per kernel call).
    """

    cls: type
    attr: str
    name: str
    work: Callable[[tuple], int] | None = None


@dataclass
class LayerStats:
    """Aggregate of all spans sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span store plus the class-level method wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.work: dict[str, int] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named ``name``."""
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrapper(self, fn, target: Target):
        nid = self._nid(target.name)
        work, name = target.work, target.name
        open_, close = self._open, self._close
        counts = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                counts[name] = counts.get(name, 0) + work(args)
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target's method on its class; restore on exit.

        The wrapper goes on the class that defines the attribute (an
        inherited method is wrapped where it is declared, so every
        subclass sees it), and exactly that class's original attribute
        is put back afterwards, even when the body raises.
        """
        saved = []
        try:
            for t in targets:
                owner = next(k for k in t.cls.__mro__ if t.attr in k.__dict__)
                original = owner.__dict__[t.attr]
                saved.append((owner, t.attr, original))
                setattr(owner, t.attr, self._wrapper(original, t))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its direct children cover.

        Spans nest strictly (one thread, stack discipline), so the
        children of a span cover disjoint sub-intervals of it and their
        durations can simply be subtracted.
        """
        start, end, parent = self.start, self.end, self.parent
        out = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                out[p] -= end[i] - start[i]
        return out

    def stats_by_run(self) -> dict[int, dict[str, LayerStats]]:
        """Calls, total and self seconds per span name, per run id."""
        own = self.self_times()
        out: dict[int, dict[str, LayerStats]] = {}
        names, start, end, run = self.names, self.start, self.end, self.run
        for i, nid in enumerate(self.name_id):
            per = out.setdefault(run[i], {})
            s = per.get(names[nid])
            if s is None:
                s = per[names[nid]] = LayerStats()
            s.calls += 1
            s.total_s += end[i] - start[i]
            s.self_s += own[i]
        return out

    def save(self, path) -> None:
        """Write every span as columns of one ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )
