"""The data-driven sweep patch-program (Listing 1 of the paper).

One program instance sweeps one patch in one ordinate direction.  Its
local context is exactly Listing 1's: an array of unfinished-upwind
counters, a priority queue of ready vertices, and a buffer of outgoing
streams.  ``compute`` collects up to ``grain`` ready vertices (vertex
clustering, Sec. V-C), hands them to the user-supplied solve callback
in dependency order, and aggregates all items bound for the same
target program into a single stream (the communication-combining
benefit of clustering).

The program is fully reentrant: interleaved dependencies between
patches (Fig. 4) simply cause additional scheduled runs.
"""

from __future__ import annotations

import copy
from heapq import heappop, heappush
from collections.abc import Callable

import numpy as np

from ..core.patch_program import PatchProgram
from ..core.stream import ProgramId, Stream
from .dag import PatchAngleGraph

__all__ = ["SweepPatchProgram"]


def _share(v):
    return v


#: How a snapshot copies each attribute of a sweep program (see
#: ``SweepPatchProgram.copy_context``).  An attribute that is rebound,
#: never mutated in place, may be shared; everything else is copied
#: just deep enough that later mutation cannot reach the snapshot.
#: Names missing here fall back to a deep copy.
_SNAPSHOT_COPY: dict[str, Callable] = {
    # Elements are ints, tuples of immutables, or cluster lists that
    # are never written after they are appended: one level suffices.
    "_counts": list,
    "_heap": list,
    "clusters": list,
    # input() adds edge ids to the per-patch sets in place.
    "_applied": lambda d: {patch: set(ids) for patch, ids in d.items()},
    "_last": dict,
    # Empty at every checkpoint (programs are snapshotted only when
    # not running), but a Stream is mutable.
    "_outstreams": copy.deepcopy,
    # Rebound by init(), never mutated in place.
    "_prio": _share,
    "_keys": _share,
    # Immutable scalars (and the frozen ProgramId).
    "id": _share,
    "grain": _share,
    "static_priority": _share,
    "dynamic_priority": _share,
    "bytes_per_item": _share,
    "record_clusters": _share,
    "resilient_input": _share,
    "_solved": _share,
    "_n": _share,
    "_intkeys": _share,
}


class SweepPatchProgram(PatchProgram):
    """Listing 1: data-driven parallel sweep of one (patch, angle)."""

    def __init__(
        self,
        graph: PatchAngleGraph,
        cells_global: np.ndarray,
        grain: int = 64,
        solve_fn: Callable[[np.ndarray, int], None] | None = None,
        static_priority: float = 0.0,
        dynamic_priority: bool = False,
        bytes_per_item: int = 8,
        record_clusters: bool = False,
        resilient: bool = False,
    ):
        super().__init__(graph.patch, graph.angle)
        if grain <= 0:
            raise ValueError("clustering grain must be positive")
        self.graph = graph
        self.cells_global = cells_global
        self.grain = grain
        self.solve_fn = solve_fn
        self.static_priority = static_priority
        self.dynamic_priority = dynamic_priority
        self.bytes_per_item = bytes_per_item
        self.record_clusters = record_clusters
        self.clusters: list[list[int]] = []
        # Resilient mode: remote payloads carry (dst_slot, edge_id)
        # pairs and input() discards edges already applied, making
        # delivery idempotent - required for crash recovery, where a
        # replayed program may re-batch its emissions differently than
        # the execution that was lost.  Edge ids are header metadata;
        # nbytes still reflects the physical data volume.
        self.resilient_input = resilient
        self._applied: dict[int, set[int]] = {}  # src patch -> edge ids

        # Local context (Listing 1, part 1), created by init().
        self._counts: list[int] = []
        self._heap: list = []
        self._outstreams: list[Stream] = []
        self._solved = 0
        self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                      "input_items": 0, "streams": 0}

    # -- Listing 1 interface ------------------------------------------------------

    def init(self) -> None:
        g = self.graph
        n = g.n_local
        self._counts = g.init_counts.tolist()
        pa = g.vertex_prio
        prio = pa.tolist() if pa is not None else [0.0] * n
        self._prio = prio
        # Heap keys.  Every priority strategy yields integer-valued
        # float64 (incl. the exact ``_FAR`` sentinel), so the pair
        # ``(prio[v], v)`` orders identically to the single integer
        # ``int(prio[v]) * n + v`` - and a heap of small ints is far
        # cheaper to sift than one of (float, int) tuples.  Vertices
        # decode as ``key % n`` (exact for negative priorities too).
        # Non-integer priorities (user-supplied) fall back to prebuilt
        # tuples; both paths push ``keys[v]`` and never allocate.
        self._n = n
        vk = g.vertex_keys
        if vk is not None:
            self._intkeys = True
            keys = vk.tolist()
        elif pa is None:
            self._intkeys = True
            keys = list(range(n))
        elif bool(np.array_equal(pa, np.trunc(pa))):
            self._intkeys = True
            keys = (
                pa.astype(np.int64) * n + np.arange(n, dtype=np.int64)
            ).tolist()
        else:
            self._intkeys = False
            keys = [(p, v) for v, p in enumerate(prio)]
        self._keys = keys
        self._heap = [keys[v] for v in np.nonzero(g.init_counts == 0)[0]]
        self._heap.sort()
        self._solved = 0
        self._outstreams = []
        self.clusters = []
        self._applied = {}
        self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                      "input_items": 0, "streams": 0}

    def input(self, stream: Stream) -> None:
        counts = self._counts
        keys = self._keys
        heap = self._heap
        n = 0
        if self.resilient_input:
            applied = self._applied.setdefault(stream.src.patch, set())
            for v, e in stream.payload.tolist():
                n += 1
                if e in applied:
                    continue  # duplicate delivery (retry or replay)
                applied.add(e)
                c = counts[v] - 1
                counts[v] = c
                if not c:
                    heappush(heap, keys[v])
        else:
            payload = stream.payload.tolist()
            n = len(payload)
            for v in payload:
                c = counts[v] - 1
                counts[v] = c
                if not c:
                    heappush(heap, keys[v])
        self._last["input_items"] += n

    def compute(self) -> None:
        heap = self._heap
        if not heap:
            self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                          "input_items": self._last["input_items"],
                          "streams": 0}
            return
        lptr, ltgt, rptr, rpat, rloc = self.graph.adjacency_flat()
        counts = self._counts
        keys = self._keys
        grain = self.grain
        popped: list[int] = []
        append = popped.append
        out: dict[int, list[int]] = {}
        edges = 0
        remote_items = 0
        mod = self._n if self._intkeys else 0
        budget = grain
        while heap and budget:
            budget -= 1
            k = heappop(heap)
            v = k % mod if mod else k[1]
            append(v)
            s, e = lptr[v], lptr[v + 1]
            edges += e - s
            for w in ltgt[s:e]:
                c = counts[w] - 1
                counts[w] = c
                if not c:
                    heappush(heap, keys[w])
        # Remote edges never feed the ready heap, so they are gathered
        # after the pop loop: iterating ``popped`` in order preserves
        # both the first-encounter order of target patches and the
        # per-target item order of the fused form.
        resilient = self.resilient_input
        dp = -1
        items: list = []
        for v in popped:
            rs, re = rptr[v], rptr[v + 1]
            if rs == re:
                continue
            # Remote CSR position doubles as the stable edge_id.
            for j in range(rs, re):
                p = rpat[j]
                if p != dp:
                    items = out.get(p)
                    if items is None:
                        items = out[p] = []
                    dp = p
                items.append((rloc[j], j) if resilient else rloc[j])
            edges += re - rs
            remote_items += re - rs

        if self.solve_fn is not None:
            self.solve_fn(self.cells_global[popped], self.graph.angle)
        self._solved += len(popped)
        if self.record_clusters:
            self.clusters.append(popped)

        angle = self.graph.angle
        for dp, items in out.items():
            self._outstreams.append(
                Stream(
                    src=self.id,
                    dst=ProgramId(dp, angle),
                    payload=np.asarray(items, dtype=np.int64),
                    items=len(items),
                    nbytes=len(items) * self.bytes_per_item,
                )
            )
        self._last = {
            "vertices": len(popped),
            "edges": edges,
            "remote_items": remote_items,
            "input_items": self._last["input_items"],
            "streams": len(out),
        }

    def output(self) -> Stream | None:
        if self._outstreams:
            return self._outstreams.pop(0)
        return None

    def drain_outputs(self) -> list[Stream]:
        # Hand the emission buffer over wholesale (same FIFO order as
        # popping via ``output`` until None, without O(n^2) pop(0)s).
        out = self._outstreams
        self._outstreams = []
        return out

    def vote_to_halt(self) -> bool:
        return not self._heap

    # -- runtime hooks --------------------------------------------------------------

    def checkpoint_shared(self) -> tuple[str, ...]:
        # Immutable topology, the global cell-index map and the solve
        # callback (which closes over host-owned flux arrays) are shared
        # with the runtime and must not be deep-copied into snapshots.
        return ("graph", "cells_global", "solve_fn")

    def copy_context(self, state: dict) -> dict:
        # Per-attribute copies instead of a generic deep copy; the keys
        # and value types stay those of the deep-copy default.
        get = _SNAPSHOT_COPY.get
        return {k: get(k, copy.deepcopy)(v) for k, v in state.items()}

    def remaining_workload(self) -> int:
        return self.graph.n_local - self._solved

    def priority(self) -> float:
        p = self.static_priority
        if self.dynamic_priority and self._heap:
            # Prefer programs whose best ready vertex is most urgent
            # (smallest vertex key); scaled to act as a tie-breaker only.
            k = self._heap[0]
            p -= 1e-3 * (self._prio[k % self._n] if self._intkeys else k[0])
        return p

    def last_run_counters(self) -> dict[str, int]:
        # Hand the live dict over and start a fresh one: the caller
        # reads it before the next input/compute can touch ``_last``.
        out = self._last
        self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                      "input_items": 0, "streams": 0}
        return out
