"""Property tests: the slab event heap is observationally identical
to a plain ``heapq`` of ``(t, seq, kind, data)`` tuples.

The simulator stores events in struct-of-arrays slabs with recycled
slots, interns kinds to dense ids, drains same-timestamp batches in
one call, and lets pushes landing at exactly the in-flight batch's
timestamp join it without touching the heap (same-time turnaround).
Every one of those mechanics is an *optimization* of the reference
semantics - pop strictly by ``(t, seq)``, sequence numbers handed out
one per push (or per :meth:`next_seq` consumer) - so randomized
schedules with timestamp ties, interleaved external sequence
consumers, and mid-batch pushes must pop in exactly the reference
order, payload for payload.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.simulator import Simulator, StallError, StallReport

# Small delta pool so schedules collide on identical timestamps often;
# 0.0 lands mid-batch pushes on the in-flight batch's own time.
DELTAS = (0.0, 0.25, 1.0, 3.0)
KINDS = ("advance", "aux")  # progress / non-progress
PROGRESS = frozenset(("advance",))


class RefHeap:
    """The reference: one heap of (t, seq, kind, data) 4-tuples."""

    def __init__(self):
        self.h = []
        self.seq = 0

    def push(self, t, kind, data):
        self.seq += 1
        heapq.heappush(self.h, (t, self.seq, kind, data))

    def next_seq(self):
        self.seq += 1
        return self.seq


# One push op: (time delta from "now", kind, burn-a-seq-first flag).
# The flag models external queues sharing the tie-break sequence via
# next_seq between pushes - renumbering must never reorder.
_op = st.tuples(
    st.sampled_from(DELTAS), st.sampled_from(KINDS), st.booleans()
)


@st.composite
def schedules(draw):
    pre = draw(st.lists(_op, min_size=1, max_size=12))
    rounds = draw(st.lists(st.lists(_op, max_size=4), max_size=10))
    return pre, rounds


def _push_both(sim, ref, now, ops, start):
    n = start
    for delta, kind, burn in ops:
        if burn:
            sim.next_seq()
            ref.next_seq()
        sim.push(now + delta, kind, n)
        ref.push(now + delta, kind, n)
        n += 1
    return n


@given(sched=schedules())
@settings(max_examples=80, deadline=None)
def test_single_pop_matches_reference(sched):
    pre, rounds = sched
    sim = Simulator(progress_kinds=PROGRESS)
    ref = RefHeap()
    n = _push_both(sim, ref, 0.0, pre, 0)
    rit = iter(rounds)
    while sim:
        t, kind, data = sim.pop()
        rt, _, rkind, rdata = heapq.heappop(ref.h)
        assert (t, kind, data) == (rt, rkind, rdata)
        # Pushes between pops happen at or after the current time.
        n = _push_both(sim, ref, t, next(rit, []), n)
    assert not ref.h
    assert sim.live == 0


def _drive(sched, horizon, batched):
    """Dispatch a schedule through ``pop_batch`` + ``dispatch`` (the
    event loop's drain) or through one-at-a-time ``pop``.

    Each dispatched event runs a handler that records what it reads
    (``live``, ``last_progress``, ``len``), retracts the progress stamp
    of every third progress event, checks the reference pop order and
    pushes the next round - a 0.0 delta lands at exactly the in-flight
    batch's time and joins it.  The watchdog watches the non-progress
    kind and confirms a stall only when ``len`` is even, so both the
    wave-off and the ``StallError`` exit are exercised.  Returns the
    handler observations and the stall report (``None`` on a drain).
    """
    pre, rounds = sched
    sim = Simulator(progress_kinds=PROGRESS)
    # The kind-id -> handler table, interned in KINDS order.
    assert [sim.kind_id(k) for k in KINDS] == [0, 1]
    table = [
        lambda data, t, kind=kind: handle(t, kind, data) for kind in KINDS
    ]
    sim.arm_watchdog(
        horizon,
        lambda now: StallReport(now, sim.last_progress, horizon, len(sim))
        if len(sim) % 2 == 0 else None,
        watch_kinds=frozenset(("aux",)),
    )
    ref = RefHeap()
    n = _push_both(sim, ref, 0.0, pre, 0)
    rit = iter(rounds)
    seen = []

    def handle(t, kind, data):
        nonlocal n
        rt, _, rkind, rdata = heapq.heappop(ref.h)
        assert (t, kind, data) == (rt, rkind, rdata)
        if kind == "advance" and data % 3 == 0:
            sim.retract_progress()
        seen.append((t, kind, data, sim.live, sim.last_progress, len(sim)))
        n = _push_both(sim, ref, t, next(rit, []), n)

    try:
        while sim:
            if batched:
                t0, batch = sim.pop_batch()
                sim.dispatch(t0, batch, table)
            else:
                handle(*sim.pop())
    except StallError as e:
        return seen, e.report
    finally:
        sim.close_batch()
    assert not ref.h
    assert sim.live == 0 and len(sim) == 0
    return seen, None


@given(sched=schedules(), horizon=st.sampled_from((0.5, 2.0)))
@settings(max_examples=80, deadline=None)
def test_pop_batch_matches_reference(sched, horizon):
    """Batch drains, including same-time turnaround joins, dispatch in
    reference order: mid-batch pushes carry strictly larger sequence
    numbers, so they sort after every drained event even at the same
    timestamp.  Accounting runs per dispatched event, so handlers read
    the same ``live`` / ``last_progress`` / pending count, retract the
    same stamps and meet the same watchdog outcome as under ``pop``.
    (The event loop advances the makespan; its oracle lives in
    ``tests/test_runtime_layers.py``.)"""
    assert _drive(sched, horizon, batched=True) == _drive(
        sched, horizon, batched=False
    )


@given(sched=schedules())
@settings(max_examples=40, deadline=None)
def test_slot_recycling_preserves_payloads(sched):
    """Popping then pushing reuses slab slots; payloads must never
    cross-contaminate between recycled slots."""
    pre, rounds = sched
    sim = Simulator(progress_kinds=PROGRESS)
    ref = RefHeap()
    n = _push_both(sim, ref, 0.0, pre, 0)
    rit = iter(rounds)
    seen_sim, seen_ref = [], []
    while sim:
        t, kind, data = sim.pop()
        seen_sim.append(data)
        seen_ref.append(heapq.heappop(ref.h)[3])
        n = _push_both(sim, ref, t, next(rit, []), n)
    # Every payload delivered exactly once, in the same order.
    assert seen_sim == seen_ref
    assert sorted(seen_sim) == list(range(n))
