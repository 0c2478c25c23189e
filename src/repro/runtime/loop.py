"""The master event loop (Alg. 1; DESIGN.md §12.2–12.3).

One loop drives every run of :class:`~repro.runtime.engine_des.
DataDrivenRuntime`: clean, faulty, deadline-bound, snapshot-armed,
resumed, traced and service runs alike.  Tracing only arms the
simulator's hooks; it never picks a different path.

* Each iteration drains one same-timestamp batch through
  :meth:`~repro.runtime.simulator.Simulator.pop_batch`.  Batching is
  sound because events pushed while a batch is dispatched carry
  strictly larger tie-break sequences than every drained event, so
  the interleaving is the one-at-a-time :meth:`Simulator.pop` order.
* :meth:`Simulator.dispatch` accounts every event (pop counts,
  ``live``, progress clock, watchdog, trace) as it is dispatched, then
  hands it to its entry in a kind-id -> handler table built per run
  from the layers' bound methods, so class-level instrumentation sees
  every call.
* A handler returns a truthy value when its event makes no progress:
  control-plane traffic (acks, timers, hedges, heartbeats, restarts)
  and events a staleness filter drops.  Every other event counts
  toward ``report.events`` and advances the makespan to its time.
* The deadline is checked once per batch - exact, because a batch
  shares one timestamp.
* With a snapshot manager armed, a batch is capped at the next
  snapshot / kill coordinate, so a cut always falls between two
  handler executions with every pending event on the heap.

Layering: sits beside ``engine_des`` (imported by it); the runtime
instance rides along for the cost model and the snapshot schema.
"""

from __future__ import annotations

import gc
import math
from types import SimpleNamespace

from .._util import ReproError
from .checkpoint import HostKilled, save_snapshot
from .metrics import DeadlineExceeded

__all__ = ["drive"]


def drive(rt, ctx: SimpleNamespace, deadline: float | None) -> None:
    """Drive ``ctx`` to quiescence (or deadline / injected host crash)."""
    sim, report, persist = ctx.sim, ctx.report, ctx.persist
    table = _handlers(rt, ctx)
    limit = math.inf if deadline is None else deadline
    pop_batch, dispatch = sim.pop_batch, sim.dispatch
    # The drain allocates only short-lived tuples and lists that
    # refcounting alone reclaims; generational GC passes are pure
    # overhead here, so collection pauses for the drain (restored even
    # on StallError / deadline / kill exits).
    gc_was = gc.isenabled()
    gc.disable()
    try:
        while sim:
            now, batch = pop_batch(0 if persist is None else _cut(rt, ctx))
            if now > limit:
                report.makespan = sim.makespan
                ctx.bd.finalize_idle(sim.makespan, ctx.sched.cores())
                raise DeadlineExceeded(deadline, now, report)
            inert = dispatch(now, batch, table)
            # Same-time pushes joined ``batch`` while it was dispatched
            # (turnaround): its length counts them.
            n = len(batch) - inert
            if n:
                report.events += n
                if now > sim.makespan:
                    sim.makespan = now
    finally:
        sim.close_batch()
        if gc_was:
            gc.enable()


def _cut(rt, ctx: SimpleNamespace) -> int:
    """Snapshot / kill at the persist coordinates (counted in
    dispatched events); returns the cap for the next batch."""
    persist, done = ctx.persist, ctx.sim.dispatched
    if done >= ctx.next_snap:
        save_snapshot(rt, ctx)
        ctx.next_snap = done + persist.every
    kill_at = persist.kill_at
    if kill_at is None or kill_at < done:
        return ctx.next_snap - done
    if kill_at == done:
        raise HostKilled(done)
    return min(ctx.next_snap, kill_at) - done


def _unhandled(data, now: float) -> None:  # pragma: no cover - defensive
    raise ReproError("event kind without a handler in this run")


def _handlers(rt, ctx: SimpleNamespace) -> list:
    """The kind-id -> handler table of one run."""
    sim, router, sched = ctx.sim, ctx.router, ctx.sched
    dead, masters, index_of = router.dead, sched.masters, router.index_of
    receive, retract = ctx.transport.receive, sim.retract_progress
    unpack_cost, slow, unit = rt.cost.unpack_cost, ctx.slow, sched.unit_slow
    bd_add, push_id = ctx.bd.add, sim.push_id
    k_deliver = sim.kind_id("deliver")

    def arrive(data, now):
        """The master thread unpacks a stream and schedules delivery."""
        p, s, wid = data
        if p in dead:
            return True  # receiver is down; the sender will retry
        if not receive(s, p, now, wid):
            retract()  # nothing was delivered
            return None
        dur = unpack_cost(1, s.items)
        if not unit:
            dur *= slow(p, now)
        m = masters[p]
        _, end = m.book(now, dur)
        bd_add(m.core, "unpack", dur)
        di = s.dsti
        push_id(end, k_deliver, (di if di >= 0 else index_of[s.dst], s))
        return None

    on = {
        sim.kind_id("run_start"): sched.execute,
        sim.kind_id("run_end"): sched.complete,
        sim.kind_id("msg_arrive"): arrive,
        k_deliver: sched.deliver,
    }
    if ctx.rec is not None:
        on.update(_recovery_handlers(ctx))
    table = [_unhandled] * (max(on) + 1)
    for kid, handler in on.items():
        table[kid] = handler
    return table


def _control(fn):
    """A control-plane handler: never counts as progress."""
    def handler(data, now):
        fn(data, now)
        return True
    return handler


def _recovery_handlers(ctx: SimpleNamespace) -> dict:
    """Handlers of the kinds only recovery-armed runs push, and the
    staleness filters only faults ever trigger."""
    sim, st, router, report = ctx.sim, ctx.st, ctx.router, ctx.report
    sched, transport, rec, inj = ctx.sched, ctx.transport, ctx.rec, ctx.inj
    dead, quiescent = router.dead, rec.quiescent
    execute, complete, stale_run = sched.execute, sched.complete, sched.stale_run

    def inert(p) -> bool:
        """A double fault on one proc, or the job already done."""
        return p in dead or quiescent()

    def crash(q, now):
        if inert(q):
            return True
        rec.on_crash(q, now)
        if q in ctx.cascaded:
            report.cascade_crashes += 1
        elif ctx.plan is not None:
            # A planned flapping crash schedules its comeback
            # (cascade followers carry no fault object and never
            # restart; the lookup key (proc, time) is exact).
            ra = ctx.plan.restart_delay(q, now)
            if ra > 0:
                rec.expect_restart()
                sim.push(now + ra, "restart", q)
        if inj is not None:
            # Correlated failure: seeded survivors follow suit.
            alive = [p for p in range(router.nprocs) if p not in dead]
            for p, t_p in inj.cascade_after(q, alive, now):
                ctx.cascaded.add(p)
                sim.push(t_p, "crash", p)
        return None

    def requeue(data, now):
        pid, ep = data
        i = st.index[pid]
        if ep != st.epoch[i] or router.proc_of[pid] in dead:
            return True
        sched.enqueue(i)
        sched.dispatch(router.proc_idx[i], now)
        return None

    return {
        sim.kind_id("run_start"): lambda d, now: stale_run(d, now) or execute(d, now),
        sim.kind_id("run_end"): lambda d, now: stale_run(d, now) or complete(d, now),
        sim.kind_id("crash"): crash,
        sim.kind_id("failover"): rec.on_failover,
        sim.kind_id("requeue"): requeue,
        sim.kind_id("ckpt"): lambda p, now: inert(p) or rec.on_ckpt(p, now),
        sim.kind_id("health"): lambda _, now: quiescent() or rec.on_health(now),
        # The elastic-membership plane (DESIGN.md §14) is control
        # traffic too; its handlers gate on quiescence themselves.
        sim.kind_id("ack"): _control(transport.on_ack),
        sim.kind_id("nack"): _control(transport.on_nack),
        sim.kind_id("timer"): _control(transport.on_timer),
        sim.kind_id("hedge"): _control(transport.on_hedge),
        sim.kind_id("hbeat"): _control(lambda _, now: rec.on_hbeat(now)),
        sim.kind_id("hback"): _control(rec.on_hback),
        sim.kind_id("restart"): _control(rec.on_restart),
    }
