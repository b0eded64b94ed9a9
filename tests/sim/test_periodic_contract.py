"""The kernel's periodic contract, against the closure-based reference.

Periodic events used to be driven by a closure that called the user's
callback and then re-armed its own handle.  The run loop now re-arms a
periodic handle itself.  :class:`_ClosureSimulator` keeps the old
``schedule_periodic`` verbatim, and a Hypothesis property runs random
programs of one-shot and periodic events on both kernels: the firing
order, the ``(time, seq)`` of every firing, ``events_processed`` and
``pending`` must all agree.

The second half pins :meth:`Simulator.close`.
"""

from __future__ import annotations

import gc
import heapq
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import (
    PRIORITY_APPLICATION,
    PRIORITY_DEFAULT,
    PRIORITY_FAULT,
    PRIORITY_MONITOR,
    PRIORITY_NETWORK,
    ScheduledEvent,
    Simulator,
)

PRIORITIES = (
    PRIORITY_FAULT,
    PRIORITY_NETWORK,
    PRIORITY_APPLICATION,
    PRIORITY_MONITOR,
    PRIORITY_DEFAULT,
)


class _ClosureSimulator(Simulator):
    """The reference kernel: ``schedule_periodic`` as it was when a
    closure drove each cascade (its handle is one-shot to the loop)."""

    def schedule_periodic(
        self,
        period: int,
        callback,
        *,
        start: int | None = None,
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` every ``period`` microseconds, forever.

        The callback chain re-schedules itself; stop the cascade by running
        the simulator only up to a horizon, or by cancelling the returned
        handle (which always tracks the *next* pending tick).
        """
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        first = self._now + period if start is None else int(start)
        if first < self._now:
            raise SchedulingError(
                f"cannot schedule at t={first} (now is {self._now})"
            )

        # One handle and one closure for the whole cascade: each tick
        # re-arms the same ScheduledEvent with a fresh (time, seq) pair,
        # preserving the exact ordering a fresh schedule_at would get.
        take_seq = self._seq
        heap = self._heap

        def tick(sim: Simulator) -> None:
            callback(sim)
            handle.time = time = sim._now + period
            handle.seq = seq = next(take_seq)
            heapq.heappush(heap, (time, priority, seq, handle))

        handle = ScheduledEvent(first, priority, next(take_seq), tick)
        heapq.heappush(heap, (first, priority, handle.seq, handle))
        return handle


_PRIORITY = st.sampled_from(PRIORITIES)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(0, 30), _PRIORITY),
        # period, priority, start offset (None: one period from now),
        # firing at which the callback cancels its own handle (0: never),
        # and whether each firing also schedules a one-shot.
        st.tuples(
            st.just("periodic"),
            st.integers(1, 9),
            _PRIORITY,
            st.one_of(st.none(), st.integers(0, 12)),
            st.integers(0, 4),
            st.booleans(),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("run"), st.integers(0, 25)),
        st.tuples(st.just("step"), st.integers(1, 6)),
    ),
    max_size=40,
)


def _execute(sim: Simulator, ops) -> list[tuple]:
    """Run one program; return the log of firings and accounting."""
    log: list[tuple] = []
    handles: list[ScheduledEvent] = []

    def one_shot(label, box):
        def callback(s):
            log.append(("fire", label, s.now, box[0].seq))

        return callback

    def periodic(label, box, cancel_at, spawn):
        fired = [0]

        def callback(s):
            fired[0] += 1
            log.append(("fire", label, s.now, box[0].seq))
            if spawn:
                # Takes its seq before the cascade re-arms.
                inner: list[ScheduledEvent] = []
                inner.append(
                    s.schedule_in(
                        fired[0] % 3, one_shot(f"{label}.{fired[0]}", inner)
                    )
                )
            if fired[0] == cancel_at:
                s.cancel(box[0])

        return callback

    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "at":
            box: list[ScheduledEvent] = []
            box.append(
                sim.schedule_at(
                    sim.now + op[1], one_shot(n, box), priority=op[2]
                )
            )
            handles.append(box[0])
        elif kind == "periodic":
            _kind, period, priority, offset, cancel_at, spawn = op
            box = []
            start = None if offset is None else sim.now + offset
            box.append(
                sim.schedule_periodic(
                    period,
                    periodic(n, box, cancel_at, spawn),
                    start=start,
                    priority=priority,
                )
            )
            handles.append(box[0])
        elif kind == "cancel" and handles:
            # May hit a handle that already fired: a no-op for a one-shot.
            sim.cancel(handles[op[1] % len(handles)])
        elif kind == "run":
            sim.run_until(sim.now + op[1])
        elif kind == "step":
            for _ in range(op[1]):
                log.append(("step", sim.step(), sim.now))
        log.append(("after", n, sim.now, sim.events_processed, sim.pending))
    sim.run_until(sim.now + 40)
    log.append(("end", sim.now, sim.events_processed, sim.pending))
    return log


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_loop_rearm_matches_the_closure_reference(ops):
    assert _execute(Simulator(), ops) == _execute(_ClosureSimulator(), ops)


def test_periodic_handle_carries_the_callback_and_period():
    """No closure: the handle holds the caller's callback itself."""
    sim = Simulator()

    def callback(s):
        return None

    handle = sim.schedule_periodic(7, callback, start=2)
    assert handle.callback is callback
    assert handle.period == 7
    assert sim.schedule_at(3, callback).period == 0
    sim.run_until(16)
    assert (handle.time, sim.events_processed) == (23, 4)


# -- Simulator.close ----------------------------------------------------------


def test_close_drops_the_queue():
    sim = Simulator()

    class Owner:
        def tick(self, s):
            return None

    owner = Owner()
    sim.schedule_periodic(3, owner.tick)
    sim.schedule_at(10, owner.tick)
    sim.run_until(4)
    gone = weakref.ref(owner)
    del owner
    assert gone() is not None  # the queue still holds its bound methods
    sim.close()
    assert gone() is None  # freed by reference counting, no collection
    assert sim.pending == 0
    assert (sim.now, sim.events_processed) == (4, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda sim: sim.schedule_at(5, lambda s: None),
        lambda sim: sim.schedule_in(5, lambda s: None),
        lambda sim: sim.schedule_periodic(5, lambda s: None),
        lambda sim: sim.step(),
        lambda sim: sim.run_until(10),
        lambda sim: sim.run_for(10),
    ],
    ids=[
        "schedule_at",
        "schedule_in",
        "schedule_periodic",
        "step",
        "run_until",
        "run_for",
    ],
)
def test_closed_simulator_refuses_to_schedule_or_run(call):
    sim = Simulator()
    sim.schedule_at(1, lambda s: None)
    sim.close()
    with pytest.raises(SimulationError, match="closed"):
        call(sim)


def test_close_twice_is_harmless():
    sim = Simulator()
    sim.schedule_periodic(2, lambda s: None)
    sim.close()
    sim.close()
    assert sim.pending == 0
    with pytest.raises(SimulationError):
        sim.run_until(4)


def test_close_inside_the_run_loop_is_refused():
    sim = Simulator()
    errors: list[Exception] = []

    def callback(s):
        try:
            s.close()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule_at(1, callback)
    sim.run_until(2)
    assert len(errors) == 1
    sim.close()


def test_close_inside_a_stepped_periodic_callback_leaves_no_entry():
    sim = Simulator()
    sim.schedule_periodic(2, lambda s: s.close())
    assert sim.step()
    assert sim.pending == 0 and not sim._heap


def test_no_cycle_between_handle_and_callback():
    """A dropped simulator frees its periodic callbacks by reference
    counting: the handle does not reference itself through a closure."""

    class Owner:
        def tick(self, s):
            return None

    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        owner = Owner()
        sim.schedule_periodic(1, owner.tick)
        sim.run_until(5)
        gone = weakref.ref(owner)
        del owner, sim
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
