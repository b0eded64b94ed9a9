"""Discrete-event simulation kernel.

A small, deterministic DES engine built on :mod:`heapq`.  Time is integer
microseconds (see :mod:`repro.units`).  Ties are broken first by an explicit
integer priority, then by insertion order, so identical runs produce
identical event orderings — a prerequisite for reproducible fault traces.

The kernel knows nothing about the DECOS architecture; the TTA network,
components and fault injectors are all built as event producers on top.

Performance notes (see ``docs/performance.md`` for the full contract):

* **Quiescence fast-forward.**  The run loop advances directly from one
  scheduled event to the next — a quiescent interval costs zero work, and
  reaching the horizon with an empty (or future-only) heap is a single
  assignment.  Producers must therefore never rely on the kernel "ticking"
  through empty time; anything that needs to observe an instant must
  schedule an event at it.
* **O(1) lazy cancellation.**  :meth:`Simulator.cancel` flips a flag on the
  handle; the heap entry is discarded when it surfaces.  No per-event set
  lookups on the hot path.
* **One handle per periodic cascade, re-armed by the loop.**
  :meth:`Simulator.schedule_periodic` stores the caller's callback and
  the period on one :class:`ScheduledEvent`; after each firing the run
  loop pushes that same handle back at ``now + period`` with a fresh
  sequence number.  No closure wraps the callback, so a cascade costs one
  Python frame per tick and the handle never references itself.
* **Explicit end of life.**  :meth:`Simulator.close` drops every queued
  entry (and with it the last references the queue holds to callbacks
  and their owners); the simulator refuses to schedule or run afterwards.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import Any

from repro.errors import SchedulingError, SimulationError
from repro.obs import state as _obs

#: Counter names the kernel reports through the active obs context.
_EVENTS_COUNTER = "sim.events"
_RUNS_COUNTER = "sim.runs"

EventCallback = Callable[["Simulator"], None]

# Priorities: lower value runs earlier among same-time events.  The TTA
# layers use these bands so that e.g. frame delivery is observed before the
# application reacts within the same instant.
PRIORITY_FAULT = 0  # fault (de)activation toggles hardware state first
PRIORITY_NETWORK = 10  # frame transmission / delivery
PRIORITY_APPLICATION = 20  # job dispatch
PRIORITY_MONITOR = 30  # diagnostic observation of the settled state
PRIORITY_DEFAULT = 50


class ScheduledEvent:
    """A handle to a scheduled event; allows O(1) cancellation.

    Ordering lives in the heap tuples ``(time, priority, seq, event)``;
    the handle itself is plain mutable state so the periodic path can
    re-arm one handle instead of allocating per tick.  ``period`` is 0
    for a one-shot event; a positive period makes the run loop re-arm
    the handle after each firing.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "period")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: EventCallback,
        period: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.period = period

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"ScheduledEvent(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}{state})"
        )


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule_at(10, lambda s: hits.append(s.now))
    >>> _ = sim.schedule_at(5, lambda s: hits.append(s.now))
    >>> sim.run_until(20)
    >>> hits
    [5, 10]
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[tuple[int, int, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._running = False
        self._closed = False
        self._events_processed = 0

    # -- inspection -------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still queued (cancelled ones excluded).

        Computed by scanning the queue: cancellation is a lazy flag flip
        and may target handles that have already fired (a no-op), so a
        running counter cannot stay consistent.  The queue is small and
        this is an inspection-only property, never on the event hot path.
        """
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # -- scheduling -------------------------------------------------------

    def schedule_at(
        self,
        time: int,
        callback: EventCallback,
        *,
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute time ``time``.

        Raises
        ------
        SchedulingError
            If ``time`` lies in the past.
        """
        if self._closed:
            raise SimulationError("simulator is closed")
        time = int(time)
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time} (now is {self._now})"
            )
        seq = next(self._seq)
        event = ScheduledEvent(time, priority, seq, callback)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_in(
        self,
        delay: int,
        callback: EventCallback,
        *,
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + int(delay), callback, priority=priority)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a previously scheduled event (no-op if already run).

        Cancellation is lazy: the flag is flipped here in O(1) and the
        dead heap entry is discarded when it reaches the front.  Safe to
        call on a handle that already fired — a one-shot handle has no
        queue entry left, so the flag changes nothing; a periodic handle
        always tracks its next pending tick, which this stops.
        """
        event.cancelled = True

    def schedule_periodic(
        self,
        period: int,
        callback: EventCallback,
        *,
        start: int | None = None,
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` every ``period`` microseconds, forever.

        One handle serves the whole cascade: after each firing the run
        loop re-arms it at ``now + period`` with a fresh sequence number,
        so the order is exactly that of a ``schedule_at`` called as the
        callback's last act.  Stop the cascade by running the simulator
        only up to a horizon, or by cancelling the returned handle (which
        always tracks the *next* pending tick).
        """
        if self._closed:
            raise SimulationError("simulator is closed")
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        first = self._now + period if start is None else int(start)
        if first < self._now:
            raise SchedulingError(
                f"cannot schedule at t={first} (now is {self._now})"
            )
        seq = next(self._seq)
        handle = ScheduledEvent(first, priority, seq, callback, period)
        heapq.heappush(self._heap, (first, priority, seq, handle))
        return handle

    def close(self) -> None:
        """End the simulator's life: drop every queued entry.

        The queue is what ties a simulation's callbacks (and the objects
        they are bound to) to the simulator, so closing it lets a
        finished model be freed by reference counting.  Afterwards every
        scheduling and running call raises :class:`SimulationError`;
        ``now`` and ``events_processed`` stay readable.  Idempotent, but
        not callable from inside :meth:`run_until`.
        """
        if self._running:
            raise SimulationError("cannot close a running simulator")
        self._closed = True
        self._heap.clear()

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue empty."""
        if self._closed:
            raise SimulationError("simulator is closed")
        heap = self._heap
        while heap:
            time, priority, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            if time < self._now:  # pragma: no cover - internal invariant
                raise SimulationError("event time moved backwards")
            self._now = time
            self._events_processed += 1
            obs = _obs.ACTIVE
            if obs.enabled:
                obs.counters.inc(_EVENTS_COUNTER)
            event.callback(self)
            period = event.period
            if period and not self._closed:
                # Re-armed even when the callback cancelled the handle:
                # the cancelled entry is dropped when it surfaces.
                event.time = time = self._now + period
                event.seq = seq = next(self._seq)
                heapq.heappush(heap, (time, priority, seq, event))
            return True
        return False

    def run_until(self, horizon: int, *, max_events: int | None = None) -> None:
        """Run all events with ``time <= horizon`` then set now = horizon.

        Quiescent stretches between events are skipped outright: the loop
        pops the next event regardless of how far ahead it lies, and once
        the head of the heap is beyond ``horizon`` the remaining interval
        is crossed with a single ``now = horizon`` assignment.

        Parameters
        ----------
        horizon:
            Absolute time (microseconds) to advance to.
        max_events:
            Optional safety valve; raises :class:`SimulationError` when
            exceeded (guards against runaway self-scheduling loops).
        """
        if self._closed:
            raise SimulationError("simulator is closed")
        horizon = int(horizon)
        if horizon < self._now:
            raise SchedulingError(
                f"horizon {horizon} is before current time {self._now}"
            )
        if self._running:
            raise SimulationError("run_until is not reentrant")
        self._running = True
        executed = 0
        # Bind the obs context once per run: event dispatch is the hottest
        # loop in the codebase, so the disabled path must stay one
        # attribute check per event.
        obs = _obs.ACTIVE
        obs_on = obs.enabled
        span = (
            obs.tracer.span("sim.run_until", t_sim_us=horizon)
            if obs_on
            else None
        )
        if span is not None:
            span.__enter__()
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        take_seq = self._seq
        limit = -1 if max_events is None else int(max_events)
        try:
            while heap:
                head = heap[0]
                time = head[0]
                if time > horizon:
                    break
                heappop(heap)
                event = head[3]
                if event.cancelled:
                    continue
                self._now = time
                self._events_processed += 1
                executed += 1
                if executed > limit >= 0:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before horizon"
                    )
                event.callback(self)
                period = event.period
                if period:
                    # Periodic: re-arm the same handle one period on,
                    # with the sequence number a schedule_at called by
                    # the callback's last statement would take.  A
                    # handle the callback cancelled is pushed all the
                    # same and dropped when it surfaces.
                    event.time = time = self._now + period
                    event.seq = seq = next(take_seq)
                    heappush(heap, (time, head[1], seq, event))
            self._now = horizon
        finally:
            self._running = False
            if obs_on:
                obs.counters.inc(_EVENTS_COUNTER, executed)
                obs.counters.inc(_RUNS_COUNTER)
            if span is not None:
                span.__exit__(None, None, None)

    def run_for(self, duration: int, **kwargs: Any) -> None:
        """Run for ``duration`` microseconds from the current time."""
        self.run_until(self._now + int(duration), **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
