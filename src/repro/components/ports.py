"""Ports — the linking interface (LIF) access points of jobs.

A *port* is the access point of a job to its virtual network (§II-A).  The
port specification is the contract the fault hypothesis talks about: "the
failure mode of a job is a violation of the port specification in either
the time or value domain" (§II-E).  Two port kinds are provided, mirroring
DECOS / time-triggered practice:

* **State ports** carry state messages with update-in-place semantics (the
  newest value overwrites the old one; no queueing, no overflow).
* **Event ports** carry event messages through a bounded FIFO queue.  A
  queue overflow loses messages — the manifestation of a *job borderline*
  (configuration) fault when the queue was dimensioned from wrong
  assumptions about message inter-arrival times (§III-D).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple

from repro.errors import ConfigurationError


class PortKind(Enum):
    STATE = "state"
    EVENT = "event"


class PortDirection(Enum):
    IN = "in"
    OUT = "out"


class Message(NamedTuple):
    """One message observable at a port (an immutable per-slot value)."""

    source_job: str
    port: str
    value: Any
    seq: int
    send_time_us: int


#: Outcomes of :meth:`ValueSpec.classify`.
CONFORMING, MARGINAL, VIOLATING = 0, 1, 2


@dataclass(frozen=True, slots=True)
class ValueSpec:
    """Value-domain part of a port specification.

    ``low``/``high`` bound the admissible payload for scalar-valued ports.
    ``margin`` defines the "verge" band used by the wearout pattern of
    Fig. 8: values inside the spec but within ``margin * (high - low)`` of a
    bound are flagged as *marginal* ("at the verge of becoming incorrect").
    """

    low: float = -math.inf
    high: float = math.inf
    margin: float = 0.1

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ConfigurationError(
                f"ValueSpec requires low < high, got [{self.low}, {self.high}]"
            )
        if not 0.0 <= self.margin < 0.5:
            raise ConfigurationError(
                f"margin must be in [0, 0.5), got {self.margin}"
            )

    def classify(self, value: Any) -> int:
        """:data:`CONFORMING`, :data:`MARGINAL` or :data:`VIOLATING`.

        A value conforms when it converts to a finite ``float`` within
        ``[low, high]``; it is marginal when it also lies within
        ``margin * (high - low)`` of a finite bound.  One conversion serves
        both questions.
        """
        try:
            v = float(value)
        except (TypeError, ValueError):
            return VIOLATING
        if not (self.low <= v <= self.high and math.isfinite(v)):
            return VIOLATING
        if math.isinf(self.low) or math.isinf(self.high):
            return CONFORMING
        band = self.margin * (self.high - self.low)
        if v <= self.low + band or v >= self.high - band:
            return MARGINAL
        return CONFORMING

    def conforms(self, value: Any) -> bool:
        """True if ``value`` satisfies the specification."""
        return self.classify(value) != VIOLATING

    def deviation(self, value: Any) -> float:
        """Normalised distance outside the spec (0.0 when conforming)."""
        try:
            v = float(value)
        except (TypeError, ValueError):
            return math.inf
        if not math.isfinite(v):
            return math.inf
        if math.isinf(self.low) or math.isinf(self.high):
            return 0.0 if self.conforms(v) else math.inf
        span = self.high - self.low
        if v < self.low:
            return (self.low - v) / span
        if v > self.high:
            return (v - self.high) / span
        return 0.0


@dataclass(frozen=True, slots=True)
class PortSpec:
    """Static description of one port of a job."""

    name: str
    direction: PortDirection
    kind: PortKind = PortKind.STATE
    queue_capacity: int = 4
    value_spec: ValueSpec = field(default_factory=ValueSpec)
    period_slots: int = 1  # nominal send period for OUT ports, in own slots

    def __post_init__(self) -> None:
        if self.kind is PortKind.EVENT and self.queue_capacity < 1:
            raise ConfigurationError(
                f"event port {self.name!r} needs queue_capacity >= 1"
            )
        if self.period_slots < 1:
            raise ConfigurationError(
                f"period_slots must be >= 1, got {self.period_slots}"
            )


class Port:
    """Runtime state of one port instance owned by one job."""

    def __init__(self, spec: PortSpec, owner_job: str) -> None:
        self.spec = spec
        self.owner_job = owner_job
        self._state_value: Message | None = None
        self._queue: deque[Message] = deque()
        self.overflow_count = 0
        self.messages_in = 0
        self.messages_out = 0

    # -- write side (arriving messages for IN ports, or job output) ------

    def push(self, message: Message) -> bool:
        """Deposit a message.  Returns False when an event queue overflows
        (the message is dropped, newest-loss semantics)."""
        self.messages_in += 1
        if self.spec.kind is PortKind.STATE:
            self._state_value = message
            return True
        if len(self._queue) >= self.spec.queue_capacity:
            self.overflow_count += 1
            return False
        self._queue.append(message)
        return True

    # -- read side --------------------------------------------------------

    def read_state(self) -> Message | None:
        """Current value of a state port (non-consuming)."""
        if self.spec.kind is not PortKind.STATE:
            raise ConfigurationError(
                f"read_state on event port {self.spec.name!r}"
            )
        return self._state_value

    def pop_event(self) -> Message | None:
        """Oldest queued event message, or None (consuming)."""
        if self.spec.kind is not PortKind.EVENT:
            raise ConfigurationError(
                f"pop_event on state port {self.spec.name!r}"
            )
        if not self._queue:
            return None
        self.messages_out += 1
        return self._queue.popleft()

    def drain(self) -> list[Message]:
        """Pop all queued event messages."""
        out = list(self._queue)
        self.messages_out += len(out)
        self._queue.clear()
        return out

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def resize_queue(self, capacity: int) -> None:
        """Reconfigure the queue capacity (the Fig. 11 job-borderline
        maintenance action: 'update of the configuration data')."""
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.spec = PortSpec(
            name=self.spec.name,
            direction=self.spec.direction,
            kind=self.spec.kind,
            queue_capacity=capacity,
            value_spec=self.spec.value_spec,
            period_slots=self.spec.period_slots,
        )
