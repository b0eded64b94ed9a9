"""Distributed-state recording on the sparse time base (§V-A).

"The pivotal strategy of the DECOS diagnostic architecture is the
establishment of a holistic view on the system by operating on the
*distributed state*."  The :class:`DistributedStateRecorder` captures
interface state variables per action-lattice point, giving experiments and
debugging sessions the same consistent snapshots the ONAs conceptually
operate on.

Variables are addressed ``(component, name)``; snapshots are taken at a
configurable lattice stride and kept in a bounded ring, so long campaigns
stay memory-bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

VariableProbe = Callable[[], Any]


@dataclass(frozen=True, slots=True)
class StateSnapshot:
    """The distributed state at one lattice point."""

    lattice_point: int
    time_us: int
    values: dict[tuple[str, str], Any]

    def of(self, component: str, name: str) -> Any:
        return self.values.get((component, name))


class DistributedStateRecorder:
    """Periodic consistent snapshots of registered interface variables.

    Parameters
    ----------
    granularity_us:
        Lattice granularity of the underlying sparse time base.
    stride_points:
        Snapshot every this many lattice points.
    capacity:
        Number of snapshots retained (oldest evicted first).
    """

    def __init__(
        self,
        granularity_us: int,
        stride_points: int = 1,
        capacity: int = 4_096,
    ) -> None:
        if granularity_us <= 0:
            raise ConfigurationError("granularity must be positive")
        if stride_points < 1:
            raise ConfigurationError("stride must be >= 1")
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.granularity_us = int(granularity_us)
        self.stride_points = int(stride_points)
        self.capacity = int(capacity)
        self._probes: dict[tuple[str, str], VariableProbe] = {}
        self._snapshots: OrderedDict[int, StateSnapshot] = OrderedDict()
        self._last_point: int | None = None

    # -- registration -----------------------------------------------------

    def register(
        self, component: str, name: str, probe: VariableProbe
    ) -> None:
        """Register an interface state variable via a zero-argument probe."""
        key = (component, name)
        if key in self._probes:
            raise ConfigurationError(f"variable {key} already registered")
        self._probes[key] = probe

    def variables(self) -> list[tuple[str, str]]:
        return sorted(self._probes)

    # -- capture ------------------------------------------------------------

    def capture(self, now_us: int) -> StateSnapshot | None:
        """Take a snapshot if a new stride boundary has been reached."""
        point = int(now_us) // self.granularity_us
        if self._last_point is not None and point < self._last_point:
            raise ConfigurationError("capture time moved backwards")
        if point % self.stride_points != 0 or point == self._last_point:
            self._last_point = max(point, self._last_point or 0)
            return None
        self._last_point = point
        snapshot = StateSnapshot(
            lattice_point=point,
            time_us=int(now_us),
            values={key: probe() for key, probe in self._probes.items()},
        )
        self._snapshots[point] = snapshot
        while len(self._snapshots) > self.capacity:
            self._snapshots.popitem(last=False)
        return snapshot

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._snapshots)

    def latest(self) -> StateSnapshot | None:
        if not self._snapshots:
            return None
        return next(reversed(self._snapshots.values()))

    def at_point(self, point: int) -> StateSnapshot | None:
        return self._snapshots.get(point)

    def history(
        self, component: str, name: str
    ) -> list[tuple[int, Any]]:
        """(lattice point, value) series of one variable."""
        key = (component, name)
        return [
            (snap.lattice_point, snap.values.get(key))
            for snap in self._snapshots.values()
            if key in snap.values
        ]


def attach_recorder(
    cluster,
    stride_points: int = 1,
    capacity: int = 4_096,
    include_trust_probes: bool = False,
) -> DistributedStateRecorder:
    """Attach a recorder to a cluster with standard interface probes.

    Registers, per component: operational flag, frames sent/missed, clock
    error; per job: dispatch count and activity.  Snapshots are taken at
    round boundaries via a frame observer.
    """
    recorder = DistributedStateRecorder(
        cluster.time_base.granularity_us,
        stride_points=stride_points,
        capacity=capacity,
    )
    for name, component in cluster.components.items():
        recorder.register(
            name,
            "operational",
            (lambda c: (lambda: c.hardware.operational(cluster.now)))(component),
        )
        recorder.register(
            name, "frames_sent", (lambda c: (lambda: c.frames_sent))(component)
        )
        recorder.register(
            name, "frames_missed", (lambda c: (lambda: c.frames_missed))(component)
        )
        recorder.register(
            name,
            "clock_error_us",
            (lambda c: (lambda: c.clock.error(cluster.now)))(component),
        )
        for job in component.jobs():
            recorder.register(
                name,
                f"job.{job.name}.dispatches",
                (lambda j: (lambda: j.dispatch_count))(job),
            )

    def observer(slot, frame, deliveries, now_us):
        if slot.slot_index == cluster.schedule.slots_per_round - 1:
            recorder.capture(now_us)

    cluster.frame_observers.append(observer)
    return recorder
