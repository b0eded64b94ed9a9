"""Virtual networks — encapsulated overlay networks on the TT core.

Each DAS communicates over its own virtual network (VN), an encapsulated
overlay on the time-triggered physical network (§II-D).  The VN service
guarantees strong fault isolation between VNs of different DASs; in
particular the dedicated *virtual diagnostic network* introduces no probe
effect at network level.

In the simulation a VN owns

* a static routing table from producer ports to consumer ports,
* a per-slot bandwidth budget (messages a component may push per slot) —
  a *configuration parameter* whose misdimensioning is a job-borderline
  fault, and
* counters that make encapsulation testable (a VN never delivers into a
  foreign DAS's ports).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.components.ports import Message


@dataclass(frozen=True, slots=True)
class PortAddress:
    """Fully qualified port address ``job.port``."""

    job: str
    port: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.job}.{self.port}"


@dataclass(frozen=True, slots=True)
class VnLink:
    """One producer-to-consumers link in a virtual network."""

    source: PortAddress
    destinations: tuple[PortAddress, ...]


class VirtualNetwork:
    """Runtime routing state of one virtual network.

    Parameters
    ----------
    name:
        VN identifier (conventionally ``"vn-" + das``).
    das:
        The DAS this VN belongs to (``"diagnostic"`` for the diagnostic VN).
    links:
        Static routing table.
    slot_budget:
        Maximum number of messages one component may push into this VN in
        one of its TDMA slots.  Messages beyond the budget are dropped at
        the sender and counted (``tx_overflows``).
    """

    def __init__(
        self,
        name: str,
        das: str,
        links: tuple[VnLink, ...] = (),
        slot_budget: int = 16,
    ) -> None:
        if slot_budget < 1:
            raise ConfigurationError(
                f"slot_budget must be >= 1, got {slot_budget}"
            )
        self.name = name
        self.das = das
        self.slot_budget = slot_budget
        self._routes: dict[tuple[str, str], tuple[PortAddress, ...]] = {}
        for link in links:
            key = (link.source.job, link.source.port)
            if key in self._routes:
                raise ConfigurationError(
                    f"duplicate VN link source {link.source} in {name!r}"
                )
            self._routes[key] = link.destinations
        self.tx_overflows = 0
        #: Messages with at least one destination, counted by the cluster
        #: once per delivery of their frame (every receiving component and
        #: the sender's own loopback).
        self.messages_routed = 0
        #: Bumped whenever the routing table changes; observers (e.g. the
        #: detector's expected-source tables) key their caches on it.
        self.routes_version = 0

    # -- configuration ------------------------------------------------------

    def add_link(self, link: VnLink) -> None:
        key = (link.source.job, link.source.port)
        if key in self._routes:
            raise ConfigurationError(f"duplicate VN link source {link.source}")
        self._routes[key] = link.destinations
        self.routes_version += 1

    def sources(self) -> list[PortAddress]:
        return [PortAddress(j, p) for (j, p) in self._routes]

    def routes(self) -> dict[tuple[str, str], tuple[PortAddress, ...]]:
        """The routing table: ``(job, port)`` source to its destinations."""
        return dict(self._routes)

    def reconfigure_budget(self, slot_budget: int) -> None:
        """Update the bandwidth configuration (job-borderline repair)."""
        if slot_budget < 1:
            raise ConfigurationError(
                f"slot_budget must be >= 1, got {slot_budget}"
            )
        self.slot_budget = slot_budget

    # -- sending ------------------------------------------------------------

    def admit(self, messages: list[Message]) -> list[Message]:
        """Apply the per-slot bandwidth budget at the sending component.

        Returns the admitted prefix; the surplus is dropped and counted.
        """
        if len(messages) <= self.slot_budget:
            return messages
        self.tx_overflows += len(messages) - self.slot_budget
        return messages[: self.slot_budget]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualNetwork({self.name!r}, das={self.das!r}, "
            f"links={len(self._routes)})"
        )


def carrier_index(
    vns: Mapping[str, VirtualNetwork],
) -> dict[tuple[str, str], tuple[str, ...]]:
    """``(job, port)`` source to the names of the VNs carrying it.

    Names are in ``vns`` order.  A source no VN lists is not carried at
    all; a link without destinations is still carried.
    """
    index: dict[tuple[str, str], tuple[str, ...]] = {}
    for name, vn in vns.items():
        for source in vn.routes():
            index[source] = index.get(source, ()) + (name,)
    return index
