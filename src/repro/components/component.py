"""DECOS components — the FRUs/FCRs for hardware faults.

A component is a node computer implemented as a system-on-a-chip with
shared physical resources (§II-E).  It is vertically structured into a
safety-critical and a non safety-critical subsystem and horizontally into
the communication-controller layer (realising the core and high-level
services) and the application layer hosting one job per partition (§II-C,
Fig. 2).

Because processor, power supply and quartz are shared, a component-internal
hardware fault affects *all* hosted jobs regardless of their DAS, while
software faults stay inside their partition — the structural property the
maintenance-oriented classification leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.components.job import Job
from repro.components.partition import Partition, PartitionSpec
from repro.components.ports import Message
from repro.components.virtual_network import VirtualNetwork
from repro.tta.clock import LocalClock
from repro.tta.frames import Frame
from repro.tta.tdma import SlotPosition


@dataclass(frozen=True, slots=True)
class ComponentSpec:
    """Static description of one component.

    Attributes
    ----------
    name:
        Component identifier, unique within the cluster.
    partitions:
        Partition specifications; cpu shares must sum to at most 1.
    position:
        Physical mounting position (metres, arbitrary origin) — used for
        the spatial-proximity dimension of fault patterns (EMI zones).
    drift_ppm:
        Nominal quartz drift.
    """

    name: str
    partitions: tuple[PartitionSpec, ...] = ()
    position: tuple[float, float] = (0.0, 0.0)
    drift_ppm: float = 0.0

    def __post_init__(self) -> None:
        names = [p.name for p in self.partitions]
        if len(names) != len(set(names)):
            raise ConfigurationError(
                f"duplicate partition names on component {self.name!r}"
            )
        jobs = [p.job.name for p in self.partitions]
        if len(jobs) != len(set(jobs)):
            raise ConfigurationError(
                f"duplicate job names on component {self.name!r}"
            )
        total_share = sum(p.cpu_share for p in self.partitions)
        if total_share > 1.0 + 1e-9:
            raise ConfigurationError(
                f"partition cpu shares on {self.name!r} sum to "
                f"{total_share:.3f} > 1"
            )


@dataclass(slots=True)
class HardwareState:
    """Mutable hardware fault state of one component (managed by
    :mod:`repro.faults`)."""

    transient_outage_until_us: int = -1
    permanently_failed: bool = False
    babbling: bool = False
    corrupt_tx_bits: int = 0  # >0: internal fault flips bits at the source
    timing_offset_us: float = 0.0  # quartz/driver fault beyond sync reach
    restarts: int = 0
    replacements: int = 0

    def operational(self, now_us: int) -> bool:
        """True when the shared hardware currently executes (a component
        runs exactly when its hardware does).

        The receiver loops of ``Cluster._process_deliveries`` and
        ``DetectionService._on_slot`` inline this test; change all three
        together.
        """
        return not self.permanently_failed and now_us >= self.transient_outage_until_us


class Component:
    """Runtime instance of a component in a cluster."""

    def __init__(self, spec: ComponentSpec, rng=None) -> None:
        self.spec = spec
        self.name = spec.name
        self.position = spec.position
        self.partitions: dict[str, Partition] = {
            p.name: Partition(p) for p in spec.partitions
        }
        # Partition set is fixed after construction (maintenance swaps job
        # specs in place), so per-slot job iteration and by-name lookup run
        # off precomputed tables.
        self._job_items: tuple[tuple[str, Job], ...] = tuple(
            (p.job.name, p.job) for p in self.partitions.values()
        )
        self._jobs_by_name: dict[str, Job] = dict(self._job_items)
        self.clock = LocalClock(drift_ppm=spec.drift_ppm, rng=rng)
        self.hardware = HardwareState()
        #: Incremented on every FRU replacement; fault effects scheduled
        #: against the old unit check this and no longer apply.
        self.hardware_generation = 0
        self.frames_sent = 0
        self.frames_missed = 0

    # -- structure ----------------------------------------------------------

    def jobs(self) -> list[Job]:
        return [job for _, job in self._job_items]

    def job(self, name: str) -> Job:
        job = self._jobs_by_name.get(name)
        if job is None:
            raise ConfigurationError(
                f"component {self.name!r} hosts no job {name!r}"
            )
        return job

    def das_names(self) -> frozenset[str]:
        """All DASs with at least one job on this component."""
        return frozenset(p.das for p in self.partitions.values())

    def safety_critical_partitions(self) -> list[Partition]:
        return [p for p in self.partitions.values() if p.safety_critical]

    def non_safety_critical_partitions(self) -> list[Partition]:
        return [p for p in self.partitions.values() if not p.safety_critical]

    # -- execution ----------------------------------------------------------

    def build_frame(
        self,
        slot: SlotPosition,
        now_us: int,
        vns: dict[str, VirtualNetwork],
        carriers: dict[tuple[str, str], tuple[str, ...]],
        membership: frozenset[str] = frozenset(),
    ) -> Frame | None:
        """Assemble the frame for this component's slot occurrence.

        Every hosted job is dispatched once, in partition order, and its
        messages are sorted into the VNs that carry them.  ``carriers`` is
        ``carrier_index(vns)``, which the cluster compiles once per route
        change.

        Returns None when the component is silent (outage / permanent
        failure): the fail-silent manifestation every receiver detects as
        an omission.  Its jobs are then not dispatched at all (all fail
        together: the correlated-failure signature of an internal hardware
        fault).
        """
        hardware = self.hardware
        if not hardware.operational(now_us):
            self.frames_missed += 1
            return None
        by_vn: dict[str, list[Message]] = {}
        for _name, job in self._job_items:
            for msg in job.dispatch(now_us):
                for vn_name in carriers.get((msg.source_job, msg.port), ()):
                    queued = by_vn.get(vn_name)
                    if queued is None:
                        by_vn[vn_name] = [msg]
                    else:
                        queued.append(msg)
        payload: dict[str, tuple[Message, ...]] = {}
        if by_vn:
            for vn_name, vn in vns.items():
                queued = by_vn.get(vn_name)
                if queued:
                    # admit() applies the per-slot bandwidth budget
                    payload[vn_name] = tuple(vn.admit(queued))
        send_time = (
            slot.start_us + self.clock.error(now_us) + hardware.timing_offset_us
        )
        frame = Frame(self.name, slot, send_time, payload, True, 0, membership)
        if hardware.corrupt_tx_bits > 0:
            frame = frame.corrupted(hardware.corrupt_tx_bits)
        self.frames_sent += 1
        return frame

    # -- maintenance actions ------------------------------------------------

    def restart(self, now_us: int) -> None:
        """Restart with state synchronisation — recovery from external
        transient faults (§III-C)."""
        self.hardware.transient_outage_until_us = min(
            self.hardware.transient_outage_until_us, now_us
        )
        self.hardware.babbling = False
        self.hardware.corrupt_tx_bits = 0
        self.clock.resynchronise(now_us)
        self.hardware.restarts += 1

    def replace(self, now_us: int) -> None:
        """Replace the FRU — the maintenance action for internal hardware
        faults (Fig. 11).  Produces a factory-fresh hardware state."""
        self.hardware = HardwareState(replacements=self.hardware.replacements + 1)
        self.hardware_generation += 1
        self.clock = LocalClock(drift_ppm=self.spec.drift_ppm)
        self.clock.resynchronise(now_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Component({self.name!r}, partitions={len(self.partitions)}, "
            f"das={sorted(self.das_names())})"
        )
