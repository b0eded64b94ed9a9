"""Jobs — the basic units of work and the FRUs for software faults.

A job is "the basic unit of work that employs a virtual network for
exchanging information with other jobs" (§II-A).  In the maintenance-
oriented fault model a job is the FCR *and* the FRU for software design
faults (§III-A): replacing (updating) a job is the maintenance action for a
job-inherent software fault.

A job here is a small state machine: at every dispatch it reads its input
ports, runs a behaviour function, and emits values on its output ports.
Fault hooks allow the injector to wrap the behaviour (software design
faults), perturb sensor readings (transducer faults) or suppress the job
entirely (job crash / partition loss).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.components.ports import (
    Message,
    Port,
    PortDirection,
    PortSpec,
)


@dataclass(slots=True)
class DispatchContext:
    """Everything a behaviour function may look at during one dispatch."""

    now_us: int
    dispatch_index: int
    inputs: Mapping[str, Port]
    state: dict[str, Any]
    sensors: Mapping[str, float]


# A behaviour maps a dispatch context to {output port name: value}.
Behaviour = Callable[[DispatchContext], Mapping[str, Any]]


def counter_behaviour(step: float = 1.0, start: float = 0.0) -> Behaviour:
    """A simple deterministic producer: emits an arithmetic ramp on every
    OUT port.  Handy default workload for tests and benches."""

    def behaviour(ctx: DispatchContext) -> dict[str, Any]:
        value = start + step * ctx.dispatch_index
        return {"*": value}

    return behaviour


def sine_behaviour(
    amplitude: float = 1.0, period_dispatches: int = 50, phase: float = 0.0
) -> Behaviour:
    """A bounded periodic producer: emits a sine sample on every OUT port.

    Stays well inside a value spec like ``ValueSpec(-2*amplitude,
    2*amplitude)``, so healthy operation never raises value symptoms.
    """
    import math

    if period_dispatches < 2:
        raise ConfigurationError("period_dispatches must be >= 2")

    def behaviour(ctx: DispatchContext) -> dict[str, Any]:
        angle = 2.0 * math.pi * ctx.dispatch_index / period_dispatches + phase
        return {"*": amplitude * math.sin(angle)}

    return behaviour


def time_sine_behaviour(
    amplitude: float = 1.0,
    period_us: int = 1_000_000,
    phase: float = 0.0,
    quantum_us: int = 1,
) -> Behaviour:
    """A sine producer driven by *global time* instead of dispatch count.

    Replica-deterministic: with ``quantum_us`` set to the TDMA round
    length, replicas dispatched anywhere within the same round emit
    identical values even if one missed earlier dispatches — exactly the
    property TMR replication relies on (replicas act on the same global
    state of the sparse time base).
    """
    import math

    if period_us <= 0:
        raise ConfigurationError("period_us must be positive")
    if quantum_us <= 0:
        raise ConfigurationError("quantum_us must be positive")

    def behaviour(ctx: DispatchContext) -> dict[str, Any]:
        t = (ctx.now_us // quantum_us) * quantum_us
        angle = 2.0 * math.pi * t / period_us + phase
        return {"*": amplitude * math.sin(angle)}

    return behaviour


def drain_inputs(
    behaviour: Behaviour | None = None, ports: tuple[str, ...] | None = None
) -> Behaviour:
    """Wrap a behaviour so each dispatch first drains event input queues.

    A correctly dimensioned consumer empties its queues at least as fast
    as they fill; a consumer that does *not* drain makes any finite queue
    overflow eventually — which is the job-borderline manifestation, so
    healthy jobs should use this wrapper on their event ports.
    """
    from repro.components.ports import PortKind

    def wrapped(ctx: DispatchContext) -> Mapping[str, Any]:
        for name, port in ctx.inputs.items():
            if ports is not None and name not in ports:
                continue
            if port.spec.kind is PortKind.EVENT:
                ctx.state.setdefault("consumed", []).extend(
                    m.value for m in port.drain()
                )
                # Bound the retained history.
                consumed = ctx.state["consumed"]
                if len(consumed) > 64:
                    del consumed[: len(consumed) - 64]
        return behaviour(ctx) if behaviour is not None else {}

    return wrapped


def sensor_relay_behaviour(sensor: str, out_port: str) -> Behaviour:
    """Relay a sensor reading to an output port (typical I/O job)."""

    def behaviour(ctx: DispatchContext) -> dict[str, Any]:
        return {out_port: ctx.sensors.get(sensor, 0.0)}

    return behaviour


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Static description of one job."""

    name: str
    das: str
    ports: tuple[PortSpec, ...]
    behaviour: Behaviour | None = None
    safety_critical: bool = False
    version: str = "1.0"

    def port(self, name: str) -> PortSpec:
        for spec in self.ports:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"job {self.name!r} has no port {name!r}")


class Job:
    """Runtime instance of a job inside a partition."""

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.das = spec.das
        self.ports: dict[str, Port] = {
            p.name: Port(p, spec.name) for p in spec.ports
        }
        # The port set and each port's direction are fixed for the life of
        # the job (maintenance swaps a port's *spec* in place, never the
        # Port object), so the direction partitions and the dispatch input
        # mapping are computed once instead of per dispatch.
        self._out_ports: tuple[Port, ...] = tuple(
            p
            for p in self.ports.values()
            if p.spec.direction is PortDirection.OUT
        )
        self._in_ports: tuple[Port, ...] = tuple(
            p
            for p in self.ports.values()
            if p.spec.direction is PortDirection.IN
        )
        self._inputs: dict[str, Port] = {
            p.spec.name: p for p in self._in_ports
        }
        self.state: dict[str, Any] = {}
        self.sensors: dict[str, float] = {}
        self.dispatch_count = 0
        self.version = spec.version
        # --- fault hooks (managed by repro.faults) -----------------------
        self.behaviour_wrapper: Callable[[DispatchContext, Mapping[str, Any]], Mapping[str, Any]] | None = None
        self.sensor_transform: Callable[[str, float], float] | None = None
        self.suppressed_until_us: int = -1
        self.crashed: bool = False
        self.update_count = 0
        # --- job-internal diagnostic checks (model-based diagnosis,
        # §IV-B.1): each callable returns None when plausible, else a short
        # description of the implausibility.  Evaluated by the detection
        # service; this is the "job internal information" that separates
        # transducer faults from software faults.
        self.internal_checks: list[Callable[["Job", int], str | None]] = []

    # -- port helpers -----------------------------------------------------

    def out_ports(self) -> list[Port]:
        return list(self._out_ports)

    def in_ports(self) -> list[Port]:
        return list(self._in_ports)

    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise ConfigurationError(
                f"job {self.name!r} has no port {name!r}"
            ) from None

    # -- execution ----------------------------------------------------------

    def active(self, now_us: int) -> bool:
        """True when the job is currently executing (not crashed/suppressed)."""
        return not self.crashed and now_us >= self.suppressed_until_us

    def read_sensors(self) -> dict[str, float]:
        """Sensor values as seen by the job, after any transducer fault."""
        if self.sensor_transform is None:
            return dict(self.sensors)
        return {
            name: self.sensor_transform(name, value)
            for name, value in self.sensors.items()
        }

    def dispatch(self, now_us: int) -> list[Message]:
        """Run one dispatch; returns the emitted messages.

        A suppressed or crashed job emits nothing (omission failure at its
        ports).  The behaviour's outputs are routed to OUT ports; the
        pseudo-port ``"*"`` broadcasts a value on every OUT port.
        """
        if self.crashed or now_us < self.suppressed_until_us:
            return []  # inactive (see active())
        seq = self.dispatch_count + 1
        self.dispatch_count = seq
        ctx = DispatchContext(
            now_us, seq - 1, self._inputs, self.state, self.read_sensors()
        )
        behaviour = self.spec.behaviour
        outputs: Mapping[str, Any] = {} if behaviour is None else behaviour(ctx)
        if self.behaviour_wrapper is not None:
            outputs = self.behaviour_wrapper(ctx, outputs)
        name = self.name
        messages: list[Message] = []
        for port_name, value in outputs.items():
            if port_name == "*":
                # OUT ports by construction, and directions never change.
                for port in self._out_ports:
                    port.messages_out += 1
                    messages.append(
                        Message(name, port.spec.name, value, seq, now_us)
                    )
                continue
            port = self.port(port_name)
            if port.spec.direction is not PortDirection.OUT:
                raise ConfigurationError(
                    f"behaviour of {name!r} wrote to IN port "
                    f"{port.spec.name!r}"
                )
            port.messages_out += 1
            messages.append(Message(name, port.spec.name, value, seq, now_us))
        return messages

    # -- maintenance hooks --------------------------------------------------

    def update_software(self, version: str, behaviour: Behaviour | None = None) -> None:
        """Install a corrected job version (Fig. 11: software-fault action).

        Clears any behaviour-level fault hook, emulating that the corrected
        release no longer contains the design fault.
        """
        self.version = version
        self.update_count += 1
        self.behaviour_wrapper = None
        if behaviour is not None:
            self.spec = JobSpec(
                name=self.spec.name,
                das=self.spec.das,
                ports=self.spec.ports,
                behaviour=behaviour,
                safety_critical=self.spec.safety_critical,
                version=version,
            )

    def replace_transducer(self) -> None:
        """Replace the job's sensor/actuator (Fig. 11: transducer action)."""
        self.sensor_transform = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.name!r}, das={self.das!r}, v{self.version})"
