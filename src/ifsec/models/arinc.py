"""Partitioned-kernel model: scheduled partitions with inter-partition channels.

Two processor cores each run a scheduler and a set of partitions. A
partition executes only while its scheduler has dispatched it. Queuing
channels carry messages from a source partition to a destination
partition through a bounded buffer; at the concrete level the buffer is
manipulated under a per-channel lock and observers see only the
committed copy, while the abstract level performs whole sends and
receives atomically.

Variants:

``secure``
    Channel state is visible only to the destination partition.

``queuing_mode``
    The source partition additionally sees whether the channel buffer is
    full right now, exposing the receiver's dequeue timing to the sender.

``port_id``
    A co-scheduled partition can invoke sends on a port it does not own,
    pushing messages across a channel the policy does not grant it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ifsec import refinement
from ifsec.core import ModelError, State, UsageError, Value
from ifsec.models import REGISTRY
from ifsec.models.common import (
    ModelBundle,
    buffer_alpha,
    contracts_spec,
    frame_contract,
    zeta_from_rule,
)
from ifsec.programs import (
    Basic,
    ConcurrentSystem,
    Event,
    compile_system,
    lock_acquire,
    seq,
)

VARIANTS = ("secure", "queuing_mode", "port_id")

NAMES = {
    "secure": "arinc",
    "queuing_mode": "arinc-queuing-mode",
    "port_id": "arinc-port-id",
}


@dataclass(frozen=True)
class ArincConfig:
    """Static topology: cores, schedulers, partitions, ports, channels."""

    cpu_scheduler: Mapping[str, str] = field(
        default_factory=lambda: {"cpu1": "sched1", "cpu2": "sched2"})
    partition_scheduler: Mapping[str, str] = field(
        default_factory=lambda: {"p11": "sched1", "p12": "sched1", "p21": "sched2"})
    port_partition: Mapping[str, str] = field(
        default_factory=lambda: {"ps": "p11", "pd": "p21"})
    channel_source: Mapping[str, str] = field(
        default_factory=lambda: {"ch1": "ps"})
    channel_dest: Mapping[str, str] = field(
        default_factory=lambda: {"ch1": "pd"})
    channel_capacity: Mapping[str, int] = field(
        default_factory=lambda: {"ch1": 1})
    messages: tuple[str, ...] = ("m1",)

    def validate(self) -> None:
        cpus = sorted(self.cpu_scheduler)
        scheds = sorted(self.cpu_scheduler.values())
        if not cpus:
            raise ModelError("at least one core is required")
        if len(cpus) > 2:
            raise ModelError("at most two cores keep the model explorable")
        if len(set(scheds)) != len(cpus):
            raise ModelError("each core needs its own scheduler")
        partitions = sorted(self.partition_scheduler)
        if not partitions:
            raise ModelError("at least one partition is required")
        if len(partitions) > 3:
            raise ModelError("at most three partitions keep the model explorable")
        for p, sched in self.partition_scheduler.items():
            if sched not in scheds:
                raise ModelError(f"partition {p!r} names unknown scheduler {sched!r}")
        for port, owner in self.port_partition.items():
            if owner not in partitions:
                raise ModelError(f"port {port!r} names unknown partition {owner!r}")
        channels = sorted(self.channel_source)
        if sorted(self.channel_dest) != channels or sorted(self.channel_capacity) != channels:
            raise ModelError("channel source, dest and capacity must name the same channels")
        if len(channels) > 2:
            raise ModelError("at most two channels keep the model explorable")
        for ch in channels:
            src, dest = self.channel_source[ch], self.channel_dest[ch]
            for port in (src, dest):
                if port not in self.port_partition:
                    raise ModelError(f"channel {ch!r} names unknown port {port!r}")
            if src == dest:
                raise ModelError(f"channel {ch!r} must join two distinct ports")
            if not 1 <= self.channel_capacity[ch] <= 2:
                raise ModelError(f"channel {ch!r} capacity must be 1 or 2")
        if not 1 <= len(self.messages) <= 2:
            raise ModelError("one or two distinct messages keep the model explorable")
        if len(set(self.messages)) != len(self.messages):
            raise ModelError("messages must be distinct")


def build_arinc(config: ArincConfig | None = None, variant: str = "secure",
                capacity: int | None = None,
                budget: int | None = None) -> ModelBundle:
    """Build one of the partitioned-kernel bundles.

    `capacity` overrides every channel's buffer bound; the topology
    itself is part of :class:`ArincConfig`.  `budget` caps the states of
    each level's build.
    """
    if variant not in VARIANTS:
        raise UsageError(
            f"unknown variant {variant!r}; pick one of {', '.join(VARIANTS)}")
    cfg = config if config is not None else ArincConfig()
    if capacity is not None:
        if not 1 <= capacity <= 2:
            raise UsageError("capacity must be 1 or 2")
        cfg = ArincConfig(
            cpu_scheduler=cfg.cpu_scheduler,
            partition_scheduler=cfg.partition_scheduler,
            port_partition=cfg.port_partition,
            channel_source=cfg.channel_source,
            channel_dest=cfg.channel_dest,
            channel_capacity={ch: capacity for ch in cfg.channel_capacity},
            messages=cfg.messages,
        )
    cfg.validate()

    cpus = tuple(sorted(cfg.cpu_scheduler))
    sched_of_cpu = dict(cfg.cpu_scheduler)
    scheds = tuple(sorted(sched_of_cpu.values()))
    partitions = tuple(sorted(cfg.partition_scheduler))
    channels = tuple(sorted(cfg.channel_source))
    owner = dict(cfg.port_partition)
    queuing_mode = variant == "queuing_mode"
    port_id = variant == "port_id"

    def parts_on(cpu: str) -> tuple[str, ...]:
        return tuple(p for p in partitions
                     if cfg.partition_scheduler[p] == sched_of_cpu[cpu])

    def cpu_of_partition(p: str) -> str:
        for cpu in cpus:
            if p in parts_on(cpu):
                return cpu
        raise ModelError(f"partition {p!r} runs on no core")

    def cap(ch: str) -> int:
        return cfg.channel_capacity[ch]

    def init_events(cpu: str) -> tuple[Event, Event]:
        own = parts_on(cpu)
        sched = sched_of_cpu[cpu]

        def some_idle(s: State) -> bool:
            return any(s[f"st.{p}"] == "idle" for p in own)

        def wake(s: State) -> dict[str, Value]:
            return {f"st.{p}": "ready" for p in own if s[f"st.{p}"] == "idle"}

        event = Event("Core_Init", some_idle, Basic(wake, "init"), sched)
        return event, event

    def schedule_events(cpu: str, p: str) -> tuple[Event, Event]:
        sched = sched_of_cpu[cpu]
        cur = f"cur.{sched}"

        def dispatchable(s: State) -> bool:
            return s[f"st.{p}"] != "idle"

        def dispatch(s: State) -> dict[str, Value]:
            out: dict[str, Value] = {cur: p, f"st.{p}": "run"}
            old = s[cur]
            if old is not None and old != p:
                out[f"st.{old}"] = "ready"
            return out

        event = Event(f"Schedule({p})", dispatchable, Basic(dispatch, "dispatch"), sched)
        return event, event

    def send_events(ch: str, msg: str, sender: str,
                    label: str) -> tuple[Event, Event]:
        qvar, ovar, lvar = f"qbuf.{ch}", f"obuf.{ch}", f"qlock.{ch}"
        cpu = cpu_of_partition(sender)
        sched = cfg.partition_scheduler[sender]

        def scheduled(s: State) -> bool:
            return s[f"cur.{sched}"] == sender

        def enqueue(s: State) -> dict[str, Value]:
            q = s[qvar]
            return {qvar: q + (msg,)} if len(q) < cap(ch) else {}

        def publish(s: State) -> dict[str, Value]:
            return {lvar: None, ovar: s[qvar]}

        concrete_body = seq(
            lock_acquire(lvar, cpu),
            Basic(enqueue, "enqueue"),
            Basic(publish, "unlock"),
        )
        return (Event(label, scheduled, concrete_body, sender),
                Event(label, scheduled, Basic(enqueue, "enqueue"), sender))

    def recv_events(ch: str) -> tuple[Event, Event]:
        port = cfg.channel_dest[ch]
        receiver = owner[port]
        qvar, ovar, lvar = f"qbuf.{ch}", f"obuf.{ch}", f"qlock.{ch}"
        cpu = cpu_of_partition(receiver)
        sched = cfg.partition_scheduler[receiver]
        label = f"Recv_QMsg({port})"

        def scheduled(s: State) -> bool:
            return s[f"cur.{sched}"] == receiver

        def dequeue(s: State) -> dict[str, Value]:
            q = s[qvar]
            return {qvar: q[1:]} if q else {}

        def publish(s: State) -> dict[str, Value]:
            return {lvar: None, ovar: s[qvar]}

        concrete_body = seq(
            lock_acquire(lvar, cpu),
            Basic(dequeue, "dequeue"),
            Basic(publish, "unlock"),
        )
        return (Event(label, scheduled, concrete_body, receiver),
                Event(label, scheduled, Basic(dequeue, "dequeue"), receiver))

    concrete_pool: dict[str, list[Event]] = {cpu: [] for cpu in cpus}
    abstract_pool: dict[str, list[Event]] = {cpu: [] for cpu in cpus}

    def add(cpu: str, pair: tuple[Event, Event]) -> None:
        concrete_pool[cpu].append(pair[0])
        abstract_pool[cpu].append(pair[1])

    for cpu in cpus:
        add(cpu, init_events(cpu))
        for p in parts_on(cpu):
            add(cpu, schedule_events(cpu, p))
    for ch in channels:
        src_owner = owner[cfg.channel_source[ch]]
        src_cpu = cpu_of_partition(src_owner)
        for msg in cfg.messages:
            base = f"Send_QMsg({cfg.channel_source[ch]},{msg})"
            add(src_cpu, send_events(ch, msg, src_owner, base))
            if port_id:
                for rogue in parts_on(src_cpu):
                    if rogue != src_owner:
                        add(src_cpu, send_events(ch, msg, rogue, f"{base}@{rogue}"))
        add(cpu_of_partition(owner[cfg.channel_dest[ch]]), recv_events(ch))

    concrete_vars: dict[str, Value] = {}
    abstract_vars: dict[str, Value] = {}
    for sched in scheds:
        concrete_vars[f"cur.{sched}"] = None
        abstract_vars[f"cur.{sched}"] = None
    for p in partitions:
        concrete_vars[f"st.{p}"] = "idle"
        abstract_vars[f"st.{p}"] = "idle"
    for ch in channels:
        concrete_vars[f"qbuf.{ch}"] = ()
        concrete_vars[f"obuf.{ch}"] = ()
        concrete_vars[f"qlock.{ch}"] = None
        abstract_vars[f"qbuf.{ch}"] = ()

    incoming = {p: tuple(ch for ch in channels if owner[cfg.channel_dest[ch]] == p)
                for p in partitions}
    outgoing = {p: tuple(ch for ch in channels if owner[cfg.channel_source[ch]] == p)
                for p in partitions}

    def observe(queue_var: str):
        def view(d: str, s: State) -> Value:
            if d in scheds:
                return s[f"cur.{d}"]
            parts: list[Value] = [s[f"st.{d}"]]
            for ch in incoming[d]:
                parts.append(s[f"{queue_var}.{ch}"])
            if queuing_mode:
                for ch in outgoing[d]:
                    parts.append(len(s[f"qbuf.{ch}"]) == cap(ch))
            return tuple(parts)

        return view

    domains = tuple(sorted(scheds + partitions))
    policy = {(d, d) for d in domains}
    policy |= {(cfg.partition_scheduler[p], p) for p in partitions}
    policy |= {(owner[cfg.channel_source[ch]], owner[cfg.channel_dest[ch]])
               for ch in channels}

    concrete = compile_system(
        ConcurrentSystem(cpus, {c: tuple(v) for c, v in concrete_pool.items()},
                         concrete_vars),
        domains, policy, observe("obuf"), budget)
    abstract = compile_system(
        ConcurrentSystem(cpus, {c: tuple(v) for c, v in abstract_pool.items()},
                         abstract_vars),
        domains, policy, observe("qbuf"), budget)

    def link():
        kept = tuple([f"cur.{sched}" for sched in scheds]
                     + [f"st.{p}" for p in partitions])
        buffers = tuple((f"qbuf.{ch}", f"obuf.{ch}", f"qlock.{ch}")
                        for ch in channels)
        alpha = buffer_alpha(
            cpus, kept, buffers,
            "abstract buffers match committed buffers; unlocked buffers are clean")

        def rule(comp: str, event: str, step: str):
            if step in ("lock", "enqueue", "dequeue"):
                return refinement.TAU
            if step == "unlock":
                return "enqueue" if event.startswith("Send_QMsg") else "dequeue"
            return None

        pair = refinement.RefinementPair(
            concrete, abstract, alpha, zeta_from_rule(concrete, abstract, rule))
        return pair, _rely_guarantee(cpus, sched_of_cpu, parts_on, channels)

    return ModelBundle(
        name=NAMES[variant],
        description=REGISTRY[NAMES[variant]].description,
        concrete=concrete,
        abstract=abstract,
        params=(("capacity", min(cap(ch) for ch in channels)), ("variant", variant)),
        link=link,
    )


def _rely_guarantee(cpus, sched_of_cpu, parts_on, channels):
    """Core contracts: own scheduling state plus lock-guarded channel buffers."""
    locks = {f"qlock.{ch}": (f"qbuf.{ch}", f"obuf.{ch}") for ch in channels}
    return contracts_spec({
        cpu: frame_contract(
            cpu, owned=[f"pc.{cpu}", f"cur.{sched_of_cpu[cpu]}",
                        *(f"st.{p}" for p in parts_on(cpu))],
            locks=locks)
        for cpu in cpus
    })
