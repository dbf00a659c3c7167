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

from ifsec import refinement
from ifsec.core import State, UsageError, Value
from ifsec.models.common import (
    ModelBundle,
    buffer_alpha,
    compile_levels,
    contracts_spec,
    frame_contract,
    locked_update,
)
from ifsec.programs import Basic, Event

VARIANTS = ("secure", "queuing_mode", "port_id")

# The case study's topology: two cores with a scheduler each, three
# partitions, and one queuing channel from port ps of p11 to port pd of
# p21, carrying one message.
CPU_SCHEDULER = {"cpu1": "sched1", "cpu2": "sched2"}
PARTITION_SCHEDULER = {"p11": "sched1", "p12": "sched1", "p21": "sched2"}
PORT_PARTITION = {"ps": "p11", "pd": "p21"}
CHANNEL_SOURCE = {"ch1": "ps"}
CHANNEL_DEST = {"ch1": "pd"}
MESSAGES = ("m1",)


def build_arinc(variant: str = "secure", capacity: int = 1,
                budget: int | None = None) -> ModelBundle:
    """Build one of the partitioned-kernel bundles.

    `capacity` bounds every channel's buffer.  `budget` caps the states
    of each level's build.
    """
    if variant not in VARIANTS:
        raise UsageError(
            f"unknown variant {variant!r}; pick one of {', '.join(VARIANTS)}")
    if not 1 <= capacity <= 2:
        raise UsageError("capacity must be 1 or 2")

    cpus = tuple(sorted(CPU_SCHEDULER))
    scheds = tuple(sorted(CPU_SCHEDULER.values()))
    partitions = tuple(sorted(PARTITION_SCHEDULER))
    channels = tuple(sorted(CHANNEL_SOURCE))
    # The partition at each end of each channel.
    source = {ch: PORT_PARTITION[CHANNEL_SOURCE[ch]] for ch in channels}
    dest = {ch: PORT_PARTITION[CHANNEL_DEST[ch]] for ch in channels}
    queuing_mode = variant == "queuing_mode"
    port_id = variant == "port_id"

    def parts_on(cpu: str) -> tuple[str, ...]:
        return tuple(p for p in partitions
                     if PARTITION_SCHEDULER[p] == CPU_SCHEDULER[cpu])

    def cpu_of_partition(p: str) -> str:
        return next(cpu for cpu in cpus if p in parts_on(cpu))

    def init_events(cpu: str) -> tuple[Event, Event]:
        own = parts_on(cpu)
        sched = CPU_SCHEDULER[cpu]

        def some_idle(s: State) -> bool:
            return any(s[f"st.{p}"] == "idle" for p in own)

        def wake(s: State) -> dict[str, Value]:
            return {f"st.{p}": "ready" for p in own if s[f"st.{p}"] == "idle"}

        event = Event("Core_Init", some_idle, Basic(wake, "init"), sched)
        return event, event

    def schedule_events(cpu: str, p: str) -> tuple[Event, Event]:
        sched = CPU_SCHEDULER[cpu]
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
        sched = PARTITION_SCHEDULER[sender]

        def scheduled(s: State) -> bool:
            return s[f"cur.{sched}"] == sender

        def enqueue(s: State) -> dict[str, Value]:
            q = s[qvar]
            return {qvar: q + (msg,)} if len(q) < capacity else {}

        concrete_body = locked_update(lvar, cpu, qvar, ovar, enqueue, "enqueue")
        return (Event(label, scheduled, concrete_body, sender),
                Event(label, scheduled, Basic(enqueue, "enqueue"), sender))

    def recv_events(ch: str) -> tuple[Event, Event]:
        port = CHANNEL_DEST[ch]
        receiver = dest[ch]
        qvar, ovar, lvar = f"qbuf.{ch}", f"obuf.{ch}", f"qlock.{ch}"
        cpu = cpu_of_partition(receiver)
        sched = PARTITION_SCHEDULER[receiver]
        label = f"Recv_QMsg({port})"

        def scheduled(s: State) -> bool:
            return s[f"cur.{sched}"] == receiver

        def dequeue(s: State) -> dict[str, Value]:
            q = s[qvar]
            return {qvar: q[1:]} if q else {}

        concrete_body = locked_update(lvar, cpu, qvar, ovar, dequeue, "dequeue")
        return (Event(label, scheduled, concrete_body, receiver),
                Event(label, scheduled, Basic(dequeue, "dequeue"), receiver))

    events = {cpu: [init_events(cpu),
                    *(schedule_events(cpu, p) for p in parts_on(cpu))]
              for cpu in cpus}
    for ch in channels:
        src_owner = source[ch]
        src_cpu = cpu_of_partition(src_owner)
        for msg in MESSAGES:
            base = f"Send_QMsg({CHANNEL_SOURCE[ch]},{msg})"
            events[src_cpu].append(send_events(ch, msg, src_owner, base))
            if port_id:
                events[src_cpu].extend(
                    send_events(ch, msg, rogue, f"{base}@{rogue}")
                    for rogue in parts_on(src_cpu) if rogue != src_owner)
        events[cpu_of_partition(dest[ch])].append(recv_events(ch))

    abstract_vars: dict[str, Value] = {
        **{f"cur.{sched}": None for sched in scheds},
        **{f"st.{p}": "idle" for p in partitions},
        **{f"qbuf.{ch}": () for ch in channels}}
    concrete_vars = {**abstract_vars, **{f"obuf.{ch}": () for ch in channels},
                     **{f"qlock.{ch}": None for ch in channels}}

    incoming = {p: tuple(ch for ch in channels if dest[ch] == p)
                for p in partitions}
    outgoing = {p: tuple(ch for ch in channels if source[ch] == p)
                for p in partitions}

    def observe(queue_var: str):
        # each domain's variable names, formatted once
        current = {d: f"cur.{d}" for d in scheds}
        shown = {p: (f"st.{p}", *(f"{queue_var}.{ch}" for ch in incoming[p]))
                 for p in partitions}
        full = {p: tuple(f"qbuf.{ch}" for ch in outgoing[p] if queuing_mode)
                for p in partitions}

        def view(d: str, s: State) -> Value:
            if d in current:
                return s[current[d]]
            return (*[s[name] for name in shown[d]],
                    *[len(s[name]) == capacity for name in full[d]])

        return view

    domains = tuple(sorted(scheds + partitions))
    policy = {(d, d) for d in domains}
    policy |= {(PARTITION_SCHEDULER[p], p) for p in partitions}
    policy |= {(source[ch], dest[ch]) for ch in channels}

    concrete, abstract, zeta = compile_levels(
        cpus, events, (concrete_vars, abstract_vars),
        (observe("obuf"), observe("qbuf")), domains, policy, budget)

    def link():
        kept = tuple([f"cur.{sched}" for sched in scheds]
                     + [f"st.{p}" for p in partitions])
        buffers = tuple((f"qbuf.{ch}", f"obuf.{ch}", f"qlock.{ch}")
                        for ch in channels)
        alpha = buffer_alpha(
            cpus, kept, buffers,
            "abstract buffers match committed buffers; unlocked buffers are clean")
        pair = refinement.RefinementPair(concrete, abstract, alpha, zeta())
        return pair, _rely_guarantee(cpus, parts_on, channels)

    return ModelBundle(
        concrete=concrete,
        abstract=abstract,
        params=(("capacity", capacity), ("variant", variant)),
        link=link,
    )


def _rely_guarantee(cpus, parts_on, channels):
    """Core contracts: own scheduling state plus lock-guarded channel buffers."""
    locks = {f"qlock.{ch}": (f"qbuf.{ch}", f"obuf.{ch}") for ch in channels}
    return contracts_spec({
        cpu: frame_contract(
            cpu, owned=[f"pc.{cpu}", f"cur.{CPU_SCHEDULER[cpu]}",
                        *(f"st.{p}" for p in parts_on(cpu))],
            locks=locks)
        for cpu in cpus
    })
