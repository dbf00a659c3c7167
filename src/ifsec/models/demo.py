"""Message-ring demo: threads exchanging messages through locked queues.

Threads t1..tN sit on a ring; each may send messages to its successor's
queue and receive from its own. A queue is a bounded buffer guarded by a
lock, and each thread observes only the committed content of its own
queue (published at unlock time). The abstract level performs a whole
send or receive as one atomic update.

Variants:

``secure``
    Sends go only to the ring successor, which the flow policy permits.

``insecure_counter``
    Every thread may address every other thread. A shared per-queue
    attempt counter is bumped before the policy outcome is decided and
    rolled back on denial; the observable counter leaks denied attempts
    to threads the sender may not influence.

``insecure_fullstatus``
    As ``secure``, but each thread additionally sees whether its
    outgoing queue is full right now, exposing the receiver's uncommitted
    dequeue progress to the sender.
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
from ifsec.programs import Basic, Event, seq

VARIANTS = ("secure", "insecure_counter", "insecure_fullstatus")


def build_demo(threads: int = 3, capacity: int = 1, messages: int = 1,
               variant: str = "secure", budget: int | None = None) -> ModelBundle:
    """Build one of the message-ring bundles.

    `threads`, `capacity` and `messages` bound the ring size, the queue
    length and the message alphabet; they are kept small because every
    checker here enumerates states or traces explicitly.  `budget` caps
    the states of each level's build.
    """
    if variant not in VARIANTS:
        raise UsageError(
            f"unknown demo variant {variant!r}; pick one of {', '.join(VARIANTS)}")
    if not 2 <= threads <= 3:
        raise UsageError("threads must be 2 or 3")
    if not 1 <= capacity <= 2:
        raise UsageError("capacity must be 1 or 2")
    if not 1 <= messages <= 2:
        raise UsageError("messages must be 1 or 2")

    names = tuple(f"t{i}" for i in range(1, threads + 1))
    succ = {names[i]: names[(i + 1) % threads] for i in range(threads)}
    msgs = tuple(f"m{i}" for i in range(1, messages + 1))
    counter = variant == "insecure_counter"
    fullstatus = variant == "insecure_fullstatus"

    def push(queue: tuple, item: str) -> tuple:
        return queue + (item,) if len(queue) < capacity else queue

    def always(state: State) -> bool:
        return True

    def send_events(sender: str, target: str, msg: str) -> tuple[Event, Event]:
        qvar, ovar, lvar = f"que.{target}", f"obq.{target}", f"lock.{target}"
        label = f"send({target},{msg})"

        def enqueue(s: State) -> dict[str, Value]:
            return {qvar: push(s[qvar], msg)}

        concrete_body = locked_update(lvar, sender, qvar, ovar, enqueue,
                                      "enqueue")
        return (Event(label, always, concrete_body, sender),
                Event(label, always, Basic(enqueue, "send"), sender))

    def counter_send_events(sender: str, target: str, msg: str) -> tuple[Event, Event]:
        qvar, ovar, lvar = f"que.{target}", f"obq.{target}", f"lock.{target}"
        cvar = f"cnt.{target}"
        label = f"send({target},{msg})"
        allowed = succ[sender] == target

        def incr(s: State) -> dict[str, Value]:
            return {cvar: min(s[cvar] + 1, 2)}

        def decr(s: State) -> dict[str, Value]:
            return {cvar: max(s[cvar] - 1, 0)}

        def enqueue(s: State) -> dict[str, Value]:
            return {qvar: push(s[qvar], msg)}

        def commit(s: State) -> dict[str, Value]:
            return {qvar: push(s[qvar], msg), cvar: min(s[cvar] + 1, 2)}

        def skip(s: State) -> dict[str, Value]:
            return {}

        if allowed:
            concrete_body = seq(
                Basic(incr, "incr"),
                locked_update(lvar, sender, qvar, ovar, enqueue, "enqueue"),
            )
            abstract_body = Basic(commit, "send")
        else:
            concrete_body = seq(Basic(incr, "incr"), Basic(decr, "decr"))
            abstract_body = Basic(skip, "skip")
        return (Event(label, always, concrete_body, sender),
                Event(label, always, abstract_body, sender))

    def recv_events(owner: str) -> tuple[Event, Event]:
        qvar, ovar, lvar = f"que.{owner}", f"obq.{owner}", f"lock.{owner}"

        def dequeue(s: State) -> dict[str, Value]:
            return {qvar: s[qvar][1:]} if s[qvar] else {}

        concrete_body = locked_update(lvar, owner, qvar, ovar, dequeue,
                                      "dequeue")
        return (Event("recv", always, concrete_body, owner),
                Event("recv", always, Basic(dequeue, "recv"), owner))

    make = counter_send_events if counter else send_events
    events = {}
    for t in names:
        targets = sorted(u for u in names if u != t) if counter else [succ[t]]
        events[t] = (*(make(t, u, m) for u in targets for m in msgs),
                     recv_events(t))

    abstract_vars: dict[str, Value] = {f"que.{t}": () for t in names}
    if counter:
        abstract_vars.update({f"cnt.{t}": 0 for t in names})
    concrete_vars = {**abstract_vars, **{f"obq.{t}": () for t in names},
                     **{f"lock.{t}": None for t in names}}

    def observe(queue: str):
        # each domain's variable names, formatted once
        own = {d: f"{queue}.{d}" for d in names}
        other = {d: f"cnt.{d}" if counter else f"que.{succ[d]}" for d in names}

        def view(d: str, s: State) -> Value:
            if counter:
                return (s[own[d]], s[other[d]])
            if fullstatus:
                return (s[own[d]], len(s[other[d]]) == capacity)
            return s[own[d]]

        return view

    policy = {(t, t) for t in names} | {(t, succ[t]) for t in names}

    concrete, abstract, zeta = compile_levels(
        names, events, (concrete_vars, abstract_vars),
        (observe("obq"), observe("que")), names, policy, budget)

    def link():
        alpha = buffer_alpha(
            names, [f"cnt.{t}" for t in names if counter],
            [(f"que.{t}", f"obq.{t}", f"lock.{t}") for t in names],
            "abstract queues match committed queues; unlocked queues are clean")
        pair = refinement.RefinementPair(concrete, abstract, alpha, zeta())
        return pair, _rely_guarantee(names)

    return ModelBundle(
        concrete=concrete,
        abstract=abstract,
        params=(("threads", threads), ("capacity", capacity),
                ("messages", messages), ("variant", variant)),
        link=link,
    )


def _rely_guarantee(names: tuple[str, ...]):
    """Lock-discipline contracts: each thread owns its pc, shares the
    counters, and writes a queue only while holding its lock."""
    counters = [f"cnt.{u}" for u in names]
    locks = {f"lock.{u}": (f"que.{u}", f"obq.{u}") for u in names}
    return contracts_spec({
        t: frame_contract(t, owned=[f"pc.{t}"], shared=counters, locks=locks)
        for t in names
    })
