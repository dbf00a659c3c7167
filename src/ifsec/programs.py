"""Event-handler programs compiled to explicit interleaving machines.

A concurrent system is a set of components, each with a pool of guarded
event handlers over a shared variable state.  Handlers are small programs
whose atomic steps carry labels; the compiler produces the explicit product
machine in which scheduling is purely nondeterministic: at every state any
component may invoke an enabled event or advance its in-flight handler by
one atomic step.  An invoked handler runs to completion (interleaved with
other components); it is never abandoned.

Compiled action labels follow `<component>/<event-label>/<step-label>`,
with `invoke` as the reserved step label for event invocation.  When an
event resolves its domain from the invocation state, the resolved domain is
baked into the label (`<component>/<event-label>@<domain>/<step-label>`) so
the action-to-domain map stays a static function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .core import (
    ActionId,
    InfoFlowConfig,
    ModelError,
    SecureSystem,
    State,
    Value,
    build_machine,
)

#: Partial state update: maps a state to the variable assignments to apply.
Update = Callable[[State], Mapping[str, Value]]
Predicate = Callable[[State], bool]

#: Reserved step label for event invocation.
INVOKE = "invoke"

#: Value of a component's program-counter variable when it is idle.
IDLE = "-"

_ATOMIC_STEP_CEILING = 1000


class _Done:
    """Terminal program; a singleton."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Done"


Done = _Done()


@dataclass(frozen=True)
class Basic:
    """One atomic deterministic update."""

    update: Update
    label: str


@dataclass(frozen=True)
class Atomic:
    """One atomic set-valued update (internal nondeterminism)."""

    relation: Callable[[State], Iterable[Mapping[str, Value]]]
    label: str


@dataclass(frozen=True)
class Seq:
    first: "Prog"
    rest: "Prog"


@dataclass(frozen=True)
class Cond:
    pred: Predicate
    then: "Prog"
    orelse: "Prog"


@dataclass(frozen=True)
class While:
    """Bounded loop; exhausting the bound is a modeling error."""

    pred: Predicate
    body: "Prog"
    bound: int


@dataclass(frozen=True)
class Await:
    """Blocks until `pred` holds, then runs `body` as one atomic step.

    A blocked Await is not enabled: it contributes no transition rather
    than stuttering.
    """

    pred: Predicate
    body: "Prog"
    label: str


Prog = object  # union of the shapes above plus Done


def seq(*progs: Prog) -> Prog:
    """Right-fold a step sequence into nested Seq nodes."""
    if not progs:
        return Done
    result = progs[-1]
    for p in reversed(progs[:-1]):
        result = Seq(p, result)
    return result


def lock_acquire(var: str, holder: Value, label: str = "lock") -> Await:
    """Spinlock acquisition: wait for `var` to be free, then claim it."""
    return Await(lambda s, v=var: s[v] is None,
                 Basic(lambda s, v=var, h=holder: {v: h}, "claim"),
                 label)


def finished(prog: Prog, state: State) -> bool:
    """True when `prog` has no step left to take in `state` and is complete.

    A While whose predicate is false is complete; a blocked Await is NOT
    (it is waiting, not done).
    """
    if prog is Done:
        return True
    if isinstance(prog, While):
        return not prog.pred(state)
    if isinstance(prog, Seq):
        return finished(prog.first, state) and finished(prog.rest, state)
    if isinstance(prog, Cond):
        branch = prog.then if prog.pred(state) else prog.orelse
        return finished(branch, state)
    return False


def prog_step(prog: Prog, state: State) -> tuple[tuple[str, Prog, State], ...]:
    """All single labeled atomic reductions of `prog` in `state`.

    Control flow (Cond tests, While unfolds, completed Seq heads) is fused
    into the next labeled step, so every returned element consumed exactly
    one labeled action.  Returns () when the program is finished or blocked.
    """
    if prog is Done:
        return ()
    if isinstance(prog, Basic):
        return ((prog.label, Done, state.assign(prog.update(state))),)
    if isinstance(prog, Atomic):
        outcomes = tuple(state.assign(u) for u in prog.relation(state))
        return tuple((prog.label, Done, s2)
                     for s2 in sorted(set(outcomes), key=State.serialize))
    if isinstance(prog, Await):
        if not prog.pred(state):
            return ()
        return ((prog.label, Done, run_atomic(prog.body, state)),)
    if isinstance(prog, Seq):
        if finished(prog.first, state):
            return prog_step(prog.rest, state)
        out = []
        for label, residual, stepped in prog_step(prog.first, state):
            rest = prog.rest if residual is Done else Seq(residual, prog.rest)
            out.append((label, rest, stepped))
        return tuple(out)
    if isinstance(prog, Cond):
        branch = prog.then if prog.pred(state) else prog.orelse
        return prog_step(branch, state)
    if isinstance(prog, While):
        if not prog.pred(state):
            return ()
        if prog.bound <= 0:
            raise ModelError(
                f"loop iteration bound exhausted inside step program "
                f"(state {state.serialize()})")
        return prog_step(Seq(prog.body, While(prog.pred, prog.body, prog.bound - 1)),
                         state)
    raise ModelError(f"unknown program shape: {prog!r}")


def run_atomic(prog: Prog, state: State) -> State:
    """Run `prog` to completion as one atomic step.

    The body must be deterministic and non-blocking; anything else is a
    modeling error (an atomic section cannot wait or fork).
    """
    current = prog
    s = state
    for _ in range(_ATOMIC_STEP_CEILING):
        if finished(current, s):
            return s
        steps = prog_step(current, s)
        if len(steps) != 1:
            kind = "blocks" if not steps else "is nondeterministic"
            raise ModelError(f"atomic body {kind}; it must run straight through")
        _, current, s = steps[0]
    raise ModelError("atomic body exceeded the step ceiling; probable loop")


def step_labels(prog: Prog) -> tuple[str, ...]:
    """All labels syntactically present in a program, in syntax order."""
    if prog is Done:
        return ()
    if isinstance(prog, (Basic, Atomic, Await)):
        return (prog.label,)
    if isinstance(prog, Seq):
        return step_labels(prog.first) + step_labels(prog.rest)
    if isinstance(prog, Cond):
        return step_labels(prog.then) + step_labels(prog.orelse)
    if isinstance(prog, While):
        return step_labels(prog.body)
    raise ModelError(f"unknown program shape: {prog!r}")


@dataclass(frozen=True)
class Event:
    """A guarded handler: invoking it schedules `body` on the component.

    `domain` is the security domain the event's actions are attributed to:
    a fixed name, or a function of the invocation state (the resolved name
    is then baked into the compiled action labels).
    """

    label: str
    guard: Predicate
    body: Prog
    domain: str | Callable[[State], str]

    def resolve_domain(self, state: State) -> str:
        if callable(self.domain):
            return self.domain(state)
        return self.domain

    def domain_is_static(self) -> bool:
        return not callable(self.domain)


@dataclass(frozen=True)
class ConcurrentSystem:
    """Components with event pools over a shared initial state."""

    components: tuple[str, ...]
    pool: Mapping[str, tuple[Event, ...]]
    initial: Mapping[str, Value]

    def validate(self) -> None:
        if len(set(self.components)) != len(self.components):
            raise ModelError("component names must be unique")
        for comp in self.components:
            if comp not in self.pool:
                raise ModelError(f"component {comp!r} has no event pool")
            labels = [e.label for e in self.pool[comp]]
            if len(set(labels)) != len(labels):
                raise ModelError(f"duplicate event label on component {comp!r}")
            if _pc_var(comp) in self.initial:
                raise ModelError(
                    f"shared variable {_pc_var(comp)!r} collides with the "
                    f"program counter of component {comp!r}")
            for event in self.pool[comp]:
                labels_in_body = step_labels(event.body)
                if len(set(labels_in_body)) != len(labels_in_body):
                    raise ModelError(
                        f"duplicate step label within event {event.label!r}")
                if INVOKE in labels_in_body:
                    raise ModelError(
                        f"step label {INVOKE!r} is reserved (event {event.label!r})")


def _pc_var(component: str) -> str:
    return f"pc.{component}"


@dataclass
class _Compilation:
    """Mutable compile-time tables mapping program points to pc values."""

    # (component, event label with domain suffix, residual prog) -> pc value
    encode: dict[tuple[str, str, object], str] = field(default_factory=dict)
    # (component, pc value) -> (event, event name with suffix, residual prog)
    decode: dict[tuple[str, str], tuple[Event, str, object]] = field(default_factory=dict)
    counters: dict[tuple[str, str], int] = field(default_factory=dict)

    def pc_value(self, component: str, event: Event, name: str, residual: object,
                 state: State) -> str:
        if finished(residual, state):
            return IDLE
        key = (component, name, residual)
        value = self.encode.get(key)
        if value is None:
            n = self.counters.get((component, name), 0)
            self.counters[(component, name)] = n + 1
            value = f"{name}#{n}"
            self.encode[key] = value
            self.decode[(component, value)] = (event, name, residual)
        return value


def compile_system(system: ConcurrentSystem,
                   domains: Iterable[str],
                   policy: Iterable[tuple[str, str]],
                   observe: Callable[[str, State], Value],
                   budget: int | None = None) -> SecureSystem:
    """Build the explicit interleaving machine and pair it with its policy.

    Successors are listed component by component, events in pool order,
    and `build_machine` explores them; its alphabet is the set of actions
    enabled in at least one reachable state.
    """
    system.validate()

    tables = _Compilation()
    initial_vars = dict(system.initial)
    for comp in system.components:
        initial_vars[_pc_var(comp)] = IDLE
    initial = State(initial_vars)

    # One ActionId per label, with the domain its event resolved to.
    interned: dict[str, tuple[ActionId, str]] = {}

    def action_of(label: str, domain: str) -> ActionId:
        entry = interned.get(label)
        if entry is None:
            entry = interned[label] = (ActionId(label), domain)
        return entry[0]

    def successors(state: State) -> list[tuple[ActionId, State]]:
        out: list[tuple[ActionId, State]] = []
        for comp in system.components:
            pc_var = _pc_var(comp)
            pc = state[pc_var]
            if pc == IDLE:
                for event in system.pool[comp]:
                    if not event.guard(state):
                        continue
                    domain = event.resolve_domain(state)
                    name = event.label if event.domain_is_static() \
                        else f"{event.label}@{domain}"
                    action = action_of(f"{comp}/{name}/{INVOKE}", domain)
                    pc_next = tables.pc_value(comp, event, name, event.body, state)
                    out.append((action, state.assign({pc_var: pc_next})))
            else:
                event, name, residual = tables.decode[(comp, pc)]
                _, domain = interned[f"{comp}/{name}/{INVOKE}"]
                for label, rest, stepped in prog_step(residual, state):
                    action = action_of(f"{comp}/{name}/{label}", domain)
                    pc_next = tables.pc_value(comp, event, name, rest, stepped)
                    out.append((action, stepped.assign({pc_var: pc_next})))
        return out

    machine = build_machine(initial, successors, budget)
    config = InfoFlowConfig(
        domains=tuple(sorted(set(domains))),
        policy=frozenset(policy),
        dom={a: interned[a.label][1] for a in machine.actions},
        observe=observe,
    )
    return SecureSystem(machine, config)
