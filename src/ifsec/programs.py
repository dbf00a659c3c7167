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

Each program node is compiled once, on first use, into its plan: what
`finished` and `prog_step` do for it, with the residual left after each
step built once and reused, and `finished` folded to a constant for a
node with no Cond or While.  `prog_step`, `finished` and the compiler
all run on those plans, so there is one step semantics.  The compiler
likewise resolves each step's action once per (component, event name,
step label) and each static event's invocation once.  A transition
is a values tuple written at positions resolved once per component; it
becomes a `State` only when the residual's `finished` reads the
stepped state.

A component's program counter `pc.<component>` is `-` while it is idle
and `<event name>#<n>` inside an event, where `n` numbers the event's
residual programs in the order the build first reaches each one (a
residual that is finished gives `-`).  Numbers are handed out at first
reach, never ahead of the search, so they follow the exploration order
alone.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .core import (
    InfoFlowConfig,
    ModelError,
    SecureSystem,
    State,
    UsageError,
    Value,
    fields,
    record,
    tabulate,
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


class _Shape:
    """Base of the program shapes: frozen records that hash their
    fields once, since residual programs key the pc tables and the
    plans' residual caches."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, f.name) for f in fields(self))))

    def _cached_hash(self) -> int:
        return self._hash  # type: ignore[attr-defined]


def _shape(cls):
    """A frozen record over `cls` that keeps `_Shape`'s cached hash."""
    cls = record(cls)
    cls.__hash__ = _Shape._cached_hash
    return cls


@_shape
class Basic(_Shape):
    """One atomic deterministic update."""

    update: Update
    label: str


@_shape
class Atomic(_Shape):
    """One atomic set-valued update (internal nondeterminism)."""

    relation: Callable[[State], Iterable[Mapping[str, Value]]]
    label: str


@_shape
class Seq(_Shape):
    first: "Prog"
    rest: "Prog"


@_shape
class Cond(_Shape):
    pred: Predicate
    then: "Prog"
    orelse: "Prog"


@_shape
class While(_Shape):
    """Bounded loop; exhausting the bound is a modeling error."""

    pred: Predicate
    body: "Prog"
    bound: int


@_shape
class Await(_Shape):
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


# ---------------------------------------------------------------------------
# Plans: each node compiled once
# ---------------------------------------------------------------------------

#: A move: the step label of the atomic leaf (Basic, Atomic or Await) a
#: node fires next, the assignments that step may make in a state (none
#: when an Await is blocked), and the residual program left after it.
Move = tuple[str, Callable[[State], tuple], Prog]


class _Plan:
    """What `finished` and `prog_step` do for one program node.

    `finished(state)` is `finished`.  `move(state)` is the node's next
    move, or None when it takes no step (it is finished, or its loop
    test is false); a node fires at most one leaf per state.  `done` is
    `finished`'s value when it never reads the state (always for a node
    with no Cond or While), else None; when it is False, `move` reads no
    state either and returns one move.

    A plan refers to its node's children, never to its node, so the
    node -> plan link makes no reference cycle.
    """

    __slots__ = ("finished", "move", "done")

    def __init__(self, finished: Callable[[State], bool],
                 move: Callable[[State], Move | None],
                 done: bool | None) -> None:
        self.finished = finished
        self.move = move
        self.done = done


def _never(state: State) -> bool:
    return False


def _no_move(state: State) -> None:
    return None


_Done._compiled = _Plan(lambda state: True, _no_move, True)


def _plan(prog: Prog) -> _Plan:
    """The plan of `prog`, compiled on first use and kept on the node."""
    plan = getattr(prog, "_compiled", None)
    if plan is None:
        plan = _compile(prog)
        if isinstance(prog, _Shape):
            object.__setattr__(prog, "_compiled", plan)
    return plan


def _leaf(label: str, updates: Callable[[State], tuple]) -> _Plan:
    move = (label, updates, Done)
    return _Plan(_never, lambda state: move, False)


def _compile(prog: Prog) -> _Plan:
    if isinstance(prog, Basic):
        update = prog.update
        return _leaf(prog.label, lambda state: (update(state),))
    if isinstance(prog, Atomic):
        relation = prog.relation
        return _leaf(prog.label, lambda state: tuple(relation(state)))
    if isinstance(prog, Await):
        pred, body = prog.pred, prog.body
        if isinstance(body, Basic):
            # A one-step body needs no intermediate state.
            run = body.update
        else:
            def run(state: State) -> Mapping[str, Value]:
                return dict(run_atomic(body, state).items)
        return _leaf(prog.label,
                     lambda state: (run(state),) if pred(state) else ())
    if isinstance(prog, Seq):
        return _compile_seq(prog)
    if isinstance(prog, Cond):
        pred, then, orelse = prog.pred, _plan(prog.then), _plan(prog.orelse)
        return _Plan(
            lambda state: (then if pred(state) else orelse).finished(state),
            lambda state: (then if pred(state) else orelse).move(state), None)
    if isinstance(prog, While):
        return _compile_while(prog)

    def unknown(state: State) -> None:
        raise ModelError(f"unknown program shape: {prog!r}")

    return _Plan(_never, unknown, False)


def _compile_seq(prog: Seq) -> _Plan:
    first, rest = _plan(prog.first), _plan(prog.rest)
    if first.done:
        return rest
    tail = prog.rest
    # first's move -> the Seq's move, keeping the tail after its residual
    after: dict[Move, Move] = {}

    def then(move: Move | None) -> Move | None:
        if move is None:
            return None
        mapped = after.get(move)
        if mapped is None:
            label, updates, residual = move
            mapped = after[move] = (label, updates, tail if residual is Done
                                    else Seq(residual, tail))
        return mapped

    first_move = first.move
    if first.done is False:
        return _Plan(_never, lambda state: then(first_move(state)), False)
    first_finished, rest_finished, rest_move = \
        first.finished, rest.finished, rest.move
    return _Plan(
        lambda state: first_finished(state) and rest_finished(state),
        lambda state: rest_move(state) if first_finished(state)
        else then(first_move(state)),
        None)


def _compile_while(prog: While) -> _Plan:
    pred, body, bound = prog.pred, prog.body, prog.bound
    unrolled: list[_Plan] = []  # the next iteration's plan, once reached

    def move(state: State) -> Move | None:
        if not pred(state):
            return None
        if bound <= 0:
            raise ModelError(
                f"loop iteration bound exhausted inside step program "
                f"(state {state.serialize()})")
        if not unrolled:
            unrolled.append(_plan(Seq(body, While(pred, body, bound - 1))))
        return unrolled[0].move(state)

    return _Plan(lambda state: not pred(state), move, None)


def finished(prog: Prog, state: State) -> bool:
    """True when `prog` has no step left to take in `state` and is complete.

    A While whose predicate is false is complete; a blocked Await is NOT
    (it is waiting, not done).
    """
    return _plan(prog).finished(state)


def prog_step(prog: Prog, state: State) -> tuple[tuple[str, Prog, State], ...]:
    """All single labeled atomic reductions of `prog` in `state`.

    Control flow (Cond tests, While unfolds, completed Seq heads) is fused
    into the next labeled step, so every returned element consumed exactly
    one labeled action.  Returns () when the program is finished or blocked.
    """
    move = _plan(prog).move(state)
    if move is None:
        return ()
    label, updates, residual = move
    outcomes = [state.assign(u) for u in updates(state)]
    if len(outcomes) > 1:
        outcomes = sorted(set(outcomes), key=State.serialize)
    return tuple((label, residual, s) for s in outcomes)


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


@record
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


@record
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


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

_NO_UPDATES = ({},)


def _no_updates(state: State) -> tuple:
    return _NO_UPDATES


class _Handler:
    """An event invoked on one component, under its name with any domain
    suffix: its actions by step label and its residuals' pc values.

    `decode` is the component's pc value -> (event name, residual)
    table, shared by its handlers.  Nothing a handler holds refers back
    to it, so the compile-time tables make no reference cycle.
    """

    def __init__(self, comp: str, name: str, domain: str,
                 decode: dict[str, tuple[str, Prog]],
                 action_of: Callable[[str, str], tuple[int, str]]) -> None:
        self.prefix = f"{comp}/{name}/"
        self.name = name
        self.decode = decode
        self._action_of = action_of
        self.numbers: dict[Prog, str] = {}
        self.invoke, self.domain = action_of(self.prefix + INVOKE, domain)

    def action(self, label: str) -> int:
        """The alphabet position of the action of step `label`."""
        return self._action_of(self.prefix + label, self.domain)[0]

    def pc(self, residual: Prog) -> str:
        """The pc value of an unfinished residual, numbered at first use."""
        value = self.numbers.get(residual)
        if value is None:
            value = self.numbers[residual] = f"{self.name}#{len(self.numbers)}"
            self.decode[value] = (self.name, residual)
        return value


class _Point:
    """A program point: a handler's residual program, with its moves;
    `fixed` is the step of a point whose move reads no state, once
    taken."""

    __slots__ = ("handler", "plan", "steps", "fixed")

    def __init__(self, handler: _Handler, residual: Prog) -> None:
        self.handler = handler
        self.plan = _plan(residual)
        self.steps: dict[Move, _Step] = {}
        self.fixed: _Step | None = None

    def step(self, move: Move) -> "_Step":
        step = self.steps.get(move)
        if step is None:
            label, updates, rest = move
            step = self.steps[move] = _Step(
                self.handler, self.handler.action(label), updates, rest)
            if self.plan.done is False:
                self.fixed = step
        return step


class _Step:
    """One move of a component, or an invocation: its action's alphabet
    position, its updates and the residual it leaves, with that
    residual's pc value once known when `finished` decides it without
    reading the state."""

    __slots__ = ("handler", "action", "updates", "rest", "finished", "pc")

    def __init__(self, handler: _Handler, action: int,
                 updates: Callable[[State], tuple], rest: Prog) -> None:
        self.handler = handler
        self.action = action
        self.updates = updates
        self.rest = rest
        plan = _plan(rest)
        # the residual's `finished` when it reads the state, else None
        self.finished = plan.finished if plan.done is None else None
        self.pc = IDLE if plan.done else None

    def fire(self, state: State, values: tuple,
             positions: tuple[Mapping[str, int], int],
             out: list[tuple[int, tuple]]) -> None:
        """Append the step's (action position, successor values) pairs
        to `out`; `values` are `state`'s, and `positions` are the
        variables' and the component's pc's."""
        updates = self.updates(state)
        if not updates:
            return
        index, pc_position = positions
        pc = self.pc
        if pc is None and self.finished is None:
            pc = self.pc = self.handler.pc(self.rest)
        for u in updates:
            new = list(values)
            for name, value in u.items():
                i = index.get(name)
                if i is None:
                    raise UsageError(f"state has no variable {name!r}")
                new[i] = value
            if self.finished is not None:
                pc = IDLE if self.finished(state.with_values(tuple(new))) \
                    else self.handler.pc(self.rest)
            new[pc_position] = pc
            out.append((self.action, tuple(new)))


def compile_system(system: ConcurrentSystem,
                   domains: Iterable[str],
                   policy: Iterable[tuple[str, str]],
                   observe: Callable[[str, State], Value],
                   budget: int | None = None) -> SecureSystem:
    """Build the explicit interleaving machine and pair it with its policy.

    Successors are values tuples, listed component by component, events
    in pool order, and `core.tabulate` explores them.  Each step names
    its action by position in an alphabet list that grows as the
    successor function meets a new step label, which it interns at the
    next position; a component's steps from one state are one event's
    or one move's, so each action's steps are adjacent, as `tabulate`
    requires.  The machine's alphabet is the set of actions enabled in
    at least one reachable state, sorted.
    """
    system.validate()

    initial_vars = dict(system.initial)
    for comp in system.components:
        initial_vars[_pc_var(comp)] = IDLE
    initial = State(initial_vars)

    # Each label at its position in `alphabet`, with the domain its
    # event resolved to.
    alphabet: list[str] = []
    interned: dict[str, tuple[int, str]] = {}

    def action_of(label: str, domain: str) -> tuple[int, str]:
        entry = interned.get(label)
        if entry is None:
            entry = interned[label] = (len(alphabet), domain)
            alphabet.append(label)
        return entry

    # (component, event name) -> its handler and its invocation
    handlers: dict[tuple[str, str], tuple[_Handler, _Step]] = {}

    def invocation(comp: str, event: Event, state: State,
                   decode: dict[str, tuple[str, Prog]]) -> _Step:
        domain = event.resolve_domain(state)
        name = event.label if event.domain_is_static() \
            else f"{event.label}@{domain}"
        entry = handlers.get((comp, name))
        if entry is None:
            handler = _Handler(comp, name, domain, decode, action_of)
            entry = handlers[(comp, name)] = (
                handler, _Step(handler, handler.invoke, _no_updates,
                               event.body))
        return entry[1]

    # Per component: the variables' positions with its pc's, its events
    # each with its invocation once a static domain resolved it, its
    # decode table and its pc value -> program point table.
    index = {name: i for i, name in enumerate(initial.names)}
    rows = [(comp, (index, index[_pc_var(comp)]),
             [[event, None] for event in system.pool[comp]], {}, {})
            for comp in system.components]

    def successors(state: State) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        values = state.values
        for comp, positions, events, decode, points in rows:
            pc = values[positions[1]]
            if pc == IDLE:
                for entry in events:
                    event, step = entry
                    if not event.guard(state):
                        continue
                    if step is None:
                        step = invocation(comp, event, state, decode)
                        if event.domain_is_static():
                            entry[1] = step
                    step.fire(state, values, positions, out)
            else:
                point = points.get(pc)
                if point is None:
                    entry = decode.get(pc)
                    if entry is None:
                        raise ModelError(
                            f"component {comp!r} reached program counter "
                            f"value {pc!r}, which none of its steps set: "
                            f"a step update wrote {_pc_var(comp)!r}")
                    name, residual = entry
                    point = points[pc] = _Point(handlers[(comp, name)][0],
                                                residual)
                step = point.fixed
                if step is None:
                    move = point.plan.move(state)
                    if move is None:
                        continue
                    step = point.step(move)
                step.fire(state, values, positions, out)
        return out

    machine = tabulate(initial, successors, alphabet, budget)
    config = InfoFlowConfig(
        domains=tuple(sorted(set(domains))),
        policy=frozenset(policy),
        dom={a: interned[a][1] for a in machine.actions},
        observe=observe,
    )
    return SecureSystem(machine, config)
