"""Explicit-state machines with per-domain observations.

The toolkit's object of study is a finite state machine whose transition
function is set-valued, paired with an information-flow configuration:
a set of security domains, a (possibly intransitive) permitted-flow policy,
a domain assignment for actions, and a per-domain observation function.
States are finite variable assignments with a canonical serialization so
that every checker can report witnesses deterministically.

Conventions used throughout the package:

- `step` is the raw transition relation and may be empty; `step_total`
  stutters on disabled actions.  Security checks quantify over raw steps,
  trace execution (`run`) uses the stuttering form.
- All iteration orders are canonical: actions sort by (label, payload),
  states by their serialization, exploration is breadth-first with sorted
  action order.  Identical inputs always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

#: Exploration ceiling applied when a caller does not pass an explicit budget.
DEFAULT_STATE_BUDGET = 2_000_000

#: Ceiling on the number of traces a bounded-trace check may enumerate.
DEFAULT_TRACE_BUDGET = 500_000


class UsageError(Exception):
    """The caller asked for something the object cannot answer."""


class ModelError(Exception):
    """A model is structurally unsound (unbounded loop, bad declaration)."""


class BudgetError(Exception):
    """An exploration or enumeration exceeded its configured ceiling."""


class ParseError(Exception):
    """A model file is malformed.  Carries position and a fix hint."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, hint: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.hint = hint

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.column is not None:
                where += f", column {self.column}"
            where = f" ({where})"
        text = f"{self.message}{where}"
        if self.hint:
            text += f"\n  hint: {self.hint}"
        return text


# ---------------------------------------------------------------------------
# Values and states
# ---------------------------------------------------------------------------

#: State variables range over None, bools, ints, strings and tuples of these.
Value = object

_TYPE_RANK = {type(None): 0, bool: 1, int: 2, str: 3, tuple: 4}


def render_value(value: Value) -> str:
    """Render a value for canonical state serialization."""
    if value is None:
        return "-"
    if value is True:
        return "T"
    if value is False:
        return "F"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "[" + ",".join(render_value(v) for v in value) + "]"
    raise ModelError(f"unsupported state value type: {type(value).__name__}")


def value_key(value: Value) -> tuple:
    """Total order over values, usable across mixed types."""
    rank = _TYPE_RANK.get(type(value))
    if rank is None:
        raise ModelError(f"unsupported state value type: {type(value).__name__}")
    if isinstance(value, tuple):
        return (rank, tuple(value_key(v) for v in value))
    if value is None:
        return (rank, 0)
    return (rank, value)


class State:
    """An immutable finite map from variable names to values.

    Serialization is `name=value` pairs sorted by name and joined with
    semicolons; it is the canonical order used for witness selection.
    """

    __slots__ = ("_items", "_index", "_hash", "_serial")

    def __init__(self, assignment: Mapping[str, Value] | Iterable[tuple[str, Value]]):
        if isinstance(assignment, Mapping):
            items = tuple(sorted(assignment.items()))
        else:
            items = tuple(sorted(assignment))
        self._items = items
        self._index = {name: i for i, (name, _) in enumerate(items)}
        if len(self._index) != len(items):
            raise ModelError("duplicate variable name in state")
        self._hash = hash(items)
        self._serial: str | None = None

    @property
    def items(self) -> tuple[tuple[str, Value], ...]:
        return self._items

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._items)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Value:
        try:
            return self._items[self._index[name]][1]
        except KeyError:
            raise UsageError(f"state has no variable {name!r}") from None

    def get(self, name: str, default: Value = None) -> Value:
        i = self._index.get(name)
        return default if i is None else self._items[i][1]

    def assign(self, updates: Mapping[str, Value]) -> "State":
        """Return a copy with the given variables replaced."""
        new = list(self._items)
        for name, value in updates.items():
            i = self._index.get(name)
            if i is None:
                raise UsageError(f"state has no variable {name!r}")
            new[i] = (name, value)
        return State(new)

    def serialize(self) -> str:
        if self._serial is None:
            self._serial = ";".join(
                f"{name}={render_value(value)}" for name, value in self._items)
        return self._serial

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "State") -> bool:
        return self.serialize() < other.serialize()

    def __repr__(self) -> str:
        return f"State({self.serialize()})"


@dataclass(frozen=True)
class ActionId:
    """An action identifier: an opaque label plus an optional finite payload."""

    label: str
    payload: Value = None

    def sort_key(self) -> tuple:
        return (self.label, value_key(self.payload))

    def display(self) -> str:
        if self.payload is None:
            return self.label
        return f"{self.label}:{render_value(self.payload)}"

    def __repr__(self) -> str:
        return f"ActionId({self.display()})"


def sort_actions(actions: Iterable[ActionId]) -> tuple[ActionId, ...]:
    return tuple(sorted(actions, key=ActionId.sort_key))


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateMachine:
    """An explicit machine: states, actions, set-valued step, initial state.

    `transitions` only stores non-empty successor tuples; each tuple is
    sorted.  `states` is the machine's state set in sorted order (for built
    machines this is the reachable set).  `universe` optionally carries a
    larger declared state space for universe-scoped checks.
    """

    states: tuple[State, ...]
    actions: tuple[ActionId, ...]
    transitions: Mapping[tuple[State, ActionId], tuple[State, ...]]
    initial: State
    universe: tuple[State, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_action_set", frozenset(self.actions))

    def has_action(self, action: ActionId) -> bool:
        return action in self._action_set  # type: ignore[attr-defined]

    def step(self, state: State, action: ActionId) -> tuple[State, ...]:
        """Raw successors of `state` under `action`; empty when disabled."""
        if not self.has_action(action):
            raise UsageError(f"unknown action {action.display()!r}")
        return self.transitions.get((state, action), ())

    def step_total(self, state: State, action: ActionId) -> tuple[State, ...]:
        """Stuttering form of `step`: a disabled action yields the state itself."""
        successors = self.step(state, action)
        return successors if successors else (state,)

    def enabled(self, state: State) -> tuple[ActionId, ...]:
        return tuple(a for a in self.actions if (state, a) in self.transitions)


@dataclass(frozen=True)
class InfoFlowConfig:
    """Domains, permitted-flow policy, domain map and observations."""

    domains: tuple[str, ...]
    policy: frozenset[tuple[str, str]]
    dom: Mapping[ActionId, str]
    observe: Callable[[str, State], Value]

    def allows(self, source: str, target: str) -> bool:
        return (source, target) in self.policy

    def domain_of(self, action: ActionId) -> str:
        try:
            return self.dom[action]
        except KeyError:
            raise UsageError(
                f"action {action.display()!r} has no assigned domain") from None

    def missing_reflexive(self) -> tuple[str, ...]:
        """Domains without a d -> d edge; reported as a warning, not an error."""
        return tuple(d for d in self.domains if (d, d) not in self.policy)

    def validate(self, machine: StateMachine) -> None:
        for d in self.domains:
            if not isinstance(d, str) or not d:
                raise ModelError("domain names must be non-empty strings")
        for (u, v) in self.policy:
            if u not in self.domains or v not in self.domains:
                raise ModelError(f"policy edge {u!r} -> {v!r} mentions unknown domain")
        for action in machine.actions:
            d = self.domain_of(action)
            if d not in self.domains:
                raise ModelError(
                    f"action {action.display()!r} maps to unknown domain {d!r}")


@dataclass(frozen=True)
class SecureSystem:
    """A machine paired with its information-flow configuration."""

    machine: StateMachine
    config: InfoFlowConfig

    def __post_init__(self) -> None:
        self.config.validate(self.machine)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def indist(config: InfoFlowConfig, domain: str, s1: State, s2: State) -> bool:
    """True when domain `domain` observes the same value in both states."""
    return config.observe(domain, s1) == config.observe(domain, s2)


def equidom(config: InfoFlowConfig, domain: str,
            left: Iterable[State], right: Iterable[State]) -> bool:
    """All-pairs indistinguishability between two state sets.

    Vacuously true when either side is empty.  Internally compares
    observation images, which is equivalent to the pairwise definition.
    """
    left_obs = {config.observe(domain, s) for s in left}
    right_obs = {config.observe(domain, s) for s in right}
    if not left_obs or not right_obs:
        return True
    return len(left_obs) == 1 and left_obs == right_obs


def run(machine: StateMachine, states: Iterable[State],
        trace: Iterable[ActionId]) -> frozenset[State]:
    """Fold the stuttering step over a trace from a set of start states."""
    current = frozenset(states)
    for action in trace:
        nxt: set[State] = set()
        for state in current:
            nxt.update(machine.step_total(state, action))
        current = frozenset(nxt)
    return current


@dataclass
class Exploration:
    """Breadth-first reachability result with parent pointers.

    `order` lists states in discovery order; `parent` maps each non-initial
    state to the (predecessor, action) edge on a shortest path from the
    initial state, which checkers use to reconstruct witness traces.
    """

    order: tuple[State, ...]
    parent: dict[State, tuple[State, ActionId]]
    depth: dict[State, int]
    truncated_at_depth: bool = False

    def trace_to(self, state: State) -> tuple[ActionId, ...]:
        steps: list[ActionId] = []
        cursor = state
        while cursor in self.parent:
            cursor, action = self.parent[cursor]
            steps.append(action)
        steps.reverse()
        return tuple(steps)


def explore(machine: StateMachine, depth: int | None = None,
            budget: int | None = None) -> Exploration:
    """BFS over `step` successors in canonical action order.

    Raises BudgetError once more than `budget` states have been discovered
    (default DEFAULT_STATE_BUDGET).
    """
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    order: list[State] = [machine.initial]
    parent: dict[State, tuple[State, ActionId]] = {}
    depths: dict[State, int] = {machine.initial: 0}
    frontier = [machine.initial]
    truncated = False
    while frontier:
        if depth is not None and depths[frontier[0]] >= depth:
            truncated = True
            break
        nxt: list[State] = []
        for state in frontier:
            d = depths[state]
            for action in machine.actions:
                for succ in machine.transitions.get((state, action), ()):
                    if succ in depths:
                        continue
                    depths[succ] = d + 1
                    parent[succ] = (state, action)
                    order.append(succ)
                    if len(order) > limit:
                        raise BudgetError(
                            f"state budget exceeded: more than {limit} states "
                            f"reachable (raise --budget or shrink the model)")
                    nxt.append(succ)
        frontier = nxt
    return Exploration(tuple(order), parent, depths, truncated)


def reachable(machine: StateMachine, depth: int | None = None,
              budget: int | None = None) -> tuple[State, ...]:
    """Reachable states in BFS discovery order (see `explore`)."""
    return explore(machine, depth=depth, budget=budget).order


# ---------------------------------------------------------------------------
# Machine construction
# ---------------------------------------------------------------------------

def build_machine(initial: State, actions: Iterable[ActionId],
                  step_fn: Callable[[State, ActionId], Iterable[State]],
                  budget: int | None = None,
                  universe: Iterable[State] | None = None,
                  prune_actions: bool = False) -> StateMachine:
    """Materialize an explicit StateMachine from a step function by BFS.

    The resulting machine's `states` is the reachable set, sorted.  With
    `prune_actions`, actions that are enabled in no reachable state are
    dropped from the alphabet; dropped actions could only ever stutter, so
    no trace- or step-quantified verdict changes, while bounded-trace
    enumeration gets the smaller alphabet it budgets on.
    """
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    action_order = sort_actions(actions)
    transitions: dict[tuple[State, ActionId], tuple[State, ...]] = {}
    seen: set[State] = {initial}
    frontier = [initial]
    used: set[ActionId] = set()
    while frontier:
        nxt: list[State] = []
        for state in frontier:
            for action in action_order:
                successors = tuple(sorted(set(step_fn(state, action))))
                if not successors:
                    continue
                transitions[(state, action)] = successors
                used.add(action)
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        if len(seen) > limit:
                            raise BudgetError(
                                f"state budget exceeded while building machine: "
                                f"more than {limit} states")
                        nxt.append(succ)
        frontier = nxt
    kept = tuple(a for a in action_order if a in used) if prune_actions else action_order
    return StateMachine(
        states=tuple(sorted(seen)),
        actions=kept,
        transitions=transitions,
        initial=initial,
        universe=None if universe is None else tuple(sorted(set(universe))),
    )
