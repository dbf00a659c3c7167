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
- Every state and pair search is an `Exploration`: FIFO over the
  successors in the order the caller adds them, so the caller's
  successor order alone fixes the discovery order, the first-reaching
  parent edges and the witness traces; never iterate a set there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping

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


class Exploration:
    """Breadth-first search bookkeeping shared by every state and pair search.

    `order` lists nodes in discovery order and is also the FIFO queue:
    iterating the exploration yields `order` while the caller grows it
    with `add`.  `parent` maps each discovered node to the (predecessor,
    action) edge that first reached it, None for the initial node; it is
    the seen set, and `trace_to` walks it back to a shortest trace.
    `depth` is the BFS depth of the node being expanded.
    """

    def __init__(self, initial: Hashable, budget: int | None = None,
                 noun: str = "states") -> None:
        self.order: list = [initial]
        self.parent: dict[Hashable, tuple[Hashable, ActionId] | None] = {
            initial: None}
        self.depth = 0
        self._limit = DEFAULT_STATE_BUDGET if budget is None else budget
        self._noun = noun

    def __iter__(self) -> Iterator:
        self.depth = 0
        level_end = 1  # index of the first node one level deeper
        # A list iterator also yields the items appended while it runs.
        for i, node in enumerate(self.order):
            if i == level_end:
                self.depth += 1
                level_end = len(self.order)
            yield node

    def add(self, node: Hashable, parent: Hashable, action: ActionId) -> None:
        """Record `node` as reached from `parent` by `action`, unless seen.

        Raises BudgetError when `node` would be one more than the budget.
        """
        if node in self.parent:
            return
        if len(self.order) >= self._limit:
            raise BudgetError(
                f"budget of {self._limit} {self._noun} exceeded at BFS depth "
                f"{self.depth + 1} (raise --budget or shrink the model)")
        self.parent[node] = (parent, action)
        self.order.append(node)

    def trace_to(self, node: Hashable) -> tuple[ActionId, ...]:
        steps: list[ActionId] = []
        edge = self.parent[node]
        while edge is not None:
            node, action = edge
            steps.append(action)
            edge = self.parent[node]
        steps.reverse()
        return tuple(steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Exploration) and \
            (self.order, self.parent) == (other.order, other.parent)

    __hash__ = None  # type: ignore[assignment]


def explore(machine: StateMachine, depth: int | None = None,
            budget: int | None = None) -> Exploration:
    """BFS over `step` successors in canonical action order.

    States at depth `depth` are discovered but not expanded.  Raises
    BudgetError once more than `budget` states have been discovered
    (default DEFAULT_STATE_BUDGET).
    """
    search = Exploration(machine.initial, budget)
    for state in search:
        if depth is not None and search.depth >= depth:
            break
        for action in machine.actions:
            for succ in machine.transitions.get((state, action), ()):
                search.add(succ, state, action)
    return search


def reachable(machine: StateMachine, depth: int | None = None,
              budget: int | None = None) -> tuple[State, ...]:
    """Reachable states in BFS discovery order (see `explore`)."""
    return tuple(explore(machine, depth=depth, budget=budget).order)


# ---------------------------------------------------------------------------
# Machine construction
# ---------------------------------------------------------------------------

def build_machine(initial: State,
                  successors: Callable[[State], Iterable[tuple[ActionId, State]]],
                  budget: int | None = None) -> StateMachine:
    """Materialize an explicit StateMachine by BFS from `initial`.

    `successors` yields the (action, successor) steps of a state.  Steps
    are grouped by action in first-appearance order and each group is
    sorted, which fixes the discovery order.  The machine's `states` is
    the reachable set, sorted, and its alphabet is the set of actions
    enabled in some reachable state: an action that never fires would
    only stutter, so leaving it out changes no verdict while bounded-trace
    enumeration budgets on the real alphabet.
    """
    search = Exploration(initial, budget)
    transitions: dict[tuple[State, ActionId], tuple[State, ...]] = {}
    for state in search:
        grouped: dict[ActionId, set[State]] = {}
        for action, succ in successors(state):
            grouped.setdefault(action, set()).add(succ)
        for action, succs in grouped.items():
            targets = tuple(sorted(succs))
            transitions[(state, action)] = targets
            for succ in targets:
                search.add(succ, state, action)
    return StateMachine(
        states=tuple(sorted(search.order)),
        actions=sort_actions({a for (_, a) in transitions}),
        transitions=transitions,
        initial=initial,
    )
