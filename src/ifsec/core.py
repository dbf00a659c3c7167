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
- Programs and model files alike build machines by `tabulate`, one
  search over values tuples with one `State` per distinct tuple.
- A machine is indexed: its states are numbered 0..n-1 in serialization
  order (`by_id`), each state is one object, and each action has one
  table from a state id to its successor ids.  Every checker's search,
  bounded NI's too, runs on those ids and on per-(domain, state id)
  observation classes (`InfoFlowConfig.classes`); `State` objects are
  what `step`, `run` (witness re-checks, replay), the `transitions`
  view, scopes and witnesses hand out, and what the user's relations
  (alpha's keys or predicate, relies, guarantees) are given.
- The states of one machine share a schema, the sorted variable names
  with their positions; a state is a values tuple over it, and
  `assign` copies the values without sorting.  Code that reads values
  by position (frames, alpha keys, model-file observations) resolves
  the positions once per schema through `layout`, and `values_getter`
  reads some variables' values off a values tuple or a state.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

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


class _Schema:
    """The sorted variable names that states share, with their positions.

    A state made by `State(...)` gets a new schema; every state derived
    from it by `assign` shares it, so all states of one machine hold one
    name table between them.
    """

    __slots__ = ("names", "index", "hash", "fragments", "layouts")

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.hash = hash(names)
        # per position, value key -> "name=value" text; see State.serialize
        self.fragments: tuple[dict, ...] | None = None
        # layout function -> what it made of `index`; see `layout`
        self.layouts: dict[Callable, object] = {}


def _name(item: tuple[str, Value]) -> str:
    return item[0]


class State:
    """An immutable finite map from variable names to values.

    A state is a values tuple over a schema of sorted variable names.
    Serialization is `name=value` pairs sorted by name and joined with
    semicolons; it is the canonical order used for witness selection.
    """

    __slots__ = ("_schema", "_values", "_hash", "_serial")

    def __init__(self, assignment: Mapping[str, Value] | Iterable[tuple[str, Value]]):
        if isinstance(assignment, Mapping):
            assignment = assignment.items()
        items = sorted(assignment, key=_name)
        schema = _Schema(tuple(name for name, _ in items))
        if len(schema.index) != len(items):
            raise ModelError("duplicate variable name in state")
        self._set(schema, tuple(value for _, value in items))

    def _set(self, schema: _Schema, values: tuple) -> None:
        self._schema = schema
        self._values = values
        self._hash = hash((schema.hash, values))
        self._serial: str | None = None

    @property
    def items(self) -> tuple[tuple[str, Value], ...]:
        return tuple(zip(self._schema.names, self._values))

    @property
    def names(self) -> tuple[str, ...]:
        return self._schema.names

    @property
    def values(self) -> tuple[Value, ...]:
        """The values, in the order of `names`."""
        return self._values

    def __contains__(self, name: str) -> bool:
        return name in self._schema.index

    def __getitem__(self, name: str) -> Value:
        try:
            return self._values[self._schema.index[name]]
        except KeyError:
            raise UsageError(f"state has no variable {name!r}") from None

    def get(self, name: str, default: Value = None) -> Value:
        i = self._schema.index.get(name)
        return default if i is None else self._values[i]

    def assign(self, updates: Mapping[str, Value]) -> "State":
        """Return a copy with the given variables replaced."""
        new = list(self._values)
        index = self._schema.index
        for name, value in updates.items():
            i = index.get(name)
            if i is None:
                raise UsageError(f"state has no variable {name!r}")
            new[i] = value
        return self.with_values(tuple(new))

    def with_values(self, values: tuple) -> "State":
        """A state over this state's schema holding `values`, given in
        the order of `names`."""
        state = State.__new__(State)
        state._set(self._schema, values)
        return state

    def serialize(self) -> str:
        """`name=value` pairs in name order, joined with semicolons.

        The pair text of each (schema position, value) is rendered once
        and kept with the schema.  It is keyed by the value's exact type,
        and a tuple by its repr, because equal values of different types
        render differently (`1` and `True`, `(1,)` and `(True,)`).
        """
        serial = self._serial
        if serial is None:
            schema = self._schema
            caches = schema.fragments
            if caches is None:
                caches = schema.fragments = tuple({} for _ in schema.names)
            parts = []
            for cache, name, value in zip(caches, schema.names, self._values):
                kind = type(value)
                key = value if kind is str else \
                    (kind, repr(value) if kind is tuple else value)
                fragment = cache.get(key)
                if fragment is None:
                    fragment = cache[key] = f"{name}={render_value(value)}"
                parts.append(fragment)
            serial = self._serial = ";".join(parts)
        return serial

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (isinstance(other, State) and self._values == other._values
                and (self._schema is other._schema
                     or self._schema.names == other._schema.names))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "State") -> bool:
        return self.serialize() < other.serialize()

    def __repr__(self) -> str:
        return f"State({self.serialize()})"


def layout(make: Callable[[Mapping[str, int]], object], state: State,
           after: State | None = None) -> object:
    """What `make` makes of the name -> position table of `state`'s
    schema, say getters of some variables' values.

    `make` runs once per schema: its result is kept on the schema under
    `make`, so a caller makes `make` once (per frame, per key), not per
    call.  A schema that lacks a variable `make` reads is a usage error.
    With `after`, the two states are a step and must bind the same
    variables.
    """
    schema = state._schema
    made = schema.layouts.get(make)
    if made is None:
        try:
            made = schema.layouts[make] = make(schema.index)
        except KeyError as error:
            raise UsageError(
                f"state has no variable {error.args[0]!r}") from None
    if after is not None and after._schema is not schema \
            and after._schema.names != schema.names:
        raise ModelError(
            "a step met states over different variables: "
            f"{', '.join(schema.names)} and {', '.join(after.names)}")
    return made


def values_getter(names: Iterable[str], index: Mapping[str, int] | None = None
                  ) -> Callable:
    """The values of `names`, in that order, as a tuple: read off a
    values tuple at the positions `index` gives or, without `index`,
    off a state at its schema's positions (`layout`)."""
    names = tuple(names)
    if index is None:
        make = partial(values_getter, names)
        return lambda state: layout(make, state)(state._values)
    positions = [index[name] for name in names]
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else lambda values: ()


@dataclass(frozen=True)
class ActionId:
    """An action identifier: an opaque label plus an optional finite payload."""

    label: str
    payload: Value = None

    def __post_init__(self) -> None:
        # Actions key every transition table and domain map; hash once.
        object.__setattr__(self, "_hash", hash((self.label, self.payload)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

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

class StateMachine:
    """An explicit machine: states, actions, set-valued step, initial state.

    A machine is indexed.  `by_id` numbers every state it knows, its
    states, its universe and every successor, 0..n-1 in serialization
    order, so ids do not depend on hashing; `id_of` maps back.  Each
    state is one object: every successor is the `by_id` entry.
    `successor_ids[k]` is the table of `actions[k]`: it maps the id of
    each state that enables the action to its successor ids, keys in
    ascending order, no empty entries.  `state_ids` (for built machines
    the reachable set) and `universe_ids` (an optional larger declared
    state space for universe-scoped checks) are ascending; `states` and
    `universe` are their states in that order.  `transitions` is a
    read-only (state, action) -> successors view of the tables.

    The constructor indexes a machine given as a transition mapping;
    builders that number the states themselves call `from_tables`.
    """

    def __init__(self, states: Iterable[State], actions: Iterable[ActionId],
                 transitions: Mapping[tuple[State, ActionId], tuple[State, ...]],
                 initial: State,
                 universe: Iterable[State] | None = None) -> None:
        states = tuple(states)
        universe = None if universe is None else tuple(universe)
        known = {initial, *states, *(universe or ())}
        for (state, _), successors in transitions.items():
            known.add(state)
            known.update(successors)
        by_id = tuple(sorted(known, key=State.serialize))
        ids = {state: i for i, state in enumerate(by_id)}
        actions = tuple(actions)
        tables: list[dict[int, tuple[int, ...]]] = [{} for _ in actions]
        position = {action: k for k, action in enumerate(actions)}
        for (state, action), successors in sorted(
                transitions.items(), key=lambda item: ids[item[0][0]]):
            if action not in position:
                raise ModelError(
                    f"transition on undeclared action {action.display()!r}")
            if successors:
                tables[position[action]][ids[state]] = tuple(
                    ids[s] for s in successors)
        self._lay_out(by_id, actions, tables, ids[initial],
                      sorted({ids[s] for s in states}),
                      None if universe is None
                      else sorted({ids[s] for s in universe}))

    @classmethod
    def from_tables(cls, by_id: tuple[State, ...], actions: tuple[ActionId, ...],
                    successor_ids: Iterable[dict[int, tuple[int, ...]]],
                    initial_id: int, state_ids: Iterable[int] | None = None,
                    universe_ids: Iterable[int] | None = None) -> "StateMachine":
        """A machine over tables already laid out as the class describes;
        `state_ids` defaults to every id."""
        machine = cls.__new__(cls)
        machine._lay_out(by_id, actions, successor_ids, initial_id,
                         range(len(by_id)) if state_ids is None else state_ids,
                         universe_ids)
        return machine

    def _lay_out(self, by_id, actions, successor_ids, initial_id, state_ids,
                 universe_ids) -> None:
        def states_of(chosen: tuple[int, ...]) -> tuple[State, ...]:
            if len(chosen) == len(by_id):
                return by_id
            return tuple(by_id[i] for i in chosen)

        self.by_id: tuple[State, ...] = by_id
        self._ids = {state: i for i, state in enumerate(by_id)}
        self.actions: tuple[ActionId, ...] = tuple(actions)
        self._position = {action: k for k, action in enumerate(self.actions)}
        self.successor_ids: tuple[dict[int, tuple[int, ...]], ...] = tuple(
            successor_ids)
        self.initial_id = initial_id
        self.initial = by_id[initial_id]
        self.state_ids: tuple[int, ...] = tuple(state_ids)
        self.states = states_of(self.state_ids)
        self.universe_ids = None if universe_ids is None else tuple(universe_ids)
        self.universe = None if universe_ids is None \
            else states_of(self.universe_ids)

    def __repr__(self) -> str:
        return (f"StateMachine({len(self.states)} states, "
                f"{len(self.actions)} actions)")

    @property
    def transitions(self) -> Mapping[tuple[State, ActionId], tuple[State, ...]]:
        return _Transitions(self)

    def id_of(self, state: State) -> int | None:
        """The id of `state`, or None when the machine does not know it."""
        return self._ids.get(state)

    def has_action(self, action: ActionId) -> bool:
        return action in self._position

    def step(self, state: State, action: ActionId) -> tuple[State, ...]:
        """Raw successors of `state` under `action`; empty when disabled."""
        k = self._position.get(action)
        if k is None:
            raise UsageError(f"unknown action {action.display()!r}")
        successors = self.successor_ids[k].get(self._ids.get(state))
        if not successors:
            return ()
        by_id = self.by_id
        return tuple([by_id[j] for j in successors])

    def step_total(self, state: State, action: ActionId) -> tuple[State, ...]:
        """Stuttering form of `step`: a disabled action yields the state itself."""
        successors = self.step(state, action)
        return successors if successors else (state,)

    def enabled(self, state: State) -> tuple[ActionId, ...]:
        i = self._ids.get(state)
        return tuple(a for a, table in zip(self.actions, self.successor_ids)
                     if i in table)


class _Transitions(Mapping):
    """The (state, action) -> successor states view of a machine."""

    def __init__(self, machine: StateMachine) -> None:
        self._machine = machine

    def __getitem__(self, key: tuple[State, ActionId]) -> tuple[State, ...]:
        state, action = key
        machine = self._machine
        successors = machine.step(state, action) \
            if machine.has_action(action) else ()
        if not successors:
            raise KeyError(key)
        return successors

    def __iter__(self) -> Iterator[tuple[State, ActionId]]:
        machine = self._machine
        for action, table in zip(machine.actions, machine.successor_ids):
            for i in table:
                yield machine.by_id[i], action

    def __len__(self) -> int:
        return sum(map(len, self._machine.successor_ids))


class _Classes(dict):
    """State id -> class of a view of the state, filled on first lookup.

    Two ids share a class exactly when their views are equal; tables
    made with one `class_of` table share its classes.  Entries are keyed
    by the machine's own int objects, so a caller that computes an id
    (say by `divmod`) adds no int to the table.
    """

    def __init__(self, view: Callable[[State], Value], machine: StateMachine,
                 class_of: dict[Value, int] | None = None) -> None:
        super().__init__()
        self._view = view
        self._by_id = machine.by_id
        self._ids = machine._ids
        self._class_of: dict[Value, int] = {} if class_of is None else class_of

    def __missing__(self, i: int) -> int:
        state = self._by_id[i]
        view = self._view(state)
        c = self[self._ids[state]] = self._class_of.setdefault(
            view, len(self._class_of))
        return c


@dataclass(frozen=True)
class InfoFlowConfig:
    """Domains, permitted-flow policy, domain map and observations."""

    domains: tuple[str, ...]
    policy: frozenset[tuple[str, str]]
    dom: Mapping[ActionId, str]
    observe: Callable[[str, State], Value]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_classes", {})

    def classes(self, machine: StateMachine, domain: str) -> Mapping[int, int]:
        """`domain`'s observation class of each state id of `machine`.

        Two ids share a class exactly when `domain` observes equal values
        in their states.  `observe` runs once per (domain, state), at the
        first lookup of the id, and the table stays with the config.
        """
        tables = self._classes  # type: ignore[attr-defined]
        table = tables.get((machine, domain))
        if table is None:
            table = tables[(machine, domain)] = _Classes(
                partial(self.observe, domain), machine)
        return table

    def allows(self, source: str, target: str) -> bool:
        return (source, target) in self.policy

    def domain_of(self, action: ActionId) -> str:
        try:
            return self.dom[action]
        except KeyError:
            raise UsageError(
                f"action {action.display()!r} has no assigned domain") from None

    def select_domains(self, domains: Iterable[str] | None) -> tuple[str, ...]:
        """`domains` sorted and without repeats, or every domain when it
        is None. An undeclared one is a UsageError naming the declared."""
        if domains is None:
            return tuple(sorted(self.domains))
        chosen = tuple(sorted(set(domains)))
        unknown = [d for d in chosen if d not in self.domains]
        if unknown:
            raise UsageError(f"unknown domain {unknown[0]!r}; "
                             f"model declares {sorted(self.domains)}")
        return chosen

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
    with `add`.  `index` maps each discovered node to its position in
    `order`, its dense BFS id; it is the seen set.  `edges[k]` is the
    (parent position, action) edge that first reached `order[k]`, None
    for a root, and `trace_to` walks them back to a shortest trace.
    `depth` is the BFS depth of the node being expanded.  The roots,
    `initial` and the distinct `more_roots`, are at depth 0.
    """

    def __init__(self, initial: Hashable, budget: float | None = None,
                 noun: str = "states", *,
                 more_roots: Iterable[Hashable] = ()) -> None:
        self.order: list = list(dict.fromkeys((initial, *more_roots)))
        self.index: dict = {node: k for k, node in enumerate(self.order)}
        self.edges: list[tuple[int, Hashable] | None] = [None] * len(self.order)
        self.depth = 0
        self._limit = DEFAULT_STATE_BUDGET if budget is None else budget
        self._noun = noun

    def __iter__(self) -> Iterator:
        self.depth = 0
        level_end = self.edges.count(None)  # the first node one level deeper
        # A list iterator also yields the items appended while it runs.
        for i, node in enumerate(self.order):
            if i == level_end:
                self.depth += 1
                level_end = len(self.order)
            yield node

    def add(self, node: Hashable, parent: Hashable, action: Hashable) -> int:
        """Record `node` as reached from `parent` by `action`, unless seen,
        and return its position in `order`.

        Raises BudgetError when `node` would be one more than the budget.
        """
        k = self.index.get(node)
        if k is not None:
            return k
        k = len(self.order)
        if k >= self._limit:
            raise BudgetError(
                f"budget of {self._limit} {self._noun} exceeded at BFS depth "
                f"{self.depth + 1} (raise --budget or shrink the model)")
        self.index[node] = k
        self.edges.append((self.index[parent], action))
        self.order.append(node)
        return k

    def trace_to(self, node: Hashable) -> tuple:
        steps: list = []
        edge = self.edges[self.index[node]]
        while edge is not None:
            k, action = edge
            steps.append(action)
            edge = self.edges[k]
        steps.reverse()
        return tuple(steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Exploration) and \
            (self.order, self.edges) == (other.order, other.edges)

    __hash__ = None  # type: ignore[assignment]


def explore(machine: StateMachine, depth: int | None = None,
            budget: int | None = None) -> Exploration:
    """BFS over the machine's state ids in canonical action order.

    The exploration's nodes are ids (`machine.by_id` has their states).
    States at depth `depth` are discovered but not expanded.  Raises
    BudgetError once more than `budget` states have been discovered
    (default DEFAULT_STATE_BUDGET).
    """
    return explore_ids(machine.initial_id, machine.actions,
                       machine.successor_ids, depth, budget)


def explore_ids(initial_id: int, actions: Iterable[ActionId],
                successor_ids: Iterable[Mapping[int, tuple[int, ...]]],
                depth: int | None = None,
                budget: int | None = None) -> Exploration:
    """`explore` over bare successor tables, one per action."""
    search = Exploration(initial_id, budget)
    columns = tuple(zip(actions, successor_ids))
    for i in search:
        if depth is not None and search.depth >= depth:
            break
        for action, table in columns:
            successors = table.get(i)
            if successors:
                for j in successors:
                    search.add(j, i, action)
    return search


def reachable(machine: StateMachine, depth: int | None = None,
              budget: int | None = None) -> tuple[State, ...]:
    """Reachable states in BFS discovery order (see `explore`)."""
    by_id = machine.by_id
    return tuple(by_id[i] for i in explore(machine, depth, budget).order)


# ---------------------------------------------------------------------------
# Machine construction
# ---------------------------------------------------------------------------

def tabulate(initial: State,
             successors: Callable[[tuple], list[tuple[ActionId, tuple]]],
             budget: int | None = None,
             actions: tuple[ActionId, ...] | None = None,
             universe: Iterable[tuple] | None = None) -> StateMachine:
    """Materialize an explicit StateMachine by BFS over values tuples.

    `successors` returns the list of (action, successor values) steps of
    a values tuple over `initial`'s schema.  Steps are grouped by action
    in first-appearance order and each group is sorted by serialization,
    which fixes the discovery order.  It runs once per discovered tuple,
    and rows keep each successor as its position in the search; then one
    `State` is made per tuple and the ids are ranked by serialization.

    The alphabet is `actions` when given (sorted), else the actions
    enabled in some discovered state: an action that never fires would
    only stutter, so leaving it out changes no verdict while bounded-trace
    enumeration budgets on the real alphabet.  The `universe` tuples are
    further roots, kept with `initial` as the machine's universe; its
    `states` are what `explore_ids` reaches from `initial`.  More than
    `budget` states (default DEFAULT_STATE_BUDGET) raises BudgetError.
    """
    search = Exploration(initial.values, budget,
                         more_roots=() if universe is None else universe)
    index, add = search.index, search.add
    make = initial.with_values
    # rows[k]: the steps of search.order[k] as (action, position), or as
    # (action, positions) where some action has several successors
    rows: list = []
    for values in search:
        steps = successors(values)
        grouped = dict(steps)
        row = []
        if len(grouped) == len(steps):
            for action, succ in grouped.items():
                # most successors were seen before: find them without a call
                k = index.get(succ)
                row.append((action, add(succ, values, action) if k is None
                            else k))
        else:
            groups: dict[ActionId, set[tuple]] = {}
            for action, succ in steps:
                groups.setdefault(action, set()).add(succ)
            for action, succs in groups.items():
                row.append((action, tuple([
                    add(succ, values, action)
                    for succ in sorted(
                        succs, key=lambda v: make(v).serialize())])))
        rows.append(row)
    states = [make(values) for values in search.order]
    serials = [state.serialize() for state in states]
    ranked = sorted(range(len(states)), key=serials.__getitem__)
    new_id = [0] * len(states)
    for i, k in enumerate(ranked):
        new_id[k] = i
    tables: dict[ActionId, dict[int, tuple[int, ...]]] = \
        defaultdict(dict) if actions is None else {a: {} for a in actions}
    for i, k in enumerate(ranked):
        for action, targets in rows[k]:
            tables[action][i] = (new_id[targets],) if type(targets) is int \
                else tuple([new_id[j] for j in targets])
        rows[k] = None
    if actions is None:
        actions = sort_actions(tables)
    successor_ids, start = [tables[a] for a in actions], new_id[0]
    state_ids = universe_ids = None
    if universe is not None:
        universe_ids = sorted(new_id[:search.edges.count(None)])
        state_ids = sorted(explore_ids(start, actions, successor_ids,
                                       budget=budget).order)
    return StateMachine.from_tables(
        tuple(states[k] for k in ranked), actions, successor_ids, start,
        state_ids, universe_ids)
