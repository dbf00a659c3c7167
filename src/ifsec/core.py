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
- All iteration orders are canonical: actions sort by label, states
  by their serialization, exploration is breadth-first with sorted
  action order.  Identical inputs always produce identical outputs.
- Every state and pair search is an `Exploration`: FIFO over the
  successors in the order the caller adds them, so the caller's
  successor order alone fixes the discovery order, the first-reaching
  parent edges and the witness traces; never iterate a set there.  A
  search names a successor's parent by its position, so it hashes no
  parent again.
- Programs and model files alike build machines by `tabulate`, one
  search over values tuples with one `State` per distinct tuple.  A
  step names its action by position in an alphabet the caller owns,
  and each action's steps from a state are adjacent, so the build
  fills one table per position and hashes no action.  Its
  machines' `state_ids` are what `explore` reaches, so a reachable
  scope explores only to trace a witness.
- A machine is indexed: its states are numbered 0..n-1 (`by_id`), by
  `tabulate` in discovery order, not serialization order; each state,
  each id and each single-successor tuple `(k,)` is one object, and
  each action has one table from a state id to its successor ids.
  A walk over a whole machine's steps (the joint search and the
  rely-guarantee lemmas) reads them state by state off `rows`, three
  flat lists made once from the tables; every other reader keeps to
  the per-action tables, so a passing unwinding check makes none.  No
  verdict or witness depends on the numbering: a canonical witness
  compares serializations, and only once it has found a failure.
  Every checker's search, bounded NI's too, runs on those ids (so a
  passing check hashes no state) and on per-(domain, state id)
  observation classes (`InfoFlowConfig.classes`), lists filled in one
  pass over `by_id` (`class_table`); `State` objects are what `step`,
  `run` (witness re-checks, replay), the `transitions` view, scopes and
  witnesses hand out, and what the user's relations (alpha's keys or
  predicate, relies, guarantees) are given.
- The states of one machine share a schema, the sorted variable names
  with their positions; a state is a values tuple over it, and
  `assign` copies the values without sorting.  Code that reads values
  by position (frames, alpha keys, model-file observations) resolves
  the positions once per schema through `layout`, and `values_getter`
  reads some variables' values off a values tuple or a state.
- An action is its label, a `str` (`ActionId`).  The other value
  objects of the library (configurations, programs, reports,
  witnesses, documents) are frozen records (`record`): fields from
  class annotations, dataclass-style equality, hash and repr, with
  `fields` and `replace` to read and copy them.
"""

from __future__ import annotations

from collections.abc import (Callable, Hashable, Iterable, Iterator, Mapping,
                             Sequence)
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import NewType

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
# Records
# ---------------------------------------------------------------------------

_MISSING = object()


class Field:
    """One field of a `record` class: its name, its default (`_MISSING`
    when it has none) and whether `repr` shows it and equality and
    hashing compare it.  A class body gives a field's options as its
    value, `name: type = Field(...)`."""

    __slots__ = ("name", "default", "repr", "compare")

    def __init__(self, *, default: object = _MISSING, repr: bool = True,
                 compare: bool = True) -> None:
        self.name = ""
        self.default = default
        self.repr = repr
        self.compare = compare


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make `cls` a frozen record over its annotated fields.

    The semantics are `@dataclass(frozen=True)`'s, built from closures:
    defining a record generates and compiles no code, and nothing
    imports the module of `@dataclass`, which imports `inspect`:
    - `__init__` takes the fields by position or keyword, in order,
      inherited record fields first, fills in defaults and then calls
      `__post_init__` when the class has one;
    - `__eq__` compares the compared fields as a tuple, and only between
      instances of one class; `__hash__` hashes that tuple;
    - `__repr__` is `Name(field=value, ...)` over the shown fields;
    - assigning or deleting an attribute raises AttributeError, so
      `__post_init__` sets derived attributes by `object.__setattr__`,
      and `functools.cached_property`, which writes to the instance
      `__dict__`, works.
    A field's class attribute is its default, or a `Field`. A method
    the class body defines is kept.
    """
    specs = {f.name: f for base in reversed(cls.__mro__[1:])
             for f in vars(base).get("__record_fields__", ())}
    for name in vars(cls).get("__annotations__", {}):
        value = vars(cls).get(name, _MISSING)
        spec = value if isinstance(value, Field) else Field(default=value)
        spec.name = name
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
        elif value is not _MISSING:
            delattr(cls, name)
        specs[name] = spec
    fields_ = tuple(specs.values())
    names = tuple(specs)
    defaults = {f.name: f.default for f in fields_
                if f.default is not _MISSING}
    compared = tuple(f.name for f in fields_ if f.compare)
    shown = tuple(f.name for f in fields_ if f.repr)
    post_init = hasattr(cls, "__post_init__")

    def key(self: object) -> tuple:
        return tuple([getattr(self, name) for name in compared])

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(names):
            args = _arguments(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({body})"

    cls.__record_fields__ = fields_
    for name, method in (("__init__", __init__), ("__eq__", __eq__),
                         ("__repr__", __repr__),
                         ("__setattr__", _frozen_setattr),
                         ("__delattr__", _frozen_delattr)):
        if name not in vars(cls):
            setattr(cls, name, method)
    # a class body that defines `__eq__` alone gets `__hash__ = None`
    if vars(cls).get("__hash__") is None:
        cls.__hash__ = __hash__
    return cls


def _arguments(cls: type, names: tuple[str, ...], defaults: dict,
               args: tuple, kwargs: dict) -> tuple:
    """A record's field values, in field order, from `__init__`'s
    arguments; a TypeError as for a function with those parameters."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names) + 1} positional "
                        f"arguments but {len(args) + 1} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(
                f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(
                f"{where} got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names
               if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{where} missing required argument "
                        f"{', '.join(map(repr, missing))}")
    return tuple(values[name] if name in values else defaults[name]
                 for name in names)


def fields(obj: object) -> tuple[Field, ...]:
    """The fields of a record class or instance, in `__init__`'s order."""
    try:
        return obj.__record_fields__  # type: ignore[attr-defined]
    except AttributeError:
        raise TypeError(f"{obj!r} is not a record") from None


def replace(obj: object, /, **changes: object) -> object:
    """A copy of the record `obj` with the given fields replaced;
    `__post_init__` runs on the copy."""
    for spec in fields(obj):
        changes.setdefault(spec.name, getattr(obj, spec.name))
    return obj.__class__(**changes)


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

    __slots__ = ("names", "index", "hash", "layouts")

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.hash = hash(names)
        # layout function -> what it made of `index`; see `layout`
        self.layouts: dict[Callable, object] = {}


def _name(item: tuple[str, Value]) -> str:
    return item[0]


class State:
    """An immutable finite map from variable names to values.

    A state is a values tuple over a schema of sorted variable names,
    hashed at the first `hash`.  Serialization is `name=value` pairs
    sorted by name and joined with semicolons; it is the canonical
    order used for witness selection.
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
        self._hash: int | None = None
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
        """`name=value` pairs in name order, joined with semicolons,
        rendered at the first call and kept with the state."""
        serial = self._serial
        if serial is None:
            serial = self._serial = ";".join([
                f"{name}={render_value(value)}"
                for name, value in zip(self._schema.names, self._values)])
        return serial

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (isinstance(other, State) and self._values == other._values
                and (self._schema is other._schema
                     or self._schema.names == other._schema.names))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._schema.hash, self._values))
        return h

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


#: An action is its label; the type marks the fields that name actions.
ActionId = NewType("ActionId", str)


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------

#: A machine's steps by state: offsets by id, action positions, successor
#: ids (`StateMachine.rows`).
Rows = tuple[list[int], list[int], list[tuple[int, ...]]]


class StateMachine:
    """An explicit machine: states, actions, set-valued step, initial state.

    A machine is indexed.  `by_id` numbers every state it knows, its
    states, its universe and every successor, 0..n-1 in the builder's
    order: `tabulate`'s is discovery order, not serialization order, and
    the constructor's is serialization order.  Either way ids do not
    depend on hashing, and no checker's output depends on them; `id_of`
    maps back, by a map made at the first `id_of`, `step` or `enabled`.
    Each state is one object: every successor is the `by_id` entry; both
    builders also make each id one int and each lone successor k one `(k,)`.
    `successor_ids[k]` is the table of `actions[k]`: it maps the id of
    each state that enables the action to its successor ids, keys in
    ascending order, no empty entries.  `state_ids` and `universe_ids`
    (an optional larger declared state space for universe-scoped
    checks) are ascending; `states` and `universe` are their states in
    that order.  A machine `tabulate` built is `tabulated`: its
    `state_ids` are the ids `explore` reaches, where the constructor's
    `states` may hold unreachable ones.  `transitions` is a read-only
    (state, action) -> successors view of the tables, and `rows`, made
    at its first call, lists the same steps state by state.

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
        singles = [(i,) for i in ids.values()]
        actions = tuple(actions)
        tables: list[dict[int, tuple[int, ...]]] = [{} for _ in actions]
        position = {action: k for k, action in enumerate(actions)}
        for (state, action), successors in sorted(
                transitions.items(), key=lambda item: ids[item[0][0]]):
            if action not in position:
                raise ModelError(
                    f"transition on undeclared action {action!r}")
            if successors:
                row = tuple(ids[s] for s in successors)
                tables[position[action]][ids[state]] = \
                    singles[row[0]] if len(row) == 1 else row
        self._lay_out(by_id, actions, tables, ids[initial],
                      sorted({ids[s] for s in states}),
                      None if universe is None
                      else sorted({ids[s] for s in universe}), False)

    @classmethod
    def from_tables(cls, by_id: tuple[State, ...], actions: tuple[ActionId, ...],
                    successor_ids: Iterable[dict[int, tuple[int, ...]]],
                    initial_id: int, state_ids: Iterable[int] | None = None,
                    universe_ids: Iterable[int] | None = None,
                    tabulated: bool = False) -> "StateMachine":
        """A machine over tables already laid out as the class describes;
        `state_ids` defaults to every id."""
        machine = cls.__new__(cls)
        machine._lay_out(by_id, actions, successor_ids, initial_id,
                         range(len(by_id)) if state_ids is None else state_ids,
                         universe_ids, tabulated)
        return machine

    def _lay_out(self, by_id, actions, successor_ids, initial_id, state_ids,
                 universe_ids, tabulated) -> None:
        def states_of(chosen: tuple[int, ...]) -> tuple[State, ...]:
            if len(chosen) == len(by_id):
                return by_id
            return tuple(by_id[i] for i in chosen)

        self.by_id: tuple[State, ...] = by_id
        self._ids: dict[State, int] | None = None
        self._rows: Rows | None = None
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
        self.tabulated = tabulated

    def __repr__(self) -> str:
        return (f"StateMachine({len(self.states)} states, "
                f"{len(self.actions)} actions)")

    @property
    def transitions(self) -> Mapping[tuple[State, ActionId], tuple[State, ...]]:
        return _Transitions(self)

    def id_of(self, state: State) -> int | None:
        """The id of `state`, or None when the machine does not know it."""
        ids = self._ids
        if ids is None:
            ids = self._ids = {state: i for i, state in enumerate(self.by_id)}
        return ids.get(state)

    def rows(self) -> Rows:
        """The steps state by state, as three flat lists `(offsets, xs,
        successors)`: the entries of state i are the positions from
        `offsets[i]` up to `offsets[i + 1]`, in action order, and entry
        k is action `xs[k]`'s table entry for i, `successors[k]` being
        the table's own tuple.  Made at the first call, in one pass over
        `successor_ids` that probes no table, and kept: a walk over a
        whole machine reads a state's steps without testing every
        action's table for it."""
        rows = self._rows
        if rows is None:
            tables = self.successor_ids
            offsets = [0] * (len(self.by_id) + 1)
            for table in tables:
                for i in table:
                    offsets[i] += 1
            total = 0
            for i, count in enumerate(offsets):
                total += count
                offsets[i] = total
            # Each offset is now the end of its row.  Rows fill from the
            # end, last action first, and each offset ends at its row's
            # start.
            xs, successors = [0] * total, [()] * total
            for x in range(len(tables) - 1, -1, -1):
                for i, row in tables[x].items():
                    k = offsets[i] = offsets[i] - 1
                    xs[k], successors[k] = x, row
            rows = self._rows = (offsets, xs, successors)
        return rows

    def has_action(self, action: ActionId) -> bool:
        return action in self._position

    def step(self, state: State, action: ActionId) -> tuple[State, ...]:
        """Raw successors of `state` under `action`; empty when disabled."""
        k = self._position.get(action)
        if k is None:
            raise UsageError(f"unknown action {action!r}")
        successors = self.successor_ids[k].get(self.id_of(state))
        if not successors:
            return ()
        by_id = self.by_id
        return tuple([by_id[j] for j in successors])

    def step_total(self, state: State, action: ActionId) -> tuple[State, ...]:
        """Stuttering form of `step`: a disabled action yields the state itself."""
        successors = self.step(state, action)
        return successors if successors else (state,)

    def enabled(self, state: State) -> tuple[ActionId, ...]:
        i = self.id_of(state)
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


def class_table(view: Callable[[State], Value], machine: StateMachine,
                class_of: dict[Value, int] | None = None) -> list[int]:
    """The class of `view`'s value in each state of `machine`, by state id.

    One pass over `by_id` runs `view` once per state.  Two ids share a
    class exactly when their views are equal; tables made with one
    `class_of` table share its classes, numbered in the order the pass
    meets new views.
    """
    if class_of is None:
        class_of = {}
    number = class_of.setdefault
    return [number(value, len(class_of)) for value in map(view, machine.by_id)]


@record
class InfoFlowConfig:
    """Domains, permitted-flow policy, domain map and observations."""

    domains: tuple[str, ...]
    policy: frozenset[tuple[str, str]]
    dom: Mapping[ActionId, str]
    observe: Callable[[str, State], Value]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_classes", {})

    def classes(self, machine: StateMachine, domain: str) -> list[int]:
        """`domain`'s observation class of each state id of `machine`.

        Two ids share a class exactly when `domain` observes equal values
        in their states.  The list is filled in one pass, the first time
        a (machine, domain) is asked for, so `observe` runs once per
        (domain, state); the table stays with the config.
        """
        tables = self._classes  # type: ignore[attr-defined]
        table = tables.get((machine, domain))
        if table is None:
            table = tables[(machine, domain)] = class_table(
                partial(self.observe, domain), machine)
        return table

    def allows(self, source: str, target: str) -> bool:
        return (source, target) in self.policy

    def domain_of(self, action: ActionId) -> str:
        try:
            return self.dom[action]
        except KeyError:
            raise UsageError(
                f"action {action!r} has no assigned domain") from None

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
                    f"action {action!r} maps to unknown domain {d!r}")


@record
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
    with `add`, which takes the position of the node being expanded
    (its index in that iteration), so no search hashes a parent again.
    `index` maps each discovered node to its position in `order`, its
    dense BFS id; it is the seen set.  `edges[k]` is the position of
    the parent that first reached `order[k]`, None for a root, and
    `actions[k]` the action it took; `trace_to` walks them back to a
    shortest trace.
    `depth` is the BFS depth of the node being expanded.  The roots,
    `initial` and the distinct `more_roots`, are at depth 0; more of
    them than the budget raises BudgetError at depth 0.
    """

    def __init__(self, initial: Hashable, budget: float | None = None,
                 noun: str = "states", *,
                 more_roots: Iterable[Hashable] = ()) -> None:
        self.order: list = list(dict.fromkeys((initial, *more_roots)))
        self.index: dict = {node: k for k, node in enumerate(self.order)}
        self.edges: list[int | None] = [None] * len(self.order)
        self.actions: list = [None] * len(self.order)
        self.depth = 0
        self._limit = DEFAULT_STATE_BUDGET if budget is None else budget
        self._noun = noun
        if len(self.order) > self._limit:
            raise self._exceeded(0)

    def _exceeded(self, depth: int) -> BudgetError:
        return BudgetError(
            f"budget of {self._limit} {self._noun} exceeded at BFS depth "
            f"{depth} (raise --budget or shrink the model)")

    def __iter__(self) -> Iterator:
        self.depth = 0
        level_end = self.edges.count(None)  # the first node one level deeper
        # A list iterator also yields the items appended while it runs.
        for i, node in enumerate(self.order):
            if i == level_end:
                self.depth += 1
                level_end = len(self.order)
            yield node

    def add(self, node: Hashable, parent: int, action: Hashable) -> int:
        """Record `node` as reached by `action` from the node at position
        `parent` in `order`, unless seen, and return its position.

        Raises BudgetError when `node` would be one more than the budget.
        """
        k = self.index.get(node)
        if k is not None:
            return k
        k = len(self.order)
        if k >= self._limit:
            raise self._exceeded(self.depth + 1)
        self.index[node] = k
        self.edges.append(parent)
        self.actions.append(action)
        self.order.append(node)
        return k

    def trace_to(self, node: Hashable) -> tuple:
        steps: list = []
        edges, actions, k = self.edges, self.actions, self.index[node]
        while edges[k] is not None:
            steps.append(actions[k])
            k = edges[k]
        steps.reverse()
        return tuple(steps)


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
    for k, i in enumerate(search):
        if depth is not None and search.depth >= depth:
            break
        for action, table in columns:
            successors = table.get(i)
            if successors:
                for j in successors:
                    search.add(j, k, action)
    return search


def reachable(machine: StateMachine, depth: int | None = None,
              budget: int | None = None) -> tuple[State, ...]:
    """Reachable states in BFS discovery order (see `explore`)."""
    by_id = machine.by_id
    return tuple(by_id[i] for i in explore(machine, depth, budget).order)


# ---------------------------------------------------------------------------
# Machine construction
# ---------------------------------------------------------------------------

#: A step of no action after a state's last one, so that `tabulate`'s
#: loop fills a state's last run of steps too.
_END = ((-2, None),)


def tabulate(initial: State,
             successors: Callable[[State], list[tuple[int, tuple]]],
             actions: Sequence[ActionId], budget: int | None = None,
             universe: Iterable[tuple] | None = None) -> StateMachine:
    """Materialize an explicit StateMachine by BFS over values tuples.

    `successors` returns the list of (action position, successor values)
    steps of a state, the values over `initial`'s schema and the
    position an index into `actions`, which fills one table per
    position.  Each action's steps are adjacent in the list: a lone step
    is filled as it comes, hashing no action, and a run of steps of
    one action is sorted by serialization, which fixes the discovery
    order.  An action whose steps are not adjacent is a UsageError.
    The search runs on values tuples; each discovered tuple is made a
    `State` once, when it is expanded, and that state is both
    `successors`' argument and the machine's.  A state's id is its
    position in the search, discovery order, not serialization order:
    the roots come first, and each state's table entries are filled
    when it is expanded, naming id k by the one int the search's
    `index` holds and one shared `(k,)`.

    The caller owns the alphabet `actions`.  A tuple is declared whole
    and is the machine's alphabet.  A list may grow while the search
    runs, `successors` putting each action at the next position when it
    first meets it, and the machine's alphabet is its actions with a
    step, sorted: an action that never fires would only stutter, so
    leaving it out changes no verdict while bounded-trace enumeration
    budgets on the real alphabet.  The `universe` tuples are further
    roots, kept with `initial` as the machine's universe, ids 0..U-1;
    its `states` are what `explore_ids` reaches from `initial`.  More
    than `budget` states (default DEFAULT_STATE_BUDGET) raises
    BudgetError.
    """
    search = Exploration(initial.values, budget,
                         more_roots=() if universe is None else universe)
    index, add = search.index, search.add
    singles = [(k,) for k in index.values()]  # (k,) for id k, k from `index`
    make = initial.with_values
    tables: list[dict[int, tuple[int, ...]]] = [{} for _ in actions]
    states: list[State] = []
    # `singles` grows with `search`, so the two stay in step
    for (i,), values in zip(singles, search):
        state = make(values)
        states.append(state)
        steps = successors(state)
        if len(tables) < len(actions):
            tables += [{} for _ in range(len(actions) - len(tables))]
        # x is the action of the run of steps not yet filled (-1 before
        # the first step), filled when a step of another action comes;
        # `run` holds its successors once it has two steps
        x, succ, run = -1, None, None
        for y, following in chain(steps, _END):
            if y == x:
                if run is None:
                    run = {succ}
                run.add(following)
                continue
            if x >= 0:
                table = tables[x]
                if i in table:
                    raise UsageError(
                        f"the steps of action {actions[x]!r} from "
                        f"{state.serialize()} are not adjacent; list each "
                        "action's steps together")
                if run is None:
                    # most successors were seen before: find them without a call
                    k = index.get(succ)
                    if k is None:
                        k = add(succ, i, x)
                        singles.append((k,))
                    table[i] = singles[k]
                else:
                    seen = len(singles)
                    ids = tuple([add(v, i, x) for v in sorted(
                        run, key=lambda v: make(v).serialize())])
                    singles.extend([(k,) for k in ids if k >= seen])
                    table[i] = singles[ids[0]] if len(ids) == 1 else ids
            x, succ, run = y, following, None
    if isinstance(actions, tuple):
        alphabet, successor_ids = actions, tables
    else:
        xs = sorted((x for x, table in enumerate(tables) if table),
                    key=actions.__getitem__)
        alphabet = tuple([actions[x] for x in xs])
        successor_ids = [tables[x] for x in xs]
    state_ids, universe_ids = tuple(index.values()), None
    if universe is not None:
        universe_ids = state_ids[:search.edges.count(None)]
        state_ids = sorted(explore_ids(0, alphabet, successor_ids,
                                       budget=budget).order)
    return StateMachine.from_tables(tuple(states), alphabet, successor_ids, 0,
                                    state_ids, universe_ids, tabulated=True)
