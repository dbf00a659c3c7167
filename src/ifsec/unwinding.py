"""Local-respect and step-consistency checks over an explicit state scope.

Local respect: an action may only change the observations of domains its
own domain is permitted to flow to.  Step consistency: running one action
from two states a domain cannot tell apart (where, if the action's domain
may flow to the observer, the action's domain cannot tell them apart
either) must land in states the observer still cannot tell apart.

Both checks pass exactly when every quantified instance holds over the
chosen scope of states; a failure is reported with the lexicographically
least witness under (action, domain, serialized states), so reruns always
produce the identical counterexample.  The scans run in id order, which
is the builder's and need not be serialization order; once a check has
found its first failing (action, domain), it compares serializations to
pick the least witness there, so a passing check serializes nothing.
Both quantify over the raw step relation: a disabled action contributes
no instances.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Mapping
from functools import cached_property, partial

from .core import (
    DEFAULT_STATE_BUDGET,
    ActionId,
    Exploration,
    Field,
    SecureSystem,
    State,
    StateMachine,
    UsageError,
    explore,
    indist,
    record,
)


@record
class Scope:
    """The states a check quantifies over, with its provenance tag.

    `ids` are the machine's ids of the scoped states, ascending: the
    builder's order (discovery order for `tabulate`), not serialization
    order.  A reachable scope traces a state by the
    breadth-first search that reached it: `search` returns that
    `Exploration`, and runs at the first `trace_to`, not before, so a
    check that finds no witness explores nothing.  A universe scope has
    no search and no traces.
    """

    machine: StateMachine = Field(compare=False, repr=False)
    ids: tuple[int, ...]
    tag: str
    search: Callable[[], Exploration] | None = Field(
        default=None, compare=False, repr=False)

    @property
    def states(self) -> tuple[State, ...]:
        by_id = self.machine.by_id
        return tuple(by_id[i] for i in self.ids)

    @property
    def whole(self) -> bool:
        """True when the scope holds every id of its machine."""
        return len(self.ids) == len(self.machine.by_id)

    @cached_property
    def member(self) -> bytearray:
        """Byte i is 1 when id i is in the scope."""
        member = bytearray(len(self.machine.by_id))
        for i in self.ids:
            member[i] = 1
        return member

    @cached_property
    def _exploration(self) -> Exploration | None:
        return None if self.search is None else self.search()

    def trace_to(self, state: State, i: int | None = None
                 ) -> tuple[ActionId, ...] | None:
        """The search's trace to `state`, whose id is `i` when given."""
        exploration = self._exploration
        if i is None:
            i = self.machine.id_of(state)
        if exploration is None or i not in exploration.index:
            return None
        return exploration.trace_to(i)


def scope_reachable(system: SecureSystem, depth: int | None = None,
                    budget: int | None = None) -> Scope:
    """The states `explore` reaches from the initial state, within
    `depth` steps when given.

    A `tabulated` machine's `state_ids` are that set already, so the
    scope takes them and explores only at its first trace.  It explores
    at once when `budget` is below their number, so that the search
    raises its BudgetError.
    """
    machine = system.machine
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    if depth is None and machine.tabulated and \
            len(machine.state_ids) <= limit:
        return Scope(machine, machine.state_ids, "reachable",
                     partial(explore, machine, budget=budget))
    ex = explore(machine, depth=depth, budget=budget)
    tag = "reachable" if depth is None else f"reachable(depth={depth})"
    return Scope(machine, tuple(sorted(ex.order)), tag, lambda: ex)


def scope_universe(system: SecureSystem) -> Scope:
    machine = system.machine
    if machine.universe_ids is None:
        raise UsageError(
            "this model declares no state universe; run without --universe")
    return Scope(machine, machine.universe_ids, "universe")


def _state_id() -> Field:
    """A witness state's id, which the check that found the witness
    knows: a scope traces the state by it, without mapping every state
    to its id. No part of the witness: equality, repr and JSON leave it
    out."""
    return Field(default=None, compare=False, repr=False)


@record
class LRViolation:
    action: ActionId
    domain: str
    state: State
    successor: State
    state_id: int | None = _state_id()


@record
class SCViolation:
    action: ActionId
    domain: str
    s1: State
    s2: State
    s1_successor: State
    s2_successor: State
    s1_id: int | None = _state_id()
    s2_id: int | None = _state_id()


@record
class UnwindingReport:
    lr: LRViolation | None
    sc: SCViolation | None
    scope: Scope
    stutter: bool

    @property
    def ok(self) -> bool:
        return self.lr is None and self.sc is None

    @property
    def scope_tag(self) -> str:
        return self.scope.tag

    @property
    def scope_size(self) -> int:
        return len(self.scope.ids)


def lr_violated(system: SecureSystem, v: LRViolation) -> bool:
    """True when `v` is an instance that breaks local respect: the
    acting domain may not flow to `v.domain`, yet the step from
    `v.state` to `v.successor` changes what `v.domain` observes."""
    config = system.config
    return (not config.allows(config.domain_of(v.action), v.domain)
            and v.successor in system.machine.step(v.state, v.action)
            and not indist(config, v.domain, v.state, v.successor))


def sc_violated(system: SecureSystem, v: SCViolation) -> bool:
    """True when `v` is an instance that breaks step consistency: the
    premise holds for `v.s1` and `v.s2` (equal `v.domain` view, and
    equal acting-domain view when that domain may flow to `v.domain`),
    yet their successors under `v.action` differ in `v.domain`'s view."""
    config, step = system.config, system.machine.step
    acting = config.domain_of(v.action)
    return (indist(config, v.domain, v.s1, v.s2)
            and (not config.allows(acting, v.domain)
                 or indist(config, acting, v.s1, v.s2))
            and v.s1_successor in step(v.s1, v.action)
            and v.s2_successor in step(v.s2, v.action)
            and not indist(config, v.domain, v.s1_successor, v.s2_successor))


def _enabled(table: Mapping[int, tuple[int, ...]],
             scope: Scope) -> Collection[tuple[int, tuple[int, ...]]]:
    """The (id, successor ids) rows of `table` whose state is in the
    scope, ids ascending: the table's own rows when the scope holds every
    id, else a walk of whichever of the scope and the table is shorter."""
    if scope.whole:
        return table.items()
    if len(scope.ids) < len(table):
        get = table.get
        return [(i, successors) for i in scope.ids
                if (successors := get(i))]
    member = scope.member
    return [(i, successors) for i, successors in table.items() if member[i]]


def check_lr(system: SecureSystem, scope: Scope,
             domains: Iterable[str] | None = None) -> LRViolation | None:
    """First (least) local-respect violation in the scope, or None.

    Iterates actions, then domains the action may not flow to, then
    states in id order, the builder's order.  At the first (action,
    domain) with an observation change, the canonical witness is its
    least state in serialization order, then id, with that state's first
    changing successor.
    """
    machine, config = system.machine, system.config
    chosen = config.select_domains(domains)
    for action, table in zip(machine.actions, machine.successor_ids):
        acting = config.domain_of(action)
        blocked = [d for d in chosen if not config.allows(acting, d)]
        if not blocked:
            continue
        rows = _enabled(table, scope)
        for domain in blocked:
            view = config.classes(machine, domain)
            changes = {}  # id -> its first successor `domain` tells apart
            for i, successors in rows:
                before = view[i]
                for j in successors:
                    if view[j] != before:
                        changes[i] = j
                        break
            if changes:
                by_id = machine.by_id
                i = min(changes, key=lambda i: by_id[i].serialize())
                return LRViolation(action, domain, by_id[i],
                                   by_id[changes[i]], i)
    return None


def check_sc(system: SecureSystem, scope: Scope,
             domains: Iterable[str] | None = None) -> SCViolation | None:
    """First (least) step-consistency violation in the scope, or None.

    For each (action, domain) the scope is partitioned into premise classes
    (equal observer view, plus equal acting-domain view when the policy
    lets the acting domain reach the observer).  The condition holds for a
    class iff all successors agree on the observer's view, so a class with
    two successor views is a violation.  Of the violating classes of the
    first such (action, domain), the witness comes from the one whose
    least member in serialization order is least: its least offending
    ordered state pair, members taken in serialization order, then id.
    """
    machine, config = system.machine, system.config
    chosen = config.select_domains(domains)
    for action, table in zip(machine.actions, machine.successor_ids):
        acting = config.domain_of(action)
        rows = _enabled(table, scope)
        if not rows:
            continue
        for domain in chosen:
            view = config.classes(machine, domain)
            acting_view = config.classes(machine, acting) \
                if config.allows(acting, domain) else None
            # The successor view each premise class met first.  A row's
            # class is made as the row is read: a list of them would be
            # the largest allocation of a check over a large scope.
            seen: dict = {}
            violating = set()
            for i, successors in rows:
                key = view[i] if acting_view is None \
                    else (view[i], acting_view[i])
                for j in successors:
                    after = view[j]
                    if seen.setdefault(key, after) != after:
                        violating.add(key)
            if not violating:
                continue
            premise = [view[i] if acting_view is None
                       else (view[i], acting_view[i]) for i, _ in rows]
            members = _least_class(machine, rows, premise, violating)
            for i1, successors1 in members:
                for j1 in successors1:
                    for i2, successors2 in members:
                        for j2 in successors2:
                            if view[j2] != view[j1]:
                                by_id = machine.by_id
                                return SCViolation(
                                    action, domain, by_id[i1], by_id[i2],
                                    by_id[j1], by_id[j2], i1, i2)
    return None


def _least_class(machine: StateMachine,
                 rows: Collection[tuple[int, tuple[int, ...]]],
                 premise: list, violating: set) -> list:
    """The rows of the violating premise class whose least member in
    serialization order is least, in serialization order, then id;
    `premise[k]` is the class of `rows[k]`."""
    by_id = machine.by_id
    ordered = sorted((by_id[row[0]].serialize(), row, key)
                     for row, key in zip(rows, premise) if key in violating)
    least = ordered[0][2]
    return [row for _, row, key in ordered if key == least]


def has_stutter(system: SecureSystem, scope: Scope) -> bool:
    """True when some scoped state leaves some action disabled."""
    whole = scope.whole
    for table in system.machine.successor_ids:
        # A table with fewer keys than the scope has ids misses one; on a
        # whole scope, one with as many keys misses none.
        if len(table) < len(scope.ids) or not whole and any(
                i not in table for i in scope.ids):
            return True
    return False


def check_unwinding(system: SecureSystem, scope: Scope | None = None,
                    domains: Iterable[str] | None = None,
                    depth: int | None = None,
                    budget: int | None = None) -> UnwindingReport:
    """Run both unwinding checks; a double pass entitles the purge-based
    noninterference conclusion at any trace length."""
    if scope is None:
        scope = scope_reachable(system, depth=depth, budget=budget)
    return UnwindingReport(
        lr=check_lr(system, scope, domains),
        sc=check_sc(system, scope, domains),
        scope=scope,
        stutter=has_stutter(system, scope),
    )
