"""Plain forms of the machine layout and the frames, kept as test oracles.

`build_machine` is the build that `ifsec.core.tabulate` replaced: a
breadth-first search over `State` objects rather than values tuples.
Tests compare the two machines' layouts (`machine_layout`), so the
tabulation must keep this search's discovery order, alphabet, ids and
budget errors. `probed_rows` finds each state's steps by testing every
action's table, as `StateMachine.rows` must list them, and the two
frame oracles check one variable at a time by name, as the frames'
shortcuts must decide.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ifsec.core import (
    ActionId,
    Exploration,
    State,
    StateMachine,
)


def machine_layout(machine: StateMachine) -> tuple:
    """Everything a machine's ids fix, successor tables in key order."""
    return ([s.serialize() for s in machine.by_id], machine.actions,
            [list(table.items()) for table in machine.successor_ids],
            machine.state_ids, machine.universe_ids, machine.initial_id)


def build_machine(initial: State,
                  successors: Callable[[State], Iterable[tuple[ActionId, State]]],
                  budget: int | None = None) -> StateMachine:
    """Materialize an explicit StateMachine by BFS from `initial`.

    `successors` yields the (action, successor) steps of a state.  Steps
    are grouped by action in first-appearance order and each group is
    sorted, which fixes the discovery order.  The machine's `states` is
    the reachable set, and its alphabet is the set of actions
    enabled in some reachable state: an action that never fires would
    only stutter, so leaving it out changes no verdict while bounded-trace
    enumeration budgets on the real alphabet.

    A state's steps are grouped in one dict, which is the whole grouping
    when no action has two steps there; each successor is kept only as
    its position in the search, so the search's object is the state, and
    a state's id is its position, discovery order.
    """
    search = Exploration(initial, budget)
    index, add = search.index, search.add
    tables: dict[ActionId, dict[int, tuple[int, ...]]] = {}
    for i, state in enumerate(search):
        steps = list(successors(state))
        grouped = dict(steps)
        if len(grouped) == len(steps):
            for action, succ in grouped.items():
                # most successors were seen before: find them without a call
                k = index.get(succ)
                tables.setdefault(action, {})[i] = (
                    add(succ, i, action) if k is None else k,)
        else:
            groups: dict[ActionId, set[State]] = {}
            for action, succ in steps:
                groups.setdefault(action, set()).add(succ)
            for action, succs in groups.items():
                tables.setdefault(action, {})[i] = tuple([
                    add(succ, i, action)
                    for succ in sorted(succs, key=State.serialize)])
    actions = tuple(sorted(tables))
    return StateMachine.from_tables(
        tuple(search.order), actions, [tables[a] for a in actions], 0)


def probed_rows(machine: StateMachine) -> list[list[tuple[int, tuple]]]:
    """Each state's steps as (action position, successor ids), found by
    testing every action's table for the state's id."""
    return [[(x, table[i]) for x, table in enumerate(machine.successor_ids)
             if i in table] for i in range(len(machine.by_id))]


def oracle_frame_rely(fixed, holder=None, locks=None):
    """`frame_rely`, one variable at a time by name: the step keeps
    every fixed variable and, for each lock `holder` holds before it,
    the lock and what it guards."""
    def rely(before: State, after: State) -> bool:
        if any(before[v] != after[v] for v in fixed):
            return False
        return all(before[lock] != holder
                   or all(before[v] == after[v] for v in (lock, *guarded))
                   for lock, guarded in (locks or {}).items())
    return rely


def oracle_frame_guarantee(allowed, holder=None, locks=None):
    """`frame_guarantee`, one variable at a time by name: a variable
    that is not allowed may change only if it is a lock that `holder`
    takes or releases, or is guarded by a lock `holder` holds before
    the step."""
    locks = locks or {}
    guard = {v: lock for lock, guarded in locks.items() for v in guarded}

    def guarantee(before: State, after: State) -> bool:
        for name in before.names:
            old, new = before[name], after[name]
            if name in allowed or old == new:
                continue
            if name in locks:
                if holder not in (old, new):
                    return False
            elif name not in guard or before[guard[name]] != holder:
                return False
        return True
    return guarantee
