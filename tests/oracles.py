"""The `State`-keyed machine build, kept as a test oracle.

`build_machine` is the build that `ifsec.core.tabulate` replaced: a
breadth-first search over `State` objects rather than values tuples.
Tests compare the two machines' layouts (`machine_layout`), so the
tabulation must keep this search's discovery order, alphabet, ids and
budget errors.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ifsec.core import (
    ActionId,
    Exploration,
    State,
    StateMachine,
    sort_actions,
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
    the reachable set, sorted, and its alphabet is the set of actions
    enabled in some reachable state: an action that never fires would
    only stutter, so leaving it out changes no verdict while bounded-trace
    enumeration budgets on the real alphabet.

    A state's steps are grouped in one dict, which is the whole grouping
    when no action has two steps there; each successor is kept only as
    its position in the search, so the search's object is the state, and
    ids are the positions ranked by serialization.
    """
    search = Exploration(initial, budget)
    index, add = search.index, search.add
    alphabet: set[ActionId] = set()
    # rows[k]: the steps of search.order[k] as (action, position), or as
    # (action, positions) where some action has several successors
    rows: list = []
    for state in search:
        steps = list(successors(state))
        grouped = dict(steps)
        alphabet.update(grouped)
        row = []
        if len(grouped) == len(steps):
            for action, succ in grouped.items():
                # most successors were seen before: find them without a call
                k = index.get(succ)
                row.append((action, add(succ, state, action) if k is None
                            else k))
        else:
            groups: dict[ActionId, set[State]] = {}
            for action, succ in steps:
                groups.setdefault(action, set()).add(succ)
            for action, succs in groups.items():
                row.append((action, tuple([
                    add(succ, state, action)
                    for succ in sorted(succs, key=State.serialize)])))
        rows.append(row)
    order = search.order
    serial = [state.serialize() for state in order]
    ranked = sorted(range(len(order)), key=serial.__getitem__)
    new_id = [0] * len(order)
    for i, k in enumerate(ranked):
        new_id[k] = i
    tables: dict[ActionId, dict[int, tuple[int, ...]]] = {
        action: {} for action in sort_actions(alphabet)}
    for i, k in enumerate(ranked):
        for action, targets in rows[k]:
            tables[action][i] = (new_id[targets],) if type(targets) is int \
                else tuple([new_id[j] for j in targets])
        rows[k] = None
    return StateMachine.from_tables(
        tuple(order[k] for k in ranked), tuple(tables), tables.values(),
        new_id[0])
