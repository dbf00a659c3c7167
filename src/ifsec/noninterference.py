"""Bounded noninterference checking for intransitive flow policies.

The property compares, for every trace up to a length bound and every
domain, the observations reachable after the full trace with those
reachable after purging the actions that may not influence the domain.
Purging is the classic intransitive recursion: walking the trace from
the right, an action survives exactly when its domain may flow, possibly
through later actions, to the observer.

`check_ni` does not run trace by trace. For each observer `d` it searches
breadth first over nodes (full-run state set, purged-run state set,
guessed sources of the rest of the trace, whether an action was dropped
yet), the automaton construction for IP-security of Eggert, van der
Meyden, Schnoor and Wilke (S&P 2011). In guess `S`, an action `a` of
domain `w` is kept exactly when `w` is in `S`, and the search moves to
each guess `S'` for which `sources(α) == S'` gives `sources(a·α) == S`,
whatever the rest `α` is. That `S` is unique (`S' ∪ {w}` when `w` is
outside `S'` and flows into it, else `S'`), so a trace has exactly one
path that ends on the guess `{d}`, the sources of the empty rest, and
along it the purged run is the run of `ipurge`. The search is a
`core.Exploration` over state ids; it expands each node once, so its
work follows the nodes, not the traces, and it ends when its queue empties.

`validate_unwinding_theorem` cross-checks this bounded search against
the unwinding conditions: unwinding passing while a bounded
counterexample exists means one of the two checkers is broken, and the
report flags that as an alarm instead of trusting either side.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ifsec import unwinding
from ifsec.core import (
    DEFAULT_TRACE_BUDGET,
    ActionId,
    BudgetError,
    Exploration,
    InfoFlowConfig,
    SecureSystem,
    State,
    UsageError,
    Value,
    equidom,
    record,
    run,
    sort_actions,
    value_key,
)

__all__ = [
    "NICounterexample",
    "NIResult",
    "TheoremCrossCheck",
    "check_ni",
    "ipurge",
    "ni_violated",
    "sources",
    "validate_unwinding_theorem",
]


def sources(trace: Sequence[ActionId], d: str, config: InfoFlowConfig) -> frozenset[str]:
    """Domains that may influence `d` over `trace`, walked right to left.

    The observer itself is always included; an action's domain joins the
    set exactly when the policy lets it flow to some domain already in
    the set (reflexive edges are not assumed, they must be in the policy).
    """
    srcs = {d}
    for action in reversed(trace):
        w = config.domain_of(action)
        if any(config.allows(w, v) for v in srcs):
            srcs.add(w)
    return frozenset(srcs)


def ipurge(trace: Sequence[ActionId], d: str, config: InfoFlowConfig) -> tuple[ActionId, ...]:
    """The subsequence of `trace` whose actions may influence `d`.

    An action is kept exactly when its domain is a source of the trace
    from that action onward. Computed in one right-to-left pass by
    threading the source set instead of re-walking the suffix.
    """
    kept: list[ActionId] = []
    srcs = {d}
    for action in reversed(trace):
        w = config.domain_of(action)
        flows = any(config.allows(w, v) for v in srcs)
        if w in srcs or flows:
            kept.append(action)
        if flows:
            srcs.add(w)
    kept.reverse()
    return tuple(kept)


@record
class NICounterexample:
    """A trace whose purged variant yields a different view for `domain`.

    `full_finals` and `purged_finals` are the final state sets of the
    two runs, sorted by serialization. `full_view` and `purged_view` are
    the observation images (sorted, deduplicated) over them; they differ
    by construction.
    """

    trace: tuple[ActionId, ...]
    domain: str
    purged: tuple[ActionId, ...]
    full_finals: tuple[State, ...]
    purged_finals: tuple[State, ...]
    full_view: tuple[Value, ...]
    purged_view: tuple[Value, ...]


@record
class NIResult:
    """Outcome of a bounded noninterference search.

    `traces_checked` counts the traces the search covered: every trace
    up to `max_len` on a pass, and on a failure every trace that sorts
    before the counterexample (shorter first), plus the counterexample.
    """

    ok: bool
    counterexample: NICounterexample | None
    traces_checked: int
    max_len: int
    domains: tuple[str, ...]
    actions: tuple[ActionId, ...]


@record
class TheoremCrossCheck:
    """Agreement record between unwinding and the bounded search.

    Unwinding is sound for noninterference, so `unwinding_ok` together
    with a failing bounded search is impossible unless a checker is
    wrong; that combination sets `alarm`. Every other combination is
    consistent (a failed unwinding proves nothing about bounded traces).
    """

    unwinding_ok: bool
    ni_ok: bool
    alarm: str | None
    unwinding: unwinding.UnwindingReport
    ni: NIResult

    @property
    def consistent(self) -> bool:
        return self.alarm is None


def _view(config: InfoFlowConfig, d: str, states: Iterable[State]) -> tuple[Value, ...]:
    image = {config.observe(d, s) for s in states}
    return tuple(sorted(image, key=value_key))


def ni_violated(system: SecureSystem, c: NICounterexample) -> bool:
    """True when `c` is a trace that breaks noninterference as recorded:
    `c.purged` is `ipurge` of `c.trace` for `c.domain`, the finals and
    views are those of the two stuttering runs from the initial state,
    and the domain can tell the two final state sets apart."""
    machine, config = system.machine, system.config
    full = run(machine, [machine.initial], c.trace)
    purged = run(machine, [machine.initial], c.purged)
    return (c.purged == ipurge(c.trace, c.domain, config)
            and c.full_finals == tuple(sorted(full))
            and c.purged_finals == tuple(sorted(purged))
            and c.full_view == _view(config, c.domain, full)
            and c.purged_view == _view(config, c.domain, purged)
            and not equidom(config, c.domain, full, purged))


def _guesses(config: InfoFlowConfig, d: str, owners: Sequence[str]):
    """The guessed-sources automaton of observer `d`; `owners[i]` is the
    domain of action `i`.

    Returns every value `sources(α, d)` can take, sorted, and for each
    such guess a row with one (kept, next guesses) pair per action. A
    next guess outside the family can never end on `{d}`, so it is left
    out; an empty tuple means the guess is dead.
    """
    def flows(w: str, targets: frozenset[str]) -> bool:
        return any(config.allows(w, v) for v in targets)

    family = {frozenset([d])}
    todo = list(family)
    while todo:
        guess = todo.pop()
        for w in set(owners) - guess:
            if flows(w, guess) and guess | {w} not in family:
                family.add(guess | {w})
                todo.append(guess | {w})
    moves = {}
    for guess in family:
        row = []
        for w in owners:
            if w not in guess:
                row.append((False, () if flows(w, guess) else (guess,)))
            elif guess - {w} in family:  # then w flows into guess - {w}
                row.append((True, (guess, guess - {w})))
            else:
                row.append((True, (guess,)))
        moves[guess] = row
    return sorted(family, key=sorted), moves


def check_ni(
    system: SecureSystem,
    max_len: int,
    *,
    domains: Iterable[str] | None = None,
    actions: Iterable[ActionId] | None = None,
    trace_budget: int | None = None,
) -> NIResult:
    """Search all traces up to `max_len` for a purge-visible difference.

    The reported counterexample is canonical: no shorter trace fails, no
    same-length trace that sorts earlier (in `sort_actions` order) does,
    and no domain earlier by name fails on the same trace. A trace its
    purge leaves whole is never a counterexample, even when its run ends
    in states the domain tells apart. Raises BudgetError before
    searching if the trace count would exceed the budget. Each
    observer's `Exploration` ends when its queue empties or at `max_len`.
    """
    if max_len < 0:
        raise UsageError("trace length bound must be >= 0")
    machine, config = system.machine, system.config
    doms = config.select_domains(domains)
    acts = sort_actions(machine.actions if actions is None else set(actions))
    for a in acts:
        if not machine.has_action(a):
            raise UsageError(f"unknown action {a.display()!r}")
    limit = DEFAULT_TRACE_BUDGET if trace_budget is None else trace_budget
    width = len(acts)
    # Count the traces, but only until the count passes the limit: from
    # width 2 on, each length doubles it, so that takes O(log limit).
    if width < 2:  # one trace of each length, or only the empty one
        total, over = (max_len + 1, max(limit, 0)) if width else (1, 0)
    else:
        total, term = 0, 1
        for over in range(max_len + 1):
            total, term = total + term, term * width
            if total > limit:
                break
    if total > limit:
        count = total if over == max_len else f"more than {limit}"
        raise BudgetError(
            f"trace budget exceeded: {count} traces of length <= {max_len} over "
            f"{width} actions (limit {limit}); raise --budget or lower --max-len"
        )

    initial = (machine.initial_id,)
    owners = [config.domain_of(a) for a in acts]
    tables = [machine.successor_ids[machine.actions.index(a)] for a in acts]
    succ: list[dict[tuple[int, ...], tuple[int, ...]]] = [{} for _ in acts]

    def advance(i: int, ids: tuple[int, ...]) -> tuple[int, ...]:
        nxt = succ[i].get(ids)
        if nxt is None:  # a state the action does not enable stutters
            nxt = succ[i][ids] = tuple(sorted(
                {j for s in ids for j in tables[i].get(s, (s,))}))
        return nxt

    def search(d: str, bound: int):
        # Nodes (full ids, purged ids, guess, dropped), one root per guess;
        # edges are indices into `acts`, so BFS goes in shortlex order.
        starts, moves = _guesses(config, d, owners)
        target = frozenset([d])
        view = config.classes(machine, d)
        roots = [(initial, initial, g, False) for g in starts]
        explored = Exploration(roots[0], float("inf"), more_roots=roots[1:])
        for node in explored:
            if explored.depth >= bound:
                break
            full, purged, guess, dropped = node
            for i, (kept, guesses) in enumerate(moves[guess]):
                node_full = advance(i, full)
                node_purged = advance(i, purged) if kept else purged
                node_dropped = dropped or not kept
                for g in guesses:
                    found = (node_full, node_purged, g, node_dropped)
                    n = len(explored.order)
                    if explored.add(found, node, i) < n or g != target \
                            or not node_dropped:
                        continue
                    # not equidom: more than one class over both id sets
                    if len({view[j] for j in node_full + node_purged}) > 1:
                        trace = explored.trace_to(found)
                        return len(trace), trace, found
        return None

    best = None
    for d in doms:
        found = search(d, max_len if best is None else best[0])
        if found is not None and (best is None or found[:2] < best[:2]):
            best = (*found, d)
    if best is None:
        return NIResult(True, None, total, max_len, doms, acts)
    _, indices, node, d = best
    trace = tuple(acts[i] for i in indices)
    finals, purged_finals = [tuple(sorted(machine.by_id[i] for i in ids))
                             for ids in node[:2]]
    counterexample = NICounterexample(
        trace, d, ipurge(trace, d, config), finals, purged_finals,
        _view(config, d, finals), _view(config, d, purged_finals))
    checked = sum((i + 1) * width**k for k, i in enumerate(reversed(indices))) + 1
    return NIResult(False, counterexample, checked, max_len, doms, acts)


def validate_unwinding_theorem(
    system: SecureSystem,
    max_len: int,
    *,
    trace_budget: int | None = None,
    state_budget: int | None = None,
) -> TheoremCrossCheck:
    """Run both checkers and flag the impossible disagreement.

    Passing unwinding conditions imply noninterference at every bound,
    so `unwinding ok, bounded search fails` can only mean a bug in one
    of the checkers. The converse direction is not checked because it
    does not hold: unwinding may fail for systems that are secure.
    """
    report = unwinding.check_unwinding(system, budget=state_budget)
    ni = check_ni(system, max_len, trace_budget=trace_budget)
    alarm = None
    if report.ok and not ni.ok:
        assert ni.counterexample is not None
        alarm = (
            "unwinding conditions hold but a bounded counterexample exists "
            f"(length {len(ni.counterexample.trace)}, domain {ni.counterexample.domain!r}); "
            "one of the two checkers is wrong"
        )
    return TheoremCrossCheck(
        unwinding_ok=report.ok,
        ni_ok=ni.ok,
        alarm=alarm,
        unwinding=report,
        ni=ni,
    )
