"""Bounded noninterference checking for intransitive flow policies.

The property compares, for every trace up to a length bound and every
domain, the observations reachable after the full trace with those
reachable after purging the actions that may not influence the domain.
Purging is the classic intransitive recursion: walking the trace from
the right, an action survives exactly when its domain may flow, possibly
through later actions, to the observer.

`validate_unwinding_theorem` cross-checks this bounded search against
the unwinding conditions: unwinding passing while a bounded
counterexample exists means one of the two checkers is broken, and the
report flags that as an alarm instead of trusting either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ifsec.core import (
    DEFAULT_TRACE_BUDGET,
    ActionId,
    BudgetError,
    InfoFlowConfig,
    SecureSystem,
    State,
    UsageError,
    Value,
    equidom,
    run,
    sort_actions,
    value_key,
)
from ifsec.unwinding import UnwindingReport, check_unwinding

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


@dataclass(frozen=True)
class NICounterexample:
    """A trace whose purged variant yields a different view for `domain`.

    `full_view` and `purged_view` are the observation images (sorted,
    deduplicated) over the final state sets of the two runs; they differ
    by construction.
    """

    trace: tuple[ActionId, ...]
    domain: str
    purged: tuple[ActionId, ...]
    full_finals: tuple[State, ...]
    purged_finals: tuple[State, ...]
    full_view: tuple[Value, ...]
    purged_view: tuple[Value, ...]


@dataclass(frozen=True)
class NIResult:
    """Outcome of a bounded noninterference search.

    `stutter` records whether any run performed by this search treated a
    disabled action as a no-op; a purged trace can reach states where an
    action the full trace relied on is not enabled, so this is common
    and worth surfacing rather than a defect.
    """

    ok: bool
    counterexample: NICounterexample | None
    traces_checked: int
    max_len: int
    domains: tuple[str, ...]
    actions: tuple[ActionId, ...]
    stutter: bool


@dataclass(frozen=True)
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
    unwinding: UnwindingReport
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


def _checked_domains(config: InfoFlowConfig, domains: Iterable[str] | None) -> tuple[str, ...]:
    if domains is None:
        return tuple(sorted(config.domains))
    chosen = tuple(sorted(set(domains)))
    unknown = [d for d in chosen if d not in config.domains]
    if unknown:
        raise UsageError(f"unknown domain {unknown[0]!r}; model declares {sorted(config.domains)}")
    return chosen


def check_ni(
    system: SecureSystem,
    max_len: int,
    *,
    domains: Iterable[str] | None = None,
    actions: Iterable[ActionId] | None = None,
    trace_budget: int | None = None,
) -> NIResult:
    """Search all traces up to `max_len` for a purge-visible difference.

    Traces are enumerated shortest first and lexicographically within a
    length, and domains in name order, so the reported counterexample is
    canonical: no shorter trace fails, and no same-length trace that
    sorts earlier does. Raises BudgetError before enumerating anything
    if the trace count would exceed the budget.
    """
    if max_len < 0:
        raise UsageError("trace length bound must be >= 0")
    machine, config = system.machine, system.config
    doms = _checked_domains(config, domains)
    if actions is None:
        acts = sort_actions(machine.actions)
    else:
        acts = sort_actions(set(actions))
        for a in acts:
            if not machine.has_action(a):
                raise UsageError(f"unknown action {a.display()!r}")
    limit = DEFAULT_TRACE_BUDGET if trace_budget is None else trace_budget
    width = len(acts)
    total = sum(width**k for k in range(max_len + 1)) if width else 1
    if total > limit:
        raise BudgetError(
            f"trace budget exceeded: {total} traces of length <= {max_len} over "
            f"{width} actions (limit {limit}); raise the budget, lower the "
            f"length bound, or restrict the action set"
        )

    initial = frozenset([machine.initial])
    checked = 0
    stuttered = False

    def advance(states: frozenset[State], a: ActionId) -> frozenset[State]:
        nonlocal stuttered
        out: set[State] = set()
        for s in states:
            succ = machine.step(s, a)
            if succ:
                out.update(succ)
            else:
                stuttered = True
                out.add(s)
        return frozenset(out)

    purged_runs: dict[tuple[ActionId, ...], frozenset[State]] = {}

    def run_traced(trace: tuple[ActionId, ...]) -> frozenset[State]:
        # Many full traces purge to the same subsequence, so purged
        # runs are memoized by trace. A cache hit loses no stutter
        # information: the same trace stutters identically every time.
        cached = purged_runs.get(trace)
        if cached is not None:
            return cached
        states = initial
        for a in trace:
            states = advance(states, a)
        purged_runs[trace] = states
        return states

    def leaf(trace: tuple[ActionId, ...], finals: frozenset[State]) -> NICounterexample | None:
        nonlocal checked
        checked += 1
        for d in doms:
            purged = ipurge(trace, d, config)
            if purged == trace:
                continue
            purged_finals = run_traced(purged)
            if equidom(config, d, finals, purged_finals):
                continue
            return NICounterexample(
                trace=trace,
                domain=d,
                purged=purged,
                full_finals=tuple(sorted(finals)),
                purged_finals=tuple(sorted(purged_finals)),
                full_view=_view(config, d, finals),
                purged_view=_view(config, d, purged_finals),
            )
        return None

    def dfs(
        trace: tuple[ActionId, ...], states: frozenset[State], remaining: int
    ) -> NICounterexample | None:
        if remaining == 0:
            return leaf(trace, states)
        for a in acts:
            found = dfs(trace + (a,), advance(states, a), remaining - 1)
            if found is not None:
                return found
        return None

    counterexample: NICounterexample | None = None
    for length in range(max_len + 1):
        counterexample = dfs((), initial, length)
        if counterexample is not None:
            break

    return NIResult(
        ok=counterexample is None,
        counterexample=counterexample,
        traces_checked=checked,
        max_len=max_len,
        domains=doms,
        actions=acts,
        stutter=stuttered,
    )


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
    unwinding = check_unwinding(system, budget=state_budget)
    ni = check_ni(system, max_len, trace_budget=trace_budget)
    alarm = None
    if unwinding.ok and not ni.ok:
        assert ni.counterexample is not None
        alarm = (
            "unwinding conditions hold but a bounded counterexample exists "
            f"(length {len(ni.counterexample.trace)}, domain {ni.counterexample.domain!r}); "
            "one of the two checkers is wrong"
        )
    return TheoremCrossCheck(
        unwinding_ok=unwinding.ok,
        ni_ok=ni.ok,
        alarm=alarm,
        unwinding=unwinding,
        ni=ni,
    )
