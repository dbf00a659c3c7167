"""Local-respect and step-consistency checks over an explicit state scope.

Local respect: an action may only change the observations of domains its
own domain is permitted to flow to.  Step consistency: running one action
from two states a domain cannot tell apart (where, if the action's domain
may flow to the observer, the action's domain cannot tell them apart
either) must land in states the observer still cannot tell apart.

Both checks pass exactly when every quantified instance holds over the
chosen scope of states; a failure is reported with the lexicographically
least witness under (action, domain, serialized states), so reruns always
produce the identical counterexample.  Both quantify over the raw step
relation: a disabled action contributes no instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    ActionId,
    Exploration,
    SecureSystem,
    State,
    UsageError,
    explore,
    indist,
)


@dataclass(frozen=True)
class Scope:
    """The states a check quantifies over, with its provenance tag."""

    states: tuple[State, ...]
    tag: str
    exploration: Exploration | None = None

    def trace_to(self, state: State) -> tuple[ActionId, ...] | None:
        if self.exploration is None or state not in self.exploration.parent:
            return None
        return self.exploration.trace_to(state)


def scope_reachable(system: SecureSystem, depth: int | None = None,
                    budget: int | None = None) -> Scope:
    ex = explore(system.machine, depth=depth, budget=budget)
    tag = "reachable" if depth is None else f"reachable(depth={depth})"
    return Scope(tuple(sorted(ex.order)), tag, ex)


def scope_universe(system: SecureSystem) -> Scope:
    universe = system.machine.universe
    if universe is None:
        raise UsageError(
            "this model declares no state universe; run without --universe")
    return Scope(tuple(sorted(universe)), "universe", None)


@dataclass(frozen=True)
class LRViolation:
    action: ActionId
    domain: str
    state: State
    successor: State


@dataclass(frozen=True)
class SCViolation:
    action: ActionId
    domain: str
    s1: State
    s2: State
    s1_successor: State
    s2_successor: State


@dataclass(frozen=True)
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
        return len(self.scope.states)


def _domains(system: SecureSystem, domains: Iterable[str] | None) -> tuple[str, ...]:
    if domains is None:
        return tuple(sorted(system.config.domains))
    chosen = tuple(sorted(domains))
    for d in chosen:
        if d not in system.config.domains:
            raise UsageError(f"unknown domain {d!r}")
    return chosen


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


def check_lr(system: SecureSystem, scope: Scope,
             domains: Iterable[str] | None = None) -> LRViolation | None:
    """First (least) local-respect violation in the scope, or None.

    Iterates actions, then domains the action may not flow to, then states
    in serialization order; the first observation change found is the
    canonical witness.
    """
    machine, config = system.machine, system.config
    observe = config.observe
    for action in machine.actions:
        acting = config.domain_of(action)
        blocked = [d for d in _domains(system, domains)
                   if not config.allows(acting, d)]
        if not blocked:
            continue
        for domain in blocked:
            for state in scope.states:
                successors = machine.transitions.get((state, action))
                if not successors:
                    continue
                before = observe(domain, state)
                for succ in successors:
                    if observe(domain, succ) != before:
                        return LRViolation(action, domain, state, succ)
    return None


def check_sc(system: SecureSystem, scope: Scope,
             domains: Iterable[str] | None = None) -> SCViolation | None:
    """First (least) step-consistency violation in the scope, or None.

    For each (action, domain) the scope is partitioned into premise classes
    (equal observer view, plus equal acting-domain view when the policy
    lets the acting domain reach the observer).  The condition holds for a
    class iff all successors agree on the observer's view, so a class with
    two successor views is a violation; the witness is the least offending
    ordered state pair within the first such class.
    """
    machine, config = system.machine, system.config
    observe = config.observe
    for action in machine.actions:
        acting = config.domain_of(action)
        for domain in _domains(system, domains):
            relevant = config.allows(acting, domain)
            groups: dict[object, list[State]] = {}
            for state in scope.states:
                if (state, action) not in machine.transitions:
                    continue
                key = (observe(domain, state),
                       observe(acting, state) if relevant else None)
                groups.setdefault(key, []).append(state)
            violating: list[list[State]] = []
            for members in groups.values():
                views = set()
                for state in members:
                    for succ in machine.transitions[(state, action)]:
                        views.add(observe(domain, succ))
                    if len(views) > 1:
                        violating.append(members)
                        break
            if not violating:
                continue
            # Scope states are sorted, so members[0] is each class's least
            # state; every member of a violating class is part of some
            # offending pair, making this pick canonical.
            members = min(violating, key=lambda ms: ms[0])
            for s1 in members:
                for succ1 in machine.transitions[(s1, action)]:
                    view1 = observe(domain, succ1)
                    for s2 in members:
                        for succ2 in machine.transitions[(s2, action)]:
                            if observe(domain, succ2) != view1:
                                return SCViolation(action, domain,
                                                   s1, s2, succ1, succ2)
    return None


def has_stutter(system: SecureSystem, scope: Scope) -> bool:
    """True when some scoped state leaves some action disabled."""
    machine = system.machine
    for state in scope.states:
        for action in machine.actions:
            if (state, action) not in machine.transitions:
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
