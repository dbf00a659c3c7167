"""Shared plumbing for the bundled models.

Every bundled model is shipped as a :class:`ModelBundle`: a concrete and an
abstract system tied together by a refinement pair, plus (where the model
declares one) a rely-guarantee spec for the compositional checker. The
helpers here cover the parts all three model families repeat: program-counter
alignment between the two levels, building zeta from step-label rules, and
frame contracts declared by the variables a component owns, shares and locks.
Frame contracts declare no guarantee-move enumerator: the moves a
component's code makes are its concrete steps, which lemma 3 already
checks against every other component's rely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ifsec.core import ActionId, ModelError, SecureSystem, State, Value
from ifsec.programs import IDLE, INVOKE
from ifsec.refinement import (
    TAU,
    ComponentContract,
    Locks,
    RefinementPair,
    RelyGuaranteeSpec,
    Zeta,
    _Tau,
    frame_guarantee,
    frame_rely,
)

# A zeta rule maps (component, event name, step label) to one of:
#   None      -> the abstract action with the same full label
#   TAU       -> the step is internal at the abstract level
#   a string  -> the abstract step label within the same component/event
ZetaRule = Callable[[str, str, str], "str | None | _Tau"]


@dataclass(frozen=True)
class ModelBundle:
    """A named, ready-to-check model: refinement pair plus contracts."""

    name: str
    description: str
    pair: RefinementPair
    rely_guarantee: RelyGuaranteeSpec | None
    params: tuple[tuple[str, Value], ...]

    @property
    def concrete(self) -> SecureSystem:
        return self.pair.concrete

    @property
    def abstract(self) -> SecureSystem:
        return self.pair.abstract


def component_of(action: ActionId) -> str:
    """Component that executes a compiled action (the label prefix)."""
    return action.label.split("/", 1)[0]


def split_label(action: ActionId) -> tuple[str, str, str]:
    """Split a compiled label into (component, event name, step label)."""
    parts = action.label.split("/", 2)
    if len(parts) != 3:
        raise ModelError(f"not a compiled event action: {action.display()!r}")
    return parts[0], parts[1], parts[2]


def _pc_event(value: Value) -> Value:
    """Event name a pc value points into, or None when idle."""
    if value == IDLE:
        return None
    return str(value).split("#", 1)[0]


def pc_alignment(components: Iterable[str]) -> Callable[[State, State], bool]:
    """The test that both levels sit inside the same event on every
    component, with the pc variable names built once.

    The two levels step through different program texts, so equal pc
    values would be too strong; what the state relations need is that a
    component is mid-event on one level exactly when it is mid-event in
    the same event on the other.
    """
    pc_vars = tuple(f"pc.{comp}" for comp in components)

    def aligned(concrete: State, abstract: State) -> bool:
        for var in pc_vars:
            if _pc_event(concrete[var]) != _pc_event(abstract[var]):
                return False
        return True

    return aligned


def zeta_from_rule(concrete: SecureSystem, abstract: SecureSystem,
                   rule: ZetaRule) -> Zeta:
    """Build zeta for compiled systems from a per-step rule.

    Invoke steps always map to the matching abstract invoke; other steps
    follow `rule` (see :data:`ZetaRule`).
    """
    by_label = {a.label: a for a in abstract.machine.actions}

    def lookup(label: str) -> ActionId:
        action = by_label.get(label)
        if action is None:
            raise ModelError(
                f"zeta rule points at {label!r}, which the abstract "
                "machine does not offer")
        return action

    mapping: dict[ActionId, ActionId | _Tau] = {}
    for action in concrete.machine.actions:
        comp, event, step = split_label(action)
        target = None if step == INVOKE else rule(comp, event, step)
        if target is TAU:
            mapping[action] = TAU
        elif target is None:
            mapping[action] = lookup(action.label)
        else:
            mapping[action] = lookup(f"{comp}/{event}/{target}")
    return Zeta(mapping)


def frame_contract(component: str, owned: Iterable[str],
                   shared: Iterable[str] = (),
                   locks: Locks | None = None) -> ComponentContract:
    """Contract of a component declared by the variables it touches.

    The guarantee allows changes to the `owned` and `shared` variables,
    to a lock in `locks` the component takes or releases, and to what a
    lock it holds guards. The rely fixes the owned variables and, while
    the component holds a lock, that lock and what it guards; shared
    variables are left free.
    """
    owned = tuple(owned)
    return ComponentContract(
        rely=frame_rely(owned, component, locks),
        guarantee=frame_guarantee((*owned, *shared), component, locks),
    )


def contracts_spec(contracts: Mapping[str, ComponentContract]) -> RelyGuaranteeSpec:
    return RelyGuaranteeSpec(contracts=dict(contracts), component_of=component_of)
