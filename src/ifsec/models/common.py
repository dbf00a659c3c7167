"""Shared plumbing for the bundled models.

Every bundled model is shipped as a :class:`ModelBundle`: a concrete and an
abstract system, the refinement pair that ties them together and (where
the model declares one) a rely-guarantee spec for the compositional
checker. The pair and the spec are built on first use, so a check of the
levels alone never runs `refinement`; the helpers here reach it by
attribute when they are called. They cover the parts all three model
families repeat: compiling both levels from one table of event pairs,
with zeta derived from it (an invocation maps to the abstract
invocation, an event's last concrete step, its commit, to the abstract
event's single step, and every earlier step to tau), the locked update
of a buffer that is published on unlock, the program-counter events
that end both levels' alpha keys, and frame contracts declared by the
variables a component owns, shares and locks.
Frame contracts declare no guarantee-move enumerator: the moves a
component's code makes are its concrete steps, which lemma 3 already
checks against every other component's rely.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, Collection, Iterable, Mapping

from ifsec import refinement
from ifsec.core import (
    ActionId,
    ModelError,
    SecureSystem,
    State,
    Value,
    layout,
    record,
    values_getter,
)
from ifsec.programs import (
    IDLE,
    INVOKE,
    Basic,
    ConcurrentSystem,
    Event,
    Prog,
    compile_system,
    lock_acquire,
    seq,
    step_labels,
)

#: A level's observation function: (domain, state) -> what it sees.
Observe = Callable[[str, State], Value]


@record
class ModelBundle:
    """A ready-to-check model: its two levels, the parameters it was
    built with, and the refinement pair plus contracts that join them.
    Its name and description live in the registry entry that built it.

    `link` returns the pair, over `concrete` and `abstract`, and the
    rely-guarantee spec (None when the model declares none). It runs
    once, at the first read of `pair` or `rely_guarantee`.
    """

    concrete: SecureSystem
    abstract: SecureSystem
    params: tuple[tuple[str, Value], ...]
    link: Callable[[], tuple]

    @cached_property
    def _linked(self) -> tuple:
        return self.link()

    @property
    def pair(self) -> refinement.RefinementPair:
        return self._linked[0]

    @property
    def rely_guarantee(self) -> refinement.RelyGuaranteeSpec | None:
        return self._linked[1]


def compile_levels(components: tuple[str, ...],
                   events: Mapping[str, Iterable[tuple[Event, Event]]],
                   initial: tuple[Mapping[str, Value], Mapping[str, Value]],
                   observe: tuple[Observe, Observe],
                   domains: Collection[str],
                   policy: Collection[tuple[str, str]],
                   budget: int | None
                   ) -> tuple[SecureSystem, SecureSystem,
                              Callable[[], refinement.Zeta]]:
    """Compile the concrete and the abstract level of a model, and give
    the function that makes the zeta joining them.

    `events` lists each component's events, in pool order, as
    (concrete, abstract) pairs under one label and one fixed domain;
    `initial` and `observe` are (concrete, abstract) pairs too. Each
    abstract event takes one step, where the concrete event commits:
    zeta maps an invocation to the abstract invocation, an event's last
    concrete step to the abstract event's step, and every earlier step
    to tau. An abstract event with more or fewer steps is a ModelError
    here; an image the abstract machine never offers is one when zeta
    is built.
    """
    pools: tuple[dict, dict] = ({}, {})
    # (component, event label) -> (its commit step, the abstract step)
    commits: dict[tuple[str, str], tuple[str, str]] = {}
    for comp in components:
        pairs = tuple(events[comp])
        pools[0][comp] = tuple(concrete for concrete, _ in pairs)
        pools[1][comp] = tuple(abstract for _, abstract in pairs)
        for concrete, abstract in pairs:
            target = step_labels(abstract.body)
            if len(target) != 1:
                raise ModelError(
                    f"abstract event {comp}/{abstract.label} takes "
                    f"{len(target)} steps; it must take exactly one")
            commits[comp, concrete.label] = (
                step_labels(concrete.body)[-1], target[0])
    concrete, abstract = (
        compile_system(ConcurrentSystem(components, pool, variables),
                       domains, policy, view, budget)
        for pool, variables, view in zip(pools, initial, observe))

    def zeta() -> refinement.Zeta:
        mapping: dict[ActionId, ActionId | refinement._Tau] = {}
        for action in concrete.machine.actions:
            comp, event, step = action.split("/", 2)
            commit, target = commits[comp, event]
            if step == INVOKE:
                label = action
            elif step == commit:
                label = f"{comp}/{event}/{target}"
            else:
                mapping[action] = refinement.TAU
                continue
            if not abstract.machine.has_action(label):
                raise ModelError(
                    f"zeta maps {action!r} to {label!r}, which "
                    "the abstract machine does not offer")
            mapping[action] = label
        return refinement.Zeta(mapping)

    return concrete, abstract, zeta


def locked_update(lock: str, holder: str, buffer: str, copy: str,
                  update: Callable[[State], dict[str, Value]],
                  label: str) -> Prog:
    """Take `lock` for `holder`, apply `update` as step `label`, then
    publish `buffer` to its committed `copy` and free the lock in one
    "unlock" step."""

    def publish(s: State) -> dict[str, Value]:
        return {lock: None, copy: s[buffer]}

    return seq(lock_acquire(lock, holder), Basic(update, label),
               Basic(publish, "unlock"))


def component_of(action: ActionId) -> str:
    """Component that executes a compiled action (the label prefix)."""
    return action.split("/", 1)[0]


def _pc_event(value: Value) -> Value:
    """Event name a pc value points into, or None when idle."""
    if value == IDLE:
        return None
    return str(value).split("#", 1)[0]


class _Events(dict):
    """pc value -> the event it points into, filled on first lookup."""

    def __missing__(self, value: Value) -> Value:
        event = self[value] = _pc_event(value)
        return event


def _pc_view(components: tuple[str, ...], names: tuple[str, ...],
             index: Mapping[str, int],
             guards: tuple[tuple[str, str, str], ...] = ()
             ) -> Callable[[tuple], tuple | None]:
    """The values of `names`, then the event each component's pc points
    into (None when idle), read off a values tuple by `index`; None when
    a guard, a (buffer, copy, lock) triple, has its lock free and its
    buffer different from its copy.

    The two levels step through different program texts, so equal pc
    values would be too strong; what the state relations need is that a
    component is mid-event on one level exactly when it is mid-event in
    the same event on the other, so both levels' alpha keys end in
    these events.
    """
    read = values_getter(names, index)
    pcs = values_getter((f"pc.{comp}" for comp in components), index)
    events = _Events().__getitem__
    guards = tuple((index[lock], index[b], index[c]) for b, c, lock in guards)

    def view(values: tuple) -> tuple | None:
        for lock, buffer, copy in guards:
            if values[lock] is None and values[buffer] != values[copy]:
                return None
        return (*read(values), *map(events, pcs(values)))

    return view


def pc_key(components: Iterable[str], names: Iterable[str]
           ) -> Callable[[State], tuple]:
    """The alpha key of one level: the values of `names`, then the event
    each component's pc points into (see `_pc_view`)."""
    view = partial(_pc_view, tuple(components), tuple(names))
    return lambda state: layout(view, state)(state.values)


def buffer_alpha(components: Iterable[str], kept: Iterable[str],
                 buffers: Iterable[tuple[str, str, str]],
                 description: str) -> refinement.Alpha:
    """Alpha of a system whose components write lock-guarded buffers.

    `buffers` are concrete (buffer, committed copy, lock) triples: the
    unlock step publishes a buffer to its copy, and the abstract level
    holds the published content in the buffer's variable. The concrete
    key is None while an unlocked buffer differs from its copy; else it
    is the `kept` variables, the copies and the pc events, and the
    abstract key is the kept variables, the buffers and the pc events.
    """
    components, kept, buffers = tuple(components), tuple(kept), tuple(buffers)
    concrete = partial(_pc_view, components,
                       (*kept, *(c for _, c, _ in buffers)), guards=buffers)
    return refinement.Alpha.keyed(
        lambda state: layout(concrete, state)(state.values),
        pc_key(components, (*kept, *(b for b, _, _ in buffers))), description)


def frame_contract(component: str, owned: Iterable[str],
                   shared: Iterable[str] = (),
                   locks: refinement.Locks | None = None) -> refinement.ComponentContract:
    """Contract of a component declared by the variables it touches.

    The guarantee allows changes to the `owned` and `shared` variables,
    to a lock in `locks` the component takes or releases, and to what a
    lock it holds guards. The rely fixes the owned variables and, while
    the component holds a lock, that lock and what it guards; shared
    variables are left free.
    """
    owned = tuple(owned)
    return refinement.ComponentContract(
        rely=refinement.frame_rely(owned, component, locks),
        guarantee=refinement.frame_guarantee((*owned, *shared), component, locks),
    )


def contracts_spec(contracts: Mapping[str, refinement.ComponentContract]
                   ) -> refinement.RelyGuaranteeSpec:
    return refinement.RelyGuaranteeSpec(contracts=dict(contracts), component_of=component_of)
