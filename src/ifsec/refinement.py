"""Simulation between an abstract and a concrete system, and its checks.

A refinement pair relates two secure systems through a state relation
(alpha) and an action map (zeta) sending each concrete action to one
abstract action or to the silent marker tau. Six conditions make the
simulation security-preserving:

  c1  the initial states are related;
  c2  silent concrete steps stay related to the same abstract state;
  c3  mapped concrete steps are matched by exactly one abstract step
      landing in a related state (no stuttering on the abstract side);
  c4  zeta preserves the acting domain;
  c5  the abstract policy allows at most what the concrete one allows;
  c6  related states are indistinguishable for a domain at one level
      exactly when they are at the other.

`check_simulation` evaluates all six and then cross-validates the
soundness claim behind them executably: when everything passes and the
abstract system passes unwinding, the concrete system must too, and the
report raises an alarm rather than trusting the theorem if it does not.

`check_compositional` checks the per-component rely-guarantee lemmas
that let the simulation be established one component at a time, and
cross-validates them against the joint exploration the same way.

The joint search runs on pairs of machine state ids. It tests alpha on
ids (`Alpha.on_ids`): a keyed alpha, which every built-in model and
every `match:` line of a model file gives, compares integer key
classes filled in one pass, running each key once per state. One walk
(`_steps`) enumerates and matches the steps from the search's pairs:
the search grows from it, and the lemmas read it once more over the
finished search, without stepping the machines. c6 compares the two
levels' observation classes over the id pairs. `Alpha.holds` tests two
states; the witness predicates (`c1_violated` ... `lemma_violated`)
and replay use it.

The policy-direction convention deserves a note: c5 requires the
abstract policy to be a subset of the concrete one. Folklore phrases
refinement as the implementation being stricter; the subset direction
used here is the one that makes local respect carry from the abstract
level down, so the checker follows it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ifsec import unwinding
from ifsec.core import (
    ActionId,
    Exploration,
    Field,
    ModelError,
    SecureSystem,
    State,
    StateMachine,
    class_table,
    indist,
    layout,
    record,
    values_getter,
)

__all__ = [
    "TAU",
    "Alpha",
    "CompositionalReport",
    "ComponentContract",
    "JointExploration",
    "RefinementPair",
    "RelyGuaranteeSpec",
    "SimulationReport",
    "Verdict",
    "Zeta",
    "c1_violated",
    "c2_violated",
    "c3_violated",
    "c4_violated",
    "c5_violated",
    "c6_violated",
    "check_alpha_preserves_indist",
    "check_compositional",
    "check_domain_preservation",
    "check_policy_inclusion",
    "check_simulation",
    "frame_guarantee",
    "frame_rely",
    "joint_explore",
    "lemma_violated",
    "pair_table",
    "total_relation",
]


class _Tau:
    """Marker for concrete actions with no abstract counterpart."""

    _instance: "_Tau | None" = None

    def __new__(cls) -> "_Tau":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "tau"


TAU = _Tau()

Relation = Callable[[State, State], bool]
#: An alpha key of one level's states (see `Alpha.keyed`).
Key = Callable[[State], Hashable]
#: Lock variable -> the variables it guards.
Locks = Mapping[str, Iterable[str]]


def total_relation(left: State, right: State) -> bool:
    """The relation that holds between any two states.

    The usual abstract-level rely and guarantee for systems whose
    abstraction hides all interleaving detail.
    """
    return True


def pair_table(pairs: Iterable[tuple[State, State]]) -> Relation:
    """The relation that holds on exactly the listed state pairs."""
    table = frozenset(pairs)
    return lambda left, right: (left, right) in table


def _lock_table(locks: Locks | None,
                holder: str | None) -> dict[str, tuple[str, ...]]:
    if locks and holder is None:
        raise ModelError("a frame with locks needs the component that holds them")
    return {lock: tuple(guarded) for lock, guarded in (locks or {}).items()}


def frame_rely(fixed: Iterable[str], holder: str | None = None,
               locks: Locks | None = None) -> Relation:
    """Rely of a component: the environment leaves `fixed` unchanged.

    While `holder` holds a lock in `locks` (the lock variable's value
    is `holder`), the environment also leaves that lock and the
    variables it guards unchanged.
    """
    fixed = tuple(fixed)
    frames = tuple((lock, (lock, *guarded))
                   for lock, guarded in _lock_table(locks, holder).items())

    def positions(index: Mapping[str, int]) -> tuple:
        return (values_getter(fixed, index),
                values_getter([lock for lock, _ in frames], index),
                tuple((index[lock], values_getter(frame, index))
                      for lock, frame in frames))

    last = [None, None]  # the schema of the last step and its positions

    def rely(before: State, after: State) -> bool:
        schema = before._schema
        if schema is last[0] and after._schema is schema:
            kept, lock_values, held = last[1]
        else:
            kept, lock_values, held = last[1] = layout(positions, before,
                                                       after)
            last[0] = schema
        old, new = before._values, after._values
        if kept(new) != kept(old):
            return False
        if holder in lock_values(old):
            for lock, frame in held:
                if old[lock] == holder and frame(new) != frame(old):
                    return False
        return True

    return rely


#: Rules of `frame_guarantee` for a position: a lock, or a variable
#: nobody may change. A guarded variable's rule is its lock's position.
_LOCK, _KEPT = -1, -2


def frame_guarantee(allowed: Iterable[str], holder: str | None = None,
                    locks: Locks | None = None) -> Relation:
    """Guarantee of a component: it changes only what it may.

    A step may change a variable in `allowed`, a lock in `locks` that
    `holder` takes or releases, and a variable guarded by a lock that
    `holder` holds before the step. Both states must come from one
    machine, so they bind the same variables.
    """
    allowed = frozenset(allowed)
    locks = _lock_table(locks, holder)
    guard = {v: lock for lock, guarded in locks.items() for v in guarded}

    def positions(index: Mapping[str, int]) -> tuple:
        names = [name for name in index if name not in allowed]
        return values_getter(names, index), tuple(
            (index[name], _LOCK if name in locks
             else index[guard[name]] if name in guard else _KEPT)
            for name in names)

    last = [None, None]  # the schema of the last step and its positions

    def guarantee(before: State, after: State) -> bool:
        schema = before._schema
        if schema is last[0] and after._schema is schema:
            constrained, rules = last[1]
        else:
            constrained, rules = last[1] = layout(positions, before, after)
            last[0] = schema
        old, new = before._values, after._values
        if constrained(new) == constrained(old):
            return True
        for k, rule in rules:
            value, changed = old[k], new[k]
            if value == changed:
                continue
            if rule == _LOCK:
                if holder not in (value, changed):
                    return False
            elif rule == _KEPT or old[rule] != holder:
                return False
        return True

    return guarantee


@record
class Alpha:
    """State relation between concrete and abstract states.

    A keyed alpha (`keyed`) relates two states when the concrete key and
    the abstract key are equal and not None. Any other alpha is a
    predicate on `State` objects; `from_pairs` makes one that looks the
    pair up in its table. `holds` tests two states, and `on_ids` gives
    the relation on two machines' state ids, which is what the joint
    search and the lemmas test.
    """

    predicate: Relation
    description: str = "predicate"
    concrete_key: Key | None = Field(default=None, repr=False)
    abstract_key: Key | None = Field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_on_ids", {})

    @staticmethod
    def keyed(concrete_key: Key, abstract_key: Key, description: str) -> "Alpha":
        """The relation of equal keys; a key of None relates to nothing."""
        def holds(concrete: State, abstract: State) -> bool:
            key = concrete_key(concrete)
            return key is not None and key == abstract_key(abstract)

        return Alpha(holds, description, concrete_key, abstract_key)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[State, State]]) -> "Alpha":
        table = frozenset(pairs)
        return Alpha(pair_table(table), f"explicit pairs ({len(table)})")

    def holds(self, concrete: State, abstract: State) -> bool:
        return bool(self.predicate(concrete, abstract))

    def on_ids(self, concrete: StateMachine, abstract: StateMachine
               ) -> Callable[[int, int], bool]:
        """`related(i, a)`: whether alpha relates state `i` of `concrete`
        to state `a` of `abstract`, made once per machine pair.

        A keyed alpha compares key classes: both levels' keys are
        interned in one table, where None has class -1 and every other
        key a non-negative class, and each level's key runs once per state
        id, in one pass over the machine (`core.class_table`). A
        predicate alpha is given the two states.
        """
        made = self._on_ids  # type: ignore[attr-defined]
        if (concrete, abstract) not in made:
            if self.abstract_key is None:
                predicate, cby, aby = self.predicate, concrete.by_id, abstract.by_id
                made[concrete, abstract] = lambda i, a: bool(
                    predicate(cby[i], aby[a]))
            else:
                class_of: dict[Hashable, int] = {None: -1}
                left = class_table(self.concrete_key, concrete, class_of)
                right = class_table(self.abstract_key, abstract, class_of)
                made[concrete, abstract] = lambda i, a: left[i] == right[a] >= 0
        return made[concrete, abstract]


@record
class Zeta:
    """Total map from concrete actions to abstract actions or TAU."""

    mapping: Mapping[ActionId, ActionId | _Tau]

    @staticmethod
    def identity(actions: Iterable[ActionId]) -> "Zeta":
        return Zeta({a: a for a in actions})

    def map(self, action: ActionId) -> ActionId | _Tau:
        try:
            return self.mapping[action]
        except KeyError:
            raise ModelError(
                f"zeta is not total: no image for action {action!r}"
            ) from None

    def is_silent(self, action: ActionId) -> bool:
        return self.map(action) is TAU


@record
class RefinementPair:
    """A concrete system simulating an abstract one via alpha and zeta."""

    concrete: SecureSystem
    abstract: SecureSystem
    alpha: Alpha
    zeta: Zeta

    def __post_init__(self) -> None:
        cd = set(self.concrete.config.domains)
        ad = set(self.abstract.config.domains)
        if cd != ad:
            raise ModelError(
                "refinement levels must share one domain set; "
                f"concrete has {sorted(cd)}, abstract has {sorted(ad)}"
            )
        has_action = self.abstract.machine.has_action
        for action in self.concrete.machine.actions:
            image = self.zeta.map(action)
            if image is not TAU and not has_action(image):
                raise ModelError(
                    f"zeta maps {action!r} to {image!r}, "
                    "which the abstract machine lacks"
                )


@record
class Verdict:
    """Outcome of one condition: pass, fail (with witness), or skipped."""

    status: str
    witness: object | None = None
    note: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    @staticmethod
    def passed(note: str | None = None) -> "Verdict":
        return Verdict("pass", None, note)

    @staticmethod
    def failed(witness: object, note: str | None = None) -> "Verdict":
        return Verdict("fail", witness, note)

    @staticmethod
    def skipped(note: str) -> "Verdict":
        return Verdict("skipped", None, note)


Pair = tuple[State, State]


@record
class C1Witness:
    concrete_initial: State
    abstract_initial: State


@record
class C2Witness:
    trace: tuple[ActionId, ...]
    action: ActionId
    state: State
    abstract_state: State
    successor: State


@record
class C3Witness:
    trace: tuple[ActionId, ...]
    action: ActionId
    abstract_action: ActionId
    state: State
    abstract_state: State
    successor: State
    abstract_candidates: tuple[State, ...]


@record
class C4Witness:
    action: ActionId
    abstract_action: ActionId
    concrete_domain: str
    abstract_domain: str


@record
class C5Witness:
    source: str
    target: str


@record
class C6Witness:
    domain: str
    first: Pair
    second: Pair
    first_trace: tuple[ActionId, ...]
    second_trace: tuple[ActionId, ...]
    concrete_indist: bool
    abstract_indist: bool


@record
class LemmaWitness:
    """Shared witness shape for the four compositional lemmas."""

    component: str
    trace: tuple[ActionId, ...]
    state: State
    abstract_state: State | None
    action: ActionId | None
    successor: State | None
    abstract_successor: State | None
    reason: str
    level: str = "concrete"
    other_component: str | None = None


@record
class JointExploration:
    """Alpha pairs discovered from the initial pair, plus c1..c3 verdicts.

    The search runs on machine ids: a node is the concrete id times
    `width`, the abstract machine's state count, plus the abstract id.
    `pairs` lists the discovered pairs as states, in discovery
    (breadth-first) order, and `trace_to` replays a pair as a concrete
    trace from the initial pair. When a verdict fails the search
    stopped there, so the pairs are the prefix discovered up to the
    violation.
    """

    concrete: StateMachine = Field(repr=False)
    abstract: StateMachine = Field(repr=False)
    search: Exploration
    c1: Verdict
    c2: Verdict
    c3: Verdict

    @property
    def ok(self) -> bool:
        return self.c1.ok and self.c2.ok and self.c3.ok

    def __post_init__(self) -> None:
        # `pair_at` reads the width once per pair; count the states once.
        object.__setattr__(self, "width", len(self.abstract.by_id))

    @property
    def nodes(self) -> list[int]:
        """The discovered pairs as nodes, in discovery order."""
        return self.search.order if self.c1.ok else []

    @property
    def pair_count(self) -> int:
        return len(self.nodes)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple([self.pair_at(node) for node in self.nodes])

    def pair_at(self, node: int) -> Pair:
        i, a = divmod(node, self.width)
        return self.concrete.by_id[i], self.abstract.by_id[a]

    def trace_to(self, pair: Pair) -> tuple[ActionId, ...]:
        i, a = self.concrete.id_of(pair[0]), self.abstract.id_of(pair[1])
        if i is None or a is None:
            raise KeyError(pair)
        return self.search.trace_to(i * self.width + a)


def _abstract_witness(alpha: Alpha, candidates: Iterable[State],
                      successor: State) -> State | None:
    for sigma2 in candidates:
        if alpha.holds(successor, sigma2):
            return sigma2
    return None


def _steps(pair: RefinementPair, search: Exploration
           ) -> Iterator[tuple[int, int, int, int, int | None]]:
    """Every concrete step from the pairs of the joint `search`, in
    search order (pair, action, successor): the pair's position in the
    search and its node, the action's index, the successor's id, and
    the abstract id the step is matched with. A silent step's match is
    the abstract state itself, if alpha (on ids) still relates it; a
    mapped step's is the first successor on zeta's image of the action
    that alpha relates. None when there is none. Pairs the caller adds
    while it reads are walked too. A pair's steps are read off the
    concrete machine's rows."""
    mc, ma = pair.concrete.machine, pair.abstract.machine
    width = len(ma.by_id)
    related = pair.alpha.on_ids(mc, ma)
    abstract = dict(zip(ma.actions, ma.successor_ids))
    columns = [None if image is TAU else abstract[image]
               for image in map(pair.zeta.map, mc.actions)]
    offsets, xs, successors = mc.rows()
    for position, node in enumerate(search):
        i, a = divmod(node, width)
        for k in range(offsets[i], offsets[i + 1]):
            x = xs[k]
            targets = columns[x]
            for j in successors[k]:
                if targets is None:
                    m = a if related(j, a) else None
                else:
                    for m in targets.get(a, ()):
                        if related(j, m):
                            break
                    else:
                        m = None
                yield position, node, x, j, m


def joint_explore(pair: RefinementPair,
                  budget: int | None = None) -> JointExploration:
    """Breadth-first search over related state pairs, stopping at the
    first c1/c2/c3 violation.

    Every concrete step from a discovered pair must either keep alpha
    with the same abstract state (silent case) or be matched by one
    abstract step on zeta's image of the action; the matched pair is
    what exploration continues from. Pair discovery order, action
    order, and successor order are all canonical, so the first
    violation found is the same on every run and its trace is shortest.
    The search runs on state ids and reads its steps from `_steps`.
    """
    mc = pair.concrete.machine
    ma = pair.abstract.machine
    width = len(ma.by_id)
    search = Exploration(mc.initial_id * width + ma.initial_id, budget,
                         noun="related state pairs")

    def result(c1: Verdict, c2: Verdict, c3: Verdict) -> JointExploration:
        return JointExploration(mc, ma, search, c1, c2, c3)

    if not pair.alpha.on_ids(mc, ma)(mc.initial_id, ma.initial_id):
        skip = Verdict.skipped("exploration aborted: initial pair unrelated")
        return result(Verdict.failed(C1Witness(mc.initial, ma.initial)),
                      skip, skip)

    for k, node, x, j, m in _steps(pair, search):
        action = mc.actions[x]
        if m is None:
            i, a = divmod(node, width)
            return result(Verdict.passed(), *_joint_failure(
                pair, search.trace_to(node) + (action,), action,
                mc.by_id[i], ma.by_id[a], mc.by_id[j]))
        search.add(j * width + m, k, action)
    return result(Verdict.passed(), Verdict.passed(), Verdict.passed())


def _joint_failure(pair: RefinementPair, trace: tuple[ActionId, ...],
                   action: ActionId, s: State, sigma: State,
                   successor: State) -> tuple[Verdict, Verdict]:
    """The c2 and c3 verdicts when the last step of `trace`, on `action`
    from (s, sigma) to `successor`, has no abstract match."""
    image = pair.zeta.map(action)
    if image is TAU:
        return (Verdict.failed(C2Witness(trace, action, s, sigma, successor)),
                Verdict.skipped("exploration aborted at the silent-step failure"))
    return (Verdict.skipped("exploration aborted at the mapped-step failure"),
            Verdict.failed(C3Witness(
                trace, action, image, s, sigma, successor,
                pair.abstract.machine.step(sigma, image))))


def c1_violated(pair: RefinementPair, w: C1Witness) -> bool:
    """True when `w` records the two initial states and alpha does not
    relate them."""
    return (w == C1Witness(pair.concrete.machine.initial,
                           pair.abstract.machine.initial)
            and not pair.alpha.holds(w.concrete_initial, w.abstract_initial))


def _related_step(pair: RefinementPair, w: C2Witness | C3Witness | LemmaWitness
                  ) -> bool:
    """Whether `w.trace` ends in a concrete step on `w.action` from
    `w.state`, which alpha relates to `w.abstract_state`, to
    `w.successor`."""
    return (w.trace[-1:] == (w.action,)
            and w.successor in pair.concrete.machine.step(w.state, w.action)
            and pair.alpha.holds(w.state, w.abstract_state))


def c2_violated(pair: RefinementPair, w: C2Witness) -> bool:
    """True when `w`'s trace ends in a silent step from a related pair
    to a successor that alpha no longer relates to the same abstract
    state."""
    return (pair.zeta.is_silent(w.action) and _related_step(pair, w)
            and not pair.alpha.holds(w.successor, w.abstract_state))


def c3_violated(pair: RefinementPair, w: C3Witness) -> bool:
    """True when `w`'s trace ends in a mapped step from a related pair
    that no abstract step on zeta's image of the action matches:
    `w.abstract_candidates` are all the abstract successors and alpha
    relates none of them to the concrete successor."""
    return (pair.zeta.map(w.action) == w.abstract_action
            and _related_step(pair, w)
            and w.abstract_candidates == pair.abstract.machine.step(
                w.abstract_state, w.abstract_action)
            and _abstract_witness(pair.alpha, w.abstract_candidates,
                                  w.successor) is None)


def c4_violated(pair: RefinementPair, w: C4Witness) -> bool:
    """True when zeta maps `w.action` to `w.abstract_action` and the
    two act for the different domains `w` records."""
    return (pair.zeta.map(w.action) == w.abstract_action
            and pair.concrete.config.domain_of(w.action) == w.concrete_domain
            and pair.abstract.config.domain_of(w.abstract_action)
            == w.abstract_domain
            and w.concrete_domain != w.abstract_domain)


def c5_violated(pair: RefinementPair, w: C5Witness) -> bool:
    """True when the abstract policy has the edge `w` and the concrete
    policy lacks it."""
    edge = (w.source, w.target)
    return (edge in pair.abstract.config.policy
            and edge not in pair.concrete.config.policy)


def c6_violated(pair: RefinementPair, w: C6Witness) -> bool:
    """True when `w`'s two pairs are related and `w.domain` tells them
    apart at exactly one level, the one `w` records."""
    (s1, sigma1), (s2, sigma2) = w.first, w.second
    views = (indist(pair.concrete.config, w.domain, s1, s2),
             indist(pair.abstract.config, w.domain, sigma1, sigma2))
    return (pair.alpha.holds(s1, sigma1) and pair.alpha.holds(s2, sigma2)
            and views == (w.concrete_indist, w.abstract_indist)
            and views[0] != views[1])


def check_domain_preservation(pair: RefinementPair) -> Verdict:
    """c4: a mapped action acts for the same domain at both levels."""
    for action in pair.concrete.machine.actions:
        image = pair.zeta.map(action)
        if image is TAU:
            continue
        witness = C4Witness(action, image,
                            pair.concrete.config.domain_of(action),
                            pair.abstract.config.domain_of(image))
        if c4_violated(pair, witness):
            return Verdict.failed(witness)
    return Verdict.passed()


def check_policy_inclusion(pair: RefinementPair) -> Verdict:
    """c5: every abstract flow edge is also a concrete flow edge."""
    for edge in sorted(pair.abstract.config.policy):
        witness = C5Witness(*edge)
        if c5_violated(pair, witness):
            return Verdict.failed(witness)
    return Verdict.passed()


def check_alpha_preserves_indist(pair: RefinementPair,
                                 exploration: JointExploration) -> Verdict:
    """c6: over discovered pairs, per-domain view classes coincide.

    Two related pairs are concretely indistinguishable for a domain
    exactly when they are abstractly indistinguishable. Equivalently,
    the map from concrete view to abstract view over the pair set is a
    well-defined injective function per domain; the first conflict in
    (domain, sorted pair) order is the witness, which makes the verdict
    symmetric in the two offending pairs. Views are compared as the
    levels' observation classes (`InfoFlowConfig.classes`) of the ids.
    Whether a domain has a conflict does not depend on the order of the
    pairs, so each domain is scanned in discovery order; only the first
    conflicting one is scanned again, with the pairs sorted by their
    serialized states (then ids), to find the witness.
    """
    mc, ma = pair.concrete.machine, pair.abstract.machine
    width = exploration.width
    nodes = exploration.nodes
    for domain in sorted(pair.concrete.config.domains):
        views = (pair.concrete.config.classes(mc, domain),
                 pair.abstract.config.classes(ma, domain))
        if _c6_conflict(nodes, width, *views) is None:
            continue

        def pair_order(node: int) -> tuple:
            i, a = divmod(node, width)
            return mc.by_id[i].serialize(), i, ma.by_id[a].serialize(), a

        earlier, node, concrete_indist = _c6_conflict(
            sorted(nodes, key=pair_order), width, *views)
        return Verdict.failed(C6Witness(
            domain=domain, first=exploration.pair_at(earlier),
            second=exploration.pair_at(node),
            first_trace=exploration.search.trace_to(earlier),
            second_trace=exploration.search.trace_to(node),
            concrete_indist=concrete_indist,
            abstract_indist=not concrete_indist,
        ))
    return Verdict.passed()


def _c6_conflict(nodes: Iterable[int], width: int, concrete_view: list[int],
                 abstract_view: list[int]) -> tuple[int, int, bool] | None:
    """The first node of `nodes` whose views conflict with an earlier
    node's, as (earlier node, node, whether the two are concretely
    indistinguishable), or None."""
    forward: dict[int, tuple[int, int]] = {}
    backward: dict[int, tuple[int, int]] = {}
    for node in nodes:
        i, a = divmod(node, width)
        cview, aview = concrete_view[i], abstract_view[a]
        if cview in forward and forward[cview][0] != aview:
            return forward[cview][1], node, True
        if aview in backward and backward[aview][0] != cview:
            return backward[aview][1], node, False
        forward.setdefault(cview, (aview, node))
        backward.setdefault(aview, (cview, node))
    return None


@record
class CrossCheck:
    """Executable form of the soundness claim a passing report relies on."""

    abstract_unwinding_ok: bool
    concrete_unwinding_ok: bool | None


@record
class SimulationReport:
    c1: Verdict
    c2: Verdict
    c3: Verdict
    c4: Verdict
    c5: Verdict
    c6: Verdict
    refinement: Verdict
    cross_check: Verdict
    pair_count: int
    unwinding: Mapping[str, unwinding.UnwindingReport]

    @property
    def ok(self) -> bool:
        return self.refinement.ok and self.cross_check.status != "fail"

    def conditions(self) -> dict[str, Verdict]:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3,
                "c4": self.c4, "c5": self.c5, "c6": self.c6}


def check_simulation(pair: RefinementPair,
                     budget: int | None = None) -> SimulationReport:
    """Evaluate c1..c6 and cross-validate soundness on a full pass.

    The cross-check runs unwinding on the abstract system and, when
    that passes, requires the concrete system to pass it too. A passing
    simulation with a passing abstract system and a failing concrete
    one means the checker (or the theory it leans on) is broken; that
    surfaces as a failed cross_check verdict, never silently. The
    unwinding reports the cross-check ran are handed back in
    `unwinding`, by level, so a caller need not run them again.
    """
    exploration = joint_explore(pair, budget=budget)
    c4 = check_domain_preservation(pair)
    c5 = check_policy_inclusion(pair)
    if exploration.ok:
        c6 = check_alpha_preserves_indist(pair, exploration)
    else:
        c6 = Verdict.skipped("requires the pair set from a clean exploration")
    verdicts = [exploration.c1, exploration.c2, exploration.c3, c4, c5, c6]
    pair_count = exploration.pair_count
    # The pair set is no longer needed; free it before the levels are
    # unwound.
    del exploration
    reports: dict[str, unwinding.UnwindingReport] = {}
    if all(v.ok for v in verdicts):
        refinement = Verdict.passed()
        abstract_report = reports["abstract"] = unwinding.check_unwinding(
            pair.abstract, budget=budget)
        if abstract_report.ok:
            concrete_report = reports["concrete"] = unwinding.check_unwinding(
                pair.concrete, budget=budget)
            if concrete_report.ok:
                cross = Verdict("pass", CrossCheck(True, True),
                                "abstract and concrete unwinding both pass")
            else:
                cross = Verdict("fail", CrossCheck(True, False),
                                "soundness alarm: simulation and abstract "
                                "unwinding pass but concrete unwinding fails")
        else:
            cross = Verdict("pass", CrossCheck(False, None),
                            "abstract unwinding fails; nothing to carry down")
    else:
        failing = [name for name, v in zip("c1 c2 c3 c4 c5 c6".split(), verdicts)
                   if v.status == "fail"]
        refinement = Verdict.failed(None, "failed conditions: " + ", ".join(failing))
        cross = Verdict.skipped("simulation did not pass")
    c1, c2, c3 = verdicts[:3]
    return SimulationReport(
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6,
        refinement=refinement,
        cross_check=cross,
        pair_count=pair_count,
        unwinding=reports,
    )


MoveEnumerator = Callable[[State], Iterable[State]]


@record
class ComponentContract:
    """Rely and guarantee for one component, at both levels.

    `guarantee_moves` (and its abstract sibling) enumerate the successor
    states the guarantee relation admits from a given state; they let
    the compatibility lemma check the declared relation itself rather
    than only the moves the machine happens to take. Without a concrete
    enumerator the component's concrete moves are its machine steps,
    which lemma 3 checks; without an abstract one, lemma 4 checks the
    abstract matches of its mapped steps. The report says which.
    """

    rely: Relation
    guarantee: Relation
    abstract_rely: Relation = total_relation
    abstract_guarantee: Relation = total_relation
    guarantee_moves: MoveEnumerator | None = None
    abstract_guarantee_moves: MoveEnumerator | None = None


@record
class RelyGuaranteeSpec:
    contracts: Mapping[str, ComponentContract]
    component_of: Callable[[ActionId], str]

    def component(self, action: ActionId) -> str:
        name = self.component_of(action)
        if name not in self.contracts:
            raise ModelError(
                f"action {action!r} belongs to component {name!r}, "
                "which has no rely-guarantee contract"
            )
        return name


@record
class CompositionalReport:
    lemma1: Verdict
    lemma2: Verdict
    lemma3: Verdict
    lemma4: Verdict
    cross_check: Verdict
    pair_count: int
    components: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.lemma1.ok and self.lemma2.ok and self.lemma3.ok
                and self.lemma4.ok and self.cross_check.status != "fail")

    def lemmas(self) -> dict[str, Verdict]:
        return {"lemma1": self.lemma1, "lemma2": self.lemma2,
                "lemma3": self.lemma3, "lemma4": self.lemma4}


def check_compositional(pair: RefinementPair, rg: RelyGuaranteeSpec,
                        budget: int | None = None) -> CompositionalReport:
    """Check the four rely-guarantee lemmas over the discovered pairs.

    Lemma 1: a component's silent steps satisfy its own guarantee and
    keep alpha with the abstract state unchanged. Lemma 2: its mapped
    steps satisfy the guarantee at both levels and have a related
    abstract witness. Lemma 3: any other component's move, coupled with
    its zeta-determined abstract counterpart, satisfies this component's
    relies and lands in alpha. Lemma 4: every guarantee move of one
    component satisfies every other component's rely, at both levels.
    It checks only what lemma 3 does not: a declared enumerator's moves
    and, at the abstract level without one, lemma 2's matches of the
    component's mapped steps. Without a concrete enumerator the
    component's moves are its steps, which lemma 3 already checks
    against every other concrete rely; the note calls them witnessed.
    With the total abstract relies of every model file and built-in, no
    CLI target fails lemma 4.

    Lemmas 1 to 3 are checked in one pass over the search's steps
    (`_steps`), with the abstract match the search makes: the abstract
    state itself for a silent step, the first related successor for a
    mapped one; lemma 2 tries the later candidates when the abstract
    guarantee rejects it. The pass keeps the first failure per lemma
    and component, and for lemma 3 per observer and mover, so each
    witness is the first in component order, then search order.

    When all four pass, the joint exploration's silent and mapped step
    conditions must also pass; the report cross-checks that implication
    and flags a violation as an alarm.
    """
    exploration = joint_explore(pair, budget=budget)
    components = tuple(sorted(rg.contracts))

    if not exploration.c1.ok:
        skip = Verdict.skipped("initial pair unrelated; nothing to quantify over")
        return CompositionalReport(
            lemma1=skip, lemma2=skip, lemma3=skip, lemma4=skip,
            cross_check=Verdict.skipped("lemmas were not evaluated"),
            pair_count=0,
            components=components,
        )

    mc, ma = pair.concrete.machine, pair.abstract.machine
    related = pair.alpha.on_ids(mc, ma)
    #: per concrete action: its mover, the mover's contract, its image,
    #: its own lemma's key, and each other component's lemma 3 key and
    #: contract
    facts = []
    for action in mc.actions:
        mover, image = rg.component(action), pair.zeta.map(action)
        facts.append((mover, rg.contracts[mover], image,
                      ("lemma1" if image is TAU else "lemma2", mover),
                      [(("lemma3", observer, mover), rg.contracts[observer])
                       for observer in components if observer != mover]))
    abstract_moves_by: dict[str, set[tuple[int, int]]] = {
        k: set() for k in components}
    search, width = exploration.search, exploration.width
    #: (lemma, component) or ("lemma3", observer, mover) -> first failure
    failures: dict[tuple[str, ...], Verdict] = {}

    def relates(j: int, sigma2: State) -> bool:
        """Alpha on a successor id and a candidate abstract state."""
        return related(j, ma.id_of(sigma2))

    def fail(key: tuple[str, ...], node: int, x: int, successor: State,
             reason: str, abstract_successor: State | None = None) -> None:
        s, sigma = exploration.pair_at(node)
        action = mc.actions[x]
        failures[key] = Verdict.failed(LemmaWitness(
            component=key[1], other_component=key[2] if key[2:] else None,
            trace=search.trace_to(node) + (action,),
            state=s, abstract_state=sigma, action=action,
            successor=successor, abstract_successor=abstract_successor,
            reason=reason,
        ))

    at = None  # the node whose pair `current` holds
    for _, node, x, j, m in _steps(pair, search):
        mover, contract, image, own, others = facts[x]
        if node != at:
            at, current = node, exploration.pair_at(node)
        successor = mc.by_id[j]
        counterpart = None if m is None else ma.by_id[m]
        match = counterpart
        if image is not TAU:
            match = _mapped_match(pair, contract, current[1], image, j,
                                  counterpart, relates)
            if match is not None:
                # the counterpart's id is known; a later candidate's is not
                a2 = m if match is counterpart else ma.id_of(match)
                abstract_moves_by[mover].add((node % width, a2))
        if own not in failures:
            reason = _own_step_failure(contract, current, image, successor,
                                       match)
            if reason is not None:
                fail(own, node, x, successor, reason)
        for key, observer in others:
            if key not in failures:
                failure = _environment_failure(observer, current, image,
                                               successor, counterpart)
                if failure is not None:
                    fail(key, node, x, successor, *failure)

    lemma4, lemma4_note = _check_compatibility(
        exploration, rg, components, abstract_moves_by)

    def first(lemma: str) -> Verdict:
        """The failure of `lemma` first in component order, if any."""
        keys = sorted(key for key in failures if key[0] == lemma)
        return failures[keys[0]] if keys else Verdict.passed()

    lemma1, lemma2, lemma3 = first("lemma1"), first("lemma2"), first("lemma3")

    all_pass = all(v.ok for v in (lemma1, lemma2, lemma3, lemma4))
    if all_pass:
        if exploration.c2.ok and exploration.c3.ok:
            cross = Verdict.passed("lemmas imply the joint step conditions; "
                                   "joint exploration agrees")
        else:
            cross = Verdict.failed(None,
                                   "soundness alarm: all lemmas pass but joint "
                                   "exploration finds a step-condition failure")
    else:
        cross = Verdict.skipped("lemmas did not pass")

    return CompositionalReport(
        lemma1=lemma1, lemma2=lemma2, lemma3=lemma3,
        lemma4=Verdict(lemma4.status, lemma4.witness, lemma4_note),
        cross_check=cross,
        pair_count=exploration.pair_count,
        components=components,
    )


def _check_compatibility(
    exploration: JointExploration,
    rg: RelyGuaranteeSpec,
    components: tuple[str, ...],
    abstract_moves_by: Mapping[str, set[tuple[int, int]]],
) -> tuple[Verdict, str]:
    """Lemma 4: guarantee of each component within every other's rely.

    A component without a concrete enumerator has no concrete moves
    here: lemma 3 checks its steps. Within the first (mover, other,
    level) with a failing move, the witness is the least failing move
    by its two states' serializations."""
    cby, aby = exploration.concrete.by_id, exploration.abstract.by_id
    nodes, width = exploration.nodes, exploration.width
    concrete_ids = sorted({node // width for node in nodes})
    abstract_ids = sorted({node % width for node in nodes})
    sources: list[str] = []
    verdict: Verdict | None = None
    for mover in components:
        contract = rg.contracts[mover]
        declared, abstract_declared = (contract.guarantee_moves,
                                       contract.abstract_guarantee_moves)
        sources.append(
            f"{mover}: {'witnessed' if declared is None else 'declared'}/"
            f"{'witnessed' if abstract_declared is None else 'declared'}")
        if verdict is not None:
            continue
        moves = [] if declared is None else [
            (cby[i], s2) for i in concrete_ids for s2 in declared(cby[i])]
        if abstract_declared is not None:
            abstract_moves = [(aby[a], a2) for a in abstract_ids
                              for a2 in abstract_declared(aby[a])]
        else:
            abstract_moves = [(aby[a], aby[a2]) for a, a2 in
                              sorted(abstract_moves_by[mover])]
        for other in components:
            if other == mover:
                continue
            other_contract = rg.contracts[other]
            for level, level_moves in (("concrete", moves),
                                       ("abstract", abstract_moves)):
                failing = [(s, s2) for s, s2 in level_moves
                           if _rely_failure(other_contract, level, s, s2)]
                if failing:
                    s, s2 = min(failing, key=lambda move: (
                        move[0].serialize(), move[1].serialize()))
                    verdict = Verdict.failed(LemmaWitness(
                        component=mover, other_component=other,
                        trace=(), state=s, abstract_state=None,
                        action=None, successor=s2, abstract_successor=None,
                        reason=_rely_failure(other_contract, level, s, s2),
                        level=level,
                    ))
                    break
            if verdict is not None:
                break
    note = "guarantee moves: " + "; ".join(sources)
    return (verdict or Verdict.passed(), note)


# ---------------------------------------------------------------------------
# Lemma instances: one step (lemmas 1-3) or one guarantee move (lemma 4).
# Each returns why the instance fails, or None; check_compositional and
# lemma_violated share them. A step's counterpart is the abstract state
# the joint search matches it with: for a silent step the abstract state
# itself if alpha still relates it, for a mapped step the first abstract
# step on zeta's image landing in alpha; None when there is none.
# ---------------------------------------------------------------------------

def _counterpart(pair: RefinementPair, sigma: State, image: ActionId | _Tau,
                 successor: State) -> State | None:
    """The counterpart of a step from abstract state `sigma` to
    `successor`, evaluated by alpha."""
    if image is TAU:
        return sigma if pair.alpha.holds(successor, sigma) else None
    return _abstract_witness(
        pair.alpha, pair.abstract.machine.step(sigma, image), successor)


def _own_step_failure(contract: ComponentContract, current: Pair,
                      image: ActionId | _Tau, successor: State,
                      match: State | None) -> str | None:
    """Lemma 1 (a silent step) or lemma 2 (a mapped step) on a step of
    the contract's own component, given its match: a silent step's
    counterpart, or a mapped step's `_mapped_match`."""
    s, sigma = current
    if not contract.guarantee(s, successor):
        kind = "silent" if image is TAU else "mapped"
        return f"{kind} step leaves the component's guarantee"
    if match is None:
        return ("silent step breaks the state relation" if image is TAU
                else "no abstract step lands in alpha within the abstract "
                     "guarantee")
    return None


def _mapped_match(pair: RefinementPair, contract: ComponentContract,
                  sigma: State, image: ActionId, successor: object,
                  counterpart: State | None,
                  relates: Callable[[object, State], bool]) -> State | None:
    """The first abstract step on `image` landing in alpha within the
    abstract guarantee; it is the step's counterpart, or a later
    candidate when the guarantee rejects the counterpart. Alpha is
    tested as `relates(successor, candidate)`: on the successor's id or
    on its state."""
    if counterpart is None:
        return None
    if contract.abstract_guarantee(sigma, counterpart):
        return counterpart
    candidates = pair.abstract.machine.step(sigma, image)
    for sigma2 in candidates[candidates.index(counterpart) + 1:]:
        if relates(successor, sigma2) and \
                contract.abstract_guarantee(sigma, sigma2):
            return sigma2
    return None


def _environment_failure(contract: ComponentContract, current: Pair,
                         image: ActionId | _Tau, successor: State,
                         counterpart: State | None
                         ) -> tuple[str, State | None] | None:
    """Lemma 3 on another component's step, against the contract's
    relies; the abstract counterpart comes with the reason once found.
    A silent step's abstract counterpart is the abstract state itself,
    related or not."""
    s, sigma = current
    if not contract.rely(s, successor):
        return ("environment step breaks the concrete rely", None)
    abstract = sigma if image is TAU else counterpart
    if abstract is None:
        return ("environment step has no abstract counterpart", None)
    if not contract.abstract_rely(sigma, abstract):
        return ("environment step breaks the abstract rely", abstract)
    if counterpart is None:
        return ("environment step leaves the state relation", abstract)
    return None


def _rely_failure(contract: ComponentContract, level: str,
                  s: State, s2: State) -> str | None:
    """Lemma 4 on another component's guarantee move at `level`."""
    rely = contract.rely if level == "concrete" else contract.abstract_rely
    article = "a" if level == "concrete" else "an"
    return None if rely(s, s2) else f"{article} {level} guarantee move breaks the rely"


def _is_guarantee_move(pair: RefinementPair, rg: RelyGuaranteeSpec,
                       component: str, level: str, s: State, s2: State) -> bool:
    """Whether `component`'s declared enumerator at `level` yields
    (s, s2) or, at the abstract level without one, the zeta image of one
    of its mapped actions steps there. A concrete move needs a declared
    enumerator: lemma 4 checks no witnessed concrete move."""
    contract = rg.contracts[component]
    declared = (contract.guarantee_moves if level == "concrete"
                else contract.abstract_guarantee_moves)
    if declared is not None:
        return s2 in declared(s)
    return level == "abstract" and any(
        image is not TAU and s2 in pair.abstract.machine.step(s, image)
        for action in pair.concrete.machine.actions
        if rg.component(action) == component
        for image in [pair.zeta.map(action)])


def lemma_violated(pair: RefinementPair, rg: RelyGuaranteeSpec, lemma: str,
                   w: LemmaWitness) -> bool:
    """True when `w` is an instance that fails rely-guarantee lemma
    `lemma` ("lemma1" to "lemma4", see `check_compositional`) for the
    reason, counterpart and components it records.

    Lemmas 1 to 3 speak about a concrete step from a related pair at
    the end of `w.trace`; lemma 4 about a guarantee move at `w.level`.
    """
    if w.component not in rg.contracts or w.successor is None:
        return False
    contract = rg.contracts[w.component]
    if lemma == "lemma4":
        if w.other_component not in rg.contracts \
                or w.other_component == w.component \
                or w.level not in ("concrete", "abstract") \
                or not _is_guarantee_move(pair, rg, w.component, w.level,
                                          w.state, w.successor):
            return False
        reason = _rely_failure(rg.contracts[w.other_component], w.level,
                               w.state, w.successor)
        return reason is not None and w == LemmaWitness(
            w.component, (), w.state, None, None, w.successor, None, reason,
            w.level, w.other_component)
    if w.action is None or w.abstract_state is None \
            or not _related_step(pair, w):
        return False
    current = (w.state, w.abstract_state)
    mover = rg.component(w.action)
    own = mover == w.component
    image = pair.zeta.map(w.action)
    counterpart = _counterpart(pair, w.abstract_state, image, w.successor)
    if lemma == "lemma3" and not own:
        failure = _environment_failure(contract, current, image, w.successor,
                                       counterpart)
    elif own and lemma == ("lemma1" if image is TAU else "lemma2"):
        match = counterpart if image is TAU else _mapped_match(
            pair, contract, w.abstract_state, image, w.successor, counterpart,
            pair.alpha.holds)
        reason = _own_step_failure(contract, current, image, w.successor,
                                   match)
        failure = None if reason is None else (reason, None)
    else:
        return False
    return failure is not None and w == LemmaWitness(
        w.component, w.trace, w.state, w.abstract_state, w.action,
        w.successor, failure[1], failure[0], "concrete",
        None if own else mover)
