"""Local respect, step consistency, and scope handling.

Expected witnesses are frozen from hand evaluation of the small machines
below: each machine is drawn out state by state in the comments next to
its builder, and the first violation under the documented iteration
order (actions, then domains, then serialized states) was computed on
paper before the checks existed.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsec import core, unwinding, witness
from ifsec.cli import main
from ifsec.core import (
    ActionId,
    BudgetError,
    InfoFlowConfig,
    SecureSystem,
    State,
    StateMachine,
    UsageError,
    explore,
    replace,
)
from ifsec.models import get_model
from ifsec.programs import compile_system
from ifsec.unwinding import (
    LRViolation,
    SCViolation,
    check_lr,
    check_sc,
    check_unwinding,
    has_stutter,
    lr_violated,
    sc_violated,
    scope_reachable,
    scope_universe,
)
from test_programs import BUILTIN_SIZES, concurrent_systems, failure_text

H, L = ActionId("h"), ActionId("l")


def leaky(policy_edges=None) -> SecureSystem:
    """Two states x=0, x=1; h flips x up, l loops; lo observes x.

    Under the default policy (reflexive only) the action h interferes
    with lo: from x=0 it moves to x=1 and lo sees the change.
    """
    s0, s1 = State({"x": 0}), State({"x": 1})
    machine = StateMachine(
        states=(s0, s1),
        actions=(H, L),
        transitions={(s0, H): (s1,), (s1, H): (s1,), (s0, L): (s0,), (s1, L): (s1,)},
        initial=s0,
    )
    if policy_edges is None:
        policy_edges = {("hi", "hi"), ("lo", "lo")}
    cfg = InfoFlowConfig(
        domains=("hi", "lo"),
        policy=frozenset(policy_edges),
        dom={H: "hi", L: "lo"},
        observe=lambda d, s: s["x"] if d == "lo" else None,
    )
    return SecureSystem(machine, cfg)


def coin() -> SecureSystem:
    """One domain, one action with two visibly different outcomes.

    Step consistency must fail with s1 == s2 == the initial state: the
    premise (a state is indistinguishable from itself) always holds and
    the two successors show different faces.
    """
    s0 = State({"face": None})
    sh, st = State({"face": "heads"}), State({"face": "tails"})
    toss = ActionId("toss")
    machine = StateMachine(
        states=(s0, sh, st),
        actions=(toss,),
        transitions={(s0, toss): (sh, st)},
        initial=s0,
    )
    cfg = InfoFlowConfig(
        domains=("w",),
        policy=frozenset({("w", "w")}),
        dom={toss: "w"},
        observe=lambda d, s: s["face"],
    )
    return SecureSystem(machine, cfg)


def identity_machine() -> SecureSystem:
    """Every action loops in place; nothing can violate anything."""
    s0, s1 = State({"x": 0}), State({"x": 1})
    machine = StateMachine(
        states=(s0, s1),
        actions=(H, L),
        transitions={(s, a): (s,) for s in (s0, s1) for a in (H, L)},
        initial=s0,
    )
    cfg = InfoFlowConfig(
        domains=("hi", "lo"),
        policy=frozenset({("hi", "hi"), ("lo", "lo")}),
        dom={H: "hi", L: "lo"},
        observe=lambda d, s: s["x"],
    )
    return SecureSystem(machine, cfg)


class TestLocalRespect:
    def test_identity_machine_passes(self):
        system = identity_machine()
        assert check_lr(system, scope_reachable(system)) is None

    def test_leak_found_with_frozen_witness(self):
        # h acts for hi, lo is not reachable from hi, and from x=0 the
        # step lands in x=1 where lo's view changed 0 -> 1.
        system = leaky()
        violation = check_lr(system, scope_reachable(system))
        assert violation == LRViolation(
            action=H, domain="lo", state=State({"x": 0}), successor=State({"x": 1})
        )
        # The replay predicate agrees, and rejects the same step seen
        # by hi, whom hi's actions may inform.
        assert lr_violated(system, violation)
        assert not lr_violated(system, replace(violation, domain="hi"))

    def test_total_policy_leaves_nothing_to_check(self):
        domains = ("hi", "lo")
        total = {(u, v) for u in domains for v in domains}
        system = leaky(total)
        assert check_lr(system, scope_reachable(system)) is None

    def test_domain_filter(self):
        system = leaky()
        scope = scope_reachable(system)
        assert check_lr(system, scope, domains=["hi"]) is None
        assert check_lr(system, scope, domains=["lo"]) is not None
        with pytest.raises(UsageError):
            check_lr(system, scope, domains=["nope"])


class TestStepConsistency:
    def test_identity_machine_passes(self):
        system = identity_machine()
        assert check_sc(system, scope_reachable(system)) is None

    def test_visible_nondeterminism_fails_against_itself(self):
        # The class for (toss, w) is the singleton {initial}; its two
        # successors sort heads before tails, freezing the pair order.
        system = coin()
        violation = check_sc(system, scope_reachable(system))
        assert violation == SCViolation(
            action=ActionId("toss"),
            domain="w",
            s1=State({"face": None}),
            s2=State({"face": None}),
            s1_successor=State({"face": "heads"}),
            s2_successor=State({"face": "tails"}),
        )
        assert sc_violated(system, violation)
        assert not sc_violated(system, replace(
            violation, s2_successor=violation.s1_successor))

    def test_leaky_machine_is_still_step_consistent(self):
        # The leak is a local-respect failure; each premise class here
        # is a singleton with a deterministic step, so SC holds.
        system = leaky()
        assert check_sc(system, scope_reachable(system)) is None

    def test_hidden_branch_passes(self):
        # Two successors that agree on every observation are fine.
        s0 = State({"face": None, "spin": 0})
        sa, sb = State({"face": "same", "spin": 1}), State({"face": "same", "spin": 2})
        toss = ActionId("toss")
        machine = StateMachine(
            states=(s0, sa, sb),
            actions=(toss,),
            transitions={(s0, toss): (sa, sb)},
            initial=s0,
        )
        cfg = InfoFlowConfig(
            domains=("w",),
            policy=frozenset({("w", "w")}),
            dom={toss: "w"},
            observe=lambda d, s: s["face"],
        )
        system = SecureSystem(machine, cfg)
        assert check_sc(system, scope_reachable(system)) is None


class TestScopes:
    def test_universe_requires_declaration(self):
        system = leaky()
        with pytest.raises(UsageError):
            scope_universe(system)

    def test_universe_scope_sees_unreachable_trouble(self):
        # sbad is unreachable (nothing steps into it) but its outgoing
        # step changes lo's view; only the universe scope catches that.
        s0, sbad = State({"x": 0}), State({"x": 5})
        machine = StateMachine(
            states=(s0, sbad),
            actions=(H, L),
            transitions={(s0, H): (s0,), (s0, L): (s0,), (sbad, H): (s0,), (sbad, L): (sbad,)},
            initial=s0,
            universe=(s0, sbad),
        )
        cfg = InfoFlowConfig(
            domains=("hi", "lo"),
            policy=frozenset({("hi", "hi"), ("lo", "lo")}),
            dom={H: "hi", L: "lo"},
            observe=lambda d, s: s["x"] if d == "lo" else None,
        )
        system = SecureSystem(machine, cfg)
        assert check_lr(system, scope_reachable(system)) is None
        universe = scope_universe(system)
        assert universe.tag == "universe"
        violation = check_lr(system, universe)
        assert violation == LRViolation(action=H, domain="lo", state=sbad, successor=s0)

    def test_depth_limit_hides_deep_violation(self):
        # x counts 0..3; the step out of x=3 flips a bit lo watches.
        # Depth 2 never reaches x=3, so the depth-limited check passes.
        def mk(x, bit):
            return State({"x": x, "bit": bit})

        inc = ActionId("inc")
        states = [mk(x, 0) for x in range(4)] + [mk(3, 1)]
        transitions = {(mk(x, 0), inc): (mk(x + 1, 0),) for x in range(3)}
        transitions[(mk(3, 0), inc)] = (mk(3, 1),)
        transitions[(mk(3, 1), inc)] = (mk(3, 1),)
        machine = StateMachine(
            states=tuple(sorted(states)),
            actions=(inc,),
            transitions=transitions,
            initial=mk(0, 0),
        )
        cfg = InfoFlowConfig(
            domains=("hi", "lo"),
            policy=frozenset({("hi", "hi"), ("lo", "lo")}),
            dom={inc: "hi"},
            observe=lambda d, s: s["bit"] if d == "lo" else None,
        )
        system = SecureSystem(machine, cfg)
        shallow = scope_reachable(system, depth=2)
        assert shallow.tag == "reachable(depth=2)"
        assert len(shallow.states) == 3
        assert check_lr(system, shallow) is None
        full = scope_reachable(system)
        violation = check_lr(system, full)
        assert violation is not None
        assert violation.state == mk(3, 0)
        assert full.trace_to(violation.state) == (inc, inc, inc)


class TestReport:
    def test_report_fields_on_failure(self):
        system = leaky()
        report = check_unwinding(system)
        assert not report.ok
        assert report.lr is not None and report.sc is None
        assert report.scope_tag == "reachable"
        assert report.scope_size == 2
        assert report.stutter is False

    def test_report_ok_on_identity(self):
        report = check_unwinding(identity_machine())
        assert report.ok and report.lr is None and report.sc is None

    def test_stutter_flag_set_when_actions_can_be_disabled(self):
        # The coin machine's toss is disabled in both outcome states.
        report = check_unwinding(coin())
        assert report.stutter is True

    def test_reruns_are_identical(self):
        assert check_unwinding(leaky()) == check_unwinding(leaky())
        assert check_unwinding(coin()) == check_unwinding(coin())

    def test_depth_keyword_threads_through(self):
        # Depth limits which states are quantified over, not where a
        # step may land: x=0 is in scope and its h step still leaks.
        report = check_unwinding(leaky(), depth=0)
        assert not report.ok and report.lr is not None
        assert report.scope_tag == "reachable(depth=0)"
        assert report.scope_size == 1


# ---------------------------------------------------------------------------
# The checks over state ids against the State-keyed loops they replaced
# ---------------------------------------------------------------------------

def _oracle_domains(system, domains):
    if domains is None:
        return tuple(sorted(system.config.domains))
    return tuple(sorted(domains))


def oracle_check_lr(system, scope, domains=None):
    """Local respect over `scope.states` in serialization order and the
    (state, action) view."""
    machine, config = system.machine, system.config
    observe = config.observe
    for action in machine.actions:
        acting = config.domain_of(action)
        blocked = [d for d in _oracle_domains(system, domains)
                   if not config.allows(acting, d)]
        for domain in blocked:
            for state in sorted(scope.states, key=State.serialize):
                successors = machine.transitions.get((state, action))
                if not successors:
                    continue
                before = observe(domain, state)
                for succ in successors:
                    if observe(domain, succ) != before:
                        return LRViolation(action, domain, state, succ)
    return None


def oracle_check_sc(system, scope, domains=None):
    """Step consistency by premise classes of states, as `check_sc`
    documents it, over `scope.states` in serialization order and the
    (state, action) view."""
    machine, config = system.machine, system.config
    observe = config.observe
    for action in machine.actions:
        acting = config.domain_of(action)
        for domain in _oracle_domains(system, domains):
            relevant = config.allows(acting, domain)
            groups: dict = {}
            for state in sorted(scope.states, key=State.serialize):
                if (state, action) not in machine.transitions:
                    continue
                key = (observe(domain, state),
                       observe(acting, state) if relevant else None)
                groups.setdefault(key, []).append(state)
            violating = []
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


def oracle_has_stutter(system, scope):
    machine = system.machine
    return any((state, action) not in machine.transitions
               for state in scope.states for action in machine.actions)


@st.composite
def universe_systems(draw):
    """A random machine over x in 0..2 and y in 0..1 with all six
    assignments as its universe, so some are usually unreachable: 1..3
    actions, each disabled or stepping to up to three states anywhere,
    2..3 domains under a policy that need not be reflexive, and
    observations drawn per (domain, state) from three values. Returns it
    with a scope (reachable, reachable to a depth, or the universe) and
    a domain subset or None."""
    universe = [State({"x": x, "y": y}) for x in range(3) for y in range(2)]
    domains = tuple(f"d{i}" for i in range(draw(st.integers(2, 3))))
    policy = frozenset((u, v) for u in domains for v in domains
                       if draw(st.booleans()))
    actions = tuple(ActionId(f"a{i}") for i in range(draw(st.integers(1, 3))))
    transitions = {}
    for s in universe:
        for a in actions:
            succ = draw(st.lists(st.sampled_from(universe), max_size=3,
                                 unique=True))
            if succ:
                transitions[(s, a)] = tuple(sorted(succ))
    views = {(d, s): draw(st.integers(0, 2)) for d in domains for s in universe}
    machine = StateMachine(states=universe, actions=actions,
                           transitions=transitions,
                           initial=draw(st.sampled_from(universe)),
                           universe=universe)
    config = InfoFlowConfig(domains, policy,
                            {a: draw(st.sampled_from(domains)) for a in actions},
                            observe=lambda d, s: views[(d, s)])
    system = SecureSystem(machine, config)
    kind = draw(st.sampled_from(["reachable", "depth", "universe"]))
    if kind == "universe":
        scope = scope_universe(system)
    else:
        scope = scope_reachable(
            system, depth=draw(st.integers(0, 3)) if kind == "depth" else None)
    chosen = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(domains), min_size=1, unique=True)))
    return system, scope, chosen


@settings(max_examples=400, derandomize=True, deadline=None)
@given(universe_systems())
def test_id_checks_match_state_oracles(example):
    """lr and sc over state ids give the oracle's witness, or its pass,
    on every scope and domain subset; the stutter flag agrees too."""
    system, scope, chosen = example
    assert check_lr(system, scope, chosen) == oracle_check_lr(
        system, scope, chosen)
    assert check_sc(system, scope, chosen) == oracle_check_sc(
        system, scope, chosen)
    assert has_stutter(system, scope) == oracle_has_stutter(system, scope)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(universe_systems())
def test_witness_states_carry_their_ids(example):
    """lr and sc hand back the ids of the states a scope traces, so
    `witness.to_json` traces them without mapping every state to its
    id, to the traces `Scope.trace_to` finds by state."""
    system, scope, chosen = example
    machine = system.machine
    found = [(violation, anchors, witness.to_json(violation, scope))
             for violation, anchors in (
                 (check_lr(system, scope, chosen), ("state",)),
                 (check_sc(system, scope, chosen), ("s1", "s2")))
             if violation is not None]
    assert machine._ids is None
    for violation, anchors, encoded in found:
        ids = [getattr(violation, f"{anchor}_id") for anchor in anchors]
        assert [machine.by_id[i] for i in ids] == \
            [getattr(violation, anchor) for anchor in anchors]
        traces = [scope.trace_to(getattr(violation, anchor))
                  for anchor in anchors]
        assert [encoded[field] for field, _ in
                witness._SCOPE_TRACES[encoded["type"]]] == [
            None if trace is None else [a.display() for a in trace]
            for trace in traces]
        assert not any(key.endswith("_id") for key in encoded)


@pytest.mark.parametrize("name", ["demo", "demo-insecure-fullstatus", "arinc",
                                  "arinc-port-id", "auction"])
def test_id_checks_match_state_oracles_on_builtins(name):
    bundle = get_model(name)
    for system in (bundle.abstract, bundle.concrete):
        scope = scope_reachable(system)
        assert check_lr(system, scope) == oracle_check_lr(system, scope)
        assert check_sc(system, scope) == oracle_check_sc(system, scope)


# ---------------------------------------------------------------------------
# The reachable scope a tabulated machine lists, against `explore`
# ---------------------------------------------------------------------------

def assert_scope_is_what_explore_reaches(system):
    """The reachable scope holds the ids `explore` reaches, and traces
    each scoped state as that search does."""
    search = explore(system.machine)
    scope = scope_reachable(system)
    assert scope.ids == tuple(sorted(search.order))
    assert [scope.trace_to(state) for state in scope.states] == \
        [search.trace_to(i) for i in scope.ids]


@pytest.mark.parametrize("name,params", BUILTIN_SIZES,
                         ids=[name + "".join(f"-{k}{v}" for k, v in p.items())
                              for name, p in BUILTIN_SIZES])
def test_builtin_scope_is_what_explore_reaches(name, params):
    bundle = get_model(name, **params)
    for system in (bundle.abstract, bundle.concrete):
        assert system.machine.tabulated
        assert_scope_is_what_explore_reaches(system)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(concurrent_systems())
def test_generated_scope_is_what_explore_reaches(example):
    concurrent, _ = example
    system = failure_text(compile_system, concurrent, ("d0", "d1"), (),
                          lambda d, s: None)
    if isinstance(system, str):  # the build raised; nothing to scope
        return
    assert system.machine.tabulated
    assert_scope_is_what_explore_reaches(system)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(universe_systems())
def test_constructed_scope_is_what_explore_reaches(example):
    """The constructor's `states` are the whole universe here, often with
    unreachable states among them: the scope must not take them."""
    system, _, _ = example
    assert not system.machine.tabulated
    assert_scope_is_what_explore_reaches(system)


def assert_class_tables_are_the_observations(system):
    """Each domain's `classes` list has one entry per state id; two ids
    share a class exactly when the domain observes equal values in their
    states; and `observe` runs once per (domain, state), however often
    lr and sc read the tables."""
    machine, observe = system.machine, system.config.observe
    calls = Counter()

    def counting(domain, state):
        calls[domain, state] += 1
        return observe(domain, state)

    config = replace(system.config, observe=counting)
    counted = SecureSystem(machine, config)
    for _ in range(2):
        check_lr(counted, scope_reachable(counted))
        check_sc(counted, scope_reachable(counted))
    for domain in config.domains:
        table = config.classes(machine, domain)
        assert config.classes(machine, domain) is table
        assert len(table) == len(machine.by_id)
        views = [observe(domain, state) for state in machine.by_id]
        # equal classes exactly at equal views: a bijection between them
        assert len(set(table)) == len(set(views)) \
            == len(set(zip(table, views)))
    assert calls == Counter({(domain, state): 1 for domain in config.domains
                             for state in machine.by_id})


@pytest.mark.parametrize("name,params", BUILTIN_SIZES,
                         ids=[name + "".join(f"-{k}{v}" for k, v in p.items())
                              for name, p in BUILTIN_SIZES])
def test_builtin_class_tables_are_the_observations(name, params):
    bundle = get_model(name, **params)
    for system in (bundle.abstract, bundle.concrete):
        assert_class_tables_are_the_observations(system)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(concurrent_systems())
def test_generated_class_tables_are_the_observations(example):
    concurrent, _ = example
    system = failure_text(compile_system, concurrent, ("d0", "d1"),
                          [("d0", "d1")], lambda d, s: s["x"] if d == "d0"
                          else (s["x"] + s["y"]) % 2)
    if isinstance(system, str):  # the build raised; nothing to observe
        return
    assert_class_tables_are_the_observations(system)


def test_class_tables_tell_views_of_equal_hash_apart():
    # hash(-1) == hash(-2) in CPython: equal hashes, unequal views.
    states = tuple(State({"x": x}) for x in (-2, -1, 0))
    step = ActionId("step")
    machine = StateMachine(
        states=tuple(sorted(states)), actions=(step,),
        transitions={(states[0], step): (states[1],),
                     (states[1], step): (states[2],)},
        initial=states[0])
    system = SecureSystem(machine, InfoFlowConfig(
        domains=("d",), policy=frozenset({("d", "d")}), dom={step: "d"},
        observe=lambda d, s: s["x"]))
    assert hash(-1) == hash(-2)
    assert_class_tables_are_the_observations(system)
    report = check_unwinding(system)
    assert report.lr is None and report.sc is None


def count_explores(monkeypatch):
    """Every later `explore` call's arguments, from `core` or `unwinding`."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    for module in (core, unwinding):
        monkeypatch.setattr(module, "explore", counting)
    return calls


def test_passing_check_explores_nothing(monkeypatch):
    bundle = get_model("demo", capacity=2)
    calls = count_explores(monkeypatch)
    for system in (bundle.abstract, bundle.concrete):
        assert check_unwinding(system).ok
    assert calls == []


#: lo's `peek` copies hi's y into x, which lo sees: step consistency
#: fails from x=0;y=0 and x=0;y=1, the latter one `toggle` away.
PEEK = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0
y in {0, 1} = 0

[actions]
act peek lo
  y=0 -> x:=0
  y=1 -> x:=1

act toggle hi
  y=0 -> y:=1
  y=1 -> y:=0

[observe]
hi: x y
lo: x
"""


def test_witness_traces_explore_once(monkeypatch, tmp_path, capsys):
    model = tmp_path / "peek.ifs"
    model.write_text(PEEK, encoding="utf-8")
    calls = count_explores(monkeypatch)
    assert main(["check", "unwinding", str(model), "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["lr"]["status"] == "pass"
    witness = checks["sc"]["witness"]
    assert (witness["trace1"], witness["trace2"]) == ([], ["toggle"])
    assert len(calls) == 1


def test_budget_below_the_tabulated_states_raises_as_explore_does():
    """The messages are those `explore` raised when every reachable scope
    explored; auction's concrete level has 366 states."""
    system = get_model("auction").concrete
    for budget, depth in ((1, 1), (100, 7), (365, 15)):
        with pytest.raises(BudgetError) as caught:
            scope_reachable(system, budget=budget)
        assert str(caught.value) == (
            f"budget of {budget} states exceeded at BFS depth {depth} "
            "(raise --budget or shrink the model)")
    assert scope_reachable(system, budget=366).ids == system.machine.state_ids
