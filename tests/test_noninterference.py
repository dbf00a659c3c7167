"""Purge algebra and bounded noninterference checking.

The oracle for sources/ipurge is the literal recursion, transcribed here
independently of the module under test and evaluated by hand on the frozen
examples below before the implementation existed. The oracle for
`check_ni` is the trace enumerator it replaced, `oracle_check_ni`.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsec.core import (
    ActionId,
    BudgetError,
    InfoFlowConfig,
    SecureSystem,
    State,
    StateMachine,
    UsageError,
    equidom,
    replace,
    run,
    value_key,
)
from ifsec.models import get_model, model_names
from ifsec.noninterference import (
    NICounterexample,
    NIResult,
    check_ni,
    ipurge,
    ni_violated,
    sources,
    validate_unwinding_theorem,
)
from ifsec.unwinding import check_unwinding


def oracle_sources(trace, d, cfg):
    """Literal recursion: sources([], d) = {d}; prepending a adds dom(a)
    exactly when dom(a) may flow to some already-included domain."""
    if not trace:
        return {d}
    rest = oracle_sources(trace[1:], d, cfg)
    a = trace[0]
    w = cfg.dom[a]
    if any(cfg.allows(w, v) for v in rest):
        return rest | {w}
    return rest


def oracle_ipurge(trace, d, cfg):
    """Literal recursion: keep the head action exactly when its domain is
    in the sources of the whole remaining trace."""
    if not trace:
        return ()
    a = trace[0]
    if cfg.dom[a] in oracle_sources(trace, d, cfg):
        return (a,) + oracle_ipurge(trace[1:], d, cfg)
    return oracle_ipurge(trace[1:], d, cfg)


def oracle_check_ni(system, max_len, *, domains=None, actions=None):
    """The trace enumerator that `check_ni` replaced.

    Runs every trace up to `max_len`, shortest first and in action order
    within a length, and at each one purges it for every domain in name
    order. The first (trace, domain) whose full and purged runs the
    domain can tell apart is the counterexample; a trace its purge
    leaves whole is skipped. `traces_checked` counts the traces run.
    """
    machine, config = system.machine, system.config
    doms = tuple(sorted(config.domains if domains is None else set(domains)))
    acts = tuple(sorted(machine.actions if actions is None else set(actions)))
    initial = frozenset([machine.initial])
    checked = 0

    def view(d, states):
        return tuple(sorted({config.observe(d, s) for s in states}, key=value_key))

    def leaf(trace, finals):
        nonlocal checked
        checked += 1
        for d in doms:
            purged = ipurge(trace, d, config)
            if purged == trace:
                continue
            purged_finals = run(machine, initial, purged)
            if equidom(config, d, finals, purged_finals):
                continue
            return NICounterexample(
                trace, d, purged, tuple(sorted(finals)), tuple(sorted(purged_finals)),
                view(d, finals), view(d, purged_finals))
        return None

    def dfs(trace, states, remaining):
        if remaining == 0:
            return leaf(trace, states)
        for a in acts:
            found = dfs(trace + (a,), run(machine, states, (a,)), remaining - 1)
            if found is not None:
                return found
        return None

    counterexample = None
    for length in range(max_len + 1):
        counterexample = dfs((), initial, length)
        if counterexample is not None:
            break
    return NIResult(counterexample is None, counterexample, checked, max_len, doms, acts)


def ring_config() -> InfoFlowConfig:
    """Three domains in a cycle t1 -> t2 -> t3 -> t1, plus reflexivity."""
    domains = ("t1", "t2", "t3")
    policy = {(d, d) for d in domains} | {("t1", "t2"), ("t2", "t3"), ("t3", "t1")}
    acts = {ActionId(f"a{d}"): d for d in domains}
    return InfoFlowConfig(domains, frozenset(policy), acts,
                          observe=lambda d, s: None)


A1, A2, A3 = ActionId("at1"), ActionId("at2"), ActionId("at3")


class TestSources:
    def test_empty_trace_base_case(self):
        cfg = ring_config()
        assert sources((), "t2", cfg) == frozenset({"t2"})

    def test_single_permitted_action_joins_sources(self):
        # dom(a)=t1 flows to t2, so prepending it adds t1. Hand-evaluated.
        cfg = ring_config()
        assert sources((A1,), "t2", cfg) == frozenset({"t1", "t2"})

    def test_single_denied_action_stays_out(self):
        # t3 cannot reach t2 and nothing else is in the set. Hand-evaluated.
        cfg = ring_config()
        assert sources((A3,), "t2", cfg) == frozenset({"t2"})

    def test_transitive_chain_builds_up(self):
        # For observer t3: [at1, at2] gives {t1,t2,t3} because t2 -> t3
        # admits t2, then t1 -> t2 admits t1. Hand-evaluated.
        cfg = ring_config()
        assert sources((A1, A2), "t3", cfg) == frozenset({"t1", "t2", "t3"})
        # For observer t2 the trace [at2, at3] admits nothing new: t3
        # reaches neither t2 nor itself-via-others here. Hand-evaluated.
        assert sources((A2, A3), "t2", cfg) == frozenset({"t2"})

    def test_observer_always_member(self):
        cfg = ring_config()
        for trace in [(), (A1,), (A1, A2, A3), (A3, A3, A2)]:
            for d in cfg.domains:
                assert d in sources(trace, d, cfg)

    def test_prefix_monotonicity(self):
        cfg = ring_config()
        trace = (A2, A1, A3, A2)
        for d in cfg.domains:
            for i in range(len(trace)):
                assert sources(trace[i + 1:], d, cfg) <= sources(trace[i:], d, cfg)

    def test_matches_literal_recursion_on_enumerated_traces(self):
        cfg = ring_config()
        acts = (A1, A2, A3)
        def all_traces(k):
            if k == 0:
                yield ()
                return
            for rest in all_traces(k - 1):
                for a in acts:
                    yield (a,) + rest
        for k in range(4):
            for trace in all_traces(k):
                for d in cfg.domains:
                    assert sources(trace, d, cfg) == frozenset(
                        oracle_sources(trace, d, cfg))


class TestIpurge:
    def test_empty_trace_base_case(self):
        assert ipurge((), "t1", ring_config()) == ()

    def test_denied_single_action_removed(self):
        # t2 cannot reach t1, so its action vanishes for observer t1.
        cfg = ring_config()
        assert ipurge((A2,), "t1", cfg) == ()

    def test_permitted_single_action_kept(self):
        cfg = ring_config()
        assert ipurge((A1,), "t2", cfg) == (A1,)

    def test_interleaved_trace_hand_result(self):
        # Observer t2, trace [at1, at3, at2]. At the at3 position only
        # {t2} is downstream and t3 reaches neither t2 nor t1 there, so
        # at3 is dropped; at1 reaches t2 directly and survives.
        # Hand-evaluated: result [at1, at2].
        cfg = ring_config()
        assert ipurge((A1, A3, A2), "t2", cfg) == (A1, A2)

    def test_revival_through_downstream_action(self):
        # Same observer, but an at1 after the at3 changes the verdict:
        # t3 -> t1 holds, so once t1 is a source the at3 is kept.
        # Hand-evaluated: [at1, at3, at1, at2] keeps everything.
        cfg = ring_config()
        trace = (A1, A3, A1, A2)
        assert ipurge(trace, "t2", cfg) == trace

    def test_total_policy_is_identity(self):
        domains = ("t1", "t2", "t3")
        cfg = InfoFlowConfig(
            domains,
            frozenset((u, v) for u in domains for v in domains),
            {A1: "t1", A2: "t2", A3: "t3"},
            observe=lambda d, s: None,
        )
        trace = (A3, A1, A2, A2, A1)
        for d in domains:
            assert ipurge(trace, d, cfg) == trace

    def test_result_is_subsequence(self):
        cfg = ring_config()
        trace = (A2, A3, A1, A2, A3)
        for d in cfg.domains:
            purged = ipurge(trace, d, cfg)
            it = iter(trace)
            assert all(any(a == b for b in it) for a in purged)

    def test_matches_literal_recursion_on_enumerated_traces(self):
        cfg = ring_config()
        acts = (A1, A2, A3)
        def all_traces(k):
            if k == 0:
                yield ()
                return
            for rest in all_traces(k - 1):
                for a in acts:
                    yield (a,) + rest
        for k in range(4):
            for trace in all_traces(k):
                for d in cfg.domains:
                    assert ipurge(trace, d, cfg) == oracle_ipurge(trace, d, cfg)


def leaky_system() -> SecureSystem:
    """Two domains with hi -/-> lo; the hi action flips a bit lo observes.

    Hand-derived canonical counterexample: trace [h] for observer lo.
    Purging removes h, the runs end with x=1 vs x=0, and lo sees x.
    No shorter trace fails and [h] is lexicographically least among the
    length-1 failures (h < l).
    """
    s0, s1 = State({"x": 0}), State({"x": 1})
    h, l = ActionId("h"), ActionId("l")
    machine = StateMachine(
        states=(s0, s1),
        actions=(h, l),
        transitions={(s0, h): (s1,), (s1, h): (s1,), (s0, l): (s0,), (s1, l): (s1,)},
        initial=s0,
    )
    cfg = InfoFlowConfig(
        domains=("hi", "lo"),
        policy=frozenset({("hi", "hi"), ("lo", "lo")}),
        dom={h: "hi", l: "lo"},
        observe=lambda d, s: s["x"] if d == "lo" else None,
    )
    return SecureSystem(machine, cfg)


def quiet_system() -> SecureSystem:
    """Same shape but the hi action does nothing anybody can see."""
    s0 = State({"x": 0})
    h, l = ActionId("h"), ActionId("l")
    machine = StateMachine(
        states=(s0,),
        actions=(h, l),
        transitions={(s0, h): (s0,), (s0, l): (s0,)},
        initial=s0,
    )
    cfg = InfoFlowConfig(
        domains=("hi", "lo"),
        policy=frozenset({("hi", "hi"), ("lo", "lo")}),
        dom={h: "hi", l: "lo"},
        observe=lambda d, s: s["x"] if d == "lo" else None,
    )
    return SecureSystem(machine, cfg)


@pytest.mark.parametrize("max_len,actions,fragment", [
    (-1, None, "trace length bound must be >= 0"),
    (2, [ActionId("ghost")], "unknown action 'ghost'"),
])
def test_check_ni_usage_errors(max_len, actions, fragment):
    with pytest.raises(UsageError, match=fragment):
        check_ni(leaky_system(), max_len, actions=actions)


class TestCheckNI:
    def test_length_zero_always_passes(self):
        assert check_ni(leaky_system(), 0).ok

    def test_leak_found_with_canonical_counterexample(self):
        result = check_ni(leaky_system(), 3)
        assert not result.ok
        assert result.counterexample is not None
        assert result.counterexample.trace == (ActionId("h"),)
        assert result.counterexample.domain == "lo"
        assert result.counterexample.purged == ()
        assert result.traces_checked == 2
        # The replay predicate agrees; hi, who may learn of h, has no
        # counterexample in the same trace.
        assert ni_violated(leaky_system(), result.counterexample)
        assert not ni_violated(leaky_system(),
                               replace(result.counterexample, domain="hi"))

    def test_quiet_system_passes(self):
        result = check_ni(quiet_system(), 4)
        assert result.ok
        assert result.traces_checked == 1 + 2 + 4 + 8 + 16

    def test_pass_at_k_implies_pass_below_k(self):
        for k in range(4):
            assert check_ni(quiet_system(), k).ok

    def test_domain_restriction(self):
        result = check_ni(leaky_system(), 2, domains=["hi"])
        assert result.ok
        result = check_ni(leaky_system(), 2, domains=["lo"])
        assert not result.ok

    def test_action_restriction_shrinks_enumeration(self):
        result = check_ni(leaky_system(), 2, actions=[ActionId("l")])
        assert result.ok
        assert result.traces_checked == 1 + 1 + 1

    def test_trace_budget_fails_fast(self):
        with pytest.raises(BudgetError):
            check_ni(leaky_system(), 10, trace_budget=100)

    def test_determinism_of_counterexample(self):
        one = check_ni(leaky_system(), 3).counterexample
        two = check_ni(leaky_system(), 3).counterexample
        assert one == two


class TestTraceBudget:
    """The up-front trace count stops once it passes the budget.

    The oracle is the literal sum over every length. When the count
    passes the budget only at `max_len` itself, the message gives the
    whole count; when it passes earlier, it says "more than" the limit.
    """

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_count_matches_the_literal_sum(self, width):
        actions = [ActionId("h"), ActionId("l")][2 - width:]
        for max_len in range(7):
            counts = [sum(width**k for k in range(n + 1))
                      for n in range(max_len + 1)]
            for limit in range(-1, 2 * counts[-1]):
                if counts[-1] <= limit:
                    assert check_ni(quiet_system(), max_len, actions=actions,
                                    trace_budget=limit).traces_checked \
                        == counts[-1]
                    continue
                at_bound = max_len == 0 or counts[-2] <= limit
                count = counts[-1] if at_bound else f"more than {limit}"
                with pytest.raises(BudgetError, match=re.escape(
                        f"trace budget exceeded: {count} traces of length "
                        f"<= {max_len} over {width} actions (limit {limit});")):
                    check_ni(quiet_system(), max_len, actions=actions,
                             trace_budget=limit)

    @pytest.mark.parametrize("width, max_len, budget", [
        (2, 20000, None), (1, 99999999999999999999999, 5),
        (2, 99999999999999999999999, 5), (1, 10**40, 10**30),
        (2, 10**40, 10**30)])
    def test_huge_length_bound_fails_at_once(self, width, max_len, budget):
        actions = [ActionId("h"), ActionId("l")][2 - width:]
        limit = 500_000 if budget is None else budget
        started = time.perf_counter()
        with pytest.raises(BudgetError, match=re.escape(
                f"more than {limit} traces of length <= {max_len} ")):
            check_ni(leaky_system(), max_len, actions=actions,
                     trace_budget=budget)
        assert time.perf_counter() - started < 0.5


def _without_state_steps(thunk):
    """`thunk()` while `noninterference.run` and `StateMachine.step_total`
    raise: the search must step state ids, never `State` objects."""
    def forbidden(*args, **kwargs):
        raise AssertionError("check_ni stepped State objects")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ifsec.noninterference.run", forbidden)
        patch.setattr(StateMachine, "step_total", forbidden)
        return thunk()


def test_search_steps_no_state_on_builtin_levels():
    # A budget the trace count never reaches, so every level searches.
    for name in model_names():
        bundle = get_model(name)
        for system in (bundle.abstract, bundle.concrete):
            expected = check_ni(system, 4, trace_budget=10**40)
            assert _without_state_steps(
                lambda: check_ni(system, 4, trace_budget=10**40)) == expected


class TestTheoremValidation:
    def test_quiet_system_consistent(self):
        report = validate_unwinding_theorem(quiet_system(), 3)
        assert report.unwinding_ok and report.ni_ok
        assert report.consistent and report.alarm is None

    def test_leaky_system_fails_both_sides_consistently(self):
        report = validate_unwinding_theorem(leaky_system(), 3)
        assert not report.unwinding_ok and not report.ni_ok
        assert report.consistent and report.alarm is None


def two_domain_system(states, transitions, observe) -> SecureSystem:
    """hi -/-> lo over actions h (hi) and l, a (lo); x names the state."""
    acts = {a: ActionId(a) for a in sorted({a for _, a in transitions})}
    machine = StateMachine(
        states=tuple(State({"x": x}) for x in states),
        actions=tuple(acts.values()),
        transitions={(State({"x": x}), acts[a]): tuple(State({"x": y}) for y in ys)
                     for (x, a), ys in transitions.items()},
        initial=State({"x": states[0]}),
    )
    cfg = InfoFlowConfig(
        domains=("hi", "lo"),
        policy=frozenset({("hi", "hi"), ("lo", "lo")}),
        dom={act: "hi" if a == "h" else "lo" for a, act in acts.items()},
        observe=lambda d, s: observe(s["x"]) if d == "lo" else None,
    )
    return SecureSystem(machine, cfg)


class TestProductSearch:
    def test_whole_trace_with_two_observations_is_not_a_leak(self):
        # l reaches x=1 or x=2, which lo tells apart, so the full run is
        # not equidom with itself. The trace [l] purges nothing for lo
        # and passes; [h, l] purges the h, leaves the very same runs,
        # and fails: its purged run is a different trace.
        system = two_domain_system(
            (0, 1, 2), {(0, "h"): (0,), (0, "l"): (1, 2)}, lambda x: x)
        assert check_ni(system, 1).ok
        result = check_ni(system, 2)
        c = result.counterexample
        assert (c.trace, c.domain, c.purged) == (
            (ActionId("h"), ActionId("l")), "lo", (ActionId("l"),))
        assert c.full_view == c.purged_view == (1, 2)
        assert ni_violated(system, c)
        assert result == oracle_check_ni(system, 2)

    def test_traces_checked_counts_up_to_a_later_witness(self):
        # a, h, l over x = 2*armed + flipped: l arms, h flips only once
        # armed, lo sees flipped. Length 1 passes; at length 2 the first
        # failure is [l, h], at rank 2*3 + 1 among the nine traces.
        system = two_domain_system(
            (0, 1, 2, 3),
            {(x, "a"): (x,) for x in range(4)}
            | {(0, "h"): (0,), (1, "h"): (1,), (2, "h"): (3,), (3, "h"): (2,)}
            | {(0, "l"): (2,), (1, "l"): (3,), (2, "l"): (2,), (3, "l"): (3,)},
            lambda x: x % 2)
        result = check_ni(system, 4)
        assert result.counterexample.trace == (ActionId("l"), ActionId("h"))
        assert result.traces_checked == (1 + 3) + (2 * 3 + 1) + 1
        assert result == oracle_check_ni(system, 4)


@st.composite
def small_systems(draw):
    """A random machine: 2..4 domains under a policy that need not be
    reflexive, 1..3 actions, and a chain of 1..5 states x where each
    step moves at most one place and may be disabled or nondeterministic.
    A domain observes how many of up to two cut points x has passed, so
    an observation takes up to three values and a leak may need several
    steps to show."""
    n = draw(st.integers(min_value=2, max_value=4))
    domains = tuple(f"d{i}" for i in range(n))
    policy = frozenset((u, v) for u in domains for v in domains if draw(st.booleans()))
    actions = tuple(ActionId(f"a{i}") for i in range(draw(st.integers(1, 3))))
    states = tuple(State({"x": i}) for i in range(draw(st.integers(1, 5))))
    transitions = {}
    for s in states:
        near = [t for t in states if abs(t["x"] - s["x"]) <= 1]
        for a in actions:
            succ = draw(st.frozensets(st.sampled_from(near), max_size=2))
            if succ:
                transitions[(s, a)] = tuple(sorted(succ))
    cuts = {d: draw(st.lists(st.integers(1, 4), max_size=2)) for d in domains}
    machine = StateMachine(states=states, actions=actions,
                           transitions=transitions, initial=states[0])
    cfg = InfoFlowConfig(domains, policy,
                         {a: draw(st.sampled_from(domains)) for a in actions},
                         observe=lambda d, s: sum(s["x"] >= c for c in cuts[d]))
    chosen_domains = draw(st.lists(st.sampled_from(domains), min_size=1, unique=True))
    chosen_actions = draw(st.lists(st.sampled_from(actions), unique=True))
    return SecureSystem(machine, cfg), chosen_domains, chosen_actions


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_systems())
def test_product_search_matches_trace_enumeration(example):
    """The whole NIResult equals the enumerator's at every bound up to
    5, over all domains and actions and over a chosen subset of each."""
    system, doms, acts = example
    for max_len in range(6):
        for kwargs in ({}, {"domains": doms}, {"actions": acts},
                       {"domains": doms, "actions": acts}):
            assert check_ni(system, max_len, **kwargs) == oracle_check_ni(
                system, max_len, **kwargs)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_systems())
def test_product_search_steps_no_state(example):
    system, doms, acts = example
    cases = [(max_len, kwargs) for max_len in range(6)
             for kwargs in ({}, {"domains": doms, "actions": acts})]
    expected = [oracle_check_ni(system, n, **kwargs) for n, kwargs in cases]
    assert _without_state_steps(lambda: [
        check_ni(system, n, **kwargs) for n, kwargs in cases]) == expected


class TestUnwindingDisagreement:
    """The open disagreement between unwinding and bounded NI.

    Unwinding passes on these shipped levels, yet bounded NI fails at a
    longer length: in each witness the full run stutters on a disabled
    action and the purged run does not, which the unwinding conditions
    over raw steps do not see. Until that is settled these tests record
    the witnesses as they stand; each level's unwinding pass is asserted
    beside its NI failure. The last test is the smallest machine known
    to disagree.
    """

    @staticmethod
    def failing(model, level, domain, max_len):
        system = getattr(get_model(model), level)
        assert check_unwinding(system).ok
        result = check_ni(system, max_len, domains=[domain], trace_budget=10**40)
        assert not result.ok and ni_violated(system, result.counterexample)
        assert check_ni(system, max_len - 1, domains=[domain], trace_budget=10**40).ok
        return result.counterexample

    def test_arinc_abstract_p12_at_length_7(self):
        c = self.failing("arinc", "abstract", "p12", 7)
        assert list(c.trace) == [
            "cpu1/Core_Init/invoke", "cpu1/Core_Init/init",
            "cpu1/Schedule(p11)/invoke", "cpu1/Schedule(p11)/dispatch",
            "cpu1/Send_QMsg(ps,m1)/invoke",
            "cpu1/Schedule(p12)/invoke", "cpu1/Schedule(p12)/dispatch"]

    def test_arinc_concrete_p11_at_length_16(self):
        assert len(self.failing("arinc", "concrete", "p11", 16).trace) == 16

    def test_demo_concrete_t1_at_length_14(self):
        assert len(self.failing("demo", "concrete", "t1", 14).trace) == 14

    def test_three_state_minimal_case(self):
        # `lo` learns that `h` happened because its own `a` is enabled
        # only after it: a disabled action adds no unwinding instance,
        # while the purged run stutters on `a` and still sees x < 2.
        x = [State({"x": v}) for v in range(3)]
        h, a = ActionId("h"), ActionId("a")
        machine = StateMachine(x, [a, h], {(x[0], h): (x[1],),
                                           (x[1], a): (x[2],)}, x[0])
        system = SecureSystem(machine, InfoFlowConfig(
            domains=("hi", "lo"),
            policy=frozenset({("hi", "hi"), ("lo", "lo"), ("lo", "hi")}),
            dom={h: "hi", a: "lo"},
            observe=lambda d, s: s["x"] >= 2 if d == "lo" else s["x"]))
        assert check_unwinding(system).ok
        assert check_ni(system, 1).ok
        result = check_ni(system, 2)
        c = result.counterexample
        assert not result.ok and (c.domain, c.trace) == ("lo", (h, a))
        assert c.purged == (a,)
        assert ni_violated(system, c)
