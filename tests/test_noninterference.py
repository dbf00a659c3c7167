"""Purge algebra and bounded noninterference checking.

The oracle for sources/ipurge is the literal recursion, transcribed here
independently of the module under test and evaluated by hand on the frozen
examples below before the implementation existed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from ifsec.core import ActionId, BudgetError, InfoFlowConfig, SecureSystem, State, StateMachine
from ifsec.noninterference import (
    NIResult,
    check_ni,
    ipurge,
    ni_violated,
    sources,
    validate_unwinding_theorem,
)


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


class TestTheoremValidation:
    def test_quiet_system_consistent(self):
        report = validate_unwinding_theorem(quiet_system(), 3)
        assert report.unwinding_ok and report.ni_ok
        assert report.consistent and report.alarm is None

    def test_leaky_system_fails_both_sides_consistently(self):
        report = validate_unwinding_theorem(leaky_system(), 3)
        assert not report.unwinding_ok and not report.ni_ok
        assert report.consistent and report.alarm is None
