"""Core semantics: states, machines, runs, indistinguishability."""

from __future__ import annotations

import pytest

from ifsec.core import (
    ActionId,
    BudgetError,
    InfoFlowConfig,
    ModelError,
    SecureSystem,
    State,
    StateMachine,
    UsageError,
    build_machine,
    equidom,
    explore,
    indist,
    reachable,
    run,
    render_value,
    sort_actions,
)
from ifsec.programs import Basic, ConcurrentSystem, Event, compile_system
from ifsec.refinement import Alpha, RefinementPair, Zeta, joint_explore


def tiny_machine() -> StateMachine:
    """Two counters mod 2; `tick` bumps x, `tock` bumps y, `halt` never fires.

    Hand-enumerated oracle: 4 states, all reachable.
    """
    states = [State({"x": x, "y": y}) for x in (0, 1) for y in (0, 1)]
    tick, tock, halt = ActionId("tick"), ActionId("tock"), ActionId("halt")
    transitions = {}
    for s in states:
        transitions[(s, tick)] = (s.assign({"x": 1 - s["x"]}),)
        transitions[(s, tock)] = (s.assign({"y": 1 - s["y"]}),)
    return StateMachine(
        states=tuple(sorted(states)),
        actions=(halt, tick, tock),
        transitions=transitions,
        initial=State({"x": 0, "y": 0}),
    )


def tiny_config() -> InfoFlowConfig:
    def observe(d: str, s: State):
        return s["x"] if d == "dx" else s["y"]

    return InfoFlowConfig(
        domains=("dx", "dy"),
        policy=frozenset({("dx", "dx"), ("dy", "dy"), ("dx", "dy")}),
        dom={ActionId("tick"): "dx", ActionId("tock"): "dy", ActionId("halt"): "dx"},
        observe=observe,
    )


class TestState:
    def test_serialization_is_sorted_by_name(self):
        s = State({"b": 1, "a": None, "c": (True, "z")})
        assert s.serialize() == "a=-;b=1;c=[T,z]"

    def test_render_value_covers_every_value_kind(self):
        assert render_value(None) == "-"
        assert render_value(True) == "T"
        assert render_value(False) == "F"
        assert render_value(7) == "7"
        assert render_value("msg") == "msg"
        assert render_value(()) == "[]"

    def test_assign_replaces_without_mutating(self):
        s = State({"x": 0, "y": 1})
        t = s.assign({"x": 5})
        assert t["x"] == 5 and s["x"] == 0 and t["y"] == 1

    def test_assign_unknown_variable_rejected(self):
        with pytest.raises(UsageError):
            State({"x": 0}).assign({"z": 1})

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ModelError):
            State([("x", 0), ("x", 1)])

    def test_states_order_by_serialization(self):
        a, b = State({"x": 0}), State({"x": 1})
        assert a < b and sorted([b, a]) == [a, b]

    def test_unsupported_value_rejected(self):
        with pytest.raises(ModelError):
            State({"x": 1.5}).serialize()


class TestActionId:
    def test_sort_order_is_label_then_payload(self):
        acts = [ActionId("b"), ActionId("a", 2), ActionId("a", 1), ActionId("a")]
        assert sort_actions(acts) == (
            ActionId("a"), ActionId("a", 1), ActionId("a", 2), ActionId("b"))

    def test_display_includes_payload(self):
        assert ActionId("send", ("t2", "m1")).display() == "send:[t2,m1]"
        assert ActionId("send").display() == "send"


class TestStepAndRun:
    def test_step_total_stutters_on_disabled_action(self):
        m = tiny_machine()
        s = m.initial
        assert m.step(s, ActionId("halt")) == ()
        assert m.step_total(s, ActionId("halt")) == (s,)

    def test_step_total_never_empty_across_all_states(self):
        m = tiny_machine()
        for s in m.states:
            for a in m.actions:
                assert m.step_total(s, a)

    def test_step_unknown_action_rejected(self):
        with pytest.raises(UsageError):
            tiny_machine().step(tiny_machine().initial, ActionId("nope"))

    def test_run_empty_trace_is_identity(self):
        m = tiny_machine()
        assert run(m, {m.initial}, []) == frozenset({m.initial})

    def test_run_empty_start_set_stays_empty(self):
        m = tiny_machine()
        assert run(m, frozenset(), [ActionId("tick")]) == frozenset()

    def test_run_frozen_example(self):
        # tick;tock;tick from (0,0) lands on (0,1); halt stutters throughout.
        m = tiny_machine()
        trace = [ActionId("tick"), ActionId("halt"), ActionId("tock"), ActionId("tick")]
        assert run(m, {m.initial}, trace) == frozenset({State({"x": 0, "y": 1})})

    def test_run_concatenation_law(self):
        m = tiny_machine()
        tick, tock = ActionId("tick"), ActionId("tock")
        for prefix in ([], [tick], [tick, tock]):
            for suffix in ([], [tock], [tock, tock, tick]):
                whole = run(m, {m.initial}, prefix + suffix)
                staged = run(m, run(m, {m.initial}, prefix), suffix)
                assert whole == staged


class TestIndist:
    def test_indist_ignores_other_domains_variable(self):
        cfg = tiny_config()
        s1 = State({"x": 0, "y": 0})
        s2 = State({"x": 0, "y": 1})
        assert indist(cfg, "dx", s1, s2)
        assert not indist(cfg, "dy", s1, s2)

    def test_indist_is_an_equivalence_on_sampled_triples(self):
        cfg = tiny_config()
        states = tiny_machine().states
        for d in cfg.domains:
            for a in states:
                assert indist(cfg, d, a, a)
                for b in states:
                    assert indist(cfg, d, a, b) == indist(cfg, d, b, a)
                    for c in states:
                        if indist(cfg, d, a, b) and indist(cfg, d, b, c):
                            assert indist(cfg, d, a, c)

    def test_equidom_vacuous_on_empty_side(self):
        cfg = tiny_config()
        assert equidom(cfg, "dx", [], tiny_machine().states)

    def test_equidom_reflexive_singleton(self):
        cfg = tiny_config()
        s = State({"x": 1, "y": 0})
        assert equidom(cfg, "dx", {s}, {s})

    def test_equidom_detects_pairwise_difference(self):
        cfg = tiny_config()
        s1, s2 = State({"x": 0, "y": 0}), State({"x": 1, "y": 0})
        assert not equidom(cfg, "dx", {s1}, {s2})
        assert equidom(cfg, "dy", {s1}, {s2})

    def test_equidom_catches_difference_within_one_side(self):
        # Two distinct observations on the left always break some pair.
        cfg = tiny_config()
        s1, s2 = State({"x": 0, "y": 0}), State({"x": 1, "y": 0})
        assert not equidom(cfg, "dx", {s1, s2}, {s1})


class TestReachability:
    def test_reachable_full_closure_matches_hand_enumeration(self):
        m = tiny_machine()
        assert frozenset(reachable(m)) == frozenset(m.states)

    def test_reachable_depth_zero_is_initial_only(self):
        m = tiny_machine()
        assert reachable(m, depth=0) == (m.initial,)

    def test_reachable_monotone_in_depth_and_fixpoint(self):
        m = tiny_machine()
        sets = [frozenset(reachable(m, depth=k)) for k in range(5)]
        for lo, hi in zip(sets, sets[1:]):
            assert lo <= hi
        assert sets[2] == sets[3] == sets[4]

    def test_identity_machine_reaches_only_initial(self):
        s0 = State({"v": 0})
        ident = ActionId("id")
        m = StateMachine((s0,), (ident,), {(s0, ident): (s0,)}, s0)
        assert reachable(m) == (s0,)

    def test_budget_error_when_state_count_exceeds_limit(self):
        with pytest.raises(BudgetError):
            explore(tiny_machine(), budget=2)

    def test_trace_reconstruction_reaches_named_state(self):
        m = tiny_machine()
        ex = explore(m)
        target = State({"x": 1, "y": 1})
        trace = ex.trace_to(target)
        assert len(trace) == 2
        assert run(m, {m.initial}, trace) == frozenset({target})


TICK = ActionId("tick")


def _counter(modulus: int, budget=None) -> StateMachine:
    return build_machine(State({"n": 0}), lambda s: [
        (TICK, s.assign({"n": (s["n"] + 1) % modulus}))], budget=budget)


class TestBuildMachine:
    def test_build_from_successor_function_matches_explicit(self):
        tick = ActionId("tick")
        s0, s1 = State({"x": 0}), State({"x": 1})
        m = build_machine(s0, lambda s: [(tick, s.assign({"x": 1 - s["x"]}))])
        assert m.states == (s0, s1)
        assert m.transitions == {(s0, tick): (s1,), (s1, tick): (s0,)}

    def test_alphabet_is_the_enabled_actions(self):
        tick, halt = ActionId("tick"), ActionId("halt")
        m = build_machine(State({"x": 0}),
                          lambda s: [(tick, s.assign({"x": 1}))] if s["x"] == 0 else [])
        assert m.actions == (tick,)
        assert not m.has_action(halt)

    def test_discovery_follows_sorted_groups_not_yield_order(self):
        # Successors of one action are sorted before they are explored,
        # so the yield order within a group cannot change the search.
        go, stop = ActionId("go"), ActionId("stop")
        s0 = State({"x": 0})

        def successors(s, reverse):
            if s["x"] != 0:
                return []
            outs = [(go, s.assign({"x": v})) for v in (1, 2, 3)]
            return [(stop, s.assign({"x": 9}))] + (outs[::-1] if reverse else outs)

        for reverse in (False, True):
            m = build_machine(s0, lambda s: successors(s, reverse))
            assert m.transitions[(s0, go)] == tuple(
                State({"x": v}) for v in (1, 2, 3))
            ex = explore(m)
            # explore walks actions in sorted order: go before stop.
            assert [s["x"] for s in ex.order] == [0, 1, 2, 3, 9]

    def test_build_budget_error_names_limit_and_depth(self):
        with pytest.raises(BudgetError, match=r"budget of 3 states exceeded "
                                              r"at BFS depth 3.*--budget"):
            _counter(100, budget=3)


def _explored(budget):
    return len(explore(tiny_machine(), budget=budget).order)


def _built(budget):
    return len(_counter(5, budget).states)


def _compiled(budget):
    bump = Basic(lambda s: {"n": (s["n"] + 1) % 3}, "bump")
    system = ConcurrentSystem(("k",), {"k": (Event("e", lambda s: True, bump,
                                                  "d"),)}, {"n": 0})
    return len(compile_system(system, ["d"], [("d", "d")], lambda d, s: None,
                              budget=budget).machine.states)


def _joint(budget):
    machine = _counter(4)
    system = SecureSystem(machine, InfoFlowConfig(
        ("d",), frozenset({("d", "d")}), {TICK: "d"}, lambda d, s: s["n"]))
    pair = RefinementPair(system, system,
                          Alpha.from_predicate(lambda c, a: c == a, "equality"),
                          Zeta.identity(machine.actions))
    return len(joint_explore(pair, budget=budget).pairs)


class TestBudgetBoundary:
    """Every search admits exactly `budget` nodes: N passes, N-1 raises."""

    @pytest.mark.parametrize("search", [_explored, _built, _compiled, _joint],
                             ids=["explore", "build_machine", "compile_system",
                                  "joint_explore"])
    def test_exact_budget_passes_one_less_raises(self, search):
        size = search(None)
        assert size > 1
        assert search(size) == size
        with pytest.raises(BudgetError, match=f"budget of {size - 1} "):
            search(size - 1)


class TestConfigValidation:
    def test_missing_reflexive_reported(self):
        cfg = InfoFlowConfig(
            domains=("a", "b"),
            policy=frozenset({("a", "a"), ("a", "b")}),
            dom={},
            observe=lambda d, s: None,
        )
        assert cfg.missing_reflexive() == ("b",)

    def test_dom_must_cover_actions(self):
        m = tiny_machine()
        cfg = InfoFlowConfig(
            domains=("dx", "dy"),
            policy=frozenset({("dx", "dx"), ("dy", "dy")}),
            dom={ActionId("tick"): "dx"},
            observe=lambda d, s: None,
        )
        with pytest.raises(UsageError):
            SecureSystem(m, cfg)

    def test_policy_edges_must_use_known_domains(self):
        m = tiny_machine()
        cfg = InfoFlowConfig(
            domains=("dx", "dy"),
            policy=frozenset({("dx", "dz")}),
            dom={a: "dx" for a in m.actions},
            observe=lambda d, s: None,
        )
        with pytest.raises(ModelError):
            SecureSystem(m, cfg)
