"""Core semantics: states, machines, runs, indistinguishability."""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings

import ifsec
from ifsec.core import (
    ActionId,
    BudgetError,
    Exploration,
    InfoFlowConfig,
    ModelError,
    SecureSystem,
    State,
    StateMachine,
    UsageError,
    equidom,
    explore,
    fields,
    indist,
    reachable,
    record,
    render_value,
    replace,
    run,
    sort_actions,
    tabulate,
)
from ifsec.models import get_model
from ifsec.programs import Basic, ConcurrentSystem, Event, compile_system
from ifsec.refinement import (
    Alpha,
    C5Witness,
    RefinementPair,
    Verdict,
    Zeta,
    joint_explore,
    total_relation,
)
from ifsec.specfile import elaborate_model, parse_model
from ifsec.unwinding import Scope, check_unwinding
from oracles import build_machine, probed_rows
from test_programs import BUILTIN_SIZES
from test_specfile import model_documents
from test_unwinding import universe_systems


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

    @pytest.mark.parametrize("values", [
        (1, True), (True, 1), (0, False), (False, 0), ((1,), (True,)),
        ((True,), (1,)), (("a", (0,)), ("a", (False,)))])
    def test_serialization_cache_tells_equal_values_of_two_types_apart(
            self, values):
        # One schema, so one fragment cache, sees both values of x.
        first = State({"x": values[0], "y": "a"})
        states = [first, first.assign({"x": values[1]})]

        def uncached(state):
            return ";".join(f"{name}={render_value(value)}"
                            for name, value in state.items)

        assert [s.serialize() for s in states] == [uncached(s) for s in states]
        assert [s.serialize() for s in sorted(states)] == \
            sorted(uncached(s) for s in states)
        # Fresh copies, each dropped with its state before the next is
        # made, so that a copy may take the address of the one before.
        for value in values * 3:
            state = first.assign({"x": pickle.loads(pickle.dumps(value))})
            assert state.serialize() == uncached(state)
            del state

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

    def test_equality_and_hash_do_not_depend_on_construction(self):
        # Three schemas: a mapping, pairs in another order, and a state
        # derived by assign from a third.
        s = State({"x": 0, "y": "a"})
        t = State([("y", "a"), ("x", 0)])
        u = State({"y": "a", "x": 5}).assign({"x": 0})
        assert s == t == u and hash(s) == hash(t) == hash(u)
        assert len({s, t, u}) == 1
        assert s.items == (("x", 0), ("y", "a")) and s.names == ("x", "y")
        assert s.serialize() == t.serialize() == u.serialize() == "x=0;y=a"
        assert s != State({"x": 0, "z": "a"}) and s != State({"x": 0})
        assert s != ("x", 0)

    def test_lookup_and_errors(self):
        s = State({"x": 0, "y": "a"})
        assert s["y"] == "a" and s.get("x") == 0 and s.get("q", 7) == 7
        assert "x" in s and "q" not in s
        with pytest.raises(UsageError, match="state has no variable 'q'"):
            s["q"]
        with pytest.raises(UsageError, match="state has no variable 'q'"):
            s.assign({"q": 1})
        with pytest.raises(ModelError, match="duplicate variable name in state"):
            State([("x", 0), ("x", "a")])


class TestActionId:
    def test_sort_order_is_label_then_payload(self):
        acts = [ActionId("b"), ActionId("a", 2), ActionId("a", 1), ActionId("a")]
        assert sort_actions(acts) == (
            ActionId("a"), ActionId("a", 1), ActionId("a", 2), ActionId("b"))

    def test_hash_follows_equality(self):
        a = ActionId("send", ("t2", "m1"))
        b = replace(ActionId("send"), payload=("t2", "m1"))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != ActionId("send") and a != ActionId("recv", ("t2", "m1"))

    def test_display_includes_payload(self):
        assert ActionId("send", ("t2", "m1")).display() == "send:[t2,m1]"
        assert ActionId("send").display() == "send"


@record
class Twin:
    """A record with C5Witness's fields: equal values, another class."""

    source: str
    target: str


@record
class Grown(Twin):
    note: str = "n"


class TestRecords:
    """`core.record` keeps the semantics of a frozen dataclass."""

    def test_construction_by_position_keyword_and_default(self):
        witness = C5Witness("a", "b")
        assert (witness.source, witness.target) == ("a", "b")
        assert C5Witness(target="b", source="a") == witness
        assert C5Witness("a", target="b") == witness
        assert Verdict("pass") == Verdict(status="pass", witness=None,
                                          note=None)
        assert ActionId("tick").payload is None
        alpha = Alpha(total_relation)
        assert (alpha.description, alpha.concrete_key,
                alpha.abstract_key) == ("predicate", None, None)
        assert Scope(tiny_machine(), (0,), "reachable").search is None

    @pytest.mark.parametrize("make", [
        lambda: C5Witness("a"),
        lambda: C5Witness(target="b"),
        lambda: Verdict(),
        lambda: C5Witness("a", "b", "c"),
        lambda: C5Witness("a", "b", colour="c"),
        lambda: C5Witness("a", source="b"),
        lambda: ActionId(payload=1),
    ], ids=["missing", "missing-keyword", "missing-all", "too-many",
            "unknown", "twice", "missing-before-default"])
    def test_bad_arguments_are_a_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_equality_only_within_one_class(self):
        witness = C5Witness("a", "b")
        assert witness == C5Witness("a", "b") and witness != C5Witness("a", "c")
        assert witness != Twin("a", "b") and Twin("a", "b") != witness
        assert witness != ("a", "b") and witness != Grown("a", "b")
        assert Verdict("skipped", None, "x") != Verdict("skipped", None, "y")

    def test_hash_is_the_hash_of_the_compared_fields(self):
        witness = C5Witness("a", "b")
        assert hash(witness) == hash(("a", "b"))
        verdict = Verdict("fail", witness, "n")
        assert hash(verdict) == hash(("fail", witness, "n"))
        assert hash(ActionId("send", 1)) == hash(("send", 1))
        # `machine` and `search` are not compared
        ids = (0, 2)
        one = Scope(tiny_machine(), ids, "reachable")
        other = Scope(tiny_machine(), ids, "reachable", lambda: None)
        assert one == other and hash(one) == hash((ids, "reachable"))
        assert one != Scope(one.machine, ids, "universe")
        alpha = Alpha(total_relation, "d")
        assert alpha != Alpha(total_relation, "d", len, len)
        assert hash(alpha) == hash((total_relation, "d", None, None))

    def test_repr(self):
        assert repr(C5Witness("a", "b")) == "C5Witness(source='a', target='b')"
        assert repr(Verdict("pass", None, "n")) == \
            "Verdict(status='pass', witness=None, note='n')"
        assert repr(Grown("a", "b")) == \
            "Grown(source='a', target='b', note='n')"
        # `repr=False` fields are left out
        assert repr(Scope(tiny_machine(), (0, 2), "reachable")) == \
            "Scope(ids=(0, 2), tag='reachable')"
        assert repr(Alpha(total_relation, "d", len, len)) == \
            f"Alpha(predicate={total_relation!r}, description='d')"
        # a `__repr__` written in the class body wins
        assert repr(ActionId("send", ("t2", "m1"))) == "ActionId(send:[t2,m1])"

    @pytest.mark.parametrize("change", [
        lambda v: setattr(v, "status", "fail"),
        lambda v: setattr(v, "colour", "red"),
        lambda v: delattr(v, "note"),
    ], ids=["assign", "add", "delete"])
    def test_fields_are_frozen(self, change):
        verdict = Verdict("pass", None, "n")
        with pytest.raises(AttributeError):
            change(verdict)
        assert verdict == Verdict("pass", None, "n")

    def test_post_init_and_cached_property_may_set_attributes(self):
        assert hash(ActionId("tick")) == ActionId("tick")._hash
        scope = Scope(tiny_machine(), (0, 2), "reachable")
        assert scope.member is scope.member
        assert list(scope.member) == [1, 0, 1, 0]

    def test_fields_in_order_inherited_first(self):
        assert [f.name for f in fields(Verdict)] == ["status", "witness",
                                                     "note"]
        assert fields(Verdict("pass")) == fields(Verdict)
        assert [f.name for f in fields(Grown)] == ["source", "target", "note"]
        assert Grown("a", "b").note == "n" and Grown("a", "b", "m").note == "m"
        assert [(f.name, f.repr, f.compare) for f in fields(Scope)] == [
            ("machine", False, False), ("ids", True, True),
            ("tag", True, True), ("search", False, False)]
        with pytest.raises(TypeError):
            fields(("a", "b"))

    def test_replace(self):
        verdict = Verdict("fail", C5Witness("a", "b"), "n")
        copy = replace(verdict, note="m")
        assert copy == Verdict("fail", C5Witness("a", "b"), "m")
        assert verdict.note == "n" and type(copy) is Verdict
        assert replace(verdict) == verdict
        with pytest.raises(TypeError):
            replace(verdict, colour="red")


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
        trace = ex.trace_to(m.id_of(target))
        assert len(trace) == 2
        assert run(m, {m.initial}, trace) == frozenset({target})


TICK = ActionId("tick")


def _counter(modulus: int, budget=None) -> StateMachine:
    """The counter mod `modulus`, built by the `State`-keyed oracle."""
    return build_machine(State({"n": 0}), lambda s: [
        (TICK, s.assign({"n": (s["n"] + 1) % modulus}))], budget=budget)


def _tabulated(modulus: int, budget=None) -> StateMachine:
    return tabulate(State({"n": 0}), lambda s: [
        (TICK, ((s["n"] + 1) % modulus,))], budget=budget)


class TestTabulate:
    def test_tabulate_from_successor_function_matches_explicit(self):
        tick = ActionId("tick")
        s0, s1 = State({"x": 0}), State({"x": 1})
        m = tabulate(s0, lambda s: [(tick, (1 - s["x"],))])
        assert m.states == (s0, s1)
        assert m.transitions == {(s0, tick): (s1,), (s1, tick): (s0,)}
        assert m.universe is None

    def test_alphabet_is_the_enabled_actions(self):
        tick, halt = ActionId("tick"), ActionId("halt")
        m = tabulate(State({"x": 0}),
                     lambda s: [(tick, (1,))] if s.values == (0,) else [])
        assert m.actions == (tick,)
        assert not m.has_action(halt)

    def test_declared_actions_are_the_alphabet(self):
        tick, halt = ActionId("tick"), ActionId("halt")
        m = tabulate(State({"x": 0}),
                     lambda s: [(tick, (1,))] if s.values == (0,) else [],
                     actions=(halt, tick))
        assert m.actions == (halt, tick)
        assert m.successor_ids == ({}, {0: (1,)})

    def test_universe_roots_are_kept_and_states_are_reachable(self):
        # x counts up to 2 from 0, and from 3 to 4; the universe repeats
        # the initial tuple and leaves out 1, 2 and 4. The roots take
        # the first ids, and the rest are numbered as the search finds
        # them: 1 from 0, 4 from 3, then 2 from 1.
        tick = ActionId("tick")
        m = tabulate(State({"x": 0}),
                     lambda s: [(tick, (s["x"] + 1,))] if s["x"] in (0, 1, 3)
                     else [], universe=[(3,), (0,)])
        assert [s["x"] for s in m.by_id] == [0, 3, 1, 4, 2]
        assert m.universe_ids == (0, 1)
        assert m.state_ids == (0, 2, 4)
        assert m.step(State({"x": 3}), tick) == (State({"x": 4}),)

    def test_discovery_follows_sorted_groups_not_yield_order(self):
        # Successors of one action are sorted before they are explored,
        # so the yield order within a group cannot change the search.
        go, stop = ActionId("go"), ActionId("stop")
        s0 = State({"x": 0})
        seen = []

        def successors(s, reverse):
            seen.append(s["x"])
            if s["x"] != 0:
                return []
            outs = [(go, (w,)) for w in (1, 2, 3)]
            return [(stop, (9,))] + (outs[::-1] if reverse else outs)

        for reverse in (False, True):
            seen.clear()
            m = tabulate(s0, lambda s: successors(s, reverse))
            assert seen == [0, 9, 1, 2, 3]
            assert m.transitions[(s0, go)] == tuple(
                State({"x": v}) for v in (1, 2, 3))
            ex = explore(m)
            # explore walks actions in sorted order: go before stop.
            assert [m.by_id[i]["x"] for i in ex.order] == [0, 1, 2, 3, 9]

    def test_build_budget_error_names_limit_and_depth(self):
        with pytest.raises(BudgetError, match=r"budget of 3 states exceeded "
                                              r"at BFS depth 3.*--budget"):
            _tabulated(100, budget=3)
        with pytest.raises(BudgetError, match=r"budget of 3 states exceeded "
                                              r"at BFS depth 3.*--budget"):
            _counter(100, budget=3)


def _explored(budget):
    return len(explore(tiny_machine(), budget=budget).order)


def _built(budget):
    return len(_tabulated(5, budget).states)


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
                          Alpha(lambda c, a: c == a, "equality"),
                          Zeta.identity(machine.actions))
    return len(joint_explore(pair, budget=budget).pairs)


class TestMultiRootExploration:
    """An exploration may start from several roots, as bounded NI does
    from one guess per family member."""

    def test_roots_are_depth_zero_with_empty_traces(self):
        search = Exploration("a", more_roots=("b", "c"))
        depths = {}
        for node in search:
            depths[node] = search.depth
            if len(node) == 1:
                search.add("b", node, "again")  # a root is already seen
                search.add(node * 2, node, node.upper())
        assert search.order == ["a", "b", "c", "aa", "bb", "cc"]
        assert depths == {"a": 0, "b": 0, "c": 0, "aa": 1, "bb": 1, "cc": 1}
        assert search.edges[:3] == [None, None, None]
        assert [search.trace_to(n) for n in "abc"] == [(), (), ()]
        assert search.trace_to("cc") == ("C",)

    def test_roots_count_against_the_budget(self):
        search = Exploration("a", 4, more_roots=("b", "c"))
        search.add("d", "a", "x")
        with pytest.raises(BudgetError, match="budget of 4 states exceeded "
                                              "at BFS depth 1"):
            search.add("e", "a", "x")
        with pytest.raises(BudgetError, match="budget of 3 states"):
            Exploration("a", 3, more_roots=("b", "c")).add("d", "a", "x")

    def test_repeated_roots_are_kept_once(self):
        search = Exploration("a", 3, more_roots=("b", "a", "b"))
        assert search.order == ["a", "b"]
        assert search.index == {"a": 0, "b": 1}
        assert search.edges == [None, None]
        depths = [search.depth for _ in search]
        assert depths == [0, 0]
        # two distinct roots leave room for one more node under budget 3
        assert search.add("c", "b", "x") == 2
        with pytest.raises(BudgetError, match="budget of 3 states"):
            search.add("d", "a", "x")


class TestBudgetBoundary:
    """Every search admits exactly `budget` nodes: N passes, N-1 raises."""

    @pytest.mark.parametrize("search", [_explored, _built, _compiled, _joint],
                             ids=["explore", "tabulate", "compile_system",
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


def _config(domains, dom):
    return InfoFlowConfig(domains, frozenset(), dom, lambda d, s: None)


@pytest.mark.parametrize("build,fragment", [
    (lambda: StateMachine((State({"x": 0}),), (),
                          {(State({"x": 0}), TICK): (State({"x": 0}),)},
                          State({"x": 0})),
     "transition on undeclared action 'tick'"),
    (lambda: SecureSystem(tiny_machine(), _config(
        ("dx", ""), {a: "dx" for a in tiny_machine().actions})),
     "domain names must be non-empty strings"),
    (lambda: SecureSystem(tiny_machine(), _config(
        ("dx",), {a: "dz" for a in tiny_machine().actions})),
     "action 'halt' maps to unknown domain 'dz'"),
], ids=["undeclared-action", "empty-domain-name", "unknown-action-domain"])
def test_model_errors(build, fragment):
    with pytest.raises(ModelError, match=fragment):
        build()


#: A declared universe of 12 assignments, 6 of them reachable, with a
#: nondeterministic action and one that is enabled only off the
#: reachable set.
SPARSE = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1, 2} = 0
y in {a, b} = a
z in {0, 1} = 0

[actions]
act step lo
  x=0 -> x:=1
  x=0 -> x:=2
  x=1 -> x:=0
act flip hi
  y=a -> y:=b
  y=b, z=1 -> y:=a
act set hi
  z=1 -> z:=0

[observe]
hi: x y z
lo: x
"""


@pytest.fixture(scope="module")
def machines():
    demo = get_model("demo", capacity=2)
    return {"demo concrete": demo.concrete.machine,
            "demo abstract": demo.abstract.machine,
            "sparse.ifs": elaborate_model(parse_model(SPARSE),
                                          universe=True).machine,
            "sparse.ifs reachable":
                elaborate_model(parse_model(SPARSE)).machine,
            "mapping": tiny_machine()}


def transition_digest(machine: StateMachine) -> tuple[int, str]:
    """Entry count and SHA-256 prefix of the sorted listing of the
    transitions view, one `state action -> successors` line per entry,
    successors in their stored order."""
    lines = sorted(
        f"{s.serialize()} {a.display()} -> "
        + " ".join(t.serialize() for t in successors)
        for (s, a), successors in machine.transitions.items())
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestIndexedMachine:
    def test_every_state_is_one_object(self, machines):
        for name, m in machines.items():
            canonical = {id(s) for s in m.by_id}
            assert len(canonical) == len(m.by_id), name
            assert all(id(s) in canonical for s in m.states), name
            assert all(id(s) in canonical for s in m.universe or ()), name
            assert id(m.initial) in canonical, name
            for (state, action), successors in m.transitions.items():
                assert id(state) in canonical, name
                for succ in successors:
                    assert succ is m.by_id[m.id_of(succ)], name
                assert m.step(state, action) == successors

    def test_ids_follow_discovery_order(self, machines):
        for name, m in machines.items():
            assert all(m.id_of(s) == i for i, s in enumerate(m.by_id))
            assert list(m.state_ids) == sorted(set(m.state_ids)), name
            assert m.states == tuple(m.by_id[i] for i in m.state_ids)
            assert m.initial is m.by_id[m.initial_id]
            assert len(m.successor_ids) == len(m.actions)
            for table in m.successor_ids:
                assert list(table) == sorted(table), name
                assert all(table.values()), name
            if not m.tabulated:
                # the constructor numbers its states in serialization order
                serials = [s.serialize() for s in m.by_id]
                assert serials == sorted(serials), name
                continue
            # The roots come first: the initial state, then the universe.
            assert m.initial_id == 0, name
            roots = 1 if m.universe_ids is None else len(m.universe_ids)
            assert m.universe_ids in (None, tuple(range(roots))), name
            # The build expands states in id order, so a state's BFS
            # parent, the first to reach it, is its least predecessor.
            parent: dict[int, int] = {}
            for table in m.successor_ids:
                for i, successors in table.items():
                    for j in successors:
                        parent[j] = min(parent.get(j, i), i)
            assert all(parent[j] < j for j in range(roots, len(m.by_id))), \
                name
            if m.universe_ids is None:
                # The ids within depth d of the initial state are a prefix
                # range(n_d): depth never falls as the id grows.
                depth = {0: 0}
                for i in explore(m).order:
                    for table in m.successor_ids:
                        for j in table.get(i, ()):
                            depth.setdefault(j, depth[i] + 1)
                depths = [depth[i] for i in range(len(m.by_id))]
                assert depths == sorted(depths), name

    def test_transitions_view_matches_the_dict_builder(self, machines):
        # Recorded from the (state, action)-keyed dictionaries that
        # the builds of models and model files filled before the tables.
        assert transition_digest(machines["demo concrete"]) == (
            22356, "1c499a5b868e596b")
        assert transition_digest(machines["demo abstract"]) == (
            2916, "773da30e2a8edd5d")
        assert transition_digest(machines["sparse.ifs"]) == (
            23, "339132fbd5db9340")
        sparse = machines["sparse.ifs"]
        assert (len(sparse.states), len(sparse.universe)) == (6, 12)

    def test_view_is_a_read_only_mapping(self):
        m = tiny_machine()
        s, tick, halt = m.initial, ActionId("tick"), ActionId("halt")
        assert (s, tick) in m.transitions and (s, halt) not in m.transitions
        assert (s, ActionId("nope")) not in m.transitions
        assert len(m.transitions) == 8 == len(list(m.transitions))
        assert m.transitions == {k: m.transitions[k] for k in m.transitions}
        with pytest.raises(TypeError):
            m.transitions[(s, tick)] = ()

    def test_ids_do_not_depend_on_the_hash_seed(self):
        code = (
            "import hashlib\n"
            "from ifsec.models import get_model\n"
            "from ifsec.specfile import elaborate_model, parse_model\n"
            "import sys\n"
            "bundle = get_model('demo')\n"
            "doc = parse_model(sys.stdin.read())\n"
            "machines = [bundle.concrete.machine, bundle.abstract.machine,\n"
            "            elaborate_model(doc, universe=True).machine,\n"
            "            elaborate_model(doc).machine]\n"
            "text = repr([([s.serialize() for s in m.by_id], m.state_ids,\n"
            "              m.universe_ids, m.initial_id,\n"
            "              [sorted(t.items()) for t in m.successor_ids])\n"
            "             for m in machines])\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(ifsec.__file__))
        digests = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], input=SPARSE,
                                  env=env, capture_output=True, text=True,
                                  check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1


def assert_one_object_per_id(m: StateMachine) -> None:
    """Id k is one int object in table keys, `state_ids`, `universe_ids`
    and successor tuples, and every single-successor entry naming k is
    one `(k,)` tuple."""
    ints: dict[int, int] = {}
    singles: dict[int, tuple[int]] = {}
    for table in m.successor_ids:
        for i, successors in table.items():
            if len(successors) == 1:
                assert singles.setdefault(successors[0], successors) \
                    is successors
            for k in (i, *successors):
                assert ints.setdefault(k, k) is k
    for k in (*m.state_ids, *(m.universe_ids or ())):
        assert ints.setdefault(k, k) is k


def assert_rows_are_probed_tables(m: StateMachine) -> None:
    """The row view lists each state's steps as a probe of every
    action's table finds them, in action order, each successor tuple
    the table's own; it is made once and kept."""
    offsets, xs, successors = rows = m.rows()
    assert m.rows() is rows and m._rows is rows
    assert len(offsets) == len(m.by_id) + 1 and offsets[0] == 0
    assert offsets[-1] == len(xs) == len(successors)
    got = [[(xs[k], successors[k]) for k in range(offsets[i], offsets[i + 1])]
           for i in range(len(m.by_id))]
    probed = probed_rows(m)
    assert got == probed
    assert all(mine is theirs for row, other in zip(got, probed)
               for (_, mine), (_, theirs) in zip(row, other))


def assert_lookups_answer(m: StateMachine, stride: int = 1) -> None:
    """`id_of`, `step` and `enabled` read the tables, for a machine's
    states and for copies of them over their own schema; a state over
    other variables, and one the machine does not know, have no id,
    step nowhere and enable nothing."""
    for i in range(0, len(m.by_id), stride):
        s = m.by_id[i]
        rows = [(a, table.get(i, ())) for a, table in
                zip(m.actions, m.successor_ids)]
        for state in (s, State(dict(s.items))):
            assert m.id_of(state) == i
            assert m.enabled(state) == tuple(a for a, row in rows if row)
            for a, row in rows:
                assert m.step(state, a) == tuple(m.by_id[j] for j in row)
    unknown = m.initial.assign({m.initial.names[0]: ("no such value",)})
    assert unknown.serialize() not in {s.serialize() for s in m.by_id}
    for state in (State({"no such variable": 0}), unknown):
        assert m.id_of(state) is None and m.enabled(state) == ()
        assert all(m.step(state, a) == () for a in m.actions)


class TestCompactLayout:
    """One object per state id, and nothing built before it is read."""

    @pytest.mark.parametrize(
        "name,params", BUILTIN_SIZES,
        ids=[name + "".join(f"-{k}{v}" for k, v in p.items())
             for name, p in BUILTIN_SIZES])
    def test_builtin_levels(self, name, params):
        bundle = get_model(name, **params)
        for level in (bundle.concrete, bundle.abstract):
            m = level.machine
            if check_unwinding(level).ok:
                # a passing check runs on ids: it looks up no state's id,
                # hashes no state and reads the per-action tables, so it
                # builds no rows
                assert m._ids is None and m._rows is None
                assert all(s._hash is None for s in m.by_id)
            assert_one_object_per_id(m)
            assert_lookups_answer(m, stride=max(1, len(m.by_id) // 300))
            assert_rows_are_probed_tables(m)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(universe_systems())
    def test_constructor_built_machines(self, example):
        system, _, _ = example
        assert_one_object_per_id(system.machine)
        assert_lookups_answer(system.machine)
        assert_rows_are_probed_tables(system.machine)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(model_documents())
    def test_model_file_machines(self, doc):
        for universe in (False, True):
            m = elaborate_model(doc, universe=universe).machine
            assert_one_object_per_id(m)
            assert_lookups_answer(m)
            assert_rows_are_probed_tables(m)
