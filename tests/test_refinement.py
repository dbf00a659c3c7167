"""Simulation conditions, joint exploration, and rely-guarantee lemmas.

The micro-machines here are each two or three states; every expected
witness was worked out by hand on paper before running anything.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from ifsec.core import (
    ActionId,
    BudgetError,
    InfoFlowConfig,
    ModelError,
    SecureSystem,
    State,
    StateMachine,
)
from ifsec.refinement import (
    TAU,
    Alpha,
    ComponentContract,
    RefinementPair,
    RelyGuaranteeSpec,
    Zeta,
    c1_violated,
    c2_violated,
    c3_violated,
    c4_violated,
    c5_violated,
    c6_violated,
    check_alpha_preserves_indist,
    check_compositional,
    check_domain_preservation,
    check_policy_inclusion,
    check_simulation,
    frame_guarantee,
    frame_rely,
    joint_explore,
    lemma_violated,
    total_relation,
)

INC = ActionId("inc")


def mod2_system() -> SecureSystem:
    """One observable counter over {0, 1}; inc steps it around."""
    s0, s1 = State({"x": 0}), State({"x": 1})
    machine = StateMachine(
        states=(s0, s1),
        actions=(INC,),
        transitions={(s0, INC): (s1,), (s1, INC): (s0,)},
        initial=s0,
    )
    cfg = InfoFlowConfig(
        domains=("d",),
        policy=frozenset({("d", "d")}),
        dom={INC: "d"},
        observe=lambda d, s: s["x"],
    )
    return SecureSystem(machine, cfg)


def identity_pair(system: SecureSystem) -> RefinementPair:
    return RefinementPair(
        concrete=system,
        abstract=system,
        alpha=Alpha.from_predicate(lambda c, a: c == a, "equality"),
        zeta=Zeta.identity(system.machine.actions),
    )


def still_abstract(domains=("d",), policy=None, observe=None) -> SecureSystem:
    """A one-state abstract system with no actions at all."""
    a0 = State({"y": 0})
    machine = StateMachine(states=(a0,), actions=(), transitions={}, initial=a0)
    cfg = InfoFlowConfig(
        domains=domains,
        policy=policy or frozenset({(d, d) for d in domains}),
        dom={},
        observe=observe or (lambda d, s: None),
    )
    return SecureSystem(machine, cfg)


class TestPairValidation:
    def test_domain_sets_must_match(self):
        system = mod2_system()
        other = still_abstract(domains=("d", "extra"))
        with pytest.raises(ModelError):
            RefinementPair(system, other, Alpha.from_predicate(lambda c, a: True),
                           Zeta({INC: TAU}))

    def test_zeta_must_be_total(self):
        system = mod2_system()
        with pytest.raises(ModelError):
            RefinementPair(system, still_abstract(), Alpha.from_predicate(lambda c, a: True),
                           Zeta({}))

    def test_zeta_images_must_exist_abstractly(self):
        system = mod2_system()
        with pytest.raises(ModelError):
            RefinementPair(system, still_abstract(), Alpha.from_predicate(lambda c, a: True),
                           Zeta({INC: ActionId("ghost")}))


class TestJointExplore:
    def test_identity_pair_discovers_diagonal(self):
        pair = identity_pair(mod2_system())
        exploration = joint_explore(pair)
        assert exploration.ok
        assert exploration.pairs == (
            (State({"x": 0}), State({"x": 0})),
            (State({"x": 1}), State({"x": 1})),
        )
        assert exploration.trace_to(exploration.pairs[1]) == (INC,)

    def test_unrelated_initials_fail_c1(self):
        pair = RefinementPair(
            mod2_system(), still_abstract(),
            Alpha.from_predicate(lambda c, a: False, "empty"),
            Zeta({INC: TAU}),
        )
        exploration = joint_explore(pair)
        assert exploration.c1.status == "fail"
        assert c1_violated(pair, exploration.c1.witness)
        assert exploration.c2.status == "skipped"
        assert exploration.pairs == ()

    def test_silent_step_that_breaks_alpha_fails_c2(self):
        # inc is silent but flips x, and alpha insists x stays 0.
        pair = RefinementPair(
            mod2_system(), still_abstract(),
            Alpha.from_predicate(lambda c, a: c["x"] == 0, "x pinned to 0"),
            Zeta({INC: TAU}),
        )
        exploration = joint_explore(pair)
        assert exploration.c1.ok
        assert exploration.c2.status == "fail"
        witness = exploration.c2.witness
        assert witness.action == INC
        assert witness.trace == (INC,)
        assert witness.successor == State({"x": 1})
        assert c2_violated(pair, witness)
        assert not c2_violated(pair, replace(witness, trace=()))
        assert exploration.c3.status == "skipped"

    def test_mapped_step_with_no_abstract_step_fails_c3(self):
        # The abstract level has the action in its alphabet but never
        # enables it; staying put is not an option for a mapped step.
        a0 = State({"y": 0})
        abstract = SecureSystem(
            StateMachine(states=(a0,), actions=(INC,), transitions={}, initial=a0),
            InfoFlowConfig(("d",), frozenset({("d", "d")}), {INC: "d"},
                           observe=lambda d, s: None),
        )
        pair = RefinementPair(
            mod2_system(), abstract,
            Alpha.from_predicate(lambda c, a: True, "total"),
            Zeta({INC: INC}),
        )
        exploration = joint_explore(pair)
        assert exploration.c3.status == "fail"
        witness = exploration.c3.witness
        assert witness.abstract_action == INC
        assert witness.abstract_candidates == ()
        assert witness.trace == (INC,)
        assert c3_violated(pair, witness)
        assert not c3_violated(pair, replace(witness, successor=witness.state))

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetError):
            joint_explore(identity_pair(mod2_system()), budget=1)


class TestStaticConditions:
    def test_domain_preservation_rejects_reattribution(self):
        # Concrete "send" acts for t1 but maps to an abstract action
        # attributed to t2; condition c4 exists to refuse exactly this.
        send = ActionId("send")
        s0 = State({"x": 0})
        concrete = SecureSystem(
            StateMachine((s0,), (send,), {(s0, send): (s0,)}, s0),
            InfoFlowConfig(("t1", "t2"), frozenset({("t1", "t1"), ("t2", "t2")}),
                           {send: "t1"}, observe=lambda d, s: None),
        )
        abstract = SecureSystem(
            StateMachine((s0,), (send,), {(s0, send): (s0,)}, s0),
            InfoFlowConfig(("t1", "t2"), frozenset({("t1", "t1"), ("t2", "t2")}),
                           {send: "t2"}, observe=lambda d, s: None),
        )
        pair = RefinementPair(concrete, abstract,
                              Alpha.from_predicate(lambda c, a: True),
                              Zeta({send: send}))
        verdict = check_domain_preservation(pair)
        assert verdict.status == "fail"
        assert verdict.witness.action == send
        assert verdict.witness.concrete_domain == "t1"
        assert verdict.witness.abstract_domain == "t2"
        assert c4_violated(pair, verdict.witness)
        assert not c4_violated(pair, replace(verdict.witness,
                                             abstract_domain="t1"))

    def test_domain_preservation_vacuous_when_all_silent(self):
        pair = RefinementPair(
            mod2_system(), still_abstract(),
            Alpha.from_predicate(lambda c, a: True),
            Zeta({INC: TAU}),
        )
        assert check_domain_preservation(pair).ok

    def test_policy_inclusion_cases(self):
        system = mod2_system()
        assert check_policy_inclusion(identity_pair(system)).ok

        s0 = State({"x": 0})
        wide = SecureSystem(
            StateMachine((s0,), (), {}, s0),
            InfoFlowConfig(("a", "b"),
                           frozenset({("a", "a"), ("b", "b"), ("a", "b")}),
                           {}, observe=lambda d, s: None),
        )
        narrow = SecureSystem(
            StateMachine((s0,), (INC,), {(s0, INC): (s0,)}, s0),
            InfoFlowConfig(("a", "b"), frozenset({("a", "a"), ("b", "b")}),
                           {INC: "a"}, observe=lambda d, s: None),
        )
        pair = RefinementPair(narrow, wide,
                              Alpha.from_predicate(lambda c, a: True),
                              Zeta({INC: TAU}))
        verdict = check_policy_inclusion(pair)
        assert verdict.status == "fail"
        assert (verdict.witness.source, verdict.witness.target) == ("a", "b")
        assert c5_violated(pair, verdict.witness)
        assert not c5_violated(pair, replace(verdict.witness, target="a"))

        empty_abstract = SecureSystem(
            StateMachine((s0,), (), {}, s0),
            InfoFlowConfig(("a", "b"), frozenset(), {}, observe=lambda d, s: None),
        )
        pair = RefinementPair(narrow, empty_abstract,
                              Alpha.from_predicate(lambda c, a: True),
                              Zeta({INC: TAU}))
        assert check_policy_inclusion(pair).ok


class TestIndistPreservation:
    def test_alpha_that_hides_a_flag_fails_c6(self):
        # Concretely the flag moves from 0 to 1 and d can see it; the
        # abstract side never changes. The two discovered pairs are
        # abstractly indistinguishable but concretely distinguishable.
        flip = ActionId("flip")
        c0, c1 = State({"f": 0}), State({"f": 1})
        concrete = SecureSystem(
            StateMachine((c0, c1), (flip,), {(c0, flip): (c1,)}, c0),
            InfoFlowConfig(("d",), frozenset({("d", "d")}), {flip: "d"},
                           observe=lambda d, s: s["f"]),
        )
        pair = RefinementPair(concrete, still_abstract(),
                              Alpha.from_predicate(lambda c, a: True, "flag-blind"),
                              Zeta({flip: TAU}))
        exploration = joint_explore(pair)
        assert exploration.ok
        verdict = check_alpha_preserves_indist(pair, exploration)
        assert verdict.status == "fail"
        witness = verdict.witness
        assert witness.domain == "d"
        assert witness.concrete_indist is False and witness.abstract_indist is True
        assert witness.first == (c0, State({"y": 0}))
        assert witness.second == (c1, State({"y": 0}))
        assert witness.second_trace == (flip,)
        assert c6_violated(pair, witness)
        assert not c6_violated(pair, replace(witness, second=witness.first))

    def test_identity_alpha_preserves_views(self):
        pair = identity_pair(mod2_system())
        assert check_alpha_preserves_indist(pair, joint_explore(pair)).ok


class TestSimulationReport:
    def test_identity_refinement_passes_everything(self):
        report = check_simulation(identity_pair(mod2_system()))
        assert report.ok
        for name, verdict in report.conditions().items():
            assert verdict.ok, name
        assert report.refinement.ok
        assert report.cross_check.ok
        assert report.cross_check.witness.abstract_unwinding_ok is True
        assert report.cross_check.witness.concrete_unwinding_ok is True
        assert report.pair_count == 2
        # The cross-check hands back the unwinding it ran, per level.
        assert sorted(report.unwinding) == ["abstract", "concrete"]
        assert all(u.ok for u in report.unwinding.values())

    def test_simulation_of_an_insecure_system_still_holds(self):
        # Refinement is about level correspondence, not security: the
        # leaky system simulates itself, its unwinding fails at both
        # levels, and the cross-check records there is nothing to carry.
        h, l = ActionId("h"), ActionId("l")
        s0, s1 = State({"x": 0}), State({"x": 1})
        leaky = SecureSystem(
            StateMachine((s0, s1), (h, l),
                         {(s0, h): (s1,), (s1, h): (s1,),
                          (s0, l): (s0,), (s1, l): (s1,)}, s0),
            InfoFlowConfig(("hi", "lo"), frozenset({("hi", "hi"), ("lo", "lo")}),
                           {h: "hi", l: "lo"},
                           observe=lambda d, s: s["x"] if d == "lo" else None),
        )
        report = check_simulation(identity_pair(leaky))
        assert report.refinement.ok
        assert report.cross_check.ok
        assert report.cross_check.witness.abstract_unwinding_ok is False
        assert report.cross_check.witness.concrete_unwinding_ok is None
        assert list(report.unwinding) == ["abstract"]

    def test_failing_condition_names_itself_and_skips_cross_check(self):
        flip = ActionId("flip")
        c0, c1 = State({"f": 0}), State({"f": 1})
        concrete = SecureSystem(
            StateMachine((c0, c1), (flip,), {(c0, flip): (c1,)}, c0),
            InfoFlowConfig(("d",), frozenset({("d", "d")}), {flip: "d"},
                           observe=lambda d, s: s["f"]),
        )
        pair = RefinementPair(concrete, still_abstract(),
                              Alpha.from_predicate(lambda c, a: True),
                              Zeta({flip: TAU}))
        report = check_simulation(pair)
        assert not report.ok
        assert report.c6.status == "fail"
        assert "c6" in report.refinement.note
        assert report.cross_check.status == "skipped"
        assert report.unwinding == {}

    def test_reports_are_deterministic(self):
        first = check_simulation(identity_pair(mod2_system()))
        second = check_simulation(identity_pair(mod2_system()))
        assert first == second


#: Component t owns pc, shares cnt, and takes lock, which guards q.
LOCKS = {"lock": ("q",)}
OWNED, SHARED = ("pc",), ("cnt",)
FRAME_START = {"pc": 0, "cnt": 0, "lock": None, "q": 0, "r": 0}


def frame_step(before: dict, after: dict) -> tuple[State, State]:
    start = State({**FRAME_START, **before})
    return start, start.assign(after)


class TestFrames:
    """frame_rely is the environment's step seen by t; frame_guarantee
    is t's own step."""

    @pytest.mark.parametrize("before,after,guarantee,rely", [
        # An owned variable: t may change it, the environment may not.
        ({}, {"pc": 1}, True, False),
        # A shared variable: t may change it and so may the environment.
        ({}, {"cnt": 1}, True, True),
        # Nobody declared r.
        ({}, {"r": 1}, False, True),
        # A guarded variable changes under t only while t holds its lock.
        ({"lock": "t"}, {"q": 1}, True, False),
        ({"lock": "u"}, {"q": 1}, False, True),
        ({}, {"q": 1}, False, True),
        # The lock changes under t only when t takes or releases it.
        ({}, {"lock": "t"}, True, True),
        ({"lock": "t"}, {"lock": None}, True, False),
        ({}, {"lock": "u"}, False, True),
        ({"lock": "u"}, {"lock": None}, False, True),
        ({"lock": "t"}, {"lock": None, "q": 1}, True, False),
        # No change at all is always fine.
        ({"lock": "t"}, {}, True, True),
    ])
    def test_lock_discipline(self, before, after, guarantee, rely):
        step = frame_step(before, after)
        assert frame_guarantee(OWNED + SHARED, "t", LOCKS)(*step) is guarantee
        assert frame_rely(OWNED, "t", LOCKS)(*step) is rely

    @pytest.mark.parametrize("before,after,may,keeps", [
        ({}, {"pc": 1}, True, False),
        ({}, {"q": 1}, False, True),
        ({"lock": "t"}, {"q": 1}, False, True),
        ({}, {"lock": "t"}, False, True),
        ({}, {"pc": 1, "q": 1}, False, False),
        ({}, {}, True, True),
    ])
    def test_without_locks_frames_are_plain(self, before, after, may, keeps):
        # `may: pc` and `keeps: pc` in a model file.
        step = frame_step(before, after)
        assert frame_guarantee(["pc"])(*step) is may
        assert frame_rely(["pc"])(*step) is keeps

    def test_locks_need_a_holder(self):
        with pytest.raises(ModelError, match="holds them"):
            frame_rely(OWNED, locks=LOCKS)


def two_component_system(hit_changes_x: bool) -> SecureSystem:
    """Components a and b; b's one action either mutates x or loops."""
    hit = ActionId("b/hit")
    s0, s1 = State({"x": 0}), State({"x": 1})
    target = (s1,) if hit_changes_x else (s0,)
    states = (s0, s1) if hit_changes_x else (s0,)
    return SecureSystem(
        StateMachine(states, (hit,), {(s0, hit): target}, s0),
        InfoFlowConfig(("d",), frozenset({("d", "d")}), {hit: "d"},
                       observe=lambda d, s: None),
    )


def component_prefix(action: ActionId) -> str:
    return action.label.split("/", 1)[0]


class TestCompositional:
    def test_identity_contracts_on_selfloop_machine(self):
        # Single component whose only moves are self-loops, so even the
        # identity guarantee holds; lemmas 3 and 4 are vacuous.
        loop = ActionId("only/loop")
        s0 = State({"x": 0})
        system = SecureSystem(
            StateMachine((s0,), (loop,), {(s0, loop): (s0,)}, s0),
            InfoFlowConfig(("d",), frozenset({("d", "d")}), {loop: "d"},
                           observe=lambda d, s: s["x"]),
        )
        pair = identity_pair(system)
        rg = RelyGuaranteeSpec(
            contracts={"only": ComponentContract(
                rely=lambda s, t: s == t, guarantee=lambda s, t: s == t)},
            component_of=component_prefix,
        )
        report = check_compositional(pair, rg)
        assert report.ok
        for name, verdict in report.lemmas().items():
            assert verdict.ok, name
        assert report.cross_check.ok
        assert report.components == ("only",)

    def test_environment_step_breaking_a_rely_fails_lemma3(self):
        system = two_component_system(hit_changes_x=True)
        pair = RefinementPair(
            system, still_abstract(),
            Alpha.from_predicate(lambda c, a: True),
            Zeta({ActionId("b/hit"): TAU}),
        )
        rg = RelyGuaranteeSpec(
            contracts={
                "a": ComponentContract(
                    rely=lambda s, t: s["x"] == t["x"], guarantee=total_relation),
                "b": ComponentContract(rely=total_relation, guarantee=total_relation),
            },
            component_of=component_prefix,
        )
        report = check_compositional(pair, rg)
        assert report.lemma1.ok and report.lemma2.ok
        assert report.lemma3.status == "fail"
        witness = report.lemma3.witness
        assert witness.component == "a" and witness.other_component == "b"
        assert witness.reason == "environment step breaks the concrete rely"
        assert lemma_violated(pair, rg, "lemma3", witness)
        assert not lemma_violated(pair, rg, "lemma1", witness)
        assert not lemma_violated(pair, rg, "lemma3",
                                  replace(witness, component="b"))
        # The same move is b's witnessed guarantee behavior, so the
        # compatibility lemma fails on it too.
        assert report.lemma4.status == "fail"
        assert lemma_violated(pair, rg, "lemma4", report.lemma4.witness)
        assert report.cross_check.status == "skipped"

    def test_widened_guarantee_is_caught_without_a_machine_step(self):
        # b's machine does nothing, but its declared guarantee admits a
        # move that rewrites x. Only the declared-relation check can
        # see that, and it must.
        system = two_component_system(hit_changes_x=False)
        pair = RefinementPair(
            system, still_abstract(),
            Alpha.from_predicate(lambda c, a: True),
            Zeta({ActionId("b/hit"): TAU}),
        )
        rg = RelyGuaranteeSpec(
            contracts={
                "a": ComponentContract(
                    rely=lambda s, t: s["x"] == t["x"], guarantee=total_relation),
                "b": ComponentContract(
                    rely=total_relation, guarantee=total_relation,
                    guarantee_moves=lambda s: (s.assign({"x": 9}),)),
            },
            component_of=component_prefix,
        )
        report = check_compositional(pair, rg)
        assert report.lemma1.ok and report.lemma2.ok and report.lemma3.ok
        assert report.lemma4.status == "fail"
        witness = report.lemma4.witness
        assert witness.component == "b" and witness.other_component == "a"
        assert witness.level == "concrete"
        assert witness.successor["x"] == 9
        assert "b: declared/witnessed" in report.lemma4.note
        assert lemma_violated(pair, rg, "lemma4", witness)
        # a declares no moves and its step never touches x.
        assert not lemma_violated(pair, rg, "lemma4", replace(
            witness, component="a", other_component="b"))

    def test_missing_contract_is_a_model_error(self):
        system = two_component_system(hit_changes_x=False)
        pair = RefinementPair(
            system, still_abstract(),
            Alpha.from_predicate(lambda c, a: True),
            Zeta({ActionId("b/hit"): TAU}),
        )
        rg = RelyGuaranteeSpec(
            contracts={"a": ComponentContract(rely=total_relation,
                                              guarantee=total_relation)},
            component_of=component_prefix,
        )
        with pytest.raises(ModelError):
            check_compositional(pair, rg)

    def test_mapped_steps_satisfy_lemma2_with_witness(self):
        # Identity refinement of the counter: every step is mapped, the
        # abstract twin is the witness, and total guarantees accept it.
        system = mod2_system()
        pair = identity_pair(system)
        rg = RelyGuaranteeSpec(
            contracts={"m": ComponentContract(rely=total_relation,
                                              guarantee=total_relation)},
            component_of=lambda a: "m",
        )
        report = check_compositional(pair, rg)
        assert report.ok
        assert report.pair_count == 2
