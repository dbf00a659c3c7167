"""Simulation conditions, joint exploration, and rely-guarantee lemmas.

The micro-machines here are each two or three states; every expected
witness was worked out by hand on paper before running anything.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsec import core, refinement
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
    replace,
    values_getter,
)
from ifsec.models import get_model, model_names
from ifsec.models.auction import ledger_max
from ifsec.models.common import buffer_alpha, pc_key
from ifsec.programs import IDLE
from ifsec.refinement import (
    TAU,
    Alpha,
    C1Witness,
    C2Witness,
    C3Witness,
    C6Witness,
    ComponentContract,
    CompositionalReport,
    LemmaWitness,
    RefinementPair,
    RelyGuaranteeSpec,
    Verdict,
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
    pair_table,
    total_relation,
)
from ifsec.specfile import elaborate_refinement, load_refinement
from test_cli import (
    ABSTRACT,
    CONCRETE,
    PAIR,
    PAIR_BAD_GUARANTEE,
    pair_with_worker_rely,
)
from oracles import oracle_frame_guarantee, oracle_frame_rely
from test_core import assert_rows_are_probed_tables
from test_models import own_moves

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
        alpha=Alpha(lambda c, a: c == a, "equality"),
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
            RefinementPair(system, other, Alpha(lambda c, a: True),
                           Zeta({INC: TAU}))

    def test_zeta_must_be_total(self):
        system = mod2_system()
        with pytest.raises(ModelError):
            RefinementPair(system, still_abstract(), Alpha(lambda c, a: True),
                           Zeta({}))

    def test_zeta_images_must_exist_abstractly(self):
        system = mod2_system()
        with pytest.raises(ModelError):
            RefinementPair(system, still_abstract(), Alpha(lambda c, a: True),
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
            Alpha(lambda c, a: False, "empty"),
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
            Alpha(lambda c, a: c["x"] == 0, "x pinned to 0"),
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
            Alpha(lambda c, a: True, "total"),
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
                              Alpha(lambda c, a: True),
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
            Alpha(lambda c, a: True),
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
                              Alpha(lambda c, a: True),
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
                              Alpha(lambda c, a: True),
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
                              Alpha(lambda c, a: True, "flag-blind"),
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
                              Alpha(lambda c, a: True),
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


#: (before, after, frame_guarantee verdict, frame_rely verdict) for t.
LOCK_ROWS = [
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
]


class TestFrames:
    """frame_rely is the environment's step seen by t; frame_guarantee
    is t's own step."""

    @pytest.mark.parametrize("before,after,guarantee,rely", LOCK_ROWS)
    def test_lock_discipline(self, before, after, guarantee, rely):
        step = frame_step(before, after)
        assert frame_guarantee(OWNED + SHARED, "t", LOCKS)(*step) is guarantee
        assert frame_rely(OWNED, "t", LOCKS)(*step) is rely

    def test_one_frame_on_several_schemas(self):
        # The frames read values by position, resolved per schema. One
        # pair of frames meets, in turn, states that share a schema,
        # hand-built states on schemas of their own, states on which an
        # extra variable `a` shifts every position, and steps whose
        # after-state is on another schema with the same names.
        guarantee = frame_guarantee(OWNED + SHARED, "t", LOCKS)
        rely = frame_rely(OWNED, "t", LOCKS)
        for extra in ({}, {"a": 0}, {}, {"a": 0}):
            for before, after, may, keeps in LOCK_ROWS:
                start = State({**FRAME_START, **extra, **before})
                for step in ((start, start.assign(after)),
                             (start, State({**FRAME_START, **extra, **before,
                                            **after}))):
                    assert guarantee(*step) is may, (extra, before, after)
                    assert rely(*step) is keeps, (extra, before, after)

    def test_rely_across_schemas_with_other_names(self):
        # A frame compares values by position, so both states of a step
        # must bind the same variables: an after-state binding one more
        # variable is an error.
        rely = frame_rely(OWNED, "t", LOCKS)
        with pytest.raises(ModelError, match="different variables"):
            rely(State(FRAME_START), State({**FRAME_START, "a": 1}))

    @pytest.mark.parametrize("allowed,before,after", [
        # Neither pc nor q changes, but a shifts q's position.
        (["q"], {"pc": 0, "q": 0}, {"a": 5, "pc": 0, "q": 0}),
        # q vanishes.
        ([], {"pc": 0, "q": 0}, {"pc": 0}),
    ], ids=["extra", "fewer"])
    def test_guarantee_across_schemas_with_other_names(self, allowed, before,
                                                       after):
        with pytest.raises(ModelError, match="different variables"):
            frame_guarantee(allowed)(State(before), State(after))

    @pytest.mark.parametrize("frame,after", [
        (frame_rely(["gone"]), {}),
        (frame_rely(OWNED, "t", {"gone": ("q",)}), {"q": 1}),
        (frame_guarantee([], "t", {"gone": ("q",)}), {"q": 1}),
    ], ids=["rely-fixed", "rely-lock", "guarantee-lock"])
    def test_missing_variable_is_a_usage_error(self, frame, after):
        step = frame_step({}, after)
        for _ in range(2):
            with pytest.raises(UsageError) as error:
                frame(*step)
            assert str(error.value) == "state has no variable 'gone'"

    def test_missing_variable_is_an_error_before_any_value_is_read(self):
        # The frame finds its positions in a schema before it compares
        # values, so a change to pc does not hide the missing variable.
        with pytest.raises(UsageError, match="no variable 'gone'"):
            frame_rely(["pc", "gone"])(*frame_step({}, {"pc": 1}))

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


#: Generated frame steps: locks l1 and l2, the variables they may guard,
#: and free ones. A lock is held by t, by u, or by nobody.
FRAME_VARIABLES = ("a", "b", "g1", "g2", "l1", "l2")
FRAME_VALUES = (None, 0, 1, "t", "u")
FRAME_LOCKS = [None, {"l1": ("g1",), "l2": ("g2", "a")}, {"l1": ("g1", "g2")}]


@st.composite
def frame_steps(draw):
    """A frame's variables, holder and locks, and one to four steps: a
    state over `FRAME_VARIABLES` and that state with some variables
    changed, the after-state sometimes on a schema of its own."""
    names = draw(st.lists(st.sampled_from(("a", "b", "g1", "g2")),
                          unique=True))
    locks = draw(st.sampled_from(FRAME_LOCKS))
    holder = "t" if locks or draw(st.booleans()) else None
    values = st.sampled_from(FRAME_VALUES)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        before = State({v: draw(values) for v in FRAME_VARIABLES})
        changed = draw(st.lists(st.sampled_from(FRAME_VARIABLES),
                                unique=True))
        after = before.assign({v: draw(values) for v in changed})
        if draw(st.booleans()):
            after = State(dict(after.items))
        steps.append((before, after))
    return names, holder, locks, steps


def assert_frames_match_oracles(frames, steps) -> None:
    """Each (frame, oracle) agrees on each step, asked twice, so that a
    frame meets the schema it kept from the step before."""
    for frame, oracle in frames:
        for _ in range(2):
            for before, after in steps:
                assert frame(before, after) is oracle(before, after), \
                    (before, after)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(frame_steps())
def test_frames_match_per_variable_oracles(example):
    names, holder, locks, steps = example
    assert_frames_match_oracles(
        [(frame_rely(names, holder, locks),
          oracle_frame_rely(names, holder, locks)),
         (frame_guarantee(names, holder, locks),
          oracle_frame_guarantee(names, holder, locks))], steps)


@pytest.mark.parametrize("name", ["demo", "arinc", "auction"])
def test_builtin_frames_match_per_variable_oracles(monkeypatch, name):
    """Every rely and guarantee frame of a built-in's contracts agrees
    with its oracle on each concrete step and on the step reversed, in
    which a lock the step takes is released."""
    made = []
    for kind, oracle in (("frame_rely", oracle_frame_rely),
                         ("frame_guarantee", oracle_frame_guarantee)):
        def recording(*args, frame=getattr(refinement, kind), oracle=oracle):
            made.append((frame(*args), oracle(*args)))
            return made[-1][0]
        monkeypatch.setattr(refinement, kind, recording)
    bundle = get_model(name)
    assert bundle.rely_guarantee is not None and made
    by_id = bundle.concrete.machine.by_id
    steps = [(by_id[i], by_id[j])
             for table in bundle.concrete.machine.successor_ids
             for i, row in table.items() for j in row]
    assert_frames_match_oracles(made, steps + [(t, s) for s, t in steps])


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
            Alpha(lambda c, a: True),
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
        # The same move is b's witnessed guarantee behavior, which lemma
        # 3 has just checked; lemma 4 checks no witnessed concrete move,
        # so it passes and does not accept the move as its own failure.
        assert report.lemma4.ok
        assert report.lemma4.note == "guarantee moves: a: witnessed/" \
            "witnessed; b: witnessed/witnessed"
        assert not lemma_violated(pair, rg, "lemma4", LemmaWitness(
            component="b", other_component="a", trace=(),
            state=witness.state, abstract_state=None, action=None,
            successor=witness.successor, abstract_successor=None,
            reason="a concrete guarantee move breaks the rely"))
        assert report.cross_check.status == "skipped"

    def test_widened_guarantee_is_caught_without_a_machine_step(self):
        # b's machine does nothing, but its declared guarantee admits a
        # move that rewrites x. Only the declared-relation check can
        # see that, and it must.
        system = two_component_system(hit_changes_x=False)
        pair = RefinementPair(
            system, still_abstract(),
            Alpha(lambda c, a: True),
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

    def test_later_abstract_match_is_the_witnessed_move(self):
        # m's mapped step has two related abstract successors; m's
        # abstract guarantee rejects the first, so lemma 2 matches the
        # step with the second, and that is m's witnessed abstract move.
        # o's abstract rely rejects exactly that move.
        go = ActionId("m/go")
        c0, c1 = State({"x": 0}), State({"x": 1})
        a0, a1, a2 = State({"y": 0}), State({"y": 1}), State({"y": 2})

        def system(states, steps, initial):
            return SecureSystem(
                StateMachine(states, (go,), steps, initial),
                InfoFlowConfig(("d",), frozenset({("d", "d")}), {go: "d"},
                               observe=lambda d, s: None))

        pair = RefinementPair(system((c0, c1), {(c0, go): (c1,)}, c0),
                              system((a0, a1, a2), {(a0, go): (a1, a2)}, a0),
                              Alpha(lambda c, a: True, "total"),
                              Zeta({go: go}))
        rg = RelyGuaranteeSpec(
            contracts={
                "m": ComponentContract(
                    rely=total_relation, guarantee=total_relation,
                    abstract_guarantee=lambda s, t: t != a1),
                "o": ComponentContract(
                    rely=total_relation, guarantee=total_relation,
                    abstract_rely=lambda s, t: t != a2),
            },
            component_of=component_prefix,
        )
        report = check_compositional(pair, rg)
        assert report.lemma2.ok
        assert report.lemma4.status == "fail"
        witness = report.lemma4.witness
        assert (witness.level, witness.state, witness.successor) == \
            ("abstract", a0, a2)
        assert report == oracle_check_compositional(pair, rg)

    def test_missing_contract_is_a_model_error(self):
        system = two_component_system(hit_changes_x=False)
        pair = RefinementPair(
            system, still_abstract(),
            Alpha(lambda c, a: True),
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


# ---------------------------------------------------------------------------
# The joint search, c6 and the lemmas on state ids against the State-keyed
# loops they replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleJoint:
    pairs: tuple
    search: Exploration
    c1: Verdict
    c2: Verdict
    c3: Verdict

    @property
    def ok(self):
        return self.c1.ok and self.c2.ok and self.c3.ok

    def trace_to(self, pair):
        return self.search.trace_to(pair)


def _oracle_witness(alpha, candidates, successor):
    for sigma2 in candidates:
        if alpha.holds(successor, sigma2):
            return sigma2
    return None


def oracle_joint_explore(pair, budget=None):
    """Breadth-first search over State pairs, calling `step` and alpha
    on every step."""
    mc, ma = pair.concrete.machine, pair.abstract.machine
    alpha, zeta = pair.alpha, pair.zeta
    start = (mc.initial, ma.initial)
    search = Exploration(start, budget, noun="related state pairs")
    if not alpha.holds(*start):
        skip = Verdict.skipped("exploration aborted: initial pair unrelated")
        return OracleJoint((), search, Verdict.failed(C1Witness(*start)),
                           skip, skip)

    def result(c2, c3):
        return OracleJoint(tuple(search.order), search, Verdict.passed(), c2, c3)

    for current in search:
        s, sigma = current
        for action in mc.actions:
            image = zeta.map(action)
            for successor in mc.step(s, action):
                if image is TAU:
                    if not alpha.holds(successor, sigma):
                        return result(
                            Verdict.failed(C2Witness(
                                search.trace_to(current) + (action,), action,
                                s, sigma, successor)),
                            Verdict.skipped("exploration aborted at the "
                                            "silent-step failure"))
                    nxt = (successor, sigma)
                else:
                    candidates = ma.step(sigma, image)
                    sigma2 = _oracle_witness(alpha, candidates, successor)
                    if sigma2 is None:
                        return result(
                            Verdict.skipped("exploration aborted at the "
                                            "mapped-step failure"),
                            Verdict.failed(C3Witness(
                                search.trace_to(current) + (action,), action,
                                image, s, sigma, successor, tuple(candidates))))
                    nxt = (successor, sigma2)
                search.add(nxt, current, action)
    return result(Verdict.passed(), Verdict.passed())


def oracle_check_alpha_preserves_indist(pair, exploration):
    """c6 over sorted State pairs, calling `observe` on every pair."""
    observe_c = pair.concrete.config.observe
    observe_a = pair.abstract.config.observe
    ordered = sorted(exploration.pairs)
    for domain in sorted(pair.concrete.config.domains):
        forward, backward = {}, {}
        for p in ordered:
            cview, aview = observe_c(domain, p[0]), observe_a(domain, p[1])
            for table, key, other, indist in ((forward, cview, aview, True),
                                              (backward, aview, cview, False)):
                if key in table and table[key][0] != other:
                    earlier = table[key][1]
                    return Verdict.failed(C6Witness(
                        domain=domain, first=earlier, second=p,
                        first_trace=exploration.trace_to(earlier),
                        second_trace=exploration.trace_to(p),
                        concrete_indist=indist, abstract_indist=not indist))
            forward.setdefault(cview, (aview, p))
            backward.setdefault(aview, (cview, p))
    return Verdict.passed()


def _oracle_mapped_match(pair, contract, sigma, image, successor):
    for sigma2 in pair.abstract.machine.step(sigma, image):
        if pair.alpha.holds(successor, sigma2) and \
                contract.abstract_guarantee(sigma, sigma2):
            return sigma2
    return None


def _oracle_own_step_failure(pair, contract, current, image, successor, match):
    s, sigma = current
    if not contract.guarantee(s, successor):
        kind = "silent" if image is TAU else "mapped"
        return f"{kind} step leaves the component's guarantee"
    if image is TAU and not pair.alpha.holds(successor, sigma):
        return "silent step breaks the state relation"
    if image is not TAU and match is None:
        return "no abstract step lands in alpha within the abstract guarantee"
    return None


def _oracle_environment_failure(pair, contract, current, action, successor):
    s, sigma = current
    if not contract.rely(s, successor):
        return ("environment step breaks the concrete rely", None)
    image = pair.zeta.map(action)
    if image is TAU:
        counterpart = sigma
    else:
        counterpart = _oracle_witness(
            pair.alpha, pair.abstract.machine.step(sigma, image), successor)
    if counterpart is None:
        return ("environment step has no abstract counterpart", None)
    if not contract.abstract_rely(sigma, counterpart):
        return ("environment step breaks the abstract rely", counterpart)
    if not pair.alpha.holds(successor, counterpart):
        return ("environment step leaves the state relation", counterpart)
    return None


def _oracle_rely_failure(contract, level, s, s2):
    rely = contract.rely if level == "concrete" else contract.abstract_rely
    article = "a" if level == "concrete" else "an"
    return None if rely(s, s2) else \
        f"{article} {level} guarantee move breaks the rely"


def _oracle_compatibility(exploration, rg, components, abstract_moves_by):
    """Lemma 4 over declared moves and witnessed abstract moves; a
    component's witnessed concrete moves are its steps, which lemma 3
    checks."""
    concrete_states = sorted({p[0] for p in exploration.pairs})
    abstract_states = sorted({p[1] for p in exploration.pairs})
    sources, verdict = [], None
    for mover in components:
        contract = rg.contracts[mover]
        if contract.guarantee_moves is not None:
            moves = [(s, s2) for s in concrete_states
                     for s2 in sorted(contract.guarantee_moves(s))]
            concrete_source = "declared"
        else:
            moves = []
            concrete_source = "witnessed"
        if contract.abstract_guarantee_moves is not None:
            abstract_moves = [(a, a2) for a in abstract_states for a2 in
                              sorted(contract.abstract_guarantee_moves(a))]
            abstract_source = "declared"
        else:
            abstract_moves = sorted(abstract_moves_by[mover])
            abstract_source = "witnessed"
        sources.append(f"{mover}: {concrete_source}/{abstract_source}")
        if verdict is not None:
            continue
        for other in components:
            if other == mover or verdict is not None:
                continue
            for level, level_moves in (("concrete", moves),
                                       ("abstract", abstract_moves)):
                for s, s2 in level_moves:
                    reason = _oracle_rely_failure(rg.contracts[other], level,
                                                  s, s2)
                    if reason is not None:
                        verdict = Verdict.failed(LemmaWitness(
                            mover, (), s, None, None, s2, None, reason,
                            level, other))
                        break
                if verdict is not None:
                    break
    return verdict or Verdict.passed(), "guarantee moves: " + "; ".join(sources)


def oracle_check_compositional(pair, rg, budget=None):
    """The four lemmas over State pairs, calling `step` and alpha on
    every step instead of reading the joint search's record."""
    exploration = oracle_joint_explore(pair, budget)
    mc, zeta = pair.concrete.machine, pair.zeta
    components = tuple(sorted(rg.contracts))
    if not exploration.c1.ok:
        skip = Verdict.skipped("initial pair unrelated; nothing to quantify over")
        return CompositionalReport(skip, skip, skip, skip,
                                   Verdict.skipped("lemmas were not evaluated"),
                                   0, components)
    steps_by = {k: [] for k in components}
    abstract_moves_by = {k: set() for k in components}
    for current in exploration.pairs:
        for action in mc.actions:
            mover = rg.component(action)
            for successor in mc.step(current[0], action):
                steps_by[mover].append((current, action, successor))

    def failed(component, current, action, successor, reason, abstract, other):
        return Verdict.failed(LemmaWitness(
            component, exploration.trace_to(current) + (action,),
            current[0], current[1], action, successor, abstract, reason,
            "concrete", other))

    own_failures = {}
    for mover in components:
        contract = rg.contracts[mover]
        for current, action, successor in steps_by[mover]:
            image = zeta.map(action)
            match = None
            if image is not TAU:
                match = _oracle_mapped_match(pair, contract, current[1], image,
                                             successor)
                if match is not None:
                    abstract_moves_by[mover].add((current[1], match))
            lemma = "lemma1" if image is TAU else "lemma2"
            if lemma not in own_failures:
                reason = _oracle_own_step_failure(pair, contract, current,
                                                  image, successor, match)
                if reason is not None:
                    own_failures[lemma] = failed(mover, current, action,
                                                 successor, reason, None, None)
    lemma3 = None
    for observer in components:
        for mover in components:
            if mover == observer or lemma3 is not None:
                continue
            for current, action, successor in steps_by[mover]:
                failure = _oracle_environment_failure(
                    pair, rg.contracts[observer], current, action, successor)
                if failure is not None:
                    lemma3 = failed(observer, current, action, successor,
                                    *failure, mover)
                    break
    lemma4, note = _oracle_compatibility(exploration, rg, components,
                                         abstract_moves_by)
    lemmas = (own_failures.get("lemma1") or Verdict.passed(),
              own_failures.get("lemma2") or Verdict.passed(),
              lemma3 or Verdict.passed(), lemma4)
    if not all(v.ok for v in lemmas):
        cross = Verdict.skipped("lemmas did not pass")
    elif exploration.c2.ok and exploration.c3.ok:
        cross = Verdict.passed("lemmas imply the joint step conditions; "
                               "joint exploration agrees")
    else:
        cross = Verdict.failed(None, "soundness alarm: all lemmas pass but "
                               "joint exploration finds a step-condition failure")
    return CompositionalReport(
        *lemmas[:3], Verdict(lemma4.status, lemma4.witness, note), cross,
        len(exploration.pairs), components)


def outcome(check, *args):
    """What `check` returns, or the text of the BudgetError it raises."""
    try:
        return check(*args)
    except BudgetError as error:
        return f"BudgetError: {error}"


def assert_matches_oracles(pair, rg=None, budget=None):
    """The id-level joint search, c6, simulation report and lemmas equal
    the State-keyed oracles'; returns the oracle's joint search and
    lemma report for the caller to inspect."""
    got = outcome(joint_explore, pair, budget)
    want = outcome(oracle_joint_explore, pair, budget)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.pairs == want.pairs
        assert [got.trace_to(p) for p in got.pairs] == \
            [want.trace_to(p) for p in want.pairs]
        assert (got.c1, got.c2, got.c3) == (want.c1, want.c2, want.c3)
        assert got.pair_count == len(want.pairs)
        c6 = None
        if want.ok:
            c6 = oracle_check_alpha_preserves_indist(pair, want)
            assert check_alpha_preserves_indist(pair, got) == c6
        report = outcome(check_simulation, pair, budget)
        if not isinstance(report, str):
            assert (report.c1, report.c2, report.c3) == \
                (want.c1, want.c2, want.c3)
            assert report.c6 == (c6 or Verdict.skipped(
                "requires the pair set from a clean exploration"))
            assert report.pair_count == len(want.pairs)
    lemmas = None
    if rg is not None:
        lemmas = outcome(oracle_check_compositional, pair, rg, budget)
        assert outcome(check_compositional, pair, rg, budget) == lemmas
    return want, lemmas


#: Concrete states: x and y, and a lock l that components p and q take.
CONCRETE_STATES = [State({"x": x, "y": y, "l": lock}) for x in range(2)
                   for y in range(2) for lock in (None, "p", "q")]
ABSTRACT_STATES = [State({"x": x}) for x in range(3)]


@st.composite
def generated_pairs(draw):
    """A random refinement pair with rely-guarantee contracts and a
    budget, as (pair, rg, budget).

    The concrete machine has 1..3 actions of components p and q (the
    label prefix) over the twelve states above, the abstract one 1..2
    actions over x in 0..2; steps are drawn as (state, action,
    successor) tables from a `random.Random` of a drawn seed, so a step may be
    disabled or have two successors. Zeta sends each concrete action to tau or an abstract
    action. In "projected" mode the abstract machine is the image of
    the concrete one under x, silent steps keep x, and alpha relates
    equal x and a few more pairs, so the conditions often pass; otherwise the abstract steps
    are random and alpha is a dense random `pair_table`. Each domain
    observes some of the variables, or random views. Contracts are total, frames (with
    or without the lock), dense pair tables or abstract relations that
    avoid one state, and may declare guarantee moves, some of which
    leave the machine.
    """
    domains = ("d0", "d1")[:draw(st.integers(1, 2))]
    concrete_actions = tuple(
        ActionId(f"{draw(st.sampled_from('pq'))}/c{k}")
        for k in range(draw(st.integers(1, 3))))
    abstract_actions = tuple(ActionId(f"a{k}")
                             for k in range(draw(st.integers(1, 2))))
    zeta = {a: draw(st.sampled_from([TAU, *abstract_actions]))
            for a in concrete_actions}
    projected = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def steps(states, actions, keep=lambda s, action, t: True):
        table = {}
        for s in states:
            for action in actions:
                if rng.random() < 0.5:
                    succ = tuple(t for t in rng.sample(states, rng.choice(
                        (1, 1, 2))) if keep(s, action, t))
                    if succ:
                        table[(s, action)] = succ
        return table

    concrete_steps = steps(
        CONCRETE_STATES, concrete_actions,
        lambda s, action, t: not projected or zeta[action] is not TAU
        or s["x"] == t["x"])
    if projected:
        abstract_steps = {}
        for (s, action), succ in concrete_steps.items():
            if zeta[action] is not TAU:
                key = (ABSTRACT_STATES[s["x"]], zeta[action])
                for t in succ:
                    image = ABSTRACT_STATES[t["x"]]
                    if image not in abstract_steps.setdefault(key, ()):
                        abstract_steps[key] += (image,)
    else:
        abstract_steps = steps(ABSTRACT_STATES, abstract_actions)
    initial = draw(st.sampled_from(CONCRETE_STATES))
    abstract_initial = ABSTRACT_STATES[initial["x"]] if projected \
        else draw(st.sampled_from(ABSTRACT_STATES))

    def config(actions):
        policy = frozenset((u, v) for u in domains for v in domains
                           if draw(st.booleans()))
        dom = {a: draw(st.sampled_from(domains)) for a in actions}
        if draw(st.booleans()):
            views = {d: draw(st.lists(st.sampled_from("xyl"), unique=True))
                     for d in domains}
            return InfoFlowConfig(domains, policy, dom, lambda d, s: tuple(
                s.get(v) for v in views[d]))
        table = {(d, s): rng.randrange(2) for d in domains for s in states}
        return InfoFlowConfig(domains, policy, dom,
                              lambda d, s: table[(d, s)])

    states = CONCRETE_STATES
    concrete = SecureSystem(
        StateMachine(CONCRETE_STATES, concrete_actions, concrete_steps,
                     initial),
        config(concrete_actions))
    states = ABSTRACT_STATES
    abstract = SecureSystem(
        StateMachine(ABSTRACT_STATES, abstract_actions, abstract_steps,
                     abstract_initial),
        config(abstract_actions))

    def dense_table(left, right, dropped):
        """`pair_table` of the state pairs, each dropped with
        probability `dropped`."""
        return pair_table((s, t) for s in left for t in right
                          if rng.random() >= dropped)

    def relation(kind, component):
        choice = draw(st.sampled_from(["total", "frame", "locked", "table"]))
        if choice == "total":
            return total_relation
        if choice == "table":
            return dense_table(CONCRETE_STATES, CONCRETE_STATES, 0.05)
        frame = frame_rely if kind == "rely" else frame_guarantee
        names = draw(st.lists(st.sampled_from(["x", "y"]), unique=True))
        if choice == "locked":
            return frame(names, component, {"l": ("y",)})
        return frame(names)

    def moves(component):
        choice = draw(st.sampled_from(["none", "machine", "outside"]))
        if choice == "none":
            return None
        own = own_moves(concrete, component)
        if choice == "machine":
            return own
        return lambda s: (*own(s), s.assign({"x": 9}))

    def abstract_relation():
        choice = draw(st.sampled_from(["total", "table", "avoid"]))
        if choice == "total":
            return total_relation
        if choice == "table":
            return dense_table(ABSTRACT_STATES, ABSTRACT_STATES, 0.2)
        avoided = draw(st.sampled_from(ABSTRACT_STATES))
        return lambda a, a2: a2 != avoided

    def abstract_moves():
        if draw(st.booleans()):
            return None
        targets = (*draw(st.lists(st.sampled_from(ABSTRACT_STATES),
                                  max_size=2, unique=True)),
                   State({"x": 7}))
        return lambda a: targets

    components = ["p", "q"] + (["r"] if draw(st.booleans()) else [])
    rg = RelyGuaranteeSpec(
        contracts={c: ComponentContract(
            rely=relation("rely", c), guarantee=relation("guarantee", c),
            abstract_rely=abstract_relation(),
            abstract_guarantee=abstract_relation(),
            guarantee_moves=moves(c),
            abstract_guarantee_moves=abstract_moves())
            for c in components},
        component_of=component_prefix)
    if projected:
        extra = dense_table(CONCRETE_STATES, ABSTRACT_STATES, 0.9)
        alpha = lambda c, a: c["x"] == a["x"] or extra(c, a)  # noqa: E731
    else:
        alpha = dense_table(CONCRETE_STATES, ABSTRACT_STATES, 0.25)
    budget = draw(st.one_of(st.none(), st.integers(1, 8)))
    pair = RefinementPair(concrete, abstract, Alpha(alpha, "table"),
                          Zeta(zeta))
    return pair, rg, budget


def breaks_a_concrete_rely(pair, rg, pairs):
    """Whether a step from one of `pairs` breaks the concrete rely of a
    component other than the one that takes it."""
    machine = pair.concrete.machine
    return any(not rg.contracts[other].rely(s, successor)
               for s, _ in pairs for action in machine.actions
               for successor in machine.step(s, action)
               for other in rg.contracts if other != rg.component(action))


def leaves_alpha_silently(pair, pairs):
    """Whether a silent step from one of `pairs` reaches a state alpha
    does not relate to the pair's abstract state."""
    machine = pair.concrete.machine
    return any(not pair.alpha.holds(successor, sigma)
               for s, sigma in pairs for action in machine.actions
               if pair.zeta.map(action) is TAU
               for successor in machine.step(s, action))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(generated_pairs())
def test_id_refinement_matches_state_oracles(example):
    """The joint search (pairs, traces, verdicts), c6, the simulation
    report and the lemma report, or the BudgetError text, equal the
    State-keyed oracles' on generated pairs; every failing lemma
    replays.

    Lemma 4 checks no witnessed concrete move, so a step that breaks
    another component's concrete rely must fail lemma 3; a silent step
    that leaves alpha must fail lemma 1, whatever lemma 3 says; and
    passing lemmas must imply the joint step conditions."""
    pair, rg, budget = example
    joint, lemmas = assert_matches_oracles(pair, rg, budget)
    if isinstance(lemmas, CompositionalReport):
        for name, verdict in lemmas.lemmas().items():
            if verdict.status == "fail":
                assert lemma_violated(pair, rg, name, verdict.witness)
        if breaks_a_concrete_rely(pair, rg, joint.pairs):
            assert lemmas.lemma3.status == "fail"
        if joint.c1.ok and leaves_alpha_silently(pair, joint.pairs):
            assert lemmas.lemma1.status == "fail"
        assert lemmas.cross_check.status != "fail"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(generated_pairs())
def test_generated_pair_rows_are_probed_tables(example):
    pair, _, _ = example
    for level in (pair.concrete, pair.abstract):
        assert_rows_are_probed_tables(level.machine)


@pytest.mark.parametrize("name", model_names())
def test_id_refinement_matches_state_oracles_on_builtins(name):
    bundle = get_model(name)
    assert_matches_oracles(bundle.pair, bundle.rely_guarantee)


def janitor_rely(template: str) -> str:
    """`pair:` lines relying on exactly the janitor's steps, which flip y."""
    return "".join("pair: " + template.format(x=x, y=y, z=1 - y) + "\n"
                   for x in (0, 1) for y in (0, 1))


@pytest.mark.parametrize("text", [
    PAIR, PAIR_BAD_GUARANTEE,
    pair_with_worker_rely(janitor_rely("x={x};y={y} ~ x={x};y={z}")),
    pair_with_worker_rely(janitor_rely("y={y};x={x} ~ y={z};x={x}")),
    pair_with_worker_rely("pair: x=0;y=0 ~ x=0;y=1\n"),
], ids=["pair", "bad-guarantee", "rely-pairs", "rely-pairs-reordered",
        "rely-one-pair"])
def test_id_refinement_matches_state_oracles_on_model_files(tmp_path, text):
    for name, body in (("concrete.ifs", CONCRETE), ("abstract.ifs", ABSTRACT),
                       ("pair.ifs", text)):
        (tmp_path / name).write_text(body, encoding="utf-8")
    pair, rg = elaborate_refinement(
        load_refinement(str(tmp_path / "pair.ifs")), str(tmp_path))
    assert_matches_oracles(pair, rg)


# ---------------------------------------------------------------------------
# Keyed alphas: key classes per state id, against the predicates the
# built-ins had before their alphas were keyed
# ---------------------------------------------------------------------------

#: The three-thread counter takes seconds to build; its alpha is the
#: same code on two threads.
SIZES = {"demo-insecure-counter": {"threads": 2}}


def _oracle_pc_event(value):
    return None if value == IDLE else str(value).split("#", 1)[0]


def _oracle_aligned(c, a):
    """Both levels sit inside the same event on every component."""
    return all(_oracle_pc_event(c[var]) == _oracle_pc_event(a[var])
               for var in c.names if var.startswith("pc."))


def _oracle_demo(c, a):
    for t in [var[4:] for var in c.names if var.startswith("que.")]:
        que, obq, lock, cnt = f"que.{t}", f"obq.{t}", f"lock.{t}", f"cnt.{t}"
        if a[que] != c[obq]:
            return False
        if c[lock] is None and c[que] != c[obq]:
            return False
        if cnt in c and a[cnt] != c[cnt]:
            return False
    return _oracle_aligned(c, a)


def _oracle_arinc(c, a):
    for var in c.names:
        if var.startswith(("cur.", "st.")) and a[var] != c[var]:
            return False
    for ch in [var[5:] for var in c.names if var.startswith("qbuf.")]:
        qbuf, obuf, qlock = f"qbuf.{ch}", f"obuf.{ch}", f"qlock.{ch}"
        if a[qbuf] != c[obuf]:
            return False
        if c[qlock] is None and c[qbuf] != c[obuf]:
            return False
    return _oracle_aligned(c, a)


def _oracle_auction(c, a):
    for var in ("status", "reserve", "sealed", "res"):
        if a[var] != c[var]:
            return False
    if a["log"] != c["oblog"] or a["maxbid"] != c["obid"]:
        return False
    if c["lock"] is None and (c["log"] != c["oblog"]
                              or c["maxbid"] != c["obid"]):
        return False
    if a["res"] is not None:
        ok = (a["status"] == "closed"
              and a["res"] == ledger_max(a["log"])
              and a["res"][1] > a["reserve"])
        if not ok:
            return False
    return _oracle_aligned(c, a)


ALPHA_ORACLES = {"demo": _oracle_demo, "arinc": _oracle_arinc,
                 "auction": _oracle_auction}

#: The most (concrete, abstract) pairs a built-in's alpha is checked on.
MAX_ALPHA_PAIRS = 50_000


@pytest.mark.parametrize("name", model_names())
def test_keyed_alpha_matches_the_predicate_it_replaced(name):
    """On the reachable product of a built-in's two levels, the keyed
    alpha's `holds` and `on_ids` equal the old predicate. A product of
    more than `MAX_ALPHA_PAIRS` pairs is checked on whole rows: every
    k-th concrete state against every abstract state, so that a row
    keeps the related pairs and their near misses."""
    bundle = get_model(name, **SIZES.get(name, {}))
    oracle = ALPHA_ORACLES[name.split("-")[0]]
    alpha = bundle.pair.alpha
    mc, ma = bundle.concrete.machine, bundle.abstract.machine
    related = alpha.on_ids(mc, ma)
    stride = -(-len(mc.state_ids) * len(ma.state_ids) // MAX_ALPHA_PAIRS)
    rows = mc.state_ids[::stride]
    assert len(rows) * len(ma.state_ids) <= MAX_ALPHA_PAIRS
    found = 0
    for i in rows:
        c = mc.by_id[i]
        for a in ma.state_ids:
            want = oracle(c, ma.by_id[a])
            assert alpha.holds(c, ma.by_id[a]) is want, (c, ma.by_id[a])
            assert related(i, a) is want, (c, ma.by_id[a])
            if want:
                found += 1
                # Reachable unlocked buffers are clean, so the guard
                # shows only on a state dirtied by hand.
                dirty = _dirtied(c)
                assert not oracle(dirty, ma.by_id[a])
                assert not alpha.holds(dirty, ma.by_id[a])
                if "res" in c:
                    # Nor is a result that no closed auction publishes.
                    bogus = {"res": ("nobody", -1)}
                    assert not oracle(c.assign(bogus), ma.by_id[a].assign(bogus))
                    assert not alpha.holds(c.assign(bogus),
                                           ma.by_id[a].assign(bogus))
    assert found


def _dirtied(c):
    """`c` with its first lock released and the buffer it guards
    changed away from the buffer's committed copy."""
    for buffer in c.names:
        for prefix, lock in (("que.", "lock."), ("qbuf.", "qlock."),
                             ("log", "lock")):
            if buffer.startswith(prefix):
                lock += buffer[len(prefix):]
                return c.assign({lock: None, buffer: (*c[buffer], "dirty")})
    raise AssertionError(f"no guarded buffer in {c}")


def _load_pair_file(tmp_path, text):
    for name, body in (("concrete.ifs", CONCRETE), ("abstract.ifs", ABSTRACT),
                       ("pair.ifs", text)):
        (tmp_path / name).write_text(body, encoding="utf-8")
    return elaborate_refinement(
        load_refinement(str(tmp_path / "pair.ifs")), str(tmp_path))


@pytest.mark.parametrize("name", [*model_names(), "pair.ifs"])
def test_alpha_keys_run_once_per_level_and_state(tmp_path, name):
    """`check_simulation` then `check_compositional` on one pair call
    each level's key at most once per state: the joint search, the
    lemmas and the steps of unexpanded pairs all read the key classes.
    `pair.ifs` relates its levels by a `match:` line."""
    if name == "pair.ifs":
        pair, rg = _load_pair_file(tmp_path, PAIR)
    else:
        bundle = get_model(name, **SIZES.get(name, {}))
        pair, rg = bundle.pair, bundle.rely_guarantee
    calls: Counter = Counter()

    def counted(key, level):
        def key_of(state):
            calls[level, state] += 1
            return key(state)

        return key_of

    alpha = pair.alpha
    pair = replace(pair, alpha=Alpha.keyed(
        counted(alpha.concrete_key, "concrete"),
        counted(alpha.abstract_key, "abstract"), alpha.description))
    check_simulation(pair)
    check_compositional(pair, rg)
    assert calls and max(calls.values()) == 1


def test_alpha_on_ids_answers_as_holds_for_every_kind(tmp_path):
    """A predicate, a `pair:` table and a `match:` key on the ids of the
    `PAIR` levels give what `holds` gives on their states."""
    by_match, _ = _load_pair_file(tmp_path, PAIR)
    mc, ma = by_match.concrete.machine, by_match.abstract.machine
    table = Alpha.from_pairs(
        (c, a) for c in mc.states for a in ma.states if c["x"] == a["x"])
    predicate = Alpha(lambda c, a: c["y"] == a["x"], "y matches x")
    for alpha in (by_match.alpha, table, predicate):
        related = alpha.on_ids(mc, ma)
        assert alpha.on_ids(mc, ma) is related
        for i in mc.state_ids:
            for a in ma.state_ids:
                assert related(i, a) == alpha.holds(mc.by_id[i], ma.by_id[a])


def test_a_key_of_none_relates_to_nothing():
    s = State({"x": 0})
    machine = StateMachine((s,), (), {}, s)
    nothing = Alpha.keyed(lambda c: None, lambda a: None, "nothing")
    assert not nothing.holds(s, s)
    assert not nothing.on_ids(machine, machine)(0, 0)
    equal = Alpha.keyed(lambda c: c["x"], lambda a: a["x"], "equal x")
    assert equal.holds(s, s) and equal.on_ids(machine, machine)(0, 0)


# ---------------------------------------------------------------------------
# Positions per schema: frames, keys and file observations read values
# through `core.layout`, which runs a layout once per schema
# ---------------------------------------------------------------------------

class _CountedLayouts(dict):
    """A schema's layout table that counts what it stores and finds."""

    runs: Counter = Counter()
    hits: Counter = Counter()

    def get(self, make, default=None):
        if make in self:
            self.hits[make] += 1
        return super().get(make, default)

    def __setitem__(self, make, made):
        self.runs[make] += 1
        super().__setitem__(make, made)


def _layout_kind(make) -> str:
    """`frame` for a frame's layout, `key` for a built-in key's, `values`
    for a `values_getter`'s (a file's alpha keys and observations)."""
    name = getattr(make, "func", make).__qualname__
    if name.startswith(("frame_rely.", "frame_guarantee.")):
        return "frame"
    return {"_pc_view": "key", "values_getter": "values"}[name]


@pytest.mark.parametrize("name,frames,keys", [
    ("demo", 6, 2), ("pair.ifs", 4, 0)])
def test_each_layout_runs_once_per_schema(monkeypatch, tmp_path, name,
                                          frames, keys):
    """Across `check_simulation` then `check_compositional`, each frame
    and key layout runs once on the one schema of its level. Every later
    key and observation call finds it there; a frame keeps the positions
    of the last schema it met, so it never looks them up again.
    `demo` (capacity 2) has a rely and a
    guarantee frame per thread and a pc key per level; `pair.ifs` has
    two `keeps:` and two `may:` frames, and its two `match:` keys and
    four observations (two domains per level) read through
    `values_getter`."""
    init = core._Schema.__init__

    def counted_init(schema, names):
        init(schema, names)
        schema.layouts = _CountedLayouts()

    monkeypatch.setattr(core._Schema, "__init__", counted_init)
    monkeypatch.setattr(_CountedLayouts, "runs", Counter())
    monkeypatch.setattr(_CountedLayouts, "hits", Counter())
    if name == "pair.ifs":
        pair, rg = _load_pair_file(tmp_path, PAIR)
    else:
        bundle = get_model(name, capacity=2)
        pair, rg = bundle.pair, bundle.rely_guarantee
    check_simulation(pair)
    check_compositional(pair, rg)
    runs, hits = _CountedLayouts.runs, _CountedLayouts.hits
    kinds = Counter(_layout_kind(make) for make in runs)
    assert (kinds["frame"], kinds["key"]) == (frames, keys)
    assert kinds["values"] == (0 if keys else 6)
    assert set(runs.values()) == {1}
    assert all(bool(hits[make]) is (_layout_kind(make) != "frame")
               for make in runs)


@pytest.mark.parametrize("read", [
    lambda state: frame_rely(["gone"])(state, state),
    pc_key(["t"], ["gone"]),
    buffer_alpha(["t"], [], [("gone", "copy", "lock")], "b").concrete_key,
    values_getter(["pc.t", "gone"]),
], ids=["frame", "pc-key", "buffer-key", "values"])
def test_a_missing_variable_is_one_usage_error(read):
    # A key reads its positions through the same layout as a frame, so a
    # schema without a variable it reads fails the same way.
    state = State({"pc.t": IDLE, "copy": (), "lock": None})
    with pytest.raises(UsageError) as error:
        read(state)
    assert str(error.value) == "state has no variable 'gone'"
