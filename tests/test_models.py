"""Bundled models: registry plumbing, pinned shapes, reachable invariants.

Action counts are frozen against the event tables written out by hand
(events times steps per event); a count drift means an event body or a
guard changed shape. Fingerprints pin each built-in machine whole, down
to every domain's observation of every state, so a refactor of the
builders that changes any model fails here. Heavyweight verdicts on the default model sizes
live in the acceptance suite; here the insecure demo variants are pinned
on two threads, where every checker runs in milliseconds.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import ifsec
from ifsec.core import (BudgetError, ModelError, State, UsageError, render_value,
                        replace)
from ifsec.models import (
    build_arinc,
    build_auction,
    build_demo,
    component_of,
    get_model,
    model_names,
)
from ifsec.models.auction import ledger_max
from ifsec.models.common import compile_levels
from ifsec.programs import Await, Basic, Event, seq
from ifsec.refinement import TAU, _steps, check_simulation, joint_explore
from ifsec.unwinding import check_unwinding


# --- registry -----------------------------------------------------------

def test_registry_names_and_order():
    assert model_names() == (
        "demo", "demo-insecure-counter", "demo-insecure-fullstatus",
        "arinc", "arinc-queuing-mode", "arinc-port-id", "auction",
    )


def test_registry_builds_what_it_advertises():
    for name in ("demo", "arinc", "auction"):
        assert get_model(name).rely_guarantee is not None


def test_unknown_model_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown model"):
        get_model("demo-secure")


def test_unknown_parameter_is_a_usage_error():
    with pytest.raises(UsageError, match="does not take parameter"):
        get_model("arinc", threads=2)


def test_budget_bounds_the_build():
    with pytest.raises(BudgetError, match="budget of 100 states"):
        get_model("demo-insecure-counter", budget=100)
    assert get_model("demo", budget=10_000, threads=2).pair.concrete


def test_parameters_reach_the_builder():
    bundle = get_model("demo", threads=2)
    assert ("threads", 2) in bundle.params


# --- the pair on demand --------------------------------------------------

@pytest.mark.parametrize("name", model_names())
def test_pair_and_contracts_come_from_one_link_call(name):
    # Two threads keep the counter variant small.
    built = get_model(name, **({"threads": 2} if name.startswith("demo")
                               else {}))
    calls = []

    def link():
        calls.append(name)
        return built.link()

    bundle = replace(built, link=link)
    assert calls == []
    assert bundle.rely_guarantee is bundle.rely_guarantee
    assert bundle.pair is bundle.pair
    assert bundle.pair.concrete is bundle.concrete
    assert bundle.pair.abstract is bundle.abstract
    assert calls == [name]


def test_levels_alone_leave_refinement_lazy():
    src = os.path.dirname(os.path.dirname(ifsec.__file__))
    script = ("import sys\n"
              "from ifsec.models import get_model\n"
              "get_model('demo').concrete\n"
              "print(type(sys.modules['ifsec.refinement']).__name__)")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["_LazyModule"]


# --- pinned action counts ------------------------------------------------

COUNTS = {
    # name: (abstract actions, concrete actions)
    "demo": (12, 24),
    "demo-insecure-counter": (18, 36),
    "demo-insecure-fullstatus": (12, 24),
    "arinc": (14, 18),
    "arinc-queuing-mode": (14, 18),
    "arinc-port-id": (16, 22),
    "auction": (14, 22),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_action_counts_are_stable(name):
    if name == "demo-insecure-counter":
        pytest.skip("three-thread counter build is covered by the acceptance suite")
    bundle = get_model(name)
    abstract, concrete = COUNTS[name]
    assert len(bundle.abstract.machine.actions) == abstract
    assert len(bundle.concrete.machine.actions) == concrete


def test_counter_action_counts_on_two_threads():
    bundle = build_demo(threads=2, variant="insecure_counter")
    assert len(bundle.abstract.machine.actions) == 8
    assert len(bundle.concrete.machine.actions) == 18


def fingerprint(bundle) -> str:
    """SHA-256 over both levels, whatever the id order: the states by
    serialization, the actions, each action's steps as pairs of a
    serialized state and its serialized successors in stored order, the
    initial and the reachable states, each action's domain, the policy,
    and every domain's rendered observation of every state."""
    digest = hashlib.sha256()
    for system in (bundle.concrete, bundle.abstract):
        machine, config = system.machine, system.config
        serial = [state.serialize() for state in machine.by_id]
        states = sorted(machine.by_id, key=State.serialize)
        digest.update(repr((
            sorted(serial),
            [action.display() for action in machine.actions],
            [sorted((serial[i], tuple(serial[j] for j in successors))
                    for i, successors in table.items())
             for table in machine.successor_ids],
            serial[machine.initial_id],
            sorted(serial[i] for i in machine.state_ids),
            [config.dom[action] for action in machine.actions],
            config.domains, sorted(config.policy),
            [[render_value(config.observe(d, state)) for state in states]
             for d in config.domains],
        )).encode())
    return digest.hexdigest()


#: (name, params) -> fingerprint of the bundle `get_model` builds. A
#: change to any event body, guard, observation or policy moves one; a
#: change to the id numbering alone moves none.
FINGERPRINTS = {
    ("demo", ()):
        "fe1ee941f3dfe77edcef001cac46bb72d503ec62ba0cbc758eb69de9d4e8beeb",
    ("demo-insecure-counter", (("threads", 2),)):
        "5101f1851a8e82e825df6bb697407557120fc95b3d037eb6b13f5a15b4cd6dbe",
    ("demo-insecure-fullstatus", ()):
        "ebb826785d78f1f9e079184f80a412f36d540127183e77bf203956c8cca86a76",
    ("arinc", ()):
        "51c168246b515003b8c58916780443422df6848f8041c4e6bc33c0e4e1410de2",
    ("arinc-queuing-mode", ()):
        "673d95801658b6f8d2a867aa8cd69755f3c51d1a9dd70b3ba448fd2b20f519c8",
    ("arinc-port-id", ()):
        "bab47a40426953d821d5e8bf5a16832ea5e9d1f0691c60b7d69d308973c66ba2",
    ("auction", ()):
        "36c12264a292e6a46a9c4b790f0dcf7c3cb2742690d8f5206b3d3896a8a34c67",
    ("demo", (("capacity", 2),)):
        "199253af36f9d13d2353915bb2a9691232485e9ffc49c3be7839a9936a716f51",
    ("arinc", (("capacity", 2),)):
        "dc541a642a124ec81420eabafdd7037c8670c37f164320e7720e7317b0c90f73",
    ("auction", (("users", 3),)):
        "c9251e191bec9749c91c9a92ebfac319235e57d904c3ecd44550e17fdf13d615",
}


@pytest.mark.parametrize("name, params", sorted(FINGERPRINTS),
                         ids=lambda value: value if isinstance(value, str)
                         else ",".join(f"{k}={v}" for k, v in value) or "defaults")
def test_machines_are_pinned(name, params):
    assert fingerprint(get_model(name, **dict(params))) \
        == FINGERPRINTS[name, params]


def zeta_fingerprint(bundle) -> str:
    """SHA-256 over the sorted (concrete action, image or "tau") pairs
    of the bundle's zeta."""
    zeta = bundle.pair.zeta
    pairs = sorted((action.display(), "tau" if zeta.is_silent(action)
                    else zeta.map(action).display())
                   for action in bundle.concrete.machine.actions)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


#: (name, params) -> fingerprint of the bundle's zeta, keyed as
#: FINGERPRINTS. A change to which concrete step maps to which abstract
#: step moves one.
ZETAS = {
    ("demo", ()):
        "4798fa9ed2eac92a97d9ddfda28d48f22231dbb2ad3292ef1a1ad10bab4cbdb3",
    ("demo-insecure-counter", (("threads", 2),)):
        "281df42b4d8c283bd2f2cbbf2f6f54a85069dc2e416b38a7a20fa1ad6411c7c8",
    ("demo-insecure-fullstatus", ()):
        "4798fa9ed2eac92a97d9ddfda28d48f22231dbb2ad3292ef1a1ad10bab4cbdb3",
    ("arinc", ()):
        "79262bf145186c6f954e49ed646d4e0f714f09bdce2ffa3e81aa40f0b0dddf4f",
    ("arinc-queuing-mode", ()):
        "79262bf145186c6f954e49ed646d4e0f714f09bdce2ffa3e81aa40f0b0dddf4f",
    ("arinc-port-id", ()):
        "dbc8b929eee4a0e4132f701e642af0661777e7820a58db3ed4c3ed7c90b74cbb",
    ("auction", ()):
        "032b5e404fecee47721fc0b9332c3fb8ae01711bd60d55b163d4d397ed4ae9a0",
    ("demo", (("capacity", 2),)):
        "4798fa9ed2eac92a97d9ddfda28d48f22231dbb2ad3292ef1a1ad10bab4cbdb3",
    ("arinc", (("capacity", 2),)):
        "79262bf145186c6f954e49ed646d4e0f714f09bdce2ffa3e81aa40f0b0dddf4f",
    ("auction", (("users", 3),)):
        "3435f22e44d24d62f08b5753e8a54505a65e9e8a84e7c4b4f044e51107b5930d",
}


def test_zetas_are_keyed_as_the_machines():
    assert sorted(ZETAS) == sorted(FINGERPRINTS)


@pytest.mark.parametrize("name, params", sorted(ZETAS),
                         ids=lambda value: value if isinstance(value, str)
                         else ",".join(f"{k}={v}" for k, v in value) or "defaults")
def test_zetas_are_pinned(name, params):
    assert zeta_fingerprint(get_model(name, **dict(params))) \
        == ZETAS[name, params]


def test_builds_are_deterministic():
    first = build_demo()
    second = build_demo()
    assert first.concrete.machine.states == second.concrete.machine.states
    assert first.concrete.machine.actions == second.concrete.machine.actions
    assert first.abstract.machine.states == second.abstract.machine.states


# --- zeta from the event pairs -------------------------------------------

def bump(label: str) -> Basic:
    return Basic(lambda s: {"x": (s["x"] + 1) % 3}, label)


def one_event(concrete_body, abstract_body):
    """Both levels of a one-component model with one event "e"."""
    def always(s):
        return True

    pair = (Event("e", always, concrete_body, "d"),
            Event("e", always, abstract_body, "d"))
    return compile_levels(("c",), {"c": [pair]}, ({"x": 0}, {"x": 0}),
                          (lambda d, s: s["x"],) * 2, ("d",), {("d", "d")},
                          None)


def test_zeta_maps_the_commit_to_the_abstract_step():
    concrete, abstract, zeta = one_event(
        seq(bump("first"), bump("commit")), bump("step"))
    actions = {a.label: a for a in abstract.machine.actions}
    assert {a.label: zeta().map(a) for a in concrete.machine.actions} == {
        "c/e/invoke": actions["c/e/invoke"],
        "c/e/first": TAU,
        "c/e/commit": actions["c/e/step"],
    }


def test_an_abstract_event_takes_exactly_one_step():
    with pytest.raises(ModelError, match="c/e takes 2 steps"):
        one_event(bump("commit"), seq(bump("one"), bump("two")))


def test_a_commit_the_abstract_machine_never_offers_is_a_model_error():
    _, _, zeta = one_event(
        bump("commit"), Await(lambda s: False, bump("claim"), "step"))
    with pytest.raises(ModelError, match="'c/e/commit' to 'c/e/step', "
                       "which the abstract machine does not offer"):
        zeta()


# --- parameter validation ------------------------------------------------

def test_demo_parameter_ranges():
    for kwargs in ({"threads": 1}, {"threads": 4}, {"capacity": 0},
                   {"capacity": 3}, {"messages": 0}, {"messages": 3},
                   {"variant": "leaky"}):
        with pytest.raises(UsageError):
            build_demo(**kwargs)


def test_arinc_parameter_ranges():
    with pytest.raises(UsageError):
        build_arinc(capacity=0)
    with pytest.raises(UsageError):
        build_arinc(variant="mystery")


def test_auction_parameter_ranges():
    for kwargs in ({"users": 0}, {"users": 4}):
        with pytest.raises(UsageError):
            build_auction(**kwargs)


# --- reachable-state invariants ------------------------------------------

def test_demo_lock_discipline_holds_in_every_reachable_state():
    bundle = build_demo()
    threads = ("t1", "t2", "t3")
    saw_held = False
    for s in bundle.concrete.machine.states:
        for t in threads:
            assert len(s[f"que.{t}"]) <= 1
            if s[f"lock.{t}"] is None:
                assert s[f"que.{t}"] == s[f"obq.{t}"]
            else:
                saw_held = True
    assert saw_held, "no reachable state has a lock held mid-send"


def test_arinc_scheduling_invariants():
    bundle = build_arinc()
    for s in bundle.concrete.machine.states:
        assert len(s["qbuf.ch1"]) <= 1
        if s["qlock.ch1"] is None:
            assert s["qbuf.ch1"] == s["obuf.ch1"]
        cur1, cur2 = s["cur.sched1"], s["cur.sched2"]
        if cur1 is not None:
            assert s[f"st.{cur1}"] == "run"
        if cur2 is not None:
            assert s[f"st.{cur2}"] == "run"


def test_auction_ledger_tracks_its_maximum():
    bundle = build_auction()
    rollback_window = False
    for s in bundle.concrete.machine.states:
        assert s["maxbid"] == ledger_max(s["log"])
        assert s["obid"] == ledger_max(s["oblog"])
        if s["lock"] is None:
            assert s["log"] == s["oblog"]
        if s["lock"] is not None and s["status"] == "closed":
            rollback_window = True
    assert rollback_window, "no reachable state closes the auction mid-registration"


def test_auction_published_result_is_valid():
    bundle = build_auction()
    published = 0
    for s in bundle.concrete.machine.states:
        if s["res"] is None:
            continue
        published += 1
        assert s["status"] == "closed"
        assert s["res"] == ledger_max(s["log"])
        assert s["res"][1] > s["reserve"]
    assert published > 0, "no reachable state publishes a result"


# --- variant verdicts (small instances) -----------------------------------

def test_counter_variant_fails_the_silent_step_condition_at_the_bump():
    bundle = build_demo(threads=2, variant="insecure_counter")
    report = check_simulation(bundle.pair)
    assert not report.ok
    assert report.c2.status == "fail"
    witness = report.c2.witness
    assert witness.action.label == "t1/send(t2,m1)/incr"
    assert [a.label for a in witness.trace] == [
        "t1/send(t2,m1)/invoke", "t1/send(t2,m1)/incr"]


def test_fullstatus_variant_fails_unwinding_at_the_receivers_dequeue():
    bundle = build_demo(variant="insecure_fullstatus")
    concrete = check_unwinding(bundle.concrete)
    assert not concrete.ok
    assert concrete.lr.action.label == "t1/recv/dequeue"
    assert concrete.lr.domain == "t3"
    abstract = check_unwinding(bundle.abstract)
    assert not abstract.ok
    assert abstract.lr.action.label == "t1/recv/recv"
    assert abstract.lr.domain == "t3"


def test_fullstatus_variant_breaks_view_consistency():
    bundle = build_demo(variant="insecure_fullstatus")
    report = check_simulation(bundle.pair)
    assert not report.ok
    assert report.c6.status == "fail"
    assert report.c6.witness.domain == "t1"


def test_queuing_mode_variant_leaks_to_the_sender():
    bundle = build_arinc(variant="queuing_mode")
    for system in (bundle.concrete, bundle.abstract):
        report = check_unwinding(system)
        assert not report.ok
        assert report.lr.action.label == "cpu2/Recv_QMsg(pd)/dequeue"
        assert report.lr.domain == "p11"


def test_port_id_variant_leaks_through_the_foreign_port():
    bundle = build_arinc(variant="port_id")
    concrete = check_unwinding(bundle.concrete)
    assert concrete.lr.action.label == "cpu1/Send_QMsg(ps,m1)@p12/unlock"
    assert concrete.lr.domain == "p21"
    abstract = check_unwinding(bundle.abstract)
    assert abstract.lr.action.label == "cpu1/Send_QMsg(ps,m1)@p12/enqueue"
    assert abstract.lr.domain == "p21"


def test_secure_bundles_pass_simulation():
    for name in ("arinc", "auction"):
        report = check_simulation(get_model(name).pair)
        assert report.ok, name


# --- guarantee moves -------------------------------------------------------

def own_moves(system, component):
    """A guarantee-move enumerator for tests that declare one: the
    successors of the component's own actions, by `step`, sorted as
    states."""
    machine = system.machine
    own = [a for a in machine.actions if component_of(a) == component]
    return lambda state: tuple(sorted(
        {t for action in own for t in machine.step(state, action)}))


@pytest.mark.parametrize("name", model_names())
def test_machine_moves_match_the_state_enumerator(name):
    # The built-in contracts declare no guarantee-move enumerator, so a
    # component's moves are the steps the compositional check records
    # for it from every discovered pair: they must be exactly the
    # successors the state enumerator gives. The insecure counter is
    # checked on two threads, as above.
    params = {"threads": 2} if name == "demo-insecure-counter" else {}
    bundle = get_model(name, **params)
    pair, rg = bundle.pair, bundle.rely_guarantee
    assert all(c.guarantee_moves is None for c in rg.contracts.values())
    machine = pair.concrete.machine
    exploration = joint_explore(pair)
    components = tuple(sorted(rg.contracts))
    recorded: dict[str, dict[int, set[int]]] = {k: {} for k in components}
    for node, x, j, _ in _steps(pair, exploration.search):
        recorded[rg.component(machine.actions[x])].setdefault(
            node // exploration.width, set()).add(j)
    discovered = sorted({node // exploration.width
                         for node in exploration.nodes})
    assert discovered
    for component in components:
        oracle = own_moves(pair.concrete, component)
        for i in discovered:
            moves = tuple(sorted((machine.by_id[j] for j
                                  in recorded[component].get(i, ())),
                                 key=State.serialize))
            assert moves == oracle(machine.by_id[i])
