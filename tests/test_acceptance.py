"""End-to-end acceptance: the verdicts a release must reproduce.

One test per criterion, so a verbose run prints one pass/fail line for
each. CLI criteria go through the real entry point and its JSON
reports; library criteria call the checkers directly. The expected
witnesses are the canonical ones pinned by the per-module suites; here
they are re-asserted at shipped scale together with the stated time
budgets.

The secure/insecure verdict table behind these asserts:

  demo                      all checks pass at every level
  demo-insecure-counter     silent-step condition fails at the counter
                            bump; unwinding fails at the rollback step
  demo-insecure-fullstatus  local respect fails at the receiver's
                            dequeue, observed by the sender
  arinc                     all checks pass at every level
  arinc-queuing-mode        local respect fails at the receiving
                            partition's dequeue, observed by the sender
  arinc-port-id             local respect fails at a send issued on
                            another partition's port
  auction                   all checks pass; results appear only after
                            the auction closes
"""

import json
import random
import time
from functools import lru_cache

from ifsec.cli import main
from ifsec.core import ActionId, InfoFlowConfig, replace
from ifsec.models import build_demo, get_model
from ifsec.models.auction import ledger_max
from ifsec.noninterference import (
    check_ni,
    ipurge,
    sources,
    validate_unwinding_theorem,
)
from ifsec.refinement import (
    RefinementPair,
    RelyGuaranteeSpec,
    Zeta,
    check_compositional,
    check_simulation,
)
from ifsec.unwinding import check_unwinding
from test_models import own_moves

SECURE_MODELS = ("demo", "arinc", "auction")
INSECURE_MODELS = ("demo-insecure-counter", "demo-insecure-fullstatus",
                   "arinc-queuing-mode", "arinc-port-id")


@lru_cache(maxsize=None)
def bundle(name: str):
    return get_model(name)


def cli_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


def checks_by_name(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


def action_named(system, label: str) -> ActionId:
    assert system.machine.has_action(label)
    return label


def test_c01_secure_pipeline_passes_within_a_minute(capsys):
    started = time.monotonic()
    code, report, _ = cli_json(capsys, "check", "refine", "demo")
    assert code == 0
    named = checks_by_name(report)
    for name in ("c1", "c2", "c3", "c4", "c5", "c6", "refinement",
                 "cross-check", "concrete-lr", "concrete-sc",
                 "abstract-lr", "abstract-sc"):
        assert named[name]["status"] == "pass", name

    code, report, _ = cli_json(capsys, "check", "ni", "demo")
    assert code == 0
    named = checks_by_name(report)
    assert named["concrete-ni"]["status"] == "pass"
    assert named["abstract-ni"]["status"] == "pass"
    assert named["concrete-ni"]["note"] == "all traces up to length 4"

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"secure pipeline took {elapsed:.1f}s"


def test_c02_counter_leak_fails_the_silent_step_and_replays(capsys, tmp_path):
    code, report, out = cli_json(capsys, "check", "refine",
                                 "demo-insecure-counter")
    assert code == 1
    c2 = checks_by_name(report)["c2"]
    assert c2["status"] == "fail"
    witness = c2["witness"]
    assert witness["type"] == "c2"
    assert witness["trace"][-1].endswith("/incr")
    assert witness["action"] == witness["trace"][-1]

    path = tmp_path / "counter.json"
    path.write_text(out, encoding="utf-8")
    code = main(["replay", str(path)])
    replay_out = capsys.readouterr().out
    assert code == 0
    assert "reproduced c2" in replay_out
    assert witness["action"] in replay_out


def test_c03_fullness_flags_leak_the_receivers_dequeue_to_the_sender(capsys):
    started = time.monotonic()
    expected = (
        ("demo-insecure-fullstatus", "t1/recv/dequeue", "t1", "t3"),
        ("arinc-queuing-mode", "cpu2/Recv_QMsg(pd)/dequeue", "p21", "p11"),
    )
    for target, label, receiver, sender in expected:
        code, report, _ = cli_json(capsys, "check", "unwinding", target)
        assert code == 1, target
        lr = checks_by_name(report)["concrete-lr"]
        assert lr["status"] == "fail"
        witness = lr["witness"]
        assert witness["type"] == "lr"
        assert witness["action"] == label
        assert witness["domain"] == sender

        config = bundle(target).concrete.config
        acting = config.domain_of(action_named(bundle(target).concrete,
                                               label))
        assert acting == receiver
        assert config.allows(sender, receiver)
        assert not config.allows(receiver, sender)

    elapsed = time.monotonic() - started
    assert elapsed < 120, f"fullness-flag checks took {elapsed:.1f}s"


def test_c04_foreign_port_send_fails_local_respect(capsys):
    started = time.monotonic()
    code, report, _ = cli_json(capsys, "check", "unwinding", "arinc-port-id")
    assert code == 1
    lr = checks_by_name(report)["concrete-lr"]
    assert lr["status"] == "fail"
    witness = lr["witness"]
    assert witness["action"] == "cpu1/Send_QMsg(ps,m1)@p12/unlock"
    assert witness["domain"] == "p21"
    # The label records a send on port ps (owned by p11) issued by p12:
    # a cross-partition port action.
    assert "@p12" in witness["action"] and "(ps," in witness["action"]
    config = bundle("arinc-port-id").concrete.config
    acting = config.domain_of(
        action_named(bundle("arinc-port-id").concrete, witness["action"]))
    assert acting == "p12"
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"port-id check took {elapsed:.1f}s"


def test_c05_unwinding_pass_entails_bounded_ni_with_zero_alarms():
    for name in SECURE_MODELS:
        b = bundle(name)
        for level, system in (("concrete", b.concrete),
                              ("abstract", b.abstract)):
            cross = validate_unwinding_theorem(system, 4)
            assert cross.unwinding_ok, (name, level)
            assert cross.ni_ok, (name, level)
            assert not cross.alarm, (name, level)

    for name in INSECURE_MODELS:
        b = bundle(name)
        concrete_ok = check_unwinding(b.concrete).ok
        abstract_ok = check_unwinding(b.abstract).ok
        assert not (concrete_ok and abstract_ok), name

    # Where the bounded enumeration is affordable, confirm the theorem
    # direction holds on the insecure variants too: no alarm anywhere.
    # The counter variant's trace space at length 4 exceeds the default
    # enumeration budget on both levels, and its unwinding failure is
    # already confirmed above.
    for name in ("demo-insecure-fullstatus", "arinc-queuing-mode",
                 "arinc-port-id"):
        cross = validate_unwinding_theorem(bundle(name).abstract, 4)
        assert not cross.alarm, name

    # The fullness-flag variant realizes the "bounded run also fails"
    # branch: its abstract level leaks within four steps.
    fullstatus = validate_unwinding_theorem(
        bundle("demo-insecure-fullstatus").abstract, 4)
    assert not fullstatus.ni_ok


def test_c06_simulation_carries_unwinding_to_the_concrete_level():
    for name in SECURE_MODELS:
        b = bundle(name)
        report = check_simulation(b.pair)
        assert report.ok, name
        assert report.cross_check.status == "pass", name
        # The entailment, checked directly rather than assumed.
        assert check_unwinding(b.abstract).ok, name
        assert check_unwinding(b.concrete).ok, name


def test_c07_lock_frame_contracts_hold_and_widened_guarantees_are_caught():
    b = bundle("demo")
    report = check_compositional(b.pair, b.rely_guarantee)
    assert report.ok
    for name, verdict in report.lemmas().items():
        assert verdict.status == "pass", name
    assert report.cross_check.status == "pass"

    # Widen t1's declared guarantee so it may rewrite t2's queue while
    # t2 holds the lock on it. The lock-frame rely of t2 must catch the
    # extra move in the compatibility lemma.
    contracts = dict(b.rely_guarantee.contracts)
    original = contracts["t1"]
    base_moves = own_moves(b.concrete, "t1")

    def widened_moves(state):
        moves = list(base_moves(state))
        if state["lock.t2"] == "t2":
            moves.append(state.assign({"que.t2": ("intruded",)}))
        return tuple(moves)

    contracts["t1"] = replace(original, guarantee=lambda s, s2: True,
                              guarantee_moves=widened_moves)
    mutated = RelyGuaranteeSpec(contracts=contracts,
                                component_of=b.rely_guarantee.component_of)
    bad = check_compositional(b.pair, mutated)
    assert not bad.ok
    assert "fail" in (bad.lemma3.status, bad.lemma4.status)
    failing = bad.lemma4 if bad.lemma4.status == "fail" else bad.lemma3
    assert failing.witness.component == "t1"
    assert failing.witness.other_component == "t2"


def test_c08_action_map_that_changes_domains_is_rejected():
    b = build_demo(threads=2)
    concrete_send = action_named(b.concrete, "t1/send(t2,m1)/invoke")
    foreign_send = action_named(b.abstract, "t2/send(t1,m1)/invoke")
    mapping = dict(b.pair.zeta.mapping)
    mapping[concrete_send] = foreign_send
    twisted = RefinementPair(b.concrete, b.abstract, b.pair.alpha,
                             Zeta(mapping))
    report = check_simulation(twisted)
    assert report.c4.status == "fail"
    witness = report.c4.witness
    assert witness.action == "t1/send(t2,m1)/invoke"
    assert witness.abstract_action == "t2/send(t1,m1)/invoke"
    assert witness.concrete_domain == "t1"
    assert witness.abstract_domain == "t2"


def test_c09_purge_algebra_against_the_literal_recursion():
    def oracle_sources(trace, d, cfg):
        if not trace:
            return {d}
        rest = oracle_sources(trace[1:], d, cfg)
        acting = cfg.dom[trace[0]]
        if any(cfg.allows(acting, v) for v in rest):
            return rest | {acting}
        return rest

    def oracle_ipurge(trace, d, cfg):
        if not trace:
            return ()
        if cfg.dom[trace[0]] in oracle_sources(trace, d, cfg):
            return (trace[0],) + oracle_ipurge(trace[1:], d, cfg)
        return oracle_ipurge(trace[1:], d, cfg)

    def is_subsequence(sub, full):
        it = iter(full)
        return all(any(x == y for y in it) for x in sub)

    rng = random.Random(1009)
    checked = 0
    for _ in range(1100):
        count = rng.randint(2, 4)
        domains = tuple(f"d{i}" for i in range(count))
        policy = frozenset((u, v) for u in domains for v in domains
                           if rng.random() < 0.4)
        actions = tuple(ActionId(f"a{i}")
                        for i in range(rng.randint(1, 5)))
        dom_map = {a: rng.choice(domains) for a in actions}
        cfg = InfoFlowConfig(domains, policy, dom_map,
                             observe=lambda d, s: None)
        trace = tuple(rng.choice(actions)
                      for _ in range(rng.randint(0, 8)))
        d = rng.choice(domains)

        srcs = sources(trace, d, cfg)
        assert d in srcs
        assert srcs == frozenset(oracle_sources(trace, d, cfg))
        for i in range(1, len(trace) + 1):
            assert sources(trace[i:], d, cfg) \
                <= sources(trace[i - 1:], d, cfg)

        purged = ipurge(trace, d, cfg)
        assert is_subsequence(purged, trace)
        assert purged == oracle_ipurge(trace, d, cfg)

        total = InfoFlowConfig(
            domains,
            frozenset((u, v) for u in domains for v in domains),
            dom_map, observe=lambda d, s: None)
        assert ipurge(trace, d, total) == trace
        checked += 1
    assert checked >= 1000


def test_c10_auction_publishes_only_closed_valid_results():
    b = bundle("auction")
    published = 0
    for state in b.concrete.machine.states:
        if state["res"] is None:
            continue
        published += 1
        assert state["status"] == "closed"
        assert state["res"] == ledger_max(state["log"])
        assert state["res"][1] > state["reserve"]
    assert published > 0

    config = b.concrete.config
    users = sorted(d for d in config.domains
                   if d not in ("server", "publisher"))
    assert users
    for user in users:
        assert config.allows(user, "server")
        assert not config.allows("server", user)
        assert config.allows("publisher", user)
        # The chain user -> server -> publisher exists, yet the direct
        # edge does not: the policy is intransitive and every release
        # is mediated.
        assert not config.allows(user, "publisher")
        for other in users:
            if other != user:
                assert not config.allows(user, other)
    assert config.allows("server", "publisher")
    assert not config.allows("publisher", "server")

    assert check_ni(b.concrete, 4).ok


def test_c11_json_reports_are_byte_identical_modulo_wall_time(capsys):
    commands = (
        ("check", "refine", "demo"),
        ("check", "ni", "demo"),
        ("check", "refine", "demo-insecure-counter"),
        ("check", "unwinding", "demo-insecure-fullstatus"),
        ("check", "unwinding", "arinc-queuing-mode"),
        ("check", "unwinding", "arinc-port-id"),
    )

    def stripped(text):
        lines = [line for line in text.splitlines()
                 if "wall_time_s" not in line]
        assert len(text.splitlines()) - len(lines) == 1
        return lines

    for argv in commands:
        _, _, first = cli_json(capsys, *argv)
        _, _, second = cli_json(capsys, *argv)
        assert stripped(first) == stripped(second), argv
