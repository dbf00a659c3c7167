"""Handler-program semantics and compilation to explicit machines."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import ifsec

from ifsec.core import ActionId, BudgetError, ModelError, State
from ifsec.programs import (
    Await,
    Basic,
    Cond,
    ConcurrentSystem,
    Done,
    Event,
    Seq,
    While,
    compile_system,
    finished,
    lock_acquire,
    prog_step,
    run_atomic,
    seq,
    step_labels,
)


def incr(var: str, label: str) -> Basic:
    return Basic(lambda s, v=var: {v: s[v] + 1}, label)


def setv(var: str, value, label: str) -> Basic:
    return Basic(lambda s, v=var, x=value: {v: x}, label)


class TestProgStep:
    def test_basic_applies_update_once(self):
        s = State({"x": 0})
        steps = prog_step(incr("x", "bump"), s)
        assert steps == (("bump", Done, State({"x": 1})),)

    def test_blocked_await_is_not_enabled(self):
        s = State({"l": "t2"})
        prog = lock_acquire("l", "t1")
        assert prog_step(prog, s) == ()
        assert not finished(prog, s)

    def test_await_runs_body_atomically_when_open(self):
        s = State({"l": None})
        (label, residual, s2), = prog_step(lock_acquire("l", "t1"), s)
        assert label == "lock" and residual is Done and s2["l"] == "t1"

    def test_seq_threads_residual(self):
        prog = seq(incr("x", "a"), incr("x", "b"))
        s = State({"x": 0})
        (label, residual, s1), = prog_step(prog, s)
        assert label == "a" and s1["x"] == 1
        (label2, residual2, s2), = prog_step(residual, s1)
        assert label2 == "b" and residual2 is Done and s2["x"] == 2

    def test_cond_test_fuses_into_branch_step(self):
        # The branch test costs no action: one labeled step happens either way.
        prog = Cond(lambda s: s["x"] == 0, setv("y", "zero", "then"),
                    setv("y", "nonzero", "else"))
        steps = prog_step(prog, State({"x": 0, "y": None}))
        assert [lbl for lbl, _, _ in steps] == ["then"]
        steps = prog_step(prog, State({"x": 5, "y": None}))
        assert [lbl for lbl, _, _ in steps] == ["else"]

    def test_while_unrolls_within_bound(self):
        prog = While(lambda s: s["x"] < 2, incr("x", "work"), bound=5)
        s = State({"x": 0})
        seen = []
        while not finished(prog, s):
            (label, prog, s), = prog_step(prog, s)
            seen.append(label)
        assert seen == ["work", "work"] and s["x"] == 2

    def test_while_bound_exhaustion_is_model_error(self):
        prog = While(lambda s: True, incr("x", "spin"), bound=3)
        s = State({"x": 0})
        with pytest.raises(ModelError):
            for _ in range(10):
                (_, prog, s), = prog_step(prog, s)

    def test_seq_skips_finished_while_head(self):
        prog = Seq(While(lambda s: False, incr("x", "w"), 1), incr("x", "tail"))
        (label, residual, s1), = prog_step(prog, State({"x": 0}))
        assert label == "tail" and s1["x"] == 1

    def test_run_atomic_rejects_blocking_body(self):
        body = lock_acquire("l", "t1")
        with pytest.raises(ModelError):
            run_atomic(body, State({"l": "t2"}))

    def test_step_labels_in_syntax_order(self):
        prog = seq(incr("x", "a"),
                   Cond(lambda s: True, incr("x", "b"), incr("x", "c")),
                   incr("x", "d"))
        assert step_labels(prog) == ("a", "b", "c", "d")


def single_event_system() -> ConcurrentSystem:
    return ConcurrentSystem(
        components=("k",),
        pool={"k": (Event("flip", lambda s: s["x"] == 0, setv("x", 1, "set"), "d"),)},
        initial={"x": 0},
    )


class TestCompile:
    def test_single_basic_event_yields_minimal_machine(self):
        # invoke then set: initial, mid-event, and done states = 3.
        sys_ = compile_system(single_event_system(), ["d"], [("d", "d")],
                              lambda d, s: s["x"])
        assert len(sys_.machine.states) == 3
        labels = [a.label for a in sys_.machine.actions]
        assert labels == ["k/flip/invoke", "k/flip/set"]
        assert sys_.config.dom[ActionId("k/flip/invoke")] == "d"

    def test_compilation_is_deterministic(self):
        one = compile_system(single_event_system(), ["d"], [("d", "d")],
                             lambda d, s: s["x"])
        two = compile_system(single_event_system(), ["d"], [("d", "d")],
                             lambda d, s: s["x"])
        assert one.machine.states == two.machine.states
        assert one.machine.actions == two.machine.actions
        assert one.machine.transitions == two.machine.transitions

    def test_guard_disabled_event_never_invoked(self):
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": (Event("never", lambda s: False, setv("x", 1, "set"), "d"),)},
            initial={"x": 0},
        )
        sys_ = compile_system(cs, ["d"], [("d", "d")], lambda d, s: s["x"])
        assert sys_.machine.actions == ()
        assert sys_.machine.states == (sys_.machine.initial,)

    def test_lock_mutual_exclusion_in_every_reachable_state(self):
        # Two components contending for one lock; critical section sets owner.
        def cs_event(name: str) -> Event:
            body = seq(
                lock_acquire("l", name),
                setv("owner", name, "write"),
                Basic(lambda s: {"l": None}, "unlock"),
            )
            return Event("enter", lambda s: True, body, name)

        cs = ConcurrentSystem(
            components=("a", "b"),
            pool={"a": (cs_event("a"),), "b": (cs_event("b"),)},
            initial={"l": None, "owner": None},
        )
        sys_ = compile_system(cs, ["a", "b"], [("a", "a"), ("b", "b")],
                              lambda d, s: None)
        holders = {s["l"] for s in sys_.machine.states}
        assert holders == {None, "a", "b"}
        # A component about to run its critical step always holds the lock,
        # so no reachable state has both inside at once.
        for s in sys_.machine.states:
            inside = [comp for comp in ("a", "b")
                      if {"write", "unlock"} & set(_next_labels(sys_, s, comp))]
            assert len(inside) <= 1
            for comp in inside:
                assert s["l"] == comp

    def test_interleaving_covers_both_orders(self):
        cs = ConcurrentSystem(
            components=("a", "b"),
            pool={
                "a": (Event("ea", lambda s: s["x"] == 0, setv("x", 1, "sa"), "a"),),
                "b": (Event("eb", lambda s: s["y"] == 0, setv("y", 1, "sb"), "b"),),
            },
            initial={"x": 0, "y": 0},
        )
        sys_ = compile_system(cs, ["a", "b"], [], lambda d, s: None)
        # b can run before or after a's event; both interleavings reachable.
        assert any(s["x"] == 1 and s["y"] == 0 for s in sys_.machine.states)
        assert any(s["x"] == 0 and s["y"] == 1 for s in sys_.machine.states)

    def test_state_dependent_domain_baked_into_label(self):
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": (Event("op", lambda s: s["y"] == 0, setv("y", 1, "go"),
                              lambda s: s["who"]),)},
            initial={"who": "alice", "y": 0},
        )
        sys_ = compile_system(cs, ["alice"], [("alice", "alice")],
                              lambda d, s: None)
        labels = [a.label for a in sys_.machine.actions]
        assert "k/op@alice/invoke" in labels and "k/op@alice/go" in labels
        assert sys_.config.dom[ActionId("k/op@alice/go")] == "alice"

    def test_unbounded_growth_hits_budget(self):
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": (Event("grow", lambda s: True, incr("n", "add"), "d"),)},
            initial={"n": 0},
        )
        with pytest.raises(BudgetError):
            compile_system(cs, ["d"], [("d", "d")], lambda d, s: None, budget=50)

    def test_pc_numbering_does_not_depend_on_hash_seed(self):
        # Both outcomes of `pick` get the same pc; which of the two
        # states is expanded first decides whether `e#2` names the
        # x=1 branch or the x=0 one, so it must not follow set order.
        script = (
            "from ifsec.core import State\n"
            "from ifsec.programs import (Atomic, Basic, Cond, "
            "ConcurrentSystem, Event, compile_system, seq)\n"
            "def setv(var, value, label):\n"
            "    return Basic(lambda s: {var: value}, label)\n"
            "body = seq(Atomic(lambda s: [{'x': 0}, {'x': 1}], 'pick'),\n"
            "           Cond(lambda s: s['x'] == 1,\n"
            "                seq(setv('y', 1, 'a'), setv('y', 2, 'c')),\n"
            "                seq(setv('y', 3, 'b'), setv('y', 4, 'd'))))\n"
            "cs = ConcurrentSystem(('k',), {'k': (Event('e', lambda s: True, "
            "body, 'd'),)}, {'x': 0, 'y': 0})\n"
            "m = compile_system(cs, ['d'], [('d', 'd')], lambda d, s: None)\n"
            "print('\\n'.join(s.serialize() for s in m.machine.states))\n"
        )
        src = os.path.dirname(os.path.dirname(ifsec.__file__))
        outputs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, outputs
        assert "pc.k=e#2;x=0;y=3" in outputs.pop()

    def test_reserved_invoke_label_rejected(self):
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": (Event("bad", lambda s: True, setv("x", 1, "invoke"), "d"),)},
            initial={"x": 0},
        )
        with pytest.raises(ModelError):
            compile_system(cs, ["d"], [], lambda d, s: None)

    def test_duplicate_step_labels_rejected(self):
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": (Event("bad", lambda s: True,
                              seq(setv("x", 1, "w"), setv("x", 2, "w")), "d"),)},
            initial={"x": 0},
        )
        with pytest.raises(ModelError):
            compile_system(cs, ["d"], [], lambda d, s: None)

    def test_pc_variable_collision_rejected(self):
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": ()},
            initial={"pc.k": 0},
        )
        with pytest.raises(ModelError):
            compile_system(cs, ["d"], [], lambda d, s: None)


def _next_labels(sys_, state, comp):
    out = []
    for a in sys_.machine.actions:
        if a.label.startswith(f"{comp}/") and (state, a) in sys_.machine.transitions:
            out.append(a.label.rsplit("/", 1)[1])
    return out
