"""Handler-program semantics and compilation to explicit machines."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifsec

from ifsec.core import (
    ActionId,
    BudgetError,
    Exploration,
    ModelError,
    State,
    UsageError,
    render_value,
)
from ifsec import programs
from ifsec.models import common, get_model, model_names
from ifsec.programs import (
    IDLE,
    Atomic,
    Await,
    Basic,
    Cond,
    ConcurrentSystem,
    Done,
    Event,
    Prog,
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
from oracles import build_machine, machine_layout


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


def event(label: str, body: Prog | None = None) -> Event:
    return Event(label, lambda s: True, body or setv("x", 1, "set"), "d")


@pytest.mark.parametrize("components,pool,initial,fragment", [
    (("k", "k"), {"k": (event("e"),)}, {"x": 0},
     "component names must be unique"),
    (("k",), {}, {"x": 0}, "component 'k' has no event pool"),
    (("k",), {"k": (event("e"), event("e"))}, {"x": 0},
     "duplicate event label on component 'k'"),
    (("k",), {"k": (event("e"),)}, {"x": 0, "pc.k": 0},
     "shared variable 'pc.k' collides with the program counter"),
    (("k",), {"k": (event("e", seq(setv("x", 1, "s"), setv("x", 0, "s"))),)},
     {"x": 0}, "duplicate step label within event 'e'"),
    (("k",), {"k": (event("e", setv("x", 1, "invoke")),)}, {"x": 0},
     "step label 'invoke' is reserved"),
])
def test_concurrent_system_validate_errors(components, pool, initial,
                                           fragment):
    system = ConcurrentSystem(components, pool, initial)
    with pytest.raises(ModelError, match=fragment):
        system.validate()


class TestCompile:
    def test_single_basic_event_yields_minimal_machine(self):
        # invoke then set: initial, mid-event, and done states = 3.
        sys_ = compile_system(single_event_system(), ["d"], [("d", "d")],
                              lambda d, s: s["x"])
        assert len(sys_.machine.states) == 3
        labels = list(sys_.machine.actions)
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
        labels = list(sys_.machine.actions)
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

    def test_step_writing_another_components_pc_is_a_model_error(self):
        cs = ConcurrentSystem(
            components=("a", "b"),
            pool={"a": (Event("w", lambda s: True,
                              Basic(lambda s: {"pc.b": "zz"}, "w"), "d"),),
                  "b": (Event("v", lambda s: True, setv("x", 1, "v"), "d"),)},
            initial={"x": 0},
        )
        with pytest.raises(ModelError, match=r"component 'b' .* value 'zz'"):
            compile_system(cs, ["d"], [], lambda d, s: None)

    def test_step_writing_its_own_pc_keeps_the_compiled_pc(self):
        # The compiled pc is written after the update, whether or not
        # the residual's `finished` reads the stepped state.
        own = Basic(lambda s: {"pc.k": "zz", "x": s["x"] + 1}, "own")
        cs = ConcurrentSystem(
            components=("k",),
            pool={"k": (Event("last", lambda s: s["x"] == 0, own, "d"),
                        Event("cond", lambda s: s["x"] == 1, seq(
                            own, Cond(lambda s: s["x"] == 2,
                                      setv("x", 0, "reset"), Done)), "d"))},
            initial={"x": 0},
        )
        machine = compile_system(cs, ["d"], [], lambda d, s: None).machine
        assert sorted((s["x"], s["pc.k"]) for s in machine.states) == [
            (0, "-"), (0, "last#0"), (1, "-"), (1, "cond#0"), (2, "cond#1")]


def _next_labels(sys_, state, comp):
    out = []
    for a in sys_.machine.actions:
        if a.startswith(f"{comp}/") and (state, a) in sys_.machine.transitions:
            out.append(a.rsplit("/", 1)[1])
    return out


# ---------------------------------------------------------------------------
# Oracle compiler: the interpreter the plans replaced
# ---------------------------------------------------------------------------

def serial(state):
    """`State.serialize` without its fragment cache."""
    return ";".join(f"{name}={render_value(value)}"
                    for name, value in zip(state.names, state.values))


def oracle_finished(prog, state):
    if prog is Done:
        return True
    if isinstance(prog, While):
        return not prog.pred(state)
    if isinstance(prog, Seq):
        return oracle_finished(prog.first, state) and \
            oracle_finished(prog.rest, state)
    if isinstance(prog, Cond):
        branch = prog.then if prog.pred(state) else prog.orelse
        return oracle_finished(branch, state)
    return False


def oracle_prog_step(prog, state):
    """`prog_step` by interpreting the syntax on every call."""
    if prog is Done:
        return ()
    if isinstance(prog, Basic):
        return ((prog.label, Done, state.assign(prog.update(state))),)
    if isinstance(prog, Atomic):
        outcomes = tuple(state.assign(u) for u in prog.relation(state))
        return tuple((prog.label, Done, s2)
                     for s2 in sorted(set(outcomes), key=serial))
    if isinstance(prog, Await):
        if not prog.pred(state):
            return ()
        return ((prog.label, Done, oracle_run_atomic(prog.body, state)),)
    if isinstance(prog, Seq):
        if oracle_finished(prog.first, state):
            return oracle_prog_step(prog.rest, state)
        out = []
        for label, residual, stepped in oracle_prog_step(prog.first, state):
            rest = prog.rest if residual is Done else Seq(residual, prog.rest)
            out.append((label, rest, stepped))
        return tuple(out)
    if isinstance(prog, Cond):
        branch = prog.then if prog.pred(state) else prog.orelse
        return oracle_prog_step(branch, state)
    if isinstance(prog, While):
        if not prog.pred(state):
            return ()
        if prog.bound <= 0:
            raise ModelError(
                f"loop iteration bound exhausted inside step program "
                f"(state {serial(state)})")
        return oracle_prog_step(
            Seq(prog.body, While(prog.pred, prog.body, prog.bound - 1)), state)
    raise ModelError(f"unknown program shape: {prog!r}")


def oracle_run_atomic(prog, state):
    current, s = prog, state
    for _ in range(1000):
        if oracle_finished(current, s):
            return s
        steps = oracle_prog_step(current, s)
        if len(steps) != 1:
            kind = "blocks" if not steps else "is nondeterministic"
            raise ModelError(f"atomic body {kind}; it must run straight through")
        _, current, s = steps[0]
    raise ModelError("atomic body exceeded the step ceiling; probable loop")


def oracle_compile(system, budget=None):
    """The machine `compile_system` builds, as (by_id, actions, tables,
    initial id, dom): successors by `oracle_prog_step` with a pc value
    looked up per step, grouped in a set per action and sorted by
    uncached serialization, ids in discovery order."""
    system.validate()
    encode, decode, counters = {}, {}, {}

    def pc_value(comp, event, name, residual, state):
        if oracle_finished(residual, state):
            return IDLE
        key = (comp, name, residual)
        value = encode.get(key)
        if value is None:
            n = counters.get((comp, name), 0)
            counters[(comp, name)] = n + 1
            value = encode[key] = f"{name}#{n}"
            decode[(comp, value)] = (event, name, residual)
        return value

    initial = State({**system.initial,
                     **{f"pc.{comp}": IDLE for comp in system.components}})
    interned = {}

    def action_of(label, domain):
        entry = interned.get(label)
        if entry is None:
            entry = interned[label] = (ActionId(label), domain)
        return entry[0]

    def successors(state):
        out = []
        for comp in system.components:
            pc_var = f"pc.{comp}"
            pc = state[pc_var]
            if pc == IDLE:
                for event in system.pool[comp]:
                    if not event.guard(state):
                        continue
                    domain = event.resolve_domain(state)
                    name = event.label if event.domain_is_static() \
                        else f"{event.label}@{domain}"
                    action = action_of(f"{comp}/{name}/invoke", domain)
                    pc_next = pc_value(comp, event, name, event.body, state)
                    out.append((action, state.assign({pc_var: pc_next})))
            else:
                event, name, residual = decode[(comp, pc)]
                _, domain = interned[f"{comp}/{name}/invoke"]
                for label, rest, stepped in oracle_prog_step(residual, state):
                    action = action_of(f"{comp}/{name}/{label}", domain)
                    pc_next = pc_value(comp, event, name, rest, stepped)
                    out.append((action, stepped.assign({pc_var: pc_next})))
        return out

    search = Exploration(initial, budget)
    rows = []
    for k, state in enumerate(search):
        grouped = {}
        for action, succ in successors(state):
            grouped.setdefault(action, set()).add(succ)
        rows.append([
            (action, [search.add(succ, k, action) for succ in (
                sorted(succs, key=serial) if len(succs) > 1 else succs)])
            for action, succs in grouped.items()])
    actions = tuple(sorted({action for row in rows for action, _ in row}))
    tables = {action: {} for action in actions}
    for i, row in enumerate(rows):
        for action, targets in row:
            tables[action][i] = tuple(targets)
    return (tuple(search.order), actions, list(tables.values()), 0,
            {a: interned[a][1] for a in actions})


def failure_text(run, *args):
    """What `run` returns, or the type and text of the error it raises."""
    try:
        return run(*args)
    except (ModelError, BudgetError, UsageError) as error:
        return f"{type(error).__name__}: {error}"


def assert_compiles_like_oracle(system, domains, policy=(), observe=None,
                                budget=None):
    """compile_system gives the oracle's machine (serializations, states,
    actions, tables, initial id, dom, so every pc value) or its error."""
    want = failure_text(oracle_compile, system, budget)
    got = failure_text(compile_system, system, domains, policy,
                       observe or (lambda d, s: None), budget)
    if isinstance(want, str):
        assert got == want
        return
    by_id, actions, tables, initial_id, dom = want
    machine = got.machine
    assert [s.serialize() for s in machine.by_id] == [serial(s) for s in by_id]
    assert machine.by_id == by_id
    assert machine.actions == actions
    assert list(machine.successor_ids) == tables
    assert machine.initial_id == initial_id
    assert dict(got.config.dom) == dom


VARS = ("x", "y")


@st.composite
def step_programs(draw, labels, depth=0):
    """A program over x and y in 0..2 with fresh labels from `labels`:
    Basic (set or add), Atomic with 0..3 outcomes (repeats allowed), Await whose body
    may take several steps, branch, block or fork, and below depth 2
    Seq, Cond, While with a bound of 0..2, or Done."""
    kinds = ["basic", "atomic", "await"]
    if depth < 2:
        kinds += ["seq", "seq", "cond", "while", "done"]
    kind = draw(st.sampled_from(kinds))

    def var():
        return draw(st.sampled_from(VARS))

    def bump():
        v, k = var(), draw(st.integers(0, 2))
        if draw(st.booleans()):
            return lambda s: {v: k}
        return lambda s: {v: (s[v] + k) % 3}

    def test():
        v, c = var(), draw(st.integers(0, 2))
        return lambda s: s[v] == c

    def inner():
        return draw(step_programs(labels, depth + 1))

    if kind == "basic":
        return Basic(bump(), next(labels))
    if kind == "atomic":
        outcomes = draw(st.lists(st.tuples(st.sampled_from(VARS),
                                           st.integers(0, 2)), max_size=3))
        return Atomic(lambda s: [{v: (s[v] + k) % 3} for v, k in outcomes],
                      next(labels))
    if kind == "await":
        body = draw(st.sampled_from(["basic", "steps", "fork", "block",
                                     "branch"]))
        if body == "basic":
            prog = Basic(bump(), "b")
        elif body == "steps":
            prog = seq(Basic(bump(), "b1"), Basic(bump(), "b2"))
        elif body == "fork":
            prog = Atomic(lambda s: [{"x": 0}, {"x": 1}], "b")
        elif body == "block":
            prog = Await(test(), Basic(bump(), "b1"), "b2")
        else:
            prog = Cond(test(), Basic(bump(), "b1"), Done)
        return Await(test(), prog, next(labels))
    if kind == "seq":
        return Seq(inner(), inner())
    if kind == "cond":
        return Cond(test(), inner(), inner())
    if kind == "while":
        v, c = var(), draw(st.integers(0, 2))
        return While(lambda s: s[v] != c, inner(), draw(st.integers(0, 2)))
    return Done


@st.composite
def concurrent_systems(draw):
    """One or two components, each with one or two events whose guard
    may test a variable and whose domain is d0, d1, or resolved from x;
    a budget of None or 1..6 states."""
    labels = (f"s{n}" for n in itertools.count())
    pool = {}
    components = ("a", "b")[:draw(st.integers(1, 2))]
    for comp in components:
        events = []
        for e in range(draw(st.integers(1, 2))):
            v, c = draw(st.sampled_from(VARS)), draw(st.integers(0, 2))
            guard = (lambda s: True) if draw(st.booleans()) \
                else (lambda s, v=v, c=c: s[v] != c)
            domain = draw(st.sampled_from(["d0", "d1", "by-x"]))
            if domain == "by-x":
                domain = lambda s: ("d0", "d1")[s["x"] % 2]  # noqa: E731
            events.append(Event(f"e{e}", guard,
                                draw(step_programs(labels)), domain))
        pool[comp] = tuple(events)
    initial = {v: draw(st.integers(0, 2)) for v in VARS}
    budget = draw(st.one_of(st.none(), st.none(), st.integers(1, 6)))
    return ConcurrentSystem(components, pool, initial), budget


def residuals(prog):
    """`prog` and the residuals its steps reach from any x, y in 0..2,
    with the states, by the oracle; a step that raises ends that path."""
    states = [State({"x": x, "y": y}) for x in range(3) for y in range(3)]
    seen, frontier = [prog], [prog]
    while frontier:
        p = frontier.pop()
        for s in states:
            steps = failure_text(oracle_prog_step, p, s)
            for _, rest, _ in () if isinstance(steps, str) else steps:
                if rest not in seen:
                    seen.append(rest)
                    frontier.append(rest)
    return seen, states


@settings(max_examples=300, derandomize=True, deadline=None)
@given(concurrent_systems())
def test_compile_matches_interpreter_oracle(example):
    """Generated systems compile to the oracle's machine, or fail with its
    ModelError (exhausted While bound, blocking or forking atomic body)
    or BudgetError text; `prog_step` and `finished` agree with the
    oracle's on every residual of every event body."""
    system, budget = example
    assert_compiles_like_oracle(system, ("d0", "d1"), budget=budget)
    for events in system.pool.values():
        for event in events:
            progs, states = residuals(event.body)
            for prog in progs:
                for s in states:
                    assert failure_text(prog_step, prog, s) == \
                        failure_text(oracle_prog_step, prog, s)
                    assert finished(prog, s) == oracle_finished(prog, s)


#: Built-ins at the sizes the benchmark runs them.
BUILTIN_SIZES = [("demo", {"messages": 2}), ("demo", {"capacity": 2}),
                 ("demo-insecure-counter", {"threads": 2}), ("arinc", {}),
                 ("arinc-queuing-mode", {}), ("arinc-port-id", {}),
                 ("auction", {})]


@pytest.mark.parametrize("name,params", BUILTIN_SIZES,
                         ids=[name + "".join(f"-{k}{v}" for k, v in p.items())
                              for name, p in BUILTIN_SIZES])
def test_builtins_compile_like_interpreter_oracle(monkeypatch, name, params):
    calls = []

    def recording(*args):
        calls.append(args)
        return compile_system(*args)

    monkeypatch.setattr(common, "compile_system", recording)
    get_model(name, **params)
    assert len(calls) == 2
    for system, domains, policy, observe, budget in calls:
        assert_compiles_like_oracle(system, domains, policy, observe, budget)


#: Every built-in at its default size, the counter (79,608 states at
#: three threads) at two, and the ring at capacity 2.
LAYOUT_SIZES = [(name, {}) for name in model_names()
                if name != "demo-insecure-counter"] + [
    ("demo", {"capacity": 2}), ("demo-insecure-counter", {"threads": 2})]


def state_keyed(initial, successors, actions, budget=None):
    """`tabulate`'s machine, built by the `State`-keyed oracle from the
    same values-tuple successor function, its action positions mapped
    through the alphabet `actions`."""
    return build_machine(initial, lambda state: [
        (actions[x], state.with_values(values))
        for x, values in successors(state)], budget)


@pytest.mark.parametrize("name,params", LAYOUT_SIZES,
                         ids=[name + "".join(f"-{k}{v}" for k, v in p.items())
                              for name, p in LAYOUT_SIZES])
def test_builtins_tabulate_like_the_state_keyed_build(monkeypatch, name,
                                                      params):
    """Both levels' machines have the layout of the oracle's build, each
    from a compiler made afresh, so pc numbers follow each search's own
    discovery order."""
    def layouts():
        bundle = get_model(name, **params)
        return [machine_layout(bundle.pair.concrete.machine),
                machine_layout(bundle.pair.abstract.machine)]

    got = layouts()
    monkeypatch.setattr(programs, "tabulate", state_keyed)
    assert got == layouts()


def test_one_state_per_tabulated_tuple(monkeypatch):
    """The build makes each level's states once: the ring at capacity 2
    has 6,993 concrete and 729 abstract states, and no other `State`."""
    made = []
    with_values = State.with_values

    def counted(self, values):
        made.append(values)
        return with_values(self, values)

    monkeypatch.setattr(State, "with_values", counted)
    bundle = get_model("demo", capacity=2)
    sizes = [len(bundle.pair.concrete.machine.by_id),
             len(bundle.pair.abstract.machine.by_id)]
    assert sizes == [6993, 729]
    assert len(made) == sum(sizes)
