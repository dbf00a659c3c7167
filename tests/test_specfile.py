"""Model file parsing, printing, and elaboration.

Grammar oracles are hand-computed: the toy model's state space is the
2x2 product of its two bits, `poke` and `toggle` are always enabled, and
the unwinding argument is done on paper (hi's `toggle` moves only `y`,
which `lo` never observes, so LR holds; both actions are deterministic
in the observed variables, so SC holds). The insecure twist lets `lo`
observe `y`, which must fail LR at `toggle`.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from ifsec.core import (
    ActionId,
    BudgetError,
    ModelError,
    ParseError,
    State,
    StateMachine,
    explore,
    explore_ids,
    sort_actions,
)
from ifsec import specfile
from ifsec.refinement import check_compositional, check_simulation
from ifsec.specfile import (
    ActionDecl,
    ModelDocument,
    RelationSpec,
    Rule,
    VarDecl,
    elaborate_model,
    elaborate_refinement,
    load_model,
    parse_model,
    parse_refinement,
    print_model,
    print_refinement,
)
from ifsec.unwinding import check_unwinding
from oracles import build_machine, machine_layout

TOY = """\
# two bits, one per domain
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0
y in {0, 1} = 0

[actions]
act poke lo
  x=0 -> x:=1
  x=1 -> x:=0

act toggle hi
  y=0 -> y:=1
  y=1 -> y:=0

[observe]
hi: x y
lo: x
"""

LEAKY = TOY.replace("lo: x\n", "lo: x y\n")

#: 729 declared assignments, 3 of them reachable: `tick` cycles c and
#: writes a and b, and `never` is enabled only off the reachable set.
SPARSE_SHAPED = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
a in {0, 1, 2} = 0
b in {0, 1, 2} = 0
c in {0, 1, 2} = 0
d in {0, 1, 2} = 0
e in {0, 1, 2} = 0
f in {0, 1, 2} = 0

[actions]
act tick lo
  c=0 -> c:=1, a:=2
  c=1 -> c:=2, b:=1
  c=2 -> c:=0, a:=0, b:=0

act never hi
  d=1 -> d:=2

[observe]
hi: a b c d e f
lo: c
"""

#: 10 declared assignments, 6 of them reachable, found over five BFS
#: levels; `step` has two successors at n=2.
CHAIN = """\
[domains]
d

[policy]
d -> d

[state]
n in {0, 1, 2, 3, 4} = 0
m in {0, 1} = 0

[actions]
act flip d
  n=4, m=0 -> m:=1

act step d
  n=0 -> n:=1
  n=1 -> n:=2
  n=2 -> n:=3
  n=2 -> n:=4
  n=3 -> n:=0

[observe]
d: n
"""

ABSTRACT_IFS = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0

[actions]
act poke lo
  x=0 -> x:=1
  x=1 -> x:=0

[observe]
hi: x
lo: x
"""

CONCRETE_IFS = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0
y in {0, 1} = 0

[actions]
act cleanup hi
  y=1 -> y:=0

act dirty hi
  y=0 -> y:=1

act poke lo
  x=0 -> x:=1
  x=1 -> x:=0

[observe]
hi: x
lo: x
"""

REFINEMENT_HEAD = """\
[refinement]
concrete: concrete.ifs
abstract: abstract.ifs
"""

ZETA_FULL = """\
[zeta]
cleanup -> tau
dirty -> tau
poke -> poke
"""

COMPONENTS = "[components]\ncleanup: janitor\ndirty: janitor\npoke: worker\n"

CONTRACTS = COMPONENTS + """
[rely janitor]
keeps: y

[guarantee janitor]
may: y

[rely worker]
keeps: x

[guarantee worker]
may: x
"""


@pytest.fixture()
def model_dir(tmp_path):
    (tmp_path / "concrete.ifs").write_text(CONCRETE_IFS, encoding="utf-8")
    (tmp_path / "abstract.ifs").write_text(ABSTRACT_IFS, encoding="utf-8")
    return tmp_path


def refinement_text(*sections):
    return REFINEMENT_HEAD + "\n" + "\n".join(sections)


def universe_of(path):
    """Every declared assignment of the model file at `path`."""
    system = elaborate_model(load_model(str(path)), universe=True)
    return system.machine.universe


# ---------------------------------------------------------------------------
# Model parsing and printing
# ---------------------------------------------------------------------------

class TestParseModel:
    def test_toy_document_shape(self):
        doc = parse_model(TOY)
        assert doc.domains == ("hi", "lo")
        assert doc.policy == (("hi", "hi"), ("lo", "hi"), ("lo", "lo"))
        assert doc.variables == (
            VarDecl("x", (0, 1), 0),
            VarDecl("y", (0, 1), 0),
        )
        assert doc.actions == (
            ActionDecl("poke", "lo",
                       (Rule((("x", 0),), (("x", 1),)),
                        Rule((("x", 1),), (("x", 0),)))),
            ActionDecl("toggle", "hi",
                       (Rule((("y", 0),), (("y", 1),)),
                        Rule((("y", 1),), (("y", 0),)))),
        )
        assert doc.observe == (("hi", ("x", "y")), ("lo", ("x",)))

    def test_print_parse_fixpoint(self):
        doc = parse_model(TOY)
        text = print_model(doc)
        assert parse_model(text) == doc
        assert print_model(parse_model(text)) == text

    def test_star_rule_and_scalar_values(self):
        doc = parse_model(
            "[domains]\nd\n[state]\nv in {-, T, F, -3, red} = -\n"
            "[actions]\nact reset d\n  * -> v:=-\n  v=T -> *\n"
        )
        assert doc.variables[0].values == (None, True, False, -3, "red")
        assert doc.actions[0].rules == (
            Rule((), (("v", None),)),
            Rule((("v", True),), ()),
        )
        assert parse_model(print_model(doc)) == doc

    @pytest.mark.parametrize("text,line,fragment", [
        ("[bogus]\n", 1, "unknown section header"),
        ("x\n[domains]\nd\n", 1, "before any section"),
        ("[domains]\nd\nd\n", 3, "duplicate domain"),
        ("[domains]\nd\n[policy]\nd => d\n", 4, "malformed policy edge"),
        ("[domains]\nd\n[policy]\nd -> ghost\n", 4, "unknown domain 'ghost'"),
        ("[domains]\nd\n[state]\nv = 0\n", 4, "malformed variable"),
        ("[domains]\nd\n[state]\nv in {0} = 1\n", 4, "outside its declared set"),
        ("[domains]\nd\n[state]\nv in {0, 0} = 0\n", 4, "repeats a value"),
        ("[domains]\nd\n[state]\nv in {0 1} = 0\n", 4, "malformed value"),
        ("[domains]\nd\n[state]\nv in {(0,1)} = 0\n", 4, "malformed value"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n[actions]\n  v=0 -> v:=0\n",
         6, "outside any action"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n[actions]\nact only\n",
         6, "malformed action header"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n[actions]\nact a ghost\n",
         6, "unknown domain 'ghost'"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n"
         "[actions]\nact a d\nact a d\n", 7, "duplicate action label"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n"
         "[actions]\nact a d\n  w=0 -> *\n", 7, "undeclared variable 'w'"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n"
         "[actions]\nact a d\n  v=1 -> *\n", 7, "outside the declared set"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n"
         "[actions]\nact a d\n  * -> v:=0, v:=0\n", 7, "bound twice"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n[observe]\nd: w\n",
         6, "undeclared variable 'w'"),
        ("[domains]\nd\n[state]\nv in {0} = 0\n[observe]\nd: v\nd: v\n",
         7, "duplicate observation"),
        ("[domains]\nd\n[observe]\nd:\n[state]\nv in {0} = 0\n",
         5, "out of order"),
        ("[domains]\nd\n[domains]\nd2\n", 3, "duplicate section"),
    ])
    def test_diagnostics_carry_position_and_hint(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == line
        assert err.value.column >= 1
        assert err.value.hint
        assert fragment in str(err.value)

    def test_empty_file_is_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_model("", name="empty.ifs")
        assert "empty.ifs" in str(err.value)
        assert err.value.hint


NAME_POOL = ("lo", "hi", "mid", "aux")
VAR_POOL = ("x", "y", "z.flag")
LABEL_POOL = ("step", "toggle", "sync_2", "drop")
SCALAR_POOL = (None, True, False, 2, 3, -5, "red", "green")


@st.composite
def model_documents(draw):
    # Guards and writes drawn apart rarely chain, so half the documents
    # get a chain: rules that walk from the initial assignment through 3
    # or 4 others, one step each. Such a document declares at least two
    # variables of at least two values each, and one action.
    chain = draw(st.booleans())
    domains = sorted(draw(st.sets(st.sampled_from(NAME_POOL), min_size=1)))
    var_names = sorted(draw(st.sets(st.sampled_from(VAR_POOL),
                                    min_size=1 + chain)))
    variables = []
    for name in var_names:
        values = draw(st.lists(st.sampled_from(SCALAR_POOL),
                               min_size=1 + chain, max_size=4, unique=True))
        variables.append(VarDecl(name, tuple(values),
                                 draw(st.sampled_from(values))))
    sets = {v.name: v.values for v in variables}
    policy = sorted(draw(st.sets(st.tuples(st.sampled_from(domains),
                                           st.sampled_from(domains)))))

    def bindings():
        chosen = sorted(draw(st.sets(st.sampled_from(var_names))))
        return tuple((v, draw(st.sampled_from(sets[v]))) for v in chosen)

    labels = sorted(draw(st.sets(st.sampled_from(LABEL_POOL), min_size=chain,
                                 max_size=3)))
    rules = {label: [Rule(bindings(), bindings())
                     for _ in range(draw(st.integers(0, 2)))]
             for label in labels}
    if chain:
        initial = tuple(v.initial for v in variables)
        others = [values for values in itertools.product(*sets.values())
                  if values != initial]
        path = [initial, *draw(st.lists(st.sampled_from(others), min_size=3,
                                        max_size=4, unique=True))]
        rules[draw(st.sampled_from(labels))] += [
            Rule(tuple(zip(var_names, pre)), tuple(zip(var_names, post)))
            for pre, post in zip(path, path[1:])]
    actions = tuple(ActionDecl(label, draw(st.sampled_from(domains)),
                               tuple(rules[label]))
                    for label in labels)
    observe = tuple(
        (d, tuple(sorted(draw(st.sets(st.sampled_from(var_names))))))
        for d in sorted(draw(st.sets(st.sampled_from(domains)))))
    return ModelDocument(tuple(domains), tuple(policy), tuple(variables),
                         actions, observe)


class TestRoundTrip:
    @given(model_documents())
    def test_parse_print_parse_is_identity(self, doc):
        text = print_model(doc)
        again = parse_model(text)
        assert again == doc
        assert print_model(again) == text


# ---------------------------------------------------------------------------
# Model elaboration
# ---------------------------------------------------------------------------

def oracle_elaborate(doc, universe):
    """The machine of `elaborate_model(doc, universe=universe)`, built
    as two separate paths over `State`s: the declared product tabulated
    for the universe scope, and `build_machine` from the initial state,
    laid out again over the declared alphabet, for the reachable one.
    Rules are evaluated on states by name, not compiled."""
    initial = State({v.name: v.initial for v in doc.variables})
    actions = sort_actions(ActionId(a.label) for a in doc.actions)
    rules = {a.label: a.rules for a in doc.actions}

    def steps(state):
        return [(action, state.assign(dict(rule.post)))
                for action in actions for rule in rules[action.label]
                if all(state[var] == value for var, value in rule.pre)]

    if not universe:
        built = build_machine(initial, steps)
        enabled = dict(zip(built.actions, built.successor_ids))
        return StateMachine.from_tables(
            built.by_id, actions, [enabled.get(a, {}) for a in actions],
            built.initial_id)
    declared = {v.name: v.values for v in doc.variables}
    by_id = tuple(sorted(
        (initial.with_values(values) for values in itertools.product(
            *(declared[name] for name in initial.names))),
        key=State.serialize))
    ids = {state: i for i, state in enumerate(by_id)}
    position = {action: k for k, action in enumerate(actions)}
    tables = [{} for _ in actions]
    for i, state in enumerate(by_id):
        found = {}
        for action, successor in steps(state):
            found.setdefault(position[action], set()).add(ids[successor])
        for k, successor_ids in found.items():
            tables[k][i] = tuple(sorted(successor_ids))
    start = ids[initial]
    return StateMachine.from_tables(
        by_id, actions, tables, start,
        state_ids=sorted(explore_ids(start, actions, tables).order),
        universe_ids=range(len(by_id)))


class TestElaborateModel:
    def test_toy_shape(self):
        system = elaborate_model(parse_model(TOY), universe=True)
        machine = system.machine
        assert len(machine.states) == 4
        assert machine.universe is not None and len(machine.universe) == 4
        assert [a.label for a in machine.actions] == ["poke", "toggle"]
        assert len(machine.transitions) == 8
        assert machine.initial.serialize() == "x=0;y=0"
        assert system.config.observe("lo", machine.initial) == (0,)
        assert system.config.observe("hi", machine.initial) == (0, 0)

    def test_rules_run_once_per_state(self, monkeypatch):
        # TOY is fully reachable: both scopes tabulate its four states,
        # and each scope runs the compiled rules once on each of them.
        compile_rules, calls = specfile._compile_rules, []

        def counting(*args):
            successors = compile_rules(*args)

            def counted(values):
                calls.append(values)
                return successors(values)

            return counted

        monkeypatch.setattr(specfile, "_compile_rules", counting)
        for universe in (False, True):
            calls.clear()
            machine = elaborate_model(parse_model(TOY),
                                      universe=universe).machine
            assert len(machine.states) == len(machine.by_id) == 4
            assert sorted(calls) == sorted(s.values for s in machine.states)

    def test_toy_passes_unwinding(self):
        system = elaborate_model(parse_model(TOY))
        report = check_unwinding(system)
        assert report.ok

    def test_leaky_observation_fails_lr(self):
        system = elaborate_model(parse_model(LEAKY))
        report = check_unwinding(system)
        assert not report.ok
        assert report.lr is not None
        assert report.lr.action.label == "toggle"
        assert report.lr.domain == "lo"
        assert report.lr.state.serialize() == "x=0;y=0"

    def test_elaboration_is_deterministic(self):
        doc = parse_model(TOY)
        a = elaborate_model(doc, universe=True)
        b = elaborate_model(doc, universe=True)
        assert a.machine.states == b.machine.states
        assert a.machine.actions == b.machine.actions
        assert a.machine.transitions == b.machine.transitions
        assert a.machine.universe == b.machine.universe

    def test_universe_keeps_unreachable_assignments(self):
        text = ("[domains]\nd\n[policy]\nd -> d\n"
                "[state]\nv in {0, 1} = 0\nw in {0, 1} = 0\n"
                "[actions]\nact flip d\n  v=0 -> v:=1\n  v=1 -> v:=0\n"
                "[observe]\nd: v\n")
        machine = elaborate_model(parse_model(text), universe=True).machine
        assert len(machine.states) == 2
        assert len(machine.universe) == 4
        unreachable = State({"v": 0, "w": 1})
        assert unreachable in machine.universe
        assert unreachable not in machine.states
        assert machine.step(unreachable, machine.actions[0])

    def test_rules_give_nondeterminism_and_disabling(self):
        text = ("[domains]\nd\n[policy]\nd -> d\n"
                "[state]\nv in {0, 1, 2} = 0\n"
                "[actions]\nact spin d\n  v=0 -> v:=1\n  v=0 -> v:=2\n"
                "act never d\n  v=2 -> v:=0\n[observe]\nd: v\n")
        machine = elaborate_model(parse_model(text)).machine
        spin, never = machine.actions[1], machine.actions[0]
        assert spin.label == "spin" and never.label == "never"
        successors = machine.step(machine.initial, spin)
        assert [s["v"] for s in successors] == [1, 2]
        assert never not in machine.enabled(machine.initial)

    def test_declared_product_over_budget(self):
        text = ("[domains]\nd\n[policy]\nd -> d\n"
                "[state]\n" + "".join(
                    f"v{i} in {{0, 1, 2, 3}} = 0\n" for i in range(3)) +
                "[actions]\n[observe]\nd: v0\n")
        with pytest.raises(BudgetError) as err:
            elaborate_model(parse_model(text), budget=10)
        assert "64" in str(err.value)

    def test_reachable_build_holds_only_reachable_assignments(self):
        machine = elaborate_model(parse_model(SPARSE_SHAPED)).machine
        assert machine.universe is None and machine.universe_ids is None
        assert machine.by_id == machine.states
        assert [s.serialize() for s in machine.by_id] == [
            "a=0;b=0;c=0;d=0;e=0;f=0", "a=2;b=0;c=1;d=0;e=0;f=0",
            "a=2;b=1;c=2;d=0;e=0;f=0"]
        # `never` is declared but never enabled: it keeps an empty table
        assert [a.label for a in machine.actions] == ["never", "tick"]
        assert [len(t) for t in machine.successor_ids] == [0, 3]
        full = elaborate_model(parse_model(SPARSE_SHAPED),
                               universe=True).machine
        assert (len(full.universe), full.states) == (729, machine.states)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(model_documents())
    def test_reachable_build_is_the_universe_build_restricted(self, doc):
        full, reach = elaborate_model(doc, universe=True), elaborate_model(doc)
        f, r = full.machine, reach.machine
        assert r.universe is None
        assert r.by_id == r.states
        assert [s.serialize() for s in r.states] == \
            [s.serialize() for s in f.states]
        assert r.initial == f.initial and r.actions == f.actions
        assert dict(reach.config.dom) == dict(full.config.dom)
        for state in f.states:
            for action in f.actions:
                assert r.step(state, action) == f.step(state, action)
            for domain in doc.domains:
                assert reach.config.observe(domain, state) == \
                    full.config.observe(domain, state)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(model_documents())
    @example(parse_model(SPARSE_SHAPED))
    @example(parse_model(CHAIN))
    def test_one_tabulation_matches_both_oracle_builds(self, doc):
        for universe in (False, True):
            built = elaborate_model(doc, universe=universe).machine
            assert machine_layout(built) == \
                machine_layout(oracle_elaborate(doc, universe)), universe

    def test_generated_documents_often_need_three_bfs_levels(self):
        # A closure that stopped early, after two levels or three states,
        # must be caught by the generated documents, not only by CHAIN.
        depths = []

        @settings(max_examples=300, derandomize=True, deadline=None,
                  database=None)
        @given(model_documents())
        def record(doc):
            search = explore(elaborate_model(doc, universe=True).machine)
            depths.append(len(search.trace_to(search.order[-1])))

        record()
        assert len(depths) >= 200
        assert sum(depth >= 3 for depth in depths) / len(depths) >= 0.35

    def test_validate_rejects_unprintable_values(self):
        base = parse_model(TOY)
        bad_tuple = ModelDocument(
            base.domains, base.policy,
            (VarDecl("x", ((0, 1),), (0, 1)),), (), ())
        with pytest.raises(ModelError, match="scalars only"):
            bad_tuple.validate()
        bad_string = ModelDocument(
            base.domains, base.policy,
            (VarDecl("x", ("T",), "T"),), (), ())
        with pytest.raises(ModelError, match="round-trip"):
            bad_string.validate()

    def test_load_model_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_model(str(tmp_path / "absent.ifs"))


# ---------------------------------------------------------------------------
# Refinement parsing and printing
# ---------------------------------------------------------------------------

class TestParseRefinement:
    def test_full_document_shape(self):
        doc = parse_refinement(refinement_text(
            "[alpha]\nmatch: x == x\n", ZETA_FULL, CONTRACTS))
        assert doc.concrete_ref == "concrete.ifs"
        assert doc.abstract_ref == "abstract.ifs"
        assert doc.alpha_matches == (("x", "x"),)
        assert doc.alpha_pairs == ()
        assert doc.zeta == (("cleanup", "tau"), ("dirty", "tau"),
                            ("poke", "poke"))
        assert doc.components == (("cleanup", "janitor"), ("dirty", "janitor"),
                                  ("poke", "worker"))
        assert doc.contracts == (
            ("janitor", "guarantee", RelationSpec(frame=("y",))),
            ("janitor", "rely", RelationSpec(frame=("y",))),
            ("worker", "guarantee", RelationSpec(frame=("x",))),
            ("worker", "rely", RelationSpec(frame=("x",))),
        )
        assert doc.wants_rely_guarantee()

    def test_print_parse_fixpoint(self):
        doc = parse_refinement(refinement_text(
            "[alpha]\npair: x=0;y=0 ~ x=0\npair: x=1;y=0 ~ x=1\n",
            ZETA_FULL, CONTRACTS,
            "[rely extra]\npair: x=0;y=0 ~ x=0;y=1\n"))
        text = print_refinement(doc)
        assert parse_refinement(text) == doc
        assert print_refinement(parse_refinement(text)) == text

    @pytest.mark.parametrize("text,line,fragment", [
        ("[refinement]\nconcrete: a.ifs\n", 1, "does not name a"),
        ("[refinement]\nconcrete: a.ifs\nconcrete: b.ifs\n"
         "abstract: c.ifs\n", 3, "duplicate 'concrete'"),
        ("[refinement]\nsideways: a.ifs\nconcrete: a.ifs\nabstract: b.ifs\n",
         2, "malformed reference"),
        (REFINEMENT_HEAD + "[alpha]\nmatch: x == x\npair: x=0 ~ x=0\n",
         6, "mixes match: and pair:"),
        (REFINEMENT_HEAD + "[alpha]\npair: x=0 y=0 ~ x=0\n",
         5, "whitespace"),
        (REFINEMENT_HEAD + "[zeta]\na -> b\na -> tau\n", 6,
         "duplicate zeta entry"),
        (REFINEMENT_HEAD + "[zeta]\n[alpha]\n", 5, "out of order"),
        (REFINEMENT_HEAD + "[rely w]\nmay: x\n", 5,
         "does not belong in a rely"),
        (REFINEMENT_HEAD + "[guarantee w]\nkeeps: x\n", 5,
         "does not belong in a guarantee"),
        (REFINEMENT_HEAD + "[rely w]\nkeeps: x\nkeeps: y\n", 6,
         "second frame line"),
        (REFINEMENT_HEAD + "[rely w]\nkeeps: x\npair: x=0 ~ x=0\n", 6,
         "mixes a frame with pair:"),
        (REFINEMENT_HEAD + "[rely w]\n", 1, "is empty"),
        (REFINEMENT_HEAD + "[rely]\n", 4, "needs a component name"),
        (REFINEMENT_HEAD + "[rely w]\nkeeps: x\n[zeta]\n", 6,
         "after contract sections"),
        (REFINEMENT_HEAD + "[components]\na: w\na: v\n", 6,
         "duplicate component entry"),
    ])
    def test_diagnostics_carry_position_and_hint(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_refinement(text)
        assert err.value.line == line
        assert err.value.column >= 1
        assert err.value.hint
        assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# Refinement elaboration
# ---------------------------------------------------------------------------

class TestElaborateRefinement:
    def test_toy_pair_passes_simulation_and_lemmas(self, model_dir):
        doc = parse_refinement(refinement_text(
            "[alpha]\nmatch: x == x\n", ZETA_FULL, CONTRACTS))
        pair, rg = elaborate_refinement(doc, base_dir=str(model_dir))
        assert len(pair.concrete.machine.states) == 4
        assert len(pair.abstract.machine.states) == 2
        report = check_simulation(pair)
        assert report.ok
        assert rg is not None
        assert check_compositional(pair, rg).ok

    def test_without_contract_sections_rg_is_none(self, model_dir):
        doc = parse_refinement(refinement_text(
            "[alpha]\nmatch: x == x\n", ZETA_FULL))
        pair, rg = elaborate_refinement(doc, base_dir=str(model_dir))
        assert rg is None
        assert check_simulation(pair).ok

    def test_match_alpha_equals_explicit_pairs(self, model_dir):
        match_doc = parse_refinement(refinement_text(
            "[alpha]\nmatch: x == x\n", ZETA_FULL))
        pairs_doc = parse_refinement(refinement_text(
            "[alpha]\n"
            "pair: x=0;y=0 ~ x=0\n"
            "pair: x=0;y=1 ~ x=0\n"
            "pair: x=1;y=0 ~ x=1\n"
            "pair: x=1;y=1 ~ x=1\n",
            ZETA_FULL))
        by_match, _ = elaborate_refinement(match_doc, base_dir=str(model_dir))
        by_pairs, _ = elaborate_refinement(pairs_doc, base_dir=str(model_dir))
        for c in universe_of(model_dir / "concrete.ifs"):
            for a in universe_of(model_dir / "abstract.ifs"):
                assert by_match.alpha.holds(c, a) == by_pairs.alpha.holds(c, a)
        left, right = check_simulation(by_match), check_simulation(by_pairs)
        for condition in ("c1", "c2", "c3", "c4", "c5", "c6"):
            assert getattr(left, condition).status \
                == getattr(right, condition).status

    def test_zeta_missing_action_names_it(self, model_dir):
        doc = parse_refinement(refinement_text(
            "[alpha]\nmatch: x == x\n", "[zeta]\npoke -> poke\n"))
        with pytest.raises(ModelError, match="cleanup"):
            elaborate_refinement(doc, base_dir=str(model_dir))

    @pytest.mark.parametrize("sections,fragment", [
        (("[alpha]\nmatch: q == x\n", ZETA_FULL),
         "unknown concrete variable 'q'"),
        (("[alpha]\nmatch: x == q\n", ZETA_FULL),
         "unknown abstract variable 'q'"),
        (("[alpha]\npair: x=0 ~ x=0\n", ZETA_FULL),
         "does not bind exactly the concrete variables"),
        (("[alpha]\nmatch: x == x\n",
          "[zeta]\nghost -> poke\n" + ZETA_FULL[7:]),
         "unknown concrete action 'ghost'"),
        (("[alpha]\nmatch: x == x\n",
          "[zeta]\ncleanup -> scrub\ndirty -> tau\npoke -> poke\n"),
         "not an abstract action"),
        (("[alpha]\nmatch: x == x\n", ZETA_FULL,
          "[components]\npoke: worker\n"),
         "no entry in \\[components\\]"),
        (("[alpha]\nmatch: x == x\n", ZETA_FULL, CONTRACTS,
          "[rely ghost]\nkeeps: x\n"),
         "no action maps to"),
        (("[alpha]\nmatch: x == x\n", ZETA_FULL,
          COMPONENTS,
          "[guarantee janitor]\nmay: zz\n"),
         "unknown variable 'zz'"),
        (("[alpha]\nmatch: x == x\n", ZETA_FULL, COMPONENTS,
          "[rely worker]\npair: x=0;y=0;z=0 ~ x=0;y=1;z=0\n"),
         "\\[rely worker\\] pair state 'x=0;y=0;z=0' does not bind exactly "
         "the concrete variables"),
        (("[alpha]\nmatch: x == x\n", ZETA_FULL, COMPONENTS,
          "[rely worker]\npair: x=0;y=0 ~ x=1\n"),
         "\\[rely worker\\] pair state 'x=1' does not bind exactly"),
    ])
    def test_elaboration_errors(self, model_dir, sections, fragment):
        doc = parse_refinement(refinement_text(*sections))
        with pytest.raises(ModelError, match=fragment):
            elaborate_refinement(doc, base_dir=str(model_dir))

    def test_pair_alpha_and_pair_contracts_elaborate(self, model_dir):
        doc = parse_refinement(refinement_text(
            "[alpha]\n"
            "pair: x=0;y=0 ~ x=0\n"
            "pair: x=1;y=0 ~ x=1\n",
            ZETA_FULL,
            COMPONENTS,
            "[rely janitor]\npair: x=0;y=0 ~ x=0;y=0\n",
            "[guarantee janitor]\nmay: y\n",
        ))
        pair, rg = elaborate_refinement(doc, base_dir=str(model_dir))
        states = {s.serialize(): s
                  for s in universe_of(model_dir / "concrete.ifs")}
        janitor = rg.contracts["janitor"]
        assert janitor.rely(states["x=0;y=0"], states["x=0;y=0"])
        assert not janitor.rely(states["x=0;y=0"], states["x=1;y=0"])
        assert janitor.guarantee(states["x=0;y=0"], states["x=0;y=1"])
        assert not janitor.guarantee(states["x=0;y=0"], states["x=1;y=0"])
        worker = rg.contracts["worker"]
        assert worker.rely(states["x=0;y=0"], states["x=1;y=1"])
        assert worker.guarantee(states["x=0;y=0"], states["x=1;y=1"])
