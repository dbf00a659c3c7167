"""No report depends on how a machine numbers its states.

`core.tabulate` numbers states in discovery order, the `StateMachine`
constructor in serialization order; the canonical witnesses are defined
by serializations either way. Each test here renumbers machines by a
seeded permutation (`renumbered`) and asserts that every check gives
the same report and the same witness JSON, traces included, on the
renumbered machine as on the original: on every built-in level and on
derandomized generated machines, pairs and model files. Renumbering
leaves every search's discovery order as it is; c6's witness, which
must not follow the joint search's order either, is also checked
against a search that discovers the pairs in another order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from ifsec import witness
from ifsec.core import (
    BudgetError,
    ModelError,
    SecureSystem,
    StateMachine,
    UsageError,
)
from ifsec.models import get_model, model_names
from ifsec.noninterference import check_ni
from ifsec.refinement import (
    CrossCheck,
    RefinementPair,
    check_compositional,
    check_simulation,
)
from ifsec.specfile import elaborate_model
from ifsec.unwinding import check_unwinding, scope_universe
from test_noninterference import small_systems
from test_refinement import generated_pairs
from test_specfile import model_documents
from test_unwinding import universe_systems

SEEDS = (1, 2)


def renumbered(machine: StateMachine, seed: int) -> StateMachine:
    """`machine` with its ids permuted by a `random.Random(seed)`
    shuffle, through `from_tables`: the same states, actions, successor
    order, initial state, reachable states and universe."""
    new = list(range(len(machine.by_id)))
    random.Random(seed).shuffle(new)
    by_id: list = [None] * len(new)
    for i, state in enumerate(machine.by_id):
        by_id[new[i]] = state
    tables = [{new[i]: tuple(new[j] for j in successors)
               for i, successors in sorted(table.items(),
                                           key=lambda row: new[row[0]])}
              for table in machine.successor_ids]
    universe = machine.universe_ids
    return StateMachine.from_tables(
        tuple(by_id), machine.actions, tables, new[machine.initial_id],
        sorted(new[i] for i in machine.state_ids),
        None if universe is None else sorted(new[i] for i in universe),
        machine.tabulated)


def renumbered_system(system: SecureSystem, seed: int) -> SecureSystem:
    return SecureSystem(renumbered(system.machine, seed), system.config)


def renumbered_pair(pair: RefinementPair, seed: int) -> RefinementPair:
    return RefinementPair(renumbered_system(pair.concrete, seed),
                          renumbered_system(pair.abstract, seed + 1),
                          pair.alpha, pair.zeta)


def reversed_successors(machine: StateMachine) -> StateMachine:
    """`machine` with each successor tuple reversed, so that a search
    over it discovers states in another order."""
    return StateMachine.from_tables(
        machine.by_id, machine.actions,
        [{i: successors[::-1] for i, successors in table.items()}
         for table in machine.successor_ids],
        machine.initial_id, machine.state_ids, machine.universe_ids,
        machine.tabulated)


def outcome(check, *args, **kwargs):
    """What `check` returns, or the type and text of its error."""
    try:
        return check(*args, **kwargs)
    except (BudgetError, ModelError, UsageError) as error:
        return f"{type(error).__name__}: {error}"


def unwinding_view(report) -> tuple:
    """An unwinding report without its scope's ids: verdicts, stutter,
    scope tag and size, and each witness's JSON with its traces."""
    if isinstance(report, str):
        return (report,)
    return (report.lr, report.sc, report.stutter, report.scope_tag,
            report.scope_size,
            [None if v is None else witness.to_json(v, report.scope)
             for v in (report.lr, report.sc)])


def verdict_view(verdict) -> tuple:
    found = verdict.witness
    encoded = None if found is None or isinstance(found, CrossCheck) \
        else witness.to_json(found, None)
    return verdict.status, verdict.note, found, encoded


def level_views(system: SecureSystem, max_len: int = 3) -> list:
    """lr, sc and bounded NI on `system`: the reachable scope, a depth
    scope, and the universe when there is one."""
    views = [unwinding_view(outcome(check_unwinding, system)),
             unwinding_view(outcome(check_unwinding, system, depth=2))]
    if system.machine.universe_ids is not None:
        views.append(unwinding_view(check_unwinding(
            system, scope=scope_universe(system))))
    ni = outcome(check_ni, system, max_len)
    views.append(ni if isinstance(ni, str) else (
        ni, None if ni.counterexample is None
        else witness.to_json(ni.counterexample, None)))
    return views


def pair_views(pair: RefinementPair, rg, budget: int | None = None) -> list:
    """check_simulation and, with contracts, check_compositional."""
    views = []
    report = outcome(check_simulation, pair, budget)
    if isinstance(report, str):
        views.append(report)
    else:
        views.append((
            [verdict_view(v) for v in (*report.conditions().values(),
                                       report.refinement, report.cross_check)],
            report.pair_count,
            {label: unwinding_view(level)
             for label, level in report.unwinding.items()}))
    if rg is not None:
        lemmas = outcome(check_compositional, pair, rg, budget)
        views.append(lemmas if isinstance(lemmas, str) else (
            [verdict_view(v) for v in (*lemmas.lemmas().values(),
                                       lemmas.cross_check)],
            lemmas.pair_count, lemmas.components))
    return views


def c6_view(pair: RefinementPair) -> tuple:
    """c6's verdict, with the witness's pairs but not its traces."""
    c6 = outcome(check_simulation, pair)
    if isinstance(c6, str):
        return (c6,)
    c6 = c6.c6
    found = c6.witness
    return c6.status, c6.note, None if found is None else (
        found.domain, found.first, found.second, found.concrete_indist,
        found.abstract_indist)


def assert_c6_ignores_search_order(pair: RefinementPair) -> None:
    """Reversing the concrete successors changes the order in which the
    joint search discovers pairs, not the set it discovers, and c6's
    witness pairs are the least conflict in serialization order."""
    concrete = SecureSystem(reversed_successors(pair.concrete.machine),
                            pair.concrete.config)
    assert c6_view(RefinementPair(concrete, pair.abstract, pair.alpha,
                                  pair.zeta)) == c6_view(pair)


BUILTINS = [(name, {"threads": 2} if name == "demo-insecure-counter" else {})
            for name in model_names()]


@pytest.mark.parametrize("name,params", BUILTINS,
                         ids=[name for name, _ in BUILTINS])
def test_builtin_reports_do_not_depend_on_ids(name, params):
    bundle = get_model(name, **params)
    pair, rg = bundle.pair, bundle.rely_guarantee
    want = pair_views(pair, rg)
    levels = (pair.concrete, pair.abstract)
    want_levels = [level_views(system) for system in levels]
    for seed in SEEDS:
        assert pair_views(renumbered_pair(pair, seed), rg) == want, seed
        assert [level_views(renumbered_system(system, seed))
                for system in levels] == want_levels, seed
    assert_c6_ignores_search_order(pair)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(generated_pairs())
def test_generated_pair_reports_do_not_depend_on_ids(example):
    pair, rg, budget = example
    want = pair_views(pair, rg, budget)
    for seed in SEEDS:
        assert pair_views(renumbered_pair(pair, seed), rg, budget) == want
    assert_c6_ignores_search_order(pair)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(universe_systems())
def test_generated_unwinding_does_not_depend_on_ids(example):
    system, _, _ = example
    want = level_views(system)
    for seed in SEEDS:
        assert level_views(renumbered_system(system, seed)) == want


@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_systems())
def test_generated_ni_does_not_depend_on_ids(example):
    system, _, _ = example
    want = level_views(system, max_len=4)
    for seed in SEEDS:
        assert level_views(renumbered_system(system, seed), 4) == want


@settings(max_examples=100, derandomize=True, deadline=None)
@given(model_documents())
def test_model_file_reports_do_not_depend_on_ids(doc):
    for universe in (False, True):
        system = elaborate_model(doc, universe=universe)
        want = level_views(system)
        for seed in SEEDS:
            assert level_views(renumbered_system(system, seed)) == want
