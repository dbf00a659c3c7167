"""Seeded `.ifs` model files whose verdicts hold by construction.

Every file has two domains, `lo` and `hi`, with the policy
lo -> lo, lo -> hi, hi -> hi. `lo` observes the lo variables and `hi`
observes every shared variable. Every variable ranges over {0, 1, 2},
and every action is deterministic and total: its rules are guarded on
one variable, one rule per value, so the guards are disjoint and no
action is ever disabled. Because no action stutters, Rushby's unwinding
theorem applies as stated, and the expected verdicts below follow from
the shape of the rules alone:

* secure: lo actions read and write only lo variables, hi actions write
  only hi variables. lr holds because no hi step changes what lo sees;
  sc holds because a lo step depends only on lo's view and hi sees
  everything. Both hold over any scope, reachable or universe.
* planted lr leak: one hi action also writes, in every case, a constant
  to a lo variable whose initial value differs from it. lr fails for
  observer lo at the first step; sc still holds, since two states that
  lo cannot tell apart agree on lo's view after the step as well (the
  step sets that variable to the same constant and no other lo
  variable changes), and hi sees everything. Bounded NI fails at
  length 1: purging the hi step undoes lo's change.
* planted sc leak: one lo action's update is guarded on a hi variable
  that a hi action cycles freely. Two reachable states that agree on
  the lo variables step to different lo views, so sc fails; lr holds,
  since the leaking action belongs to lo and no hi step writes a lo
  variable.
* refinement pair: the abstract model is a secure file; the concrete
  model copies it and adds a private variable `p`, observed by no
  domain, that a hi action `tau_p` toggles. Alpha matches every shared
  variable, zeta maps each shared action to itself and `tau_p` to tau,
  and each domain is one rely-guarantee component whose frames are its
  own variables (hi's include `p`). Every simulation condition, both
  unwindings and all four lemmas hold.

The seed changes only the cosmetic part of a file: the order in which
each variable cycles through its values, initial values, the constants
a clock writes, and the leaked constant. Names, sizes, action order and
the position of each planted leak are fixed, so the work a check does,
and the time it takes, is nearly the same for every seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

VALUES = (0, 1, 2)
POLICY = (("hi", "hi"), ("lo", "hi"), ("lo", "lo"))


@dataclass(frozen=True)
class Action:
    """`label` acts for `domain`; `rules` maps each value of `guard` to
    the assignments made in that case."""

    label: str
    domain: str
    guard: str
    rules: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]


@dataclass(frozen=True)
class Model:
    why: str
    lo_vars: tuple[str, ...]
    hi_vars: tuple[str, ...]
    initial: dict[str, int]
    actions: tuple[Action, ...]
    private: tuple[str, ...] = ()


def _cycle(rng: random.Random) -> dict[int, int]:
    order = list(VALUES)
    rng.shuffle(order)
    return {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _cycling_actions(rng: random.Random, variables: tuple[str, ...],
                     domain: str) -> list[Action]:
    """One action per variable, stepping it around a seeded 3-cycle."""
    actions = []
    for var in variables:
        step = _cycle(rng)
        actions.append(Action(f"a_{var}", domain, var,
                              tuple((v, ((var, step[v]),)) for v in VALUES)))
    return actions


def _clock(rng: random.Random, domain: str, variables: tuple[str, ...],
           initial: dict[str, int]) -> list[Action]:
    """Variables that move in lockstep through three joint values.

    `tick_<domain>` advances `variables[0]` around a 3-cycle and sets
    every other variable from it; `sync_<domain>` sets `variables[1]`
    from `variables[0]` again, which on the lockstep cycle changes
    nothing. Initial values are put on the cycle, so the variables take
    exactly three joint values however often the actions run.
    """
    lead, second = variables[0], variables[1]
    step = _cycle(rng)
    follow = {var: {v: rng.choice(VALUES) for v in VALUES}
              for var in variables[1:]}
    initial[lead] = rng.choice(VALUES)
    for var in variables[1:]:
        initial[var] = follow[var][initial[lead]]
    tick = Action(f"tick_{domain}", domain, lead, tuple(
        (v, ((lead, step[v]),)
         + tuple((var, follow[var][step[v]]) for var in variables[1:]))
        for v in VALUES))
    sync = Action(f"sync_{domain}", domain, lead,
                  tuple((v, ((second, follow[second][v]),)) for v in VALUES))
    return [tick, sync]


def _random_initial(rng: random.Random, variables) -> dict[str, int]:
    return {var: rng.choice(VALUES) for var in variables}


def dense_secure(rng: random.Random, lo: int, hi: int, why: str) -> Model:
    """Every variable cycles on its own: reachable equals the universe."""
    lo_vars, hi_vars = _names("l", lo), _names("h", hi)
    actions = (_cycling_actions(rng, hi_vars, "hi")
               + _cycling_actions(rng, lo_vars, "lo"))
    return Model(why, lo_vars, hi_vars,
                 _random_initial(rng, lo_vars + hi_vars), tuple(actions))


def sparse_secure(rng: random.Random, lo: int, hi: int, why: str) -> Model:
    """One clock per domain: 3 x 3 reachable states in the universe."""
    lo_vars, hi_vars = _names("l", lo), _names("h", hi)
    initial: dict[str, int] = {}
    actions = (_clock(rng, "hi", hi_vars, initial)
               + _clock(rng, "lo", lo_vars, initial))
    return Model(why, lo_vars, hi_vars, initial, tuple(actions))


def lr_leak(rng: random.Random, lo: int, hi: int, why: str) -> Model:
    """A dense secure model whose first hi action also writes to `l0` a
    constant that differs from `l0`'s initial value."""
    base = dense_secure(rng, lo, hi, why)
    first = base.actions[0]
    constant = rng.choice([v for v in VALUES if v != base.initial["l0"]])
    rules = tuple((v, sets + (("l0", constant),)) for v, sets in first.rules)
    leak = Action(first.label, first.domain, first.guard, rules)
    return Model(why, base.lo_vars, base.hi_vars, base.initial,
                 (leak,) + base.actions[1:])


def sc_leak(rng: random.Random, lo: int, hi: int, why: str) -> Model:
    """A dense secure model plus a lo action `peek` that writes to `l0`
    a different constant for each value of `h0`."""
    base = dense_secure(rng, lo, hi, why)
    order = list(VALUES)
    rng.shuffle(order)
    peek = Action("peek", "lo", "h0",
                  tuple((v, (("l0", order[v]),)) for v in VALUES))
    return Model(why, base.lo_vars, base.hi_vars, base.initial,
                 base.actions + (peek,))


def concrete_copy(rng: random.Random, abstract: Model, why: str) -> Model:
    """The abstract model plus a private bit `p` toggled by `tau_p`."""
    initial = dict(abstract.initial, p=rng.choice((0, 1)))
    tau = Action("tau_p", "hi", "p", ((0, (("p", 1),)), (1, (("p", 0),))))
    return Model(why, abstract.lo_vars, abstract.hi_vars, initial,
                 abstract.actions + (tau,), private=("p",))


def render_model(model: Model) -> str:
    out = [f"# {model.why}", "", "[domains]", "hi", "lo", "", "[policy]"]
    out += [f"{u} -> {v}" for u, v in POLICY]
    out += ["", "[state]"]
    for var in model.lo_vars + model.hi_vars:
        out.append(f"{var} in {{0, 1, 2}} = {model.initial[var]}")
    for var in model.private:
        out.append(f"{var} in {{0, 1}} = {model.initial[var]}")
    out += ["", "[actions]"]
    for action in model.actions:
        out.append(f"act {action.label} {action.domain}")
        for value, sets in action.rules:
            post = ", ".join(f"{var}:={v}" for var, v in sets)
            out.append(f"  {action.guard}={value} -> {post}")
        out.append("")
    out += ["[observe]",
            "hi: " + " ".join(model.lo_vars + model.hi_vars),
            "lo: " + " ".join(model.lo_vars)]
    return "\n".join(out) + "\n"


def render_pair(concrete: str, abstract: str, model: Model, why: str) -> str:
    shared = model.lo_vars + model.hi_vars
    out = [f"# {why}", "", "[refinement]", f"concrete: {concrete}",
           f"abstract: {abstract}", "", "[alpha]"]
    out += [f"match: {var} == {var}" for var in shared]
    out += ["", "[zeta]"]
    out += [f"{a.label} -> {a.label}" for a in model.actions]
    out += ["tau_p -> tau", "", "[components]"]
    out += [f"{a.label}: {a.domain}" for a in model.actions]
    out += ["tau_p: hi"]
    frames = {"hi": " ".join(model.hi_vars + ("p",)),
              "lo": " ".join(model.lo_vars)}
    for domain in ("hi", "lo"):
        out += ["", f"[rely {domain}]", f"keeps: {frames[domain]}",
                "", f"[guarantee {domain}]", f"may: {frames[domain]}"]
    return "\n".join(out) + "\n"


def generate(seed: int, directory: str) -> None:
    """Write the spec-files workload's inputs into `directory`."""
    rng = random.Random(seed)
    models = {
        "sparse.ifs": sparse_secure(
            rng, 5, 4, "secure; 9 of 19683 assignments reachable, so "
            "elaborating the whole universe is nearly all the work of a "
            "reachable-scoped check"),
        "dense.ifs": dense_secure(
            rng, 4, 3, "secure; every one of its 2187 assignments is "
            "reachable, so reachable and universe scope coincide"),
        "lr-leak.ifs": lr_leak(
            rng, 4, 3, "planted lr leak: a hi action writes a lo variable; "
            "fails lr, passes sc; checked over its universe"),
        "sc-leak.ifs": sc_leak(
            rng, 4, 3, "planted sc leak: a lo update is guarded on a hi "
            "variable; fails sc, passes lr"),
        "ni-leak.ifs": lr_leak(
            rng, 2, 2, "planted lr leak in a small model: bounded NI "
            "fails at length 1"),
    }
    abstract = dense_secure(rng, 3, 3, "secure abstract level of the "
                            "refinement pair in pair.ifs")
    models["pair-abstract.ifs"] = abstract
    models["pair-concrete.ifs"] = concrete_copy(
        rng, abstract, "concrete level of pair.ifs: the abstract model "
        "plus a private bit toggled by a silent hi action")

    for name, model in models.items():
        _write(directory, name, render_model(model))
    _write(directory, "pair.ifs", render_pair(
        "pair-concrete.ifs", "pair-abstract.ifs", abstract,
        "refinement pair with per-domain rely/guarantee frames; passes "
        "refine and compositional"))


def _write(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        handle.write(text)
