"""The witness JSON protocol: encode a violation, decode and replay it.

A run report carries each failing check's witness as JSON: one walk
over the witness record's fields (`to_json`). `replay` reads that
JSON back into the library's witness object against a freshly rebuilt
target, re-executes its traces, and re-checks the condition with the
library's own predicate for it. A witness names states by their
serialization: ids follow discovery order, not serialization order, and
differ between builds of different code, so no id enters a report.

Only a failing check and a replay use this module, so `ifsec` registers
it as a lazy module: a passing check never runs its body. It does not
import `ifsec.cli`; under `python -m ifsec.cli` the running CLI is
`__main__`, and that import would run cli.py a second time.
"""

from __future__ import annotations

import types
import typing
from typing import Any, Sequence

from ifsec import noninterference, refinement, unwinding
from ifsec.core import (ActionId, SecureSystem, State, UsageError, fields,
                        render_value)

#: The `type` tag of a witness's JSON -> (home module, witness
#: record, the predicate that re-checks it). Classes and predicates
#: are named, and read from the module only when used, so that the table
#: runs no checker module. `replay` re-checks on the witness's level for
#: lr, sc and ni, on the refinement pair for c1-c6, and with the
#: contracts for a lemma. A refinement's cross-check is no violation
#: witness: the CLI renders it and never replays it.
_WITNESS_TYPES: dict[str, tuple[types.ModuleType, str, str]] = {
    "lr": (unwinding, "LRViolation", "lr_violated"),
    "sc": (unwinding, "SCViolation", "sc_violated"),
    "ni": (noninterference, "NICounterexample", "ni_violated"),
    "c1": (refinement, "C1Witness", "c1_violated"),
    "c2": (refinement, "C2Witness", "c2_violated"),
    "c3": (refinement, "C3Witness", "c3_violated"),
    "c4": (refinement, "C4Witness", "c4_violated"),
    "c5": (refinement, "C5Witness", "c5_violated"),
    "c6": (refinement, "C6Witness", "c6_violated"),
    "lemma": (refinement, "LemmaWitness", "lemma_violated"),
}

#: Witness record name -> its tag.
_WITNESS_TAGS = {name: tag for tag, (_, name, _) in _WITNESS_TYPES.items()}

#: Fields holding observed values, which JSON carries rendered.
_VIEW_FIELDS = ("full_view", "purged_view")

#: Witness type -> (trace field, state field): the CLI adds the trace
#: that the check's scope exploration took to each state, or null when
#: the scope is the declared universe.
_SCOPE_TRACES = {
    "lr": (("trace", "state"),),
    "sc": (("trace1", "s1"), ("trace2", "s2")),
}


def _encode(value: Any) -> Any:
    if isinstance(value, State):
        return value.serialize()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def to_json(witness: Any, scope: unwinding.Scope | None) -> dict[str, Any]:
    """One walk over the witness record's fields: states by their
    serialization, actions by their label, tuples as lists. With the
    scope an lr or sc witness was found in, its scope traces are added.
    A field that equality ignores is no part of the witness: a state's
    id, which the scope traces it by (`state_id`, `s1_id`, `s2_id`)."""
    tag = _WITNESS_TAGS[type(witness).__name__]
    out: dict[str, Any] = {"type": tag}
    for field in _witness_fields(witness):
        value = getattr(witness, field.name)
        if field.name in _VIEW_FIELDS:
            out[field.name] = [render_value(v) for v in value]
        else:
            out[field.name] = _encode(value)
    for trace_field, state_field in _SCOPE_TRACES.get(tag, ()) if scope else ():
        trace = scope.trace_to(getattr(witness, state_field),
                               getattr(witness, f"{state_field}_id"))
        out[trace_field] = None if trace is None else _encode(trace)
    return out


def _witness_fields(witness: Any) -> list:
    """The fields of a witness record or class that its JSON carries."""
    return [field for field in fields(witness) if field.compare]


def _system_for(loaded: Any, check_name: str) -> SecureSystem:
    by_label = dict(loaded.levels)
    for label in by_label:
        if check_name.startswith(f"{label}-"):
            return by_label[label]
    return loaded.levels[0][1]


def _stale(what: str) -> UsageError:
    return UsageError(f"{what}; the report is stale")


#: Witness type -> the runs replay re-executes from the initial state
#: and prints: (title, trace field, anchors). The anchors are state
#: fields the run must end at: the last one in the run's last state
#: set, the one before it a step earlier; a pair anchors by its
#: concrete state. A run shorter than its anchors (lemma 4's guarantee
#: moves, which lie on no trace) is not printed. NI runs stutter on
#: disabled actions, as `check_ni` does; the others take raw steps.
#: Its keys are the witness types that can be replayed.
RUNS = {
    "lr": (("run to the violating state ({check})", "trace", ("state",)),),
    "sc": (("run to the first state ({check})", "trace1", ("s1",)),
           ("run to the second state ({check})", "trace2", ("s2",))),
    "ni": (("full trace", "trace", ()), ("purged trace", "purged", ())),
    "c1": (),
    "c2": (("concrete run (ends at the breaking step)", "trace",
            ("state", "successor")),),
    "c3": (("concrete run (ends at the unmatched step)", "trace",
            ("state", "successor")),),
    "c4": (),
    "c5": (),
    "c6": (("first concrete run", "first_trace", ("first",)),
           ("second concrete run", "second_trace", ("second",))),
    "lemma": (("{level} run (ends at the offending step)", "trace",
               ("state", "successor")),),
}

#: Witness type -> (summary, the witness fields shown as facts). The
#: summary is formatted with the witness's JSON fields.
_EXPLAIN = {
    "lr": ("action {action!r} changes what domain {domain!r} observes, "
           "with no policy edge to allow it",
           ("action", "domain", "successor")),
    "sc": ("two states that domain {domain!r} cannot tell apart become "
           "distinguishable after {action!r}",
           ("action", "domain", "s1_successor", "s2_successor")),
    "ni": ("dropping the actions that domain {domain!r} may not learn "
           "about changes what it observes",
           ("domain", "full_view", "purged_view")),
    "c1": ("the two initial states are not related",
           ("concrete_initial", "abstract_initial")),
    "c2": ("silent action {action!r} leaves the state relation while the "
           "abstract side stands still",
           ("action", "abstract_state", "state", "successor")),
    "c3": ("no abstract step on {abstract_action!r} matches the concrete "
           "step {action!r}",
           ("action", "abstract_action", "abstract_candidates")),
    "c4": ("{action!r} belongs to domain {concrete_domain!r} but its "
           "abstract image {abstract_action!r} belongs to "
           "{abstract_domain!r}",
           ("action", "abstract_action", "concrete_domain",
            "abstract_domain")),
    "c5": ("policy edge {source} -> {target} exists on only one level",
           ("source", "target")),
    "c6": ("domain {domain!r} tells a pair of runs apart on one level but "
           "not the other",
           ("domain", "concrete_indist", "abstract_indist")),
    "lemma": ("component {component!r}: {reason}",
              ("component", "reason", "state", "successor",
               "other_component")),
}


class _Decoder:
    """Reads a witness's JSON back into the library's witness record.

    Each field is read by its type: an action by its label among the
    level's actions, a state by its serialization among the level's
    `by_id` (its universe when the report's scope is the universe, else
    its reachable states), found by a scan that assumes no id order; an
    observed value by its rendering among what the witness's domain
    observes at the end of the runs. Fields named
    `abstract_*`, and the second state of a pair, are read on the
    abstract level. A missing, null or mistyped field is a UsageError.
    """

    def __init__(self, raw: dict[str, Any], system: SecureSystem,
                 abstract: SecureSystem | None) -> None:
        self.raw = raw
        self.system = system
        self.abstract = abstract
        self.ends: list[State] = []
        self.read: dict[str, Any] = {}

    def field(self, name: str, hint: Any) -> Any:
        if name not in self.raw:
            raise UsageError(f"the witness has no field {name!r}")
        system = self.abstract if name.startswith("abstract_") else self.system
        value = self.read[name] = self.value(hint, self.raw[name], name, system)
        if name == "domain" and value not in system.config.domains:
            raise _stale(f"the rebuilt model has no domain {value!r}")
        return value

    def witness(self, cls: type) -> Any:
        hints = typing.get_type_hints(cls)
        return cls(**{f.name: self.field(f.name, hints[f.name])
                      for f in _witness_fields(cls)})

    def value(self, hint: Any, raw: Any, name: str, system: SecureSystem) -> Any:
        args = typing.get_args(hint)
        if typing.get_origin(hint) in (types.UnionType, typing.Union):
            if raw is None and type(None) in args:
                return None
            hint = next(a for a in args if a is not type(None))
            args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            if not isinstance(raw, list) or (args[-1] is not Ellipsis
                                              and len(raw) != len(args)):
                raise UsageError(f"witness field {name!r} has the wrong shape")
            if args[-1] is Ellipsis:
                return tuple(self.value(args[0], v, name, system) for v in raw)
            return tuple(self.value(a, v, name, level) for a, v, level
                         in zip(args, raw, (system, self.abstract)))
        if type(raw) is not (str if hint in (ActionId, State, object) else hint):
            raise UsageError(f"witness field {name!r} has the wrong shape")
        if hint is ActionId:
            if system.machine.has_action(raw):
                return raw
            raise _stale(f"the rebuilt model has no action {raw!r}")
        if hint is State:
            for state in system.machine.by_id:
                if state.serialize() == raw:
                    return state
            raise _stale(f"witness state {raw!r} is not a state of the "
                         "rebuilt model")
        if hint is object:
            for state in self.ends:
                seen = system.config.observe(self.read["domain"], state)
                if render_value(seen) == raw:
                    return seen
            raise _stale(f"no run ends where the witness observes {raw!r}")
        return raw


def _execute(system: SecureSystem, actions: Sequence[ActionId],
             start: Sequence[State], total: bool) -> list[tuple[State, ...]]:
    current = frozenset(start)
    sets = [tuple(sorted(current))]
    step = system.machine.step_total if total else system.machine.step
    for action in actions:
        nxt: set[State] = set()
        for state in current:
            nxt.update(step(state, action))
        if not nxt:
            raise _stale(f"witness trace does not execute: "
                         f"{action!r} is disabled at this point")
        current = frozenset(nxt)
        sets.append(tuple(sorted(current)))
    return sets


def _run_payload(labels: Sequence[str] | None,
                 sets: Sequence[tuple[State, ...]]) -> list[dict[str, Any]]:
    steps = [{"action": None, "states": [s.serialize() for s in sets[0]]}]
    for i, label in enumerate(labels or [], start=1):
        steps.append({"action": label,
                      "states": [s.serialize() for s in sets[i]]})
    return steps


def replay(loaded: Any, universe: bool, name: str,
           raw: dict[str, Any]) -> dict[str, Any]:
    """Decode the witness `raw` of failing check `name`, re-execute its
    runs, and re-check it with the library's predicate. `loaded` is the
    rebuilt target (`ifsec.cli.LoadedTarget`); `universe` is the
    report's scope."""
    tag = raw["type"]
    home, cls_name, predicate = _WITNESS_TYPES[tag]
    if tag in ("lr", "sc", "ni"):
        system = subject = _system_for(loaded, name)
    elif loaded.bundle is None or (tag == "lemma" and
                                   loaded.bundle.rely_guarantee is None):
        raise _stale(f"a {tag} witness needs a refinement target with the "
                     "contracts it speaks about")
    else:
        subject = loaded.bundle.pair
        system = subject.abstract if raw.get("level") == "abstract" \
            else subject.concrete
    decoder = _Decoder(raw, system, dict(loaded.levels).get("abstract"))
    scope_traces = dict(_SCOPE_TRACES.get(tag, ()))
    traced = []
    for title, trace_field, anchors in RUNS[tag]:
        if trace_field in scope_traces:
            trace = decoder.field(trace_field, tuple[ActionId, ...] | None)
            if (trace is None) != universe:
                raise UsageError(f"witness field {trace_field!r} does not "
                                 "fit the scope the report records")
        else:
            trace = decoder.field(trace_field, tuple[ActionId, ...])
        sets = None
        if trace is not None:
            sets = _execute(system, trace, [system.machine.initial],
                            tag == "ni")
            decoder.ends += sets[-1]
        traced.append((title, trace_field, anchors, sets))
    witness = decoder.witness(getattr(home, cls_name))

    runs = []
    for title, trace_field, anchors, sets in traced:
        if sets is None:
            sets = [(getattr(witness, scope_traces[trace_field]),)]
        elif len(sets) < len(anchors):
            continue
        for states, anchor in zip(reversed(sets), reversed(anchors)):
            state = getattr(witness, anchor)
            if isinstance(state, tuple):
                state = state[0]
            if state not in states:
                raise _stale(f"the witness's {anchor} is not where its "
                             "trace leads")
        title = title.format(check=name, level=raw.get("level"))
        runs.append({"title": title,
                     "steps": _run_payload(raw[trace_field], sets)})
    recheck = getattr(home, predicate)
    if tag == "lemma":
        violated = recheck(subject, loaded.bundle.rely_guarantee, name,
                           witness)
    else:
        violated = recheck(subject, witness)
    if not violated:
        raise _stale(f"the recorded {tag} violation no longer reproduces")

    encoded = to_json(witness, None)
    summary, shown = _EXPLAIN[tag]
    facts = {key: encoded[key] for key in shown}
    if tag == "lr":
        observe = system.config.observe
        facts["observation_before"] = render_value(
            observe(witness.domain, witness.state))
        facts["observation_after"] = render_value(
            observe(witness.domain, witness.successor))
    if tag == "c5":
        edge = (witness.source, witness.target)
        facts["concrete_has_edge"] = edge in subject.concrete.config.policy
        facts["abstract_has_edge"] = edge in subject.abstract.config.policy
    return {
        "condition": name if tag == "lemma" else tag,
        "summary": summary.format(**encoded),
        "runs": runs,
        "facts": facts,
    }
