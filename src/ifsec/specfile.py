"""Line-oriented model files (.ifs): parse, print, and elaborate.

A model file declares domains, a flow policy, finite-valued state
variables, actions as guarded rewrite rules, and per-domain variable
projections:

    [domains]
    lo
    hi

    [policy]
    lo -> lo
    lo -> hi
    hi -> hi

    [state]
    x in {0, 1} = 0

    [actions]
    act toggle hi
      x=0 -> x:=1
      x=1 -> x:=0

    [observe]
    lo: x

A refinement file joins two model files with a state relation, an
action map, and optional per-component rely-guarantee contracts:

    [refinement]
    concrete: impl.ifs
    abstract: spec.ifs

    [alpha]
    match: x == x

    [zeta]
    toggle -> toggle
    cleanup -> tau

    [components]
    toggle: worker

    [rely worker]
    keeps: x

    [guarantee worker]
    may: x

`#` starts a comment; values are integers, bare names, `T`/`F` booleans
or `-` for None. The printers emit a canonical form: parsing what they
print yields an equal document. Observations are variable projections
and transitions are explicit rules; models that need real program
structure use the programs module directly.
"""

from __future__ import annotations

import itertools
import math
import os.path
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from ifsec import refinement
from ifsec.core import (
    DEFAULT_STATE_BUDGET,
    ActionId,
    BudgetError,
    InfoFlowConfig,
    ModelError,
    ParseError,
    SecureSystem,
    State,
    Value,
    render_value,
    sort_actions,
    tabulate,
    values_getter,
)

MODEL_SECTIONS = ("domains", "policy", "state", "actions", "observe")

_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NAME_RE = re.compile(rf"{_NAME}\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_HEADER_RE = re.compile(r"\[([A-Za-z]+)(?:\s+(" + _NAME + r"))?\]\Z")
_POLICY_RE = re.compile(rf"({_NAME})\s*->\s*(\S+)\Z")
_VAR_RE = re.compile(rf"({_NAME})\s+in\s*\{{([^}}]*)\}}\s*=\s*(\S+)\Z")
_ACT_RE = re.compile(rf"act\s+({_NAME})\s+(\S+)\Z")
_RULE_RE = re.compile(r"(.+?)->(.+)\Z")
_OBSERVE_RE = re.compile(rf"({_NAME})\s*:\s*(.*)\Z")
_KEYED_RE = re.compile(r"([a-z]+)\s*:\s*(.*)\Z")


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarDecl:
    name: str
    values: tuple[Value, ...]
    initial: Value


@dataclass(frozen=True)
class Rule:
    """One transition rule: if every `pre` equality holds, apply `post`."""

    pre: tuple[tuple[str, Value], ...]
    post: tuple[tuple[str, Value], ...]


@dataclass(frozen=True)
class ActionDecl:
    label: str
    domain: str
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class ModelDocument:
    domains: tuple[str, ...]
    policy: tuple[tuple[str, str], ...]
    variables: tuple[VarDecl, ...]
    actions: tuple[ActionDecl, ...]
    observe: tuple[tuple[str, tuple[str, ...]], ...]

    def validate(self) -> None:
        """Reject a document whose parts do not fit together.

        Parsing performs these checks with positions; this method covers
        documents built in code.
        """
        if not self.domains:
            raise ModelError("a model needs at least one domain")
        if len(set(self.domains)) != len(self.domains):
            raise ModelError("duplicate domain")
        if not self.variables:
            raise ModelError("a model needs at least one state variable")
        var_names = [v.name for v in self.variables]
        if len(set(var_names)) != len(var_names):
            raise ModelError("duplicate state variable")
        sets = {}
        for decl in self.variables:
            if not decl.values:
                raise ModelError(f"variable {decl.name!r} has an empty value set")
            for value in decl.values:
                _check_file_value(decl.name, value)
            if len(set(decl.values)) != len(decl.values):
                raise ModelError(f"variable {decl.name!r} repeats a value")
            if decl.initial not in decl.values:
                raise ModelError(
                    f"initial value of {decl.name!r} is outside its declared set")
            sets[decl.name] = set(decl.values)
        for (u, v) in self.policy:
            for d in (u, v):
                if d not in self.domains:
                    raise ModelError(f"policy edge mentions unknown domain {d!r}")
        labels = [a.label for a in self.actions]
        if len(set(labels)) != len(labels):
            raise ModelError("duplicate action label")
        for action in self.actions:
            if action.domain not in self.domains:
                raise ModelError(
                    f"action {action.label!r} has unknown domain {action.domain!r}")
            for rule in action.rules:
                for side in (rule.pre, rule.post):
                    for var, value in side:
                        if var not in sets:
                            raise ModelError(
                                f"action {action.label!r} references "
                                f"undeclared variable {var!r}")
                        if value not in sets[var]:
                            raise ModelError(
                                f"action {action.label!r} uses value "
                                f"{render_value(value)!r} outside the declared "
                                f"set of {var!r}")
        seen_obs = set()
        for domain, vars_ in self.observe:
            if domain not in self.domains:
                raise ModelError(f"observation for unknown domain {domain!r}")
            if domain in seen_obs:
                raise ModelError(f"duplicate observation for domain {domain!r}")
            seen_obs.add(domain)
            for var in vars_:
                if var not in sets:
                    raise ModelError(
                        f"observation of {domain!r} references undeclared "
                        f"variable {var!r}")


@dataclass(frozen=True)
class RelationSpec:
    """A relation in a file: a variable frame or an explicit pair list."""

    frame: tuple[str, ...] | None = None
    pairs: tuple[tuple[str, str], ...] | None = None


@dataclass(frozen=True)
class RefinementDocument:
    concrete_ref: str
    abstract_ref: str
    alpha_matches: tuple[tuple[str, str], ...]
    alpha_pairs: tuple[tuple[str, str], ...]
    zeta: tuple[tuple[str, str], ...]
    components: tuple[tuple[str, str], ...]
    contracts: tuple[tuple[str, str, RelationSpec], ...]

    def wants_rely_guarantee(self) -> bool:
        return bool(self.components or self.contracts)


def _check_file_value(var: str, value: Value) -> None:
    if value is None or isinstance(value, (bool, int)):
        return
    if isinstance(value, str):
        if _NAME_RE.match(value) and value not in ("T", "F"):
            return
        raise ModelError(
            f"variable {var!r} declares string value {value!r}, which the "
            "file syntax cannot round-trip")
    raise ModelError(
        f"variable {var!r} declares a {type(value).__name__} value; model "
        "files hold scalars only")


# ---------------------------------------------------------------------------
# Lexical helpers
# ---------------------------------------------------------------------------

def _column(raw: str, token: str) -> int:
    at = raw.find(token)
    return at + 1 if at >= 0 else 1


def _fail(message: str, lineno: int, raw: str, token: str, hint: str) -> ParseError:
    return ParseError(message, line=lineno, column=_column(raw, token), hint=hint)


def _parse_value(token: str, lineno: int, raw: str) -> Value:
    if token == "-":
        return None
    if token == "T":
        return True
    if token == "F":
        return False
    if _INT_RE.match(token):
        return int(token)
    if _NAME_RE.match(token):
        return token
    raise _fail(f"malformed value {token!r}", lineno, raw, token,
                "values are integers, bare names, T, F, or - for None")


def _parse_name(token: str, what: str, lineno: int, raw: str) -> str:
    if _NAME_RE.match(token):
        return token
    raise _fail(f"malformed {what} {token!r}", lineno, raw, token,
                "names are letters, digits, '_' and '.', starting with a letter")


def _logical_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------

class _ModelBuilder:
    def __init__(self) -> None:
        self.domains: list[str] = []
        self.policy: list[tuple[str, str]] = []
        self.variables: list[VarDecl] = []
        self.actions: list[ActionDecl] = []
        self.observe: list[tuple[str, tuple[str, ...]]] = []
        self.pending: tuple[str, str, list[Rule]] | None = None
        self.var_sets: dict[str, set[Value]] = {}
        self.obs_seen: set[str] = set()

    def flush_action(self) -> None:
        if self.pending is not None:
            label, domain, rules = self.pending
            self.actions.append(ActionDecl(label, domain, tuple(rules)))
            self.pending = None


def parse_model(text: str, name: str = "<string>") -> ModelDocument:
    """Parse a model file; all names must resolve within the file."""
    builder = _ModelBuilder()
    section: str | None = None
    seen: list[str] = []

    for lineno, line in _logical_lines(text):
        stripped = line.strip()
        if stripped.startswith("["):
            header = _HEADER_RE.match(stripped)
            if not header or header.group(2) is not None \
                    or header.group(1) not in MODEL_SECTIONS:
                raise _fail(f"unknown section header {stripped!r} in {name}",
                            lineno, line, stripped,
                            "model sections are [domains], [policy], [state], "
                            "[actions], [observe], in that order")
            builder.flush_action()
            section = header.group(1)
            if section in seen:
                raise _fail(f"duplicate section [{section}]", lineno, line,
                            stripped, "merge the two sections into one")
            if seen and MODEL_SECTIONS.index(section) < MODEL_SECTIONS.index(seen[-1]):
                raise _fail(f"section [{section}] is out of order", lineno, line,
                            stripped,
                            "order sections as [domains], [policy], [state], "
                            "[actions], [observe]")
            seen.append(section)
            continue
        if section is None:
            raise _fail("content before any section header", lineno, line,
                        stripped, "start the file with [domains]")
        _parse_model_line(builder, section, lineno, line)

    builder.flush_action()
    if not builder.domains:
        raise ParseError(f"{name} declares no domains", line=1, column=1,
                         hint="add a [domains] section with at least one name")
    if not builder.variables:
        raise ParseError(f"{name} declares no state variables", line=1, column=1,
                         hint="add a [state] section such as: x in {0, 1} = 0")
    return ModelDocument(
        domains=tuple(builder.domains),
        policy=tuple(builder.policy),
        variables=tuple(builder.variables),
        actions=tuple(builder.actions),
        observe=tuple(builder.observe),
    )


def _parse_model_line(builder: _ModelBuilder, section: str, lineno: int,
                      line: str) -> None:
    stripped = line.strip()
    if section == "domains":
        domain = _parse_name(stripped, "domain", lineno, line)
        if domain in builder.domains:
            raise _fail(f"duplicate domain {domain!r}", lineno, line, domain,
                        "each domain is declared once")
        builder.domains.append(domain)
        return

    if section == "policy":
        m = _POLICY_RE.match(stripped)
        if not m:
            raise _fail(f"malformed policy edge {stripped!r}", lineno, line,
                        stripped, "write: source -> target")
        u, v = m.group(1), _parse_name(m.group(2), "domain", lineno, line)
        for d in (u, v):
            if d not in builder.domains:
                raise _fail(f"unknown domain {d!r} in policy edge", lineno, line,
                            d, "declare it under [domains] first")
        if (u, v) in builder.policy:
            raise _fail(f"duplicate policy edge {u} -> {v}", lineno, line, u,
                        "each edge is declared once")
        builder.policy.append((u, v))
        return

    if section == "state":
        m = _VAR_RE.match(stripped)
        if not m:
            raise _fail(f"malformed variable declaration {stripped!r}", lineno,
                        line, stripped, "write: name in {v1, v2} = v1")
        var, body, init_tok = m.groups()
        if var in builder.var_sets:
            raise _fail(f"duplicate variable {var!r}", lineno, line, var,
                        "each variable is declared once")
        tokens = [t.strip() for t in body.split(",")] if body.strip() else []
        if not tokens or any(not t for t in tokens):
            raise _fail(f"empty value in the set of {var!r}", lineno, line, var,
                        "list one or more comma-separated values inside {}")
        values = tuple(_parse_value(t, lineno, line) for t in tokens)
        if len(set(values)) != len(values):
            raise _fail(f"variable {var!r} repeats a value", lineno, line, var,
                        "list each value once")
        initial = _parse_value(init_tok, lineno, line)
        if initial not in values:
            raise _fail(f"initial value of {var!r} is outside its declared set",
                        lineno, line, init_tok,
                        "pick the initial value from the set in braces")
        builder.variables.append(VarDecl(var, values, initial))
        builder.var_sets[var] = set(values)
        return

    if section == "actions":
        if stripped.startswith("act ") or stripped == "act":
            m = _ACT_RE.match(stripped)
            if not m:
                raise _fail(f"malformed action header {stripped!r}", lineno,
                            line, stripped, "write: act LABEL DOMAIN")
            label, domain = m.group(1), _parse_name(m.group(2), "domain",
                                                    lineno, line)
            builder.flush_action()
            if any(a.label == label for a in builder.actions):
                raise _fail(f"duplicate action label {label!r}", lineno, line,
                            label, "each action is declared once")
            if domain not in builder.domains:
                raise _fail(f"unknown domain {domain!r} for action {label!r}",
                            lineno, line, domain,
                            "declare it under [domains] first")
            builder.pending = (label, domain, [])
            return
        if builder.pending is None:
            raise _fail(f"transition rule outside any action: {stripped!r}",
                        lineno, line, stripped,
                        "start an action first with: act LABEL DOMAIN")
        builder.pending[2].append(_parse_rule(builder, lineno, line, stripped))
        return

    if section == "observe":
        m = _OBSERVE_RE.match(stripped)
        if not m:
            raise _fail(f"malformed observation {stripped!r}", lineno, line,
                        stripped, "write: domain: var1 var2")
        domain, rest = m.groups()
        if domain not in builder.domains:
            raise _fail(f"observation for unknown domain {domain!r}", lineno,
                        line, domain, "declare it under [domains] first")
        if domain in builder.obs_seen:
            raise _fail(f"duplicate observation for domain {domain!r}", lineno,
                        line, domain, "merge the two lines into one")
        builder.obs_seen.add(domain)
        vars_ = tuple(_parse_name(t, "variable", lineno, line)
                      for t in rest.split())
        for var in vars_:
            if var not in builder.var_sets:
                raise _fail(f"observation references undeclared variable {var!r}",
                            lineno, line, var, "declare it under [state] first")
        builder.observe.append((domain, vars_))
        return

    raise AssertionError(f"unhandled section {section!r}")


def _parse_rule(builder: _ModelBuilder, lineno: int, line: str,
                stripped: str) -> Rule:
    m = _RULE_RE.match(stripped)
    if not m or "->" in m.group(2):
        raise _fail(f"malformed transition rule {stripped!r}", lineno, line,
                    stripped, "write: var=value, ... -> var:=value, ... "
                    "(either side may be *)")

    def bindings(side: str, op: str, what: str) -> tuple[tuple[str, Value], ...]:
        side = side.strip()
        if side == "*":
            return ()
        out: list[tuple[str, Value]] = []
        for part in side.split(","):
            part = part.strip()
            pieces = part.split(op)
            if len(pieces) != 2 or not pieces[0].strip() or not pieces[1].strip():
                raise _fail(f"malformed {what} {part!r}", lineno, line, part,
                            f"write: var{op}value")
            var = _parse_name(pieces[0].strip(), "variable", lineno, line)
            if var not in builder.var_sets:
                raise _fail(f"rule references undeclared variable {var!r}",
                            lineno, line, var, "declare it under [state] first")
            value = _parse_value(pieces[1].strip(), lineno, line)
            if value not in builder.var_sets[var]:
                raise _fail(
                    f"value {render_value(value)!r} is outside the declared "
                    f"set of {var!r}", lineno, line, pieces[1].strip(),
                    "extend the variable's value set or fix the rule")
            if any(v == var for v, _ in out):
                raise _fail(f"variable {var!r} bound twice in one {what} list",
                            lineno, line, var, "bind each variable once")
            out.append((var, value))
        return tuple(out)

    pre = bindings(m.group(1), "=", "condition")
    post = bindings(m.group(2), ":=", "assignment")
    return Rule(pre, post)


# ---------------------------------------------------------------------------
# Model printing
# ---------------------------------------------------------------------------

def _render_bindings(bindings: tuple[tuple[str, Value], ...], op: str) -> str:
    if not bindings:
        return "*"
    return ", ".join(f"{var}{op}{render_value(value)}" for var, value in bindings)


def print_model(doc: ModelDocument) -> str:
    """Render the canonical form; parsing it yields an equal document."""
    out: list[str] = ["[domains]"]
    out.extend(doc.domains)
    out += ["", "[policy]"]
    out.extend(f"{u} -> {v}" for u, v in doc.policy)
    out += ["", "[state]"]
    for var in doc.variables:
        values = ", ".join(render_value(v) for v in var.values)
        out.append(f"{var.name} in {{{values}}} = {render_value(var.initial)}")
    out += ["", "[actions]"]
    for action in doc.actions:
        out.append(f"act {action.label} {action.domain}")
        for rule in action.rules:
            out.append(f"  {_render_bindings(rule.pre, '=')} -> "
                       f"{_render_bindings(rule.post, ':=')}")
    out += ["", "[observe]"]
    for domain, vars_ in doc.observe:
        out.append(f"{domain}:" + (" " + " ".join(vars_) if vars_ else ""))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Refinement parsing
# ---------------------------------------------------------------------------

_FIXED_ORDER = ("refinement", "alpha", "zeta", "components")


def parse_refinement(text: str, name: str = "<string>") -> RefinementDocument:
    """Parse a refinement file tying two referenced model files together."""
    refs: dict[str, str] = {}
    matches: list[tuple[str, str]] = []
    pairs: list[tuple[str, str]] = []
    zeta: list[tuple[str, str]] = []
    components: list[tuple[str, str]] = []
    contracts: dict[tuple[str, str], RelationSpec] = {}

    section: str | None = None
    contract_key: tuple[str, str] | None = None
    seen_fixed: list[str] = []

    for lineno, line in _logical_lines(text):
        stripped = line.strip()
        if stripped.startswith("["):
            header = _HEADER_RE.match(stripped)
            if not header:
                raise _fail(f"unknown section header {stripped!r}", lineno, line,
                            stripped, "refinement sections are [refinement], "
                            "[alpha], [zeta], [components], [rely X], "
                            "[guarantee X]")
            kind, arg = header.groups()
            if kind in _FIXED_ORDER:
                if arg is not None:
                    raise _fail(f"section [{kind}] takes no name", lineno, line,
                                stripped, f"write just [{kind}]")
                if kind in seen_fixed:
                    raise _fail(f"duplicate section [{kind}]", lineno, line,
                                stripped, "merge the two sections into one")
                if seen_fixed and _FIXED_ORDER.index(kind) \
                        < _FIXED_ORDER.index(seen_fixed[-1]):
                    raise _fail(f"section [{kind}] is out of order", lineno,
                                line, stripped,
                                "order sections as [refinement], [alpha], "
                                "[zeta], [components], then contracts")
                if contracts:
                    raise _fail(f"section [{kind}] appears after contract "
                                "sections", lineno, line, stripped,
                                "put [rely X] and [guarantee X] last")
                seen_fixed.append(kind)
                section, contract_key = kind, None
            elif kind in ("rely", "guarantee"):
                if arg is None:
                    raise _fail(f"section [{kind}] needs a component name",
                                lineno, line, stripped,
                                f"write: [{kind} component]")
                key = (arg, kind)
                if key in contracts:
                    raise _fail(f"duplicate section [{kind} {arg}]", lineno,
                                line, stripped,
                                "merge the two sections into one")
                contracts[key] = RelationSpec()
                section, contract_key = "contract", key
            else:
                raise _fail(f"unknown section header {stripped!r}", lineno,
                            line, stripped,
                            "refinement sections are [refinement], [alpha], "
                            "[zeta], [components], [rely X], [guarantee X]")
            continue
        if section is None:
            raise _fail("content before any section header", lineno, line,
                        stripped, "start the file with [refinement]")
        if section == "refinement":
            _parse_ref_line(refs, lineno, line, stripped)
        elif section == "alpha":
            _parse_alpha_line(matches, pairs, lineno, line, stripped)
        elif section == "zeta":
            _parse_zeta_line(zeta, lineno, line, stripped)
        elif section == "components":
            _parse_component_line(components, lineno, line, stripped)
        else:
            assert contract_key is not None
            contracts[contract_key] = _parse_contract_line(
                contracts[contract_key], contract_key, lineno, line, stripped)

    for field in ("concrete", "abstract"):
        if field not in refs:
            raise ParseError(f"{name} does not name a {field} model",
                             line=1, column=1,
                             hint=f"add `{field}: path.ifs` under [refinement]")
    for (component, kind), spec in contracts.items():
        if spec.frame is None and spec.pairs is None:
            raise ParseError(
                f"section [{kind} {component}] is empty", line=1, column=1,
                hint="give a frame line (keeps:/may:) or pair: lines")
    ordered = tuple(sorted(((comp, kind), spec)
                           for (comp, kind), spec in contracts.items()))
    return RefinementDocument(
        concrete_ref=refs["concrete"],
        abstract_ref=refs["abstract"],
        alpha_matches=tuple(matches),
        alpha_pairs=tuple(pairs),
        zeta=tuple(zeta),
        components=tuple(components),
        contracts=tuple((comp, kind, spec) for (comp, kind), spec in ordered),
    )


def _parse_ref_line(refs: dict[str, str], lineno: int, line: str,
                    stripped: str) -> None:
    m = _KEYED_RE.match(stripped)
    if not m or m.group(1) not in ("concrete", "abstract"):
        raise _fail(f"malformed reference {stripped!r}", lineno, line, stripped,
                    "write: concrete: path.ifs or abstract: path.ifs")
    key, path = m.group(1), m.group(2).strip()
    if not path:
        raise _fail(f"empty path for {key!r}", lineno, line, stripped,
                    "name a model file after the colon")
    if key in refs:
        raise _fail(f"duplicate {key!r} reference", lineno, line, key,
                    "name each model once")
    refs[key] = path


def _parse_alpha_line(matches: list[tuple[str, str]],
                      pairs: list[tuple[str, str]], lineno: int, line: str,
                      stripped: str) -> None:
    m = _KEYED_RE.match(stripped)
    if not m or m.group(1) not in ("match", "pair"):
        raise _fail(f"malformed alpha line {stripped!r}", lineno, line,
                    stripped, "write: match: cvar == avar, or: "
                    "pair: c-state ~ a-state")
    if m.group(1) == "match":
        if pairs:
            raise _fail("alpha mixes match: and pair: lines", lineno, line,
                        stripped, "use one form for the whole section")
        parts = re.fullmatch(rf"({_NAME})\s*==\s*({_NAME})", m.group(2).strip())
        if not parts:
            raise _fail(f"malformed match constraint {stripped!r}", lineno,
                        line, stripped, "write: match: cvar == avar")
        matches.append((parts.group(1), parts.group(2)))
    else:
        if matches:
            raise _fail("alpha mixes match: and pair: lines", lineno, line,
                        stripped, "use one form for the whole section")
        pairs.append(_parse_state_pair(m.group(2), lineno, line))


def _parse_state_pair(body: str, lineno: int, line: str) -> tuple[str, str]:
    parts = body.strip().split("~")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise _fail(f"malformed state pair {body.strip()!r}", lineno, line,
                    body.strip(), "write: pair: x=0;y=1 ~ x=0")
    serials = []
    for side in parts:
        serial = side.strip()
        if re.search(r"\s", serial):
            raise _fail(f"state {serial!r} contains whitespace", lineno, line,
                        serial, "serialized states are var=value;var=value "
                        "with no spaces")
        _parse_serial(serial, lineno, line)
        serials.append(serial)
    return (serials[0], serials[1])


def _parse_serial(serial: str, lineno: int | None = None,
                  line: str = "") -> State:
    """Parse `a=1;b=x` into a State (scalar values only)."""
    items: dict[str, Value] = {}
    for piece in serial.split(";"):
        halves = piece.split("=")
        if len(halves) != 2 or not halves[0] or not halves[1]:
            raise _fail(f"malformed state {serial!r}", lineno or 1, line or serial,
                        piece, "write: var=value;var=value")
        var = halves[0]
        if not _NAME_RE.match(var):
            raise _fail(f"malformed variable name {var!r}", lineno or 1,
                        line or serial, var,
                        "names are letters, digits, '_' and '.'")
        if var in items:
            raise _fail(f"variable {var!r} repeats in state {serial!r}",
                        lineno or 1, line or serial, var,
                        "list each variable once")
        items[var] = _parse_value(halves[1], lineno or 1, line or serial)
    return State(items)


def _parse_zeta_line(zeta: list[tuple[str, str]], lineno: int, line: str,
                     stripped: str) -> None:
    m = _POLICY_RE.match(stripped)
    if not m:
        raise _fail(f"malformed zeta entry {stripped!r}", lineno, line,
                    stripped, "write: concrete-label -> abstract-label, or "
                    "-> tau")
    src = m.group(1)
    tgt = m.group(2) if m.group(2) == "tau" \
        else _parse_name(m.group(2), "action label", lineno, line)
    if any(s == src for s, _ in zeta):
        raise _fail(f"duplicate zeta entry for {src!r}", lineno, line, src,
                    "map each concrete action once")
    zeta.append((src, tgt))


def _parse_component_line(components: list[tuple[str, str]], lineno: int,
                          line: str, stripped: str) -> None:
    m = _OBSERVE_RE.match(stripped)
    if not m or not m.group(2).strip():
        raise _fail(f"malformed component entry {stripped!r}", lineno, line,
                    stripped, "write: action-label: component")
    label = m.group(1)
    component = _parse_name(m.group(2).strip(), "component", lineno, line)
    if any(l == label for l, _ in components):
        raise _fail(f"duplicate component entry for {label!r}", lineno, line,
                    label, "map each action once")
    components.append((label, component))


def _parse_contract_line(spec: RelationSpec, key: tuple[str, str], lineno: int,
                         line: str, stripped: str) -> RelationSpec:
    component, kind = key
    frame_word = "keeps" if kind == "rely" else "may"
    m = _KEYED_RE.match(stripped)
    if not m or m.group(1) not in ("keeps", "may", "pair"):
        raise _fail(f"malformed contract line {stripped!r}", lineno, line,
                    stripped, f"write: {frame_word}: var1 var2, or: "
                    "pair: state ~ state")
    if m.group(1) in ("keeps", "may"):
        if m.group(1) != frame_word:
            raise _fail(f"{m.group(1)}: does not belong in a {kind} section",
                        lineno, line, m.group(1),
                        "rely sections use keeps:, guarantee sections use may:")
        if spec.frame is not None:
            raise _fail(f"second frame line in [{kind} {component}]", lineno,
                        line, stripped, "give one frame line per section")
        if spec.pairs is not None:
            raise _fail(f"[{kind} {component}] mixes a frame with pair: lines",
                        lineno, line, stripped,
                        "use one form for the whole section")
        vars_ = tuple(_parse_name(t, "variable", lineno, line)
                      for t in m.group(2).split())
        return RelationSpec(frame=vars_, pairs=spec.pairs)
    if spec.frame is not None:
        raise _fail(f"[{kind} {component}] mixes a frame with pair: lines",
                    lineno, line, stripped, "use one form for the whole section")
    pair = _parse_state_pair(m.group(2), lineno, line)
    return RelationSpec(frame=None, pairs=(spec.pairs or ()) + (pair,))


# ---------------------------------------------------------------------------
# Refinement printing
# ---------------------------------------------------------------------------

def print_refinement(doc: RefinementDocument) -> str:
    out = ["[refinement]",
           f"concrete: {doc.concrete_ref}",
           f"abstract: {doc.abstract_ref}",
           "", "[alpha]"]
    out.extend(f"match: {c} == {a}" for c, a in doc.alpha_matches)
    out.extend(f"pair: {c} ~ {a}" for c, a in doc.alpha_pairs)
    out += ["", "[zeta]"]
    out.extend(f"{src} -> {tgt}" for src, tgt in doc.zeta)
    if doc.components:
        out += ["", "[components]"]
        out.extend(f"{label}: {component}" for label, component in doc.components)
    for component, kind, spec in doc.contracts:
        out += ["", f"[{kind} {component}]"]
        if spec.frame is not None:
            word = "keeps" if kind == "rely" else "may"
            out.append(f"{word}:" + (" " + " ".join(spec.frame)
                                     if spec.frame else ""))
        for c, a in spec.pairs or ():
            out.append(f"pair: {c} ~ {a}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_model(path: str) -> ModelDocument:
    return parse_model(_read(path), name=path)


def load_refinement(path: str) -> RefinementDocument:
    return parse_refinement(_read(path), name=path)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}",
                         hint="check the path") from None


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

def elaborate_model(doc: ModelDocument, budget: int | None = None,
                    universe: bool = False) -> SecureSystem:
    """Build the explicit system a model document describes.

    The declared state space is the product of the variables' value
    sets; a document declaring more than `budget` assignments (default
    DEFAULT_STATE_BUDGET) is refused before anything is built.  The
    machine's alphabet is every declared action, enabled or not, and
    its `states` are the assignments reachable from the initial one.

    `core.tabulate` builds the machine, with the compiled rules as its
    successor function and ids ranked by serialization.  By default it
    searches from the initial assignment alone, so `by_id` holds the
    reachable states and `universe` is None.  With `universe`, the whole
    declared product is searched too and kept as the universe, for
    checks that quantify over unreachable states.
    """
    doc.validate()
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    size = math.prod(len(v.values) for v in doc.variables)
    if size > limit:
        raise BudgetError(
            f"declared state space has {size} assignments (limit {limit}); "
            "shrink a value set or raise --budget")

    initial = State({v.name: v.initial for v in doc.variables})
    actions = sort_actions(ActionId(a.label) for a in doc.actions)
    declared = {v.name: v.values for v in doc.variables}
    machine = tabulate(
        initial, _compile_rules(doc, initial.names, actions), budget, actions,
        itertools.product(*map(declared.get, initial.names)) if universe
        else None)

    views = {domain: values_getter(vars_) for domain, vars_ in doc.observe}
    unobserved = values_getter(())

    def observe(domain: str, state: State) -> Value:
        return views.get(domain, unobserved)(state)

    config = InfoFlowConfig(
        domains=tuple(sorted(doc.domains)),
        policy=frozenset(doc.policy),
        dom={ActionId(a.label): a.domain for a in doc.actions},
        observe=observe,
    )
    return SecureSystem(machine, config)


def _compile_rules(doc: ModelDocument, names: tuple[str, ...],
                   actions: tuple[ActionId, ...]
                   ) -> Callable[[tuple], list[tuple[ActionId, tuple]]]:
    """The successor function of a document's rules over states' values
    tuples, with variables at their positions in `names`.

    It returns, in the order of `actions`, each enabled action with the
    values its firing rules produce, one step per rule (two rules may
    produce the same values).
    """
    position = {name: i for i, name in enumerate(names)}
    by_label = {a.label: a for a in doc.actions}
    compiled = tuple(
        (action, tuple((tuple((position[var], value) for var, value in rule.pre),
                        tuple((position[var], value) for var, value in rule.post))
                       for rule in by_label[action.label].rules))
        for action in actions)

    def successors(values: tuple) -> list[tuple[ActionId, tuple]]:
        steps = []
        for action, rules in compiled:
            for pre, post in rules:
                for i, value in pre:
                    if values[i] != value:
                        break
                else:
                    new = list(values)
                    for i, value in post:
                        new[i] = value
                    steps.append((action, tuple(new)))
        return steps

    return successors


def elaborate_refinement(
        doc: RefinementDocument, base_dir: str = ".", budget: int | None = None
) -> tuple[refinement.RefinementPair, refinement.RelyGuaranteeSpec | None]:
    """Resolve a refinement document against its two model files. Only
    here, and in the helpers below, does `specfile` use `refinement`."""
    def resolve(ref: str) -> str:
        return ref if os.path.isabs(ref) else os.path.join(base_dir, ref)

    concrete_doc = load_model(resolve(doc.concrete_ref))
    abstract_doc = load_model(resolve(doc.abstract_ref))
    concrete = elaborate_model(concrete_doc, budget=budget)
    abstract = elaborate_model(abstract_doc, budget=budget)

    alpha = _elaborate_alpha(doc, concrete_doc, abstract_doc)
    zeta = _elaborate_zeta(doc, concrete, abstract)
    pair = refinement.RefinementPair(concrete, abstract, alpha, zeta)
    rg = _elaborate_contracts(doc, concrete_doc, concrete) \
        if doc.wants_rely_guarantee() else None
    return pair, rg


def _elaborate_alpha(doc: RefinementDocument, concrete_doc: ModelDocument,
                     abstract_doc: ModelDocument) -> refinement.Alpha:
    """`match:` lines give a keyed alpha (the matched variables' values
    at each level), `pair:` lines a table, and no lines the total alpha,
    whose key, of no variables, is the same for every state."""
    concrete_vars = {v.name for v in concrete_doc.variables}
    abstract_vars = {v.name for v in abstract_doc.variables}
    if doc.alpha_matches:
        for cvar, avar in doc.alpha_matches:
            if cvar not in concrete_vars:
                raise ModelError(
                    f"alpha matches unknown concrete variable {cvar!r}")
            if avar not in abstract_vars:
                raise ModelError(
                    f"alpha matches unknown abstract variable {avar!r}")
        constraints = tuple(doc.alpha_matches)
        text = ", ".join(f"{cv} == {av}" for cv, av in constraints)
        return refinement.Alpha.keyed(
            values_getter(cv for cv, _ in constraints),
            values_getter(av for _, av in constraints), f"match {text}")
    if doc.alpha_pairs:
        return refinement.Alpha.from_pairs(_state_pairs(
            doc.alpha_pairs, "alpha", concrete_vars, abstract_vars, "abstract"))
    return refinement.Alpha.keyed(values_getter(()), values_getter(()), "total")


def _state_pairs(pairs: Iterable[tuple[str, str]], where: str,
                 left_vars: set[str], right_vars: set[str],
                 right_level: str = "concrete") -> list[tuple[State, State]]:
    """The states of `pair:` lines. The left side of each pair must
    bind exactly the concrete variables and the right side those of
    `right_level`, in any order."""
    def state(serial: str, names: set[str], level: str) -> State:
        parsed = _parse_serial(serial)
        if set(parsed.names) != names:
            raise ModelError(f"{where} pair state {serial!r} does not bind "
                             f"exactly the {level} variables")
        return parsed

    return [(state(left, left_vars, "concrete"),
             state(right, right_vars, right_level)) for left, right in pairs]


def _elaborate_zeta(doc: RefinementDocument, concrete: SecureSystem,
                    abstract: SecureSystem) -> refinement.Zeta:
    concrete_labels = {a.label: a for a in concrete.machine.actions}
    abstract_labels = {a.label: a for a in abstract.machine.actions}
    mapping = {}
    for src, tgt in doc.zeta:
        action = concrete_labels.get(src)
        if action is None:
            raise ModelError(f"zeta maps unknown concrete action {src!r}")
        if tgt == "tau":
            mapping[action] = refinement.TAU
            continue
        target = abstract_labels.get(tgt)
        if target is None:
            raise ModelError(f"zeta target {tgt!r} is not an abstract action")
        mapping[action] = target
    return refinement.Zeta(mapping)


def _elaborate_contracts(doc: RefinementDocument, concrete_doc: ModelDocument,
                         concrete: SecureSystem
                         ) -> refinement.RelyGuaranteeSpec:
    component_map = dict(doc.components)
    for action in concrete.machine.actions:
        if action.label not in component_map:
            raise ModelError(
                f"action {action.label!r} has no entry in [components]")
    known = set(component_map.values())
    var_names = {v.name for v in concrete_doc.variables}

    relations = {}
    for component, kind, spec in doc.contracts:
        where = f"[{kind} {component}]"
        if component not in known:
            raise ModelError(f"{where} names a component no action maps to")
        if spec.frame is None:
            relations[component, kind] = refinement.pair_table(_state_pairs(
                spec.pairs or (), where, var_names, var_names))
            continue
        for var in spec.frame:
            if var not in var_names:
                raise ModelError(
                    f"{where} frame names unknown variable {var!r}")
        frame = refinement.frame_rely if kind == "rely" \
            else refinement.frame_guarantee
        relations[component, kind] = frame(spec.frame)

    total = refinement.total_relation
    contracts = {
        component: refinement.ComponentContract(
            rely=relations.get((component, "rely"), total),
            guarantee=relations.get((component, "guarantee"), total),
        )
        for component in sorted(known)
    }
    return refinement.RelyGuaranteeSpec(
        contracts=contracts,
        component_of=lambda action: component_map[action.label],
    )
