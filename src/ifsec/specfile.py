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
print yields an equal document. The parser states the file rules once:
`ModelDocument.validate` accepts exactly the documents that print as
text the parser reads back unchanged. Observations are variable
projections and transitions are explicit rules; models that need real
program structure use the programs module directly.
"""

from __future__ import annotations

import itertools
import math
import os.path
import re
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
    record,
    render_value,
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

@record
class VarDecl:
    name: str
    values: tuple[Value, ...]
    initial: Value


@record
class Rule:
    """One transition rule: if every `pre` equality holds, apply `post`."""

    pre: tuple[tuple[str, Value], ...]
    post: tuple[tuple[str, Value], ...]


@record
class ActionDecl:
    label: str
    domain: str
    rules: tuple[Rule, ...]


@record
class ModelDocument:
    domains: tuple[str, ...]
    policy: tuple[tuple[str, str], ...]
    variables: tuple[VarDecl, ...]
    actions: tuple[ActionDecl, ...]
    observe: tuple[tuple[str, tuple[str, ...]], ...]

    def validate(self) -> None:
        """Reject a document that no model file states: it must hold
        scalar values and print as text that `parse_model` reads back
        unchanged, so a document built in code meets exactly the rules
        a file meets."""
        for decl in self.variables:
            for value in decl.values:
                _check_file_value(decl.name, value)
        try:
            same = parse_model(print_model(self), name="model") == self
        except ParseError as exc:
            raise ModelError(exc.message) from None
        if not same:
            raise ModelError("model: printing and parsing it back gives a "
                             "different document")


@record
class RelationSpec:
    """A relation in a file: a variable frame or an explicit pair list."""

    frame: tuple[str, ...] | None = None
    pairs: tuple[tuple[str, str], ...] | None = None


@record
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
# Lexical helpers and the section reader
# ---------------------------------------------------------------------------

class _Bad(ParseError):
    """A fault in one line: its message, the token its column points at,
    and a fix hint. `_read_sections` adds the file name and position;
    raised outside it (a `pair:` state of a document built in code,
    read at elaboration) it is a ParseError without them."""

    def __init__(self, message: str, token: str, hint: str) -> None:
        super().__init__(message, hint=hint)
        self.token = token


def _parse_value(token: str) -> Value:
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
    raise _Bad(f"malformed value {token!r}", token,
               "values are integers, bare names, T, F, or - for None")


def _parse_name(token: str, what: str) -> str:
    if _NAME_RE.match(token):
        return token
    raise _Bad(f"malformed {what} {token!r}", token,
               "names are letters, digits, '_' and '.', starting with a letter")


def _read_sections(text: str, name: str, builder):
    """Feed each content line of `text`, comments stripped, to
    `builder.take` with the section it is in, then return what
    `builder.finish` makes of the sections seen. A fault becomes a
    ParseError that starts with `name` and carries the line and column
    of its token; a fault found at the end points at line 1."""
    seen: list[tuple[str, str | None]] = []
    lineno, line = 1, ""
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("["):
                seen.append(_header(stripped, builder.fixed, builder.named,
                                    seen))
            elif not seen:
                raise _Bad("content before any section header", stripped,
                           f"start the file with [{builder.fixed[0]}]")
            else:
                builder.take(*seen[-1], stripped)
        lineno, line = 1, ""
        return builder.finish(seen)
    except _Bad as bad:
        raise ParseError(f"{name}: {bad.message}", line=lineno,
                         column=line.find(bad.token) + 1 or 1,
                         hint=bad.hint) from None


def _header(line: str, fixed: tuple[str, ...], named: tuple[str, ...],
            seen: list[tuple[str, str | None]]) -> tuple[str, str | None]:
    """The (kind, name) of the section header `line`. The `fixed` kinds
    come once each, in order, and before any `named` kind; a `named`
    kind comes once per name. Only a refinement file has named kinds."""
    listing = ", ".join(f"[{kind}]" for kind in fixed)
    header = _HEADER_RE.match(line)
    kind, arg = header.groups() if header else (None, None)
    if kind not in fixed + named or (arg and not named):
        raise _Bad(f"unknown section header {line!r}", line,
                   f"refinement sections are {listing}, [rely X], "
                   "[guarantee X]" if named
                   else f"model sections are {listing}, in that order")
    if kind in named and arg is None:
        raise _Bad(f"section [{kind}] needs a component name", line,
                   f"write: [{kind} component]")
    if kind in fixed and arg is not None:
        raise _Bad(f"section [{kind}] takes no name", line,
                   f"write just [{kind}]")
    if (kind, arg) in seen:
        title = kind if arg is None else f"{kind} {arg}"
        raise _Bad(f"duplicate section [{title}]", line,
                   "merge the two sections into one")
    before = [k for k, _ in seen if k in fixed]
    if kind in fixed and before \
            and fixed.index(kind) < fixed.index(before[-1]):
        raise _Bad(f"section [{kind}] is out of order", line,
                   f"order sections as {listing}"
                   + (", then contracts" if named else ""))
    if kind in fixed and len(before) < len(seen):
        raise _Bad(f"section [{kind}] appears after contract sections", line,
                   "put [rely X] and [guarantee X] last")
    return kind, arg


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------

class _ModelBuilder:
    fixed, named = MODEL_SECTIONS, ()

    def __init__(self) -> None:
        self.domains: list[str] = []
        self.policy: list[tuple[str, str]] = []
        self.variables: dict[str, VarDecl] = {}
        self.actions: list[tuple[str, str, list[Rule]]] = []
        self.observe: list[tuple[str, tuple[str, ...]]] = []

    def take(self, section: str, _: None, line: str) -> None:
        if section == "domains":
            domain = _parse_name(line, "domain")
            if domain in self.domains:
                raise _Bad(f"duplicate domain {domain!r}", domain,
                           "each domain is declared once")
            self.domains.append(domain)

        elif section == "policy":
            m = _POLICY_RE.match(line)
            if not m:
                raise _Bad(f"malformed policy edge {line!r}", line,
                           "write: source -> target")
            u, v = m.group(1), _parse_name(m.group(2), "domain")
            for d in (u, v):
                if d not in self.domains:
                    raise _Bad(f"unknown domain {d!r} in policy edge", d,
                               "declare it under [domains] first")
            if (u, v) in self.policy:
                raise _Bad(f"duplicate policy edge {u} -> {v}", u,
                           "each edge is declared once")
            self.policy.append((u, v))

        elif section == "state":
            m = _VAR_RE.match(line)
            if not m:
                raise _Bad(f"malformed variable declaration {line!r}", line,
                           "write: name in {v1, v2} = v1")
            var, body, init_tok = m.groups()
            if var in self.variables:
                raise _Bad(f"duplicate variable {var!r}", var,
                           "each variable is declared once")
            tokens = [t.strip() for t in body.split(",")]
            if not all(tokens):
                raise _Bad(f"empty value in the set of {var!r}", var,
                           "list one or more comma-separated values inside {}")
            values = tuple(map(_parse_value, tokens))
            if len(set(values)) != len(values):
                raise _Bad(f"variable {var!r} repeats a value", var,
                           "list each value once")
            initial = _parse_value(init_tok)
            if initial not in values:
                raise _Bad(f"initial value of {var!r} is outside its declared "
                           "set", init_tok,
                           "pick the initial value from the set in braces")
            self.variables[var] = VarDecl(var, values, initial)

        elif section == "actions":
            if line.startswith("act ") or line == "act":
                m = _ACT_RE.match(line)
                if not m:
                    raise _Bad(f"malformed action header {line!r}", line,
                               "write: act LABEL DOMAIN")
                label, domain = m.group(1), _parse_name(m.group(2), "domain")
                if any(a[0] == label for a in self.actions):
                    raise _Bad(f"duplicate action label {label!r}", label,
                               "each action is declared once")
                if domain not in self.domains:
                    raise _Bad(f"unknown domain {domain!r} for action "
                               f"{label!r}", domain,
                               "declare it under [domains] first")
                self.actions.append((label, domain, []))
            elif not self.actions:
                raise _Bad(f"transition rule outside any action: {line!r}",
                           line,
                           "start an action first with: act LABEL DOMAIN")
            else:
                self.actions[-1][2].append(self.rule(line))

        else:
            m = _OBSERVE_RE.match(line)
            if not m:
                raise _Bad(f"malformed observation {line!r}", line,
                           "write: domain: var1 var2")
            domain, rest = m.groups()
            if domain not in self.domains:
                raise _Bad(f"observation for unknown domain {domain!r}",
                           domain, "declare it under [domains] first")
            if any(d == domain for d, _ in self.observe):
                raise _Bad(f"duplicate observation for domain {domain!r}",
                           domain, "merge the two lines into one")
            vars_ = tuple(_parse_name(t, "variable") for t in rest.split())
            for var in vars_:
                if var not in self.variables:
                    raise _Bad(f"observation references undeclared variable "
                               f"{var!r}", var,
                               "declare it under [state] first")
            self.observe.append((domain, vars_))

    def rule(self, line: str) -> Rule:
        m = _RULE_RE.match(line)
        if not m or "->" in m.group(2):
            raise _Bad(f"malformed transition rule {line!r}", line,
                       "write: var=value, ... -> var:=value, ... "
                       "(either side may be *)")
        return Rule(self.bindings(m.group(1), "=", "condition"),
                    self.bindings(m.group(2), ":=", "assignment"))

    def bindings(self, side: str, op: str,
                 what: str) -> tuple[tuple[str, Value], ...]:
        side = side.strip()
        if side == "*":
            return ()
        out: list[tuple[str, Value]] = []
        for part in side.split(","):
            part = part.strip()
            pieces = [piece.strip() for piece in part.split(op)]
            if len(pieces) != 2 or not all(pieces):
                raise _Bad(f"malformed {what} {part!r}", part,
                           f"write: var{op}value")
            var = _parse_name(pieces[0], "variable")
            if var not in self.variables:
                raise _Bad(f"rule references undeclared variable {var!r}", var,
                           "declare it under [state] first")
            value = _parse_value(pieces[1])
            if value not in self.variables[var].values:
                raise _Bad(f"value {render_value(value)!r} is outside the "
                           f"declared set of {var!r}", pieces[1],
                           "extend the variable's value set or fix the rule")
            if any(v == var for v, _ in out):
                raise _Bad(f"variable {var!r} bound twice in one {what} list",
                           var, "bind each variable once")
            out.append((var, value))
        return tuple(out)

    def finish(self, _: list) -> ModelDocument:
        if not self.domains:
            raise _Bad("declares no domains", "",
                       "add a [domains] section with at least one name")
        if not self.variables:
            raise _Bad("declares no state variables", "",
                       "add a [state] section such as: x in {0, 1} = 0")
        return ModelDocument(
            domains=tuple(self.domains),
            policy=tuple(self.policy),
            variables=tuple(self.variables.values()),
            actions=tuple(ActionDecl(label, domain, tuple(rules))
                          for label, domain, rules in self.actions),
            observe=tuple(self.observe),
        )


def parse_model(text: str, name: str = "<string>") -> ModelDocument:
    """Parse a model file; all names must resolve within the file."""
    return _read_sections(text, name, _ModelBuilder())


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
    out.extend(map(str, doc.domains))
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
        out.append(f"{domain}:" + (" " + " ".join(map(str, vars_))
                                   if vars_ else ""))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Refinement parsing
# ---------------------------------------------------------------------------

class _RefinementBuilder:
    fixed, named = ("refinement", "alpha", "zeta", "components"), \
        ("rely", "guarantee")

    def __init__(self) -> None:
        self.refs: dict[str, str] = {}
        self.matches: list[tuple[str, str]] = []
        self.pairs: list[tuple[str, str]] = []
        self.zeta: dict[str, str] = {}
        self.components: dict[str, str] = {}
        self.contracts: dict[tuple[str, str], RelationSpec] = {}

    def take(self, kind: str, arg: str | None, line: str) -> None:
        keyed = _KEYED_RE.match(line)
        key, rest = keyed.groups() if keyed else (None, "")
        if kind == "refinement":
            if key not in ("concrete", "abstract"):
                raise _Bad(f"malformed reference {line!r}", line,
                           "write: concrete: path.ifs or abstract: path.ifs")
            if not rest.strip():
                raise _Bad(f"empty path for {key!r}", line,
                           "name a model file after the colon")
            if key in self.refs:
                raise _Bad(f"duplicate {key!r} reference", key,
                           "name each model once")
            self.refs[key] = rest.strip()

        elif kind == "alpha":
            if key not in ("match", "pair"):
                raise _Bad(f"malformed alpha line {line!r}", line,
                           "write: match: cvar == avar, or: "
                           "pair: c-state ~ a-state")
            if self.pairs if key == "match" else self.matches:
                raise _Bad("alpha mixes match: and pair: lines", line,
                           "use one form for the whole section")
            if key == "pair":
                self.pairs.append(_parse_state_pair(rest))
                return
            parts = re.fullmatch(rf"({_NAME})\s*==\s*({_NAME})", rest.strip())
            if not parts:
                raise _Bad(f"malformed match constraint {line!r}", line,
                           "write: match: cvar == avar")
            self.matches.append(parts.groups())

        elif kind == "zeta":
            m = _POLICY_RE.match(line)
            if not m:
                raise _Bad(f"malformed zeta entry {line!r}", line,
                           "write: concrete-label -> abstract-label, or "
                           "-> tau")
            src, tgt = m.group(1), _parse_name(m.group(2), "action label")
            if src in self.zeta:
                raise _Bad(f"duplicate zeta entry for {src!r}", src,
                           "map each concrete action once")
            self.zeta[src] = tgt

        elif kind == "components":
            m = _OBSERVE_RE.match(line)
            if not m or not m.group(2).strip():
                raise _Bad(f"malformed component entry {line!r}", line,
                           "write: action-label: component")
            label = m.group(1)
            component = _parse_name(m.group(2).strip(), "component")
            if label in self.components:
                raise _Bad(f"duplicate component entry for {label!r}", label,
                           "map each action once")
            self.components[label] = component

        else:
            frame_word = "keeps" if kind == "rely" else "may"
            spec = self.contracts.get((arg, kind), RelationSpec())
            if key not in ("keeps", "may", "pair"):
                raise _Bad(f"malformed contract line {line!r}", line,
                           f"write: {frame_word}: var1 var2, or: "
                           "pair: state ~ state")
            if key not in ("pair", frame_word):
                raise _Bad(f"{key}: does not belong in a {kind} section", key,
                           "rely sections use keeps:, guarantee sections "
                           "use may:")
            if key == frame_word and spec.frame is not None:
                raise _Bad(f"second frame line in [{kind} {arg}]", line,
                           "give one frame line per section")
            if (spec.frame if key == "pair" else spec.pairs) is not None:
                raise _Bad(f"[{kind} {arg}] mixes a frame with pair: lines",
                           line, "use one form for the whole section")
            self.contracts[arg, kind] = RelationSpec(
                pairs=(spec.pairs or ()) + (_parse_state_pair(rest),)) \
                if key == "pair" else RelationSpec(frame=tuple(
                    _parse_name(t, "variable") for t in rest.split()))

    def finish(self, seen: list[tuple[str, str | None]]
               ) -> RefinementDocument:
        for field, named in (("concrete", "a concrete"),
                             ("abstract", "an abstract")):
            if field not in self.refs:
                raise _Bad(f"does not name {named} model", "",
                           f"add `{field}: path.ifs` under [refinement]")
        for kind, arg in seen:
            if kind in self.named and (arg, kind) not in self.contracts:
                raise _Bad(f"section [{kind} {arg}] is empty", "",
                           "give a frame line (keeps:/may:) or pair: lines")
        return RefinementDocument(
            concrete_ref=self.refs["concrete"],
            abstract_ref=self.refs["abstract"],
            alpha_matches=tuple(self.matches),
            alpha_pairs=tuple(self.pairs),
            zeta=tuple(self.zeta.items()),
            components=tuple(self.components.items()),
            contracts=tuple((comp, kind, spec) for (comp, kind), spec
                            in sorted(self.contracts.items())),
        )


def parse_refinement(text: str, name: str = "<string>") -> RefinementDocument:
    """Parse a refinement file tying two referenced model files together."""
    return _read_sections(text, name, _RefinementBuilder())


def _parse_state_pair(body: str) -> tuple[str, str]:
    parts = [part.strip() for part in body.split("~")]
    if len(parts) != 2 or not all(parts):
        raise _Bad(f"malformed state pair {body.strip()!r}", body.strip(),
                   "write: pair: x=0;y=1 ~ x=0")
    for serial in parts:
        if re.search(r"\s", serial):
            raise _Bad(f"state {serial!r} contains whitespace", serial,
                       "serialized states are var=value;var=value "
                       "with no spaces")
        _parse_serial(serial)
    return parts[0], parts[1]


def _parse_serial(serial: str) -> State:
    """Parse `a=1;b=x` into a State (scalar values only)."""
    items: dict[str, Value] = {}
    for piece in serial.split(";"):
        halves = piece.split("=")
        if len(halves) != 2 or not all(halves):
            raise _Bad(f"malformed state {serial!r}", piece,
                       "write: var=value;var=value")
        var = halves[0]
        if not _NAME_RE.match(var):
            raise _Bad(f"malformed variable name {var!r}", var,
                       "names are letters, digits, '_' and '.'")
        if var in items:
            raise _Bad(f"variable {var!r} repeats in state {serial!r}", var,
                       "list each variable once")
        items[var] = _parse_value(halves[1])
    return State(items)


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
    successor function and ids in discovery order, not serialization
    order.  By default it searches from the initial assignment alone,
    so `by_id` holds the reachable states and `universe` is None.  With
    `universe`, the whole declared product is searched too and kept as
    the universe, for checks that quantify over unreachable states; the
    initial assignment and then the product are the search's roots, so
    they take the first ids.
    """
    doc.validate()
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    size = math.prod(len(v.values) for v in doc.variables)
    if size > limit:
        raise BudgetError(
            f"declared state space has {size} assignments (limit {limit}); "
            "shrink a value set or raise --budget")

    initial = State({v.name: v.initial for v in doc.variables})
    actions = tuple(sorted(a.label for a in doc.actions))
    declared = {v.name: v.values for v in doc.variables}
    machine = tabulate(
        initial, _compile_rules(doc, initial.names, actions), actions, budget,
        itertools.product(*map(declared.get, initial.names)) if universe
        else None)

    views = {domain: values_getter(vars_) for domain, vars_ in doc.observe}
    unobserved = values_getter(())

    def observe(domain: str, state: State) -> Value:
        return views.get(domain, unobserved)(state)

    config = InfoFlowConfig(
        domains=tuple(sorted(doc.domains)),
        policy=frozenset(doc.policy),
        dom={a.label: a.domain for a in doc.actions},
        observe=observe,
    )
    return SecureSystem(machine, config)


def _compile_rules(doc: ModelDocument, names: tuple[str, ...],
                   actions: tuple[ActionId, ...]
                   ) -> Callable[[State], list[tuple[int, tuple]]]:
    """The successor function of a document's rules over states, reading
    their values tuples with variables at their positions in `names`.

    It returns, in the order of `actions`, each enabled action's
    position in `actions` with the values its firing rules produce, one
    step per rule (two rules may produce the same values), so each
    action's steps are adjacent, as `core.tabulate` requires.
    """
    position = {name: i for i, name in enumerate(names)}
    by_label = {a.label: a for a in doc.actions}
    compiled = tuple(
        (x, tuple((tuple((position[var], value) for var, value in rule.pre),
                   tuple((position[var], value) for var, value in rule.post))
                  for rule in by_label[action].rules))
        for x, action in enumerate(actions))

    def successors(state: State) -> list[tuple[int, tuple]]:
        values, steps = state.values, []
        for x, rules in compiled:
            for pre, post in rules:
                for i, value in pre:
                    if values[i] != value:
                        break
                else:
                    new = list(values)
                    for i, value in post:
                        new[i] = value
                    steps.append((x, tuple(new)))
        return steps

    return successors


def resolve_ref(base_dir: str, ref: str) -> str:
    """The path of a refinement file's model reference: `ref` itself when
    absolute, else `ref` under `base_dir`, the refinement file's folder."""
    return ref if os.path.isabs(ref) else os.path.join(base_dir, ref)


def elaborate_refinement(
        doc: RefinementDocument, base_dir: str = ".", budget: int | None = None
) -> tuple[refinement.RefinementPair, refinement.RelyGuaranteeSpec | None]:
    """Resolve a refinement document against its two model files. Only
    here, and in the helpers below, does `specfile` use `refinement`."""
    concrete_doc = load_model(resolve_ref(base_dir, doc.concrete_ref))
    abstract_doc = load_model(resolve_ref(base_dir, doc.abstract_ref))
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
    mapping = {}
    for src, tgt in doc.zeta:
        if not concrete.machine.has_action(src):
            raise ModelError(f"zeta maps unknown concrete action {src!r}")
        if tgt == "tau":
            mapping[src] = refinement.TAU
        elif abstract.machine.has_action(tgt):
            mapping[src] = tgt
        else:
            raise ModelError(f"zeta target {tgt!r} is not an abstract action")
    return refinement.Zeta(mapping)


def _elaborate_contracts(doc: RefinementDocument, concrete_doc: ModelDocument,
                         concrete: SecureSystem
                         ) -> refinement.RelyGuaranteeSpec:
    component_map = dict(doc.components)
    for action in concrete.machine.actions:
        if action not in component_map:
            raise ModelError(
                f"action {action!r} has no entry in [components]")
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
        component_of=component_map.__getitem__,
    )
