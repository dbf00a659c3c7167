"""Command-line front end: list models, run checks, replay witnesses.

Every check renders a run report with a stable shape (`schema: 1`):
the command echo, the model identity and parameters, one entry per
check with its verdict and witness, budget counters, and the wall
time. With --json the report is printed as sorted, indented JSON that
is byte-identical across runs except for the wall time, so reports
can be diffed and archived. Exit codes are part of the contract:

    0  every check passed
    1  a check failed; the report carries the witness
    2  the invocation itself was wrong (bad flags, unknown model)
    3  a model file or model definition is unsound
    4  an exploration or enumeration exceeded its budget

`replay` reads the first failing witness of a saved JSON report back
into the library's witness object against a freshly rebuilt model,
re-executes its traces, dumping the states they pass through, and
re-checks the condition with the library's own predicate for it. A
report whose model files changed, one that records a pass, and a
witness that is damaged or no longer violates its condition are
rejected as unusable rather than half-replayed. The witness JSON
protocol, encoding and replay, is `ifsec.witness`; only a failing
check and a replay run it.

There is no --seed flag: every search in the toolkit is canonical, so
two runs of the same command explore identical orders and report
identical witnesses.
"""

from __future__ import annotations

import argparse
import json
import os.path
import sys
import time
import types
from typing import Any, Callable, Sequence

from ifsec import (
    models,
    noninterference,
    refinement,
    specfile,
    unwinding,
    witness,
)
from ifsec.core import (
    BudgetError,
    ModelError,
    ParseError,
    SecureSystem,
    UsageError,
)

SCHEMA = 1
CHECK_KINDS = ("unwinding", "ni", "refine", "compositional")
DEFAULT_MAX_LEN = 4


# ---------------------------------------------------------------------------
# Target loading
# ---------------------------------------------------------------------------

class LoadedTarget:
    """A check target resolved to systems plus its report identity.

    `bundle` gives a two-level target's refinement `pair` and
    `rely_guarantee` spec (a built-in builds them at the first read);
    it is None for a single model file.
    """

    def __init__(self, model_info: dict[str, Any],
                 levels: list[tuple[str, SecureSystem]], bundle: Any) -> None:
        self.model_info = model_info
        self.levels = levels
        self.bundle = bundle


def _sha256(path: str) -> str:
    # Imported here: hashlib loads OpenSSL's libcrypto, and only model
    # files and their replays are hashed.
    import hashlib
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def load_target(kind: str, target: str, params: dict[str, int],
                budget: int | None, universe: bool) -> LoadedTarget:
    """Resolve a check target. Only a model file with `universe` builds
    its declared universe; every other target builds reachable states."""
    # For ni, --budget counts traces, not states.
    state_budget = None if kind == "ni" else budget
    if target in models.REGISTRY:
        if kind in ("refine", "compositional"):
            # Run `refinement`'s body first: parsed after the build, it
            # raises the peak RSS.
            refinement.RefinementPair
        bundle = models.get_model(target, budget=state_budget, **params)
        info = {
            "source": "builtin",
            "name": target,
            "description": models.REGISTRY[target].description,
            "params": dict(params),
            "build_params": {k: v for k, v in bundle.params},
        }
        return LoadedTarget(
            info,
            [("concrete", bundle.concrete), ("abstract", bundle.abstract)],
            bundle,
        )

    if not os.path.exists(target):
        known = ", ".join(models.REGISTRY)
        raise UsageError(
            f"unknown model or file {target!r}; built-in models: {known}")
    if params:
        raise UsageError(
            "model parameters (--threads and friends) apply only to "
            "built-in models, not model files")

    files = {target: _sha256(target)}
    if kind in ("refine", "compositional"):
        doc = specfile.load_refinement(target)
        base_dir = os.path.dirname(target) or "."
        for ref in (doc.concrete_ref, doc.abstract_ref):
            resolved = specfile.resolve_ref(base_dir, ref)
            files[resolved] = _sha256(resolved)
        pair, rg = specfile.elaborate_refinement(doc, base_dir=base_dir,
                                                 budget=budget)
        info = {"source": "file", "path": target, "files": files}
        return LoadedTarget(
            info,
            [("concrete", pair.concrete), ("abstract", pair.abstract)],
            types.SimpleNamespace(pair=pair, rely_guarantee=rg),
        )

    system = specfile.elaborate_model(specfile.load_model(target),
                                      budget=state_budget, universe=universe)
    info = {"source": "file", "path": target, "files": files}
    return LoadedTarget(info, [("model", system)], None)


def _warn_missing_reflexive(loaded: LoadedTarget) -> None:
    for label, system in loaded.levels:
        missing = system.config.missing_reflexive()
        if missing:
            print(f"ifsec: warning: {label} level: no reflexive policy edge "
                  f"for: {', '.join(missing)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Check runners
# ---------------------------------------------------------------------------

def _verdict_check(name: str, verdict) -> dict[str, Any]:
    found = verdict.witness
    if found is not None:
        # A cross-check records two unwinding verdicts, pass or fail, and
        # is never replayed: its plain fields are rendered here, so that
        # a passing check does not run `witness`.
        found = {"type": name, **vars(found)} if name == "cross-check" \
            else witness.to_json(found, None)
    return {"name": name, "status": verdict.status, "note": verdict.note,
            "witness": found}


def _unwind(system: SecureSystem, args) -> unwinding.UnwindingReport:
    if args.universe:
        scope = unwinding.scope_universe(system)
    else:
        scope = unwinding.scope_reachable(system, depth=args.depth,
                                          budget=args.budget)
    domains = [args.domain] if args.domain else None
    return unwinding.check_unwinding(system, scope=scope, domains=domains)


def _level_checks(loaded: LoadedTarget, label: str,
                  report: unwinding.UnwindingReport,
                  counters: dict[str, int]) -> list[dict[str, Any]]:
    prefix = f"{label}-" if len(loaded.levels) > 1 else ""
    counters[f"{label}_scope_states"] = report.scope_size
    return [{
        "name": f"{prefix}{name}",
        "status": "pass" if violation is None else "fail",
        "note": f"scope: {report.scope_tag}",
        "witness": None if violation is None
        else witness.to_json(violation, report.scope),
    } for name, violation in (("lr", report.lr), ("sc", report.sc))]


def _unwinding_checks(loaded: LoadedTarget, args,
                      counters: dict[str, int]) -> list[dict[str, Any]]:
    checks: list[dict[str, Any]] = []
    for label, system in loaded.levels:
        checks += _level_checks(loaded, label, _unwind(system, args), counters)
    return checks


def _ni_checks(loaded: LoadedTarget, args,
               counters: dict[str, int]) -> list[dict[str, Any]]:
    checks: list[dict[str, Any]] = []
    max_len = DEFAULT_MAX_LEN if args.max_len is None else args.max_len
    domains = [args.domain] if args.domain else None
    for label, system in loaded.levels:
        result = noninterference.check_ni(system, max_len, domains=domains,
                                          trace_budget=args.budget)
        prefix = f"{label}-" if len(loaded.levels) > 1 else ""
        counters[f"{label}_traces"] = result.traces_checked
        checks.append({
            "name": f"{prefix}ni",
            "status": "pass" if result.ok else "fail",
            "note": f"all traces up to length {result.max_len}",
            "witness": None if result.counterexample is None
            else witness.to_json(result.counterexample, None),
        })
    return checks


def _refine_checks(loaded: LoadedTarget, args,
                   counters: dict[str, int]) -> list[dict[str, Any]]:
    report = refinement.check_simulation(loaded.bundle.pair,
                                         budget=args.budget)
    counters["joint_pairs"] = report.pair_count
    checks = [_verdict_check(name, verdict)
              for name, verdict in report.conditions().items()]
    checks.append(_verdict_check("refinement", report.refinement))
    checks.append(_verdict_check("cross-check", report.cross_check))
    # The levels the cross-check already unwound are rendered, and their
    # reports dropped with any exploration a witness trace ran, before
    # any other level is unwound.
    unwound = {label: _level_checks(loaded, label, level, counters)
               for label, level in report.unwinding.items()}
    del report
    for label, system in loaded.levels:
        checks += unwound.get(label) or _level_checks(
            loaded, label, _unwind(system, args), counters)
    return checks


def _compositional_checks(loaded: LoadedTarget, args,
                          counters: dict[str, int]) -> list[dict[str, Any]]:
    pair, rg = loaded.bundle.pair, loaded.bundle.rely_guarantee
    if rg is None:
        raise UsageError(
            "this target declares no rely-guarantee contracts; "
            "compositional checking needs them")
    report = refinement.check_compositional(pair, rg, budget=args.budget)
    counters["joint_pairs"] = report.pair_count
    checks = [_verdict_check(name, verdict)
              for name, verdict in report.lemmas().items()]
    checks.append(_verdict_check("cross-check", report.cross_check))
    return checks


_RUNNERS: dict[str, Callable] = {
    "unwinding": _unwinding_checks,
    "ni": _ni_checks,
    "refine": _refine_checks,
    "compositional": _compositional_checks,
}

#: Flags each check kind accepts beyond --budget/--json and model params.
_KIND_FLAGS = {
    "unwinding": {"depth", "domain", "universe"},
    "ni": {"max_len", "domain"},
    "refine": set(),
    "compositional": set(),
}


def _reject_stray_flags(args) -> None:
    given = set()
    if args.depth is not None:
        given.add("depth")
    if args.max_len is not None:
        given.add("max_len")
    if args.domain is not None:
        given.add("domain")
    if args.universe:
        given.add("universe")
    stray = sorted(given - _KIND_FLAGS[args.kind])
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in stray)
        raise UsageError(f"{flags} does not apply to 'check {args.kind}'")
    if args.universe and args.depth is not None:
        raise UsageError("--depth does not apply to 'check unwinding "
                         "--universe': the universe has no depth")
    for name in ("depth", "max_len", "budget"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be at least 1")


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _print_json(report: dict[str, Any]) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _format_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        if not value:
            return "(none)"
        shown = [_format_value(v) for v in value[:6]]
        if len(value) > 6:
            shown.append(f"(+{len(value) - 6} more)")
        return "  ".join(shown)
    return str(value)


def _print_check_text(report: dict[str, Any]) -> None:
    model = report["model"]
    if model["source"] == "builtin":
        params = " ".join(f"{k}={v}"
                          for k, v in sorted(model["build_params"].items()))
        identity = model["name"] + (f" ({params})" if params else "")
    else:
        identity = model["path"]
    print(f"ifsec check {report['kind']} {report['target']}")
    print(f"model: {identity}")
    for check in report["checks"]:
        status = check["status"]
        shown = status.upper() if status == "fail" else status
        note = f"  ({check['note']})" if check.get("note") else ""
        print(f"  {check['name']}: {shown}{note}")
        witness = check.get("witness")
        if witness:
            for key in sorted(witness):
                if key == "type":
                    continue
                print(f"      {key}: {_format_value(witness[key])}")
    counters = " ".join(f"{k}={v}"
                        for k, v in sorted(report["counters"].items()))
    if counters:
        print(f"counters: {counters}")
    print(f"verdict: {report['verdict'].upper()}")
    print(f"wall time: {report['wall_time_s']}s")


def _model_params() -> dict[str, int]:
    """Every built-in model's parameters, in registry order, with the
    default of the first model that takes each."""
    params: dict[str, int] = {}
    for entry in models.REGISTRY.values():
        for name, default in entry.params.items():
            params.setdefault(name, default)
    return params


def cmd_check(args) -> int:
    started = time.monotonic()
    _reject_stray_flags(args)
    params = {name: getattr(args, name) for name in _model_params()
              if getattr(args, name) is not None}
    loaded = load_target(args.kind, args.target, params, args.budget,
                         universe=args.universe)
    _warn_missing_reflexive(loaded)

    counters: dict[str, int] = {}
    for label, system in loaded.levels:
        counters[f"{label}_states"] = len(system.machine.states)
    checks = _RUNNERS[args.kind](loaded, args, counters)

    failed = any(check["status"] == "fail" for check in checks)
    report = {
        "schema": SCHEMA,
        "command": "check",
        "kind": args.kind,
        "target": args.target,
        "options": {
            "depth": args.depth,
            "max_len": args.max_len,
            "domain": args.domain,
            "universe": args.universe,
            "budget": args.budget,
        },
        "model": loaded.model_info,
        "checks": checks,
        "counters": counters,
        "verdict": "fail" if failed else "pass",
        "exit_code": 1 if failed else 0,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    if args.json:
        _print_json(report)
    else:
        _print_check_text(report)
    return report["exit_code"]


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    entries = [{
        "name": entry.name,
        "description": entry.description,
        "params": dict(entry.params),
    } for entry in models.REGISTRY.values()]
    if args.json:
        _print_json({"schema": SCHEMA, "command": "list", "models": entries})
        return 0
    width = max(len(m["name"]) for m in entries)
    for m in entries:
        params = " ".join(f"{k}={v}" for k, v in m["params"].items())
        print(f"{m['name']:<{width}}  [{params}]  {m['description']}")
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _load_report(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not a JSON run report: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise UsageError(f"{path} is not a schema-{SCHEMA} run report")
    if data.get("command") != "check":
        raise UsageError("only reports from 'ifsec check' can be replayed")
    return data


def _rebuild_target(data: dict[str, Any]) -> tuple[LoadedTarget, bool]:
    """The report's target, built at the scope its options record, and
    whether that scope is the universe."""
    model, options = data.get("model") or {}, data.get("options") or {}
    if not isinstance(options, dict):
        raise UsageError("report options are not a JSON object")
    universe = options.get("universe") is True
    kind = data.get("kind")
    if kind not in CHECK_KINDS:
        raise UsageError("report does not record a known check kind")
    source = model.get("source") if isinstance(model, dict) else None
    if source == "builtin":
        name, params = model.get("name"), model.get("params") or {}
        if not isinstance(name, str) or name not in models.REGISTRY:
            raise UsageError(f"report names unknown model {name!r}")
        if not isinstance(params, dict) \
                or any(type(value) is not int for value in params.values()):
            raise UsageError("report model params are not integers by name")
        return load_target(kind, name, params, None, universe), universe
    if source != "file":
        raise UsageError("report does not identify its model")
    path, files = model.get("path"), model.get("files") or {}
    if not isinstance(path, str) or not isinstance(files, dict):
        raise UsageError("report does not identify its model file")
    for file, digest in sorted(files.items()):
        if not os.path.exists(file):
            raise UsageError(f"model file {file} is gone; the report is stale")
        if _sha256(file) != digest:
            raise UsageError(f"model file {file} changed since the "
                             "report was written; the report is stale")
    return load_target(kind, path, {}, None, universe), universe


def _print_replay_text(outcome: dict[str, Any]) -> None:
    print(f"replay: check {outcome['kind']} {outcome['target']} "
          f"({outcome['check']})")
    for run in outcome["runs"]:
        print(f"{run['title']}:")
        for i, step in enumerate(run["steps"]):
            states = step["states"]
            shown = states[:3]
            suffix = f"  (+{len(states) - 3} more)" if len(states) > 3 else ""
            joined = " | ".join(shown) + suffix
            if step["action"] is None:
                print(f"    .  {joined}")
            else:
                print(f"   {i:>2}  {step['action']}")
                print(f"       -> {joined}")
    for key in sorted(outcome["facts"]):
        value = outcome["facts"][key]
        if value is not None:
            print(f"{key}: {_format_value(value)}")
    print(f"reproduced {outcome['condition']}: {outcome['summary']}")


def cmd_replay(args) -> int:
    data = _load_report(args.report)
    checks = data.get("checks")
    if not isinstance(checks, list) \
            or not any(isinstance(c, dict) for c in checks):
        raise UsageError("report has no list of checks to replay")
    failing = [c for c in checks
               if isinstance(c, dict) and c.get("status") == "fail"]
    if not failing:
        raise UsageError("the report records a pass; there is no violation "
                         "to replay")
    check = failing[0]
    raw = check.get("witness")
    if not isinstance(raw, dict) or "type" not in raw:
        raise UsageError("the failing check carries no witness to replay")
    if not isinstance(check.get("name"), str) \
            or not isinstance(raw["type"], str) \
            or raw["type"] not in witness.RUNS:
        raise UsageError(f"cannot replay witness type {raw['type']!r}")
    loaded, universe = _rebuild_target(data)
    outcome = witness.replay(loaded, universe, check["name"], raw)
    outcome.update({
        "kind": data["kind"],
        "target": data.get("target"),
        "check": check["name"],
        "reproduced": True,
    })
    if args.json:
        _print_json({"schema": SCHEMA, "command": "replay",
                     "report": args.report, **outcome})
    else:
        _print_replay_text(outcome)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsec",
        description="Explicit-state information-flow checks for concurrent "
                    "systems: flow-policy unwinding, bounded purge-based "
                    "noninterference, two-level refinement, and "
                    "rely-guarantee decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list the built-in models")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable output")
    list_p.set_defaults(handler=cmd_list)

    check_p = sub.add_parser("check", help="run a verification check")
    check_p.add_argument("kind", choices=CHECK_KINDS,
                         help="which property to check")
    check_p.add_argument("target",
                         help="built-in model name or .ifs file path "
                              "(refine/compositional take a refinement file)")
    check_p.add_argument("--depth", type=int, default=None, metavar="N",
                         help="bound the reachability scope at depth N "
                              "(unwinding)")
    check_p.add_argument("--max-len", dest="max_len", type=int, default=None,
                         metavar="L",
                         help=f"trace length bound for ni "
                              f"(default: {DEFAULT_MAX_LEN})")
    check_p.add_argument("--domain", default=None, metavar="D",
                         help="restrict unwinding/ni to one observer domain")
    check_p.add_argument("--universe", action="store_true",
                         help="quantify unwinding over the declared state "
                              "universe instead of the reachable set")
    check_p.add_argument("--budget", type=int, default=None, metavar="STATES",
                         help="exploration ceiling (states, pairs, or "
                              "traces); exceeding it exits 4")
    check_p.add_argument("--json", action="store_true",
                         help="print the run report as JSON")
    for name, default in _model_params().items():
        check_p.add_argument(f"--{name}", type=int, default=None,
                             metavar="N",
                             help=f"model parameter (default: {default})")
    check_p.set_defaults(handler=cmd_check)

    replay_p = sub.add_parser(
        "replay", help="re-execute the violation witness of a saved report")
    replay_p.add_argument("report", help="path to a --json run report")
    replay_p.add_argument("--json", action="store_true",
                          help="machine-readable output")
    replay_p.set_defaults(handler=cmd_replay)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"ifsec: error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"ifsec: parse error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"ifsec: model error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"ifsec: budget exhausted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
