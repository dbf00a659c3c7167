"""Per-layer metrics from the spans of traced commands.

A layer's self time is the time of its spans minus the part covered by
their child spans. Layers are named after the modules:

    models           models/* with programs.compile_system
    specfile         parse (load_*) and elaboration (elaborate_*)
    core             explore
    unwinding        lr, sc, stutter, and scope/glue
    noninterference  check_ni
    refinement       joint exploration, c6, the rest of check_simulation,
                     and check_compositional (the lemmas)
    cli              everything else in the child: process start and
                     import, argument parsing, loading, report and
                     replay glue

Each per-layer metric is written below with the end-to-end metric it
should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

#: name, unit, better, and what it should move.
LAYER_METRICS = (
    ("models.build_s", "s", "lower",
     "wall_s and peak_rss_mb on state-space; not ni-bounded or spec-files"),
    ("models.states", "count", "lower", "as models.build_s"),
    ("models.transitions", "count", "lower", "as models.build_s"),
    ("core.explore_s", "s", "lower", "wall_s on state-space"),
    ("core.explored_states", "count", "lower", "wall_s on state-space"),
    ("unwinding.lr_s", "s", "lower",
     "wall_s on state-space and on spec-files in universe scope"),
    ("unwinding.sc_s", "s", "lower", "as unwinding.lr_s"),
    ("unwinding.stutter_s", "s", "lower", "as unwinding.lr_s"),
    ("unwinding.scope_s", "s", "lower", "as unwinding.lr_s"),
    ("unwinding.scope_states", "count", "lower", "as unwinding.lr_s"),
    ("unwinding.calls", "count", "lower",
     "wall_s on state-space through the refine commands"),
    ("unwinding.repeat_ratio", "ratio", "lower", "as unwinding.calls"),
    ("noninterference.check_s", "s", "lower", "wall_s on ni-bounded"),
    ("noninterference.traces", "count", "lower", "wall_s on ni-bounded"),
    ("noninterference.traces_per_s", "1/s", "higher",
     "wall_s on ni-bounded"),
    ("specfile.parse_s", "s", "lower", "wall_s on spec-files"),
    ("specfile.elaborate_s", "s", "lower",
     "wall_s and peak_rss_mb on spec-files, reachable-scoped commands"),
    ("specfile.universe_states", "count", "lower", "as specfile.elaborate_s"),
    ("specfile.reachable_ratio", "ratio", "higher",
     "as specfile.elaborate_s"),
    ("refinement.joint_s", "s", "lower",
     "wall_s on state-space and spec-files"),
    ("refinement.joint_pairs", "count", "lower", "as refinement.joint_s"),
    ("refinement.c6_s", "s", "lower", "as refinement.joint_s"),
    ("refinement.simulation_self_s", "s", "lower", "as refinement.joint_s"),
    ("refinement.lemmas_s", "s", "lower", "as refinement.joint_s"),
    ("cli.self_s", "s", "lower", "setup_s and wall_s on small-models"),
    ("cli.import_s", "s", "lower", "setup_s and wall_s on small-models"),
    ("cli.replay_s", "s", "lower", "wall_s on state-space and spec-files"),
    ("trace.overhead_ratio", "ratio", "lower",
     "nothing: traced wall_s over untraced wall_s"),
)

#: Span name -> the self-time metric it feeds. Spans not named here
#: (cmd_check, cmd_replay, cli.main, cli.import) are cli glue.
SELF_TIME = {
    "get_model": "models.build_s",
    "compile_system": "models.build_s",
    "explore": "core.explore_s",
    "check_lr": "unwinding.lr_s",
    "check_sc": "unwinding.sc_s",
    "has_stutter": "unwinding.stutter_s",
    "check_unwinding": "unwinding.scope_s",
    "scope_reachable": "unwinding.scope_s",
    "scope_universe": "unwinding.scope_s",
    "check_ni": "noninterference.check_s",
    "load_model": "specfile.parse_s",
    "load_refinement": "specfile.parse_s",
    "elaborate_model": "specfile.elaborate_s",
    "elaborate_refinement": "specfile.elaborate_s",
    "joint_explore": "refinement.joint_s",
    "check_alpha_preserves_indist": "refinement.c6_s",
    "check_simulation": "refinement.simulation_self_s",
    "check_compositional": "refinement.lemmas_s",
    "trace.count": "trace.count_s",
}

#: (span name, count key) -> the summed metric.
COUNTS = {
    ("compile_system", "states"): "models.states",
    ("compile_system", "transitions"): "models.transitions",
    ("explore", "states"): "core.explored_states",
    ("scope_reachable", "states"): "unwinding.scope_states",
    ("scope_universe", "states"): "unwinding.scope_states",
    ("check_ni", "traces"): "noninterference.traces",
    ("elaborate_model", "universe"): "specfile.universe_states",
    ("elaborate_model", "states"): "specfile.reachable_states",
    ("joint_explore", "pairs"): "refinement.joint_pairs",
}


def command_totals(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Sums for one traced command whose child took `wall_s`."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    seen_keys = set()
    for span in spans:
        name, duration = span["name"], span["end"] - span["start"]
        metric = SELF_TIME.get(name)
        if metric is not None:
            totals[metric] += duration - covered[span["id"]]
        for key, value in span["counts"].items():
            if (name, key) in COUNTS:
                totals[COUNTS[(name, key)]] += value
        if name == "check_unwinding":
            totals["unwinding.calls"] += 1
            key = tuple(span["counts"].get("key", ()))  # () if it raised
            totals["unwinding.repeats"] += bool(key) and key in seen_keys
            seen_keys.add(key)
        elif name == "cli.import":
            totals["cli.import_s"] += duration
        elif name == "cmd_replay":
            totals["cli.replay_s"] += duration
    attributed = sum(totals[m] for m in set(SELF_TIME.values()))
    totals["cli.self_s"] += wall_s - attributed
    return totals


def pass_metrics(commands: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass from its commands' totals."""
    sums: dict[str, float] = defaultdict(float)
    for totals in commands:
        for key, value in totals.items():
            sums[key] += value
    out = {name: sums[name] for name, *_ in LAYER_METRICS}
    out["unwinding.repeat_ratio"] = _ratio(sums["unwinding.repeats"],
                                           sums["unwinding.calls"])
    out["noninterference.traces_per_s"] = _ratio(
        sums["noninterference.traces"], sums["noninterference.check_s"])
    out["specfile.reachable_ratio"] = _ratio(
        sums["specfile.reachable_states"], sums["specfile.universe_states"])
    out["trace.count_s"] = sums["trace.count_s"]
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
