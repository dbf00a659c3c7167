"""Run one ifsec command with a span around each layer's entry points.

    python bench/tracer.py SPANS_JSON COMMAND_ID ARG...

runs `ifsec.cli.main([ARG...])` and exits with its code, like
`python -m ifsec.cli ARG...`. Before that it rebinds each entry point
named in ENTRY_POINTS, in every `ifsec` module that holds it, to a
wrapper that records a span: its name, start, end and parent span, and
for some entry points sizes counted from the returned object. Spans are
kept in memory and written to SPANS_JSON at exit. Counting runs after
the span ends, inside a `trace.count` span of its own, so no layer's
self time includes it. No file of the program changes.
"""

import json
import sys
import time

ENTRY_POINTS = {
    "ifsec.models": ("get_model",),
    "ifsec.programs": ("compile_system",),
    "ifsec.specfile": ("load_model", "load_refinement", "elaborate_model",
                       "elaborate_refinement"),
    "ifsec.core": ("explore",),
    "ifsec.unwinding": ("check_unwinding", "scope_reachable",
                        "scope_universe", "check_lr", "check_sc",
                        "has_stutter"),
    "ifsec.noninterference": ("check_ni",),
    "ifsec.refinement": ("joint_explore", "check_alpha_preserves_indist",
                         "check_simulation", "check_compositional"),
    "ifsec.cli": ("cmd_check", "cmd_replay"),
}


def _machine_sizes(system, args, kwargs):
    machine = system.machine
    return {"states": len(machine.states),
            "transitions": sum(map(len, machine.transitions.values()))}


def _elaborated_sizes(system, args, kwargs):
    machine = system.machine
    return {"states": len(machine.states),
            "universe": len(machine.universe or ())}


def _unwinding_key(report, args, kwargs):
    system = args[0] if args else kwargs["system"]
    return {"key": [id(system), report.scope_tag, report.scope_size]}


COUNTERS = {
    "compile_system": _machine_sizes,
    "elaborate_model": _elaborated_sizes,
    "explore": lambda ex, a, k: {"states": len(ex.order)},
    "scope_reachable": lambda scope, a, k: {"states": len(scope.states)},
    "scope_universe": lambda scope, a, k: {"states": len(scope.states)},
    "check_unwinding": _unwinding_key,
    "check_ni": lambda result, a, k: {"traces": result.traces_checked},
    "joint_explore": lambda ex, a, k: {"pairs": len(ex.pairs)},
}


class Tracer:
    def __init__(self, command_id: str) -> None:
        self.command_id = command_id
        self.spans: list[dict] = []
        self.stack = [0]

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans) + 1, "parent": self.stack[-1],
                "name": name, "command": self.command_id,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, function):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                counting = self.begin("trace.count")
                span["counts"] = counter(result, args, kwargs)
                self.end(counting)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ifsec" or name.startswith("ifsec.")]
        for module_name, names in ENTRY_POINTS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, command_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(command_id)
    try:
        span = tracer.begin("cli.import")
        import ifsec.cli
        tracer.end(span)
        tracer.install()
        span = tracer.begin("cli.main")
        try:
            return ifsec.cli.main(cli_args)
        finally:
            tracer.end(span)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
