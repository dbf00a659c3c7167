"""The benchmark's workloads and the outcome each command must have.

Each workload is a closed loop with one client: its commands run one
after another, each as its own `python -m ifsec.cli ...` child, the
way a user or a CI script runs them. Every `check` runs with `--json`
so its report can be compared with the expected outcome and with the
same command's report from the previous pass.

Expected outcomes of built-in targets come from the verdict table in
the docstring of tests/test_acceptance.py and from the assertions the
test suites pin; each entry names its source. Two rules of the code
complete a failing set: `refinement` fails exactly when one of c1..c6
fails (refinement.check_simulation), and a skipped check is not a
failing one. Expected outcomes of generated files hold by construction
(see specgen).

Why each workload exists, and which layers it should move:

state-space
    Big reachable sets compiled from built-in programs: `models` build,
    `core` explore, `unwinding` lr/sc and `refinement` joint
    exploration, c6 and the lemmas do nearly all the work, and
    `noninterference` does none. The failing refinement and its replay
    use the two-thread ring: `check refine demo-insecure-counter` at
    its default size (79,608 states, 20 s, 430 MB) and its 7 s replay
    are too long to run twice within one 25-second run.
ni-bounded
    Bounded NI at the default length 4, where trace enumeration is
    nearly all of the time and model builds take well under a second.
    No unwinding or refinement runs, so this is the bypass workload for
    optimisations of state spaces and unwinding. `--domain` keeps two
    of the three models to one observer so that two passes fit in a
    run; the enumeration per observer is unchanged.
spec-files
    Seeded `.ifs` files: the only workload that drives `specfile` parse
    and elaboration, and the only one that runs unwinding over
    unreachable universe states. `sparse.ifs` has 9 reachable states in
    a universe of 19,683, so a reachable-scoped check of it is nearly
    all elaboration of states it never visits; a fix for that should
    move the reachable-scoped commands and leave `--universe` alone.
small-models
    Commands of 0.1 to 0.5 s on small built-in models, where process
    start, import and the `cli` layer dominate. A change that adds a
    fixed cost per run (a worker pool, an index, a disk cache) shows
    here as a regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import specgen


@dataclass(frozen=True)
class Command:
    """One child invocation and the outcome it must have.

    `failing` is the exact set of check names with status `fail` in the
    report; it is None for commands that print no check report.
    `replay_of` names the earlier command of the same pass whose report
    this `replay` reads.
    """

    name: str
    argv: tuple[str, ...]
    exit: int
    failing: frozenset[str] | None = None
    replay_of: str | None = None
    source: str = ""


def check(name: str, kind: str, target: str, *flags: str, exit: int = 0,
          failing: tuple[str, ...] = (), source: str) -> Command:
    return Command(name, ("check", kind, target, *flags, "--json"), exit,
                   frozenset(failing), source=source)


def replay(of: str) -> Command:
    return Command(f"replay {of}", ("replay",), 0, replay_of=of,
                   source="a failing report replays: exit 0, prints "
                          "'reproduced'")


SECURE = "acceptance docstring: all checks pass at every level"


def _small_models() -> tuple[Command, ...]:
    commands = [Command("list", ("list",), 0,
                        source="tests/test_cli.py::TestList")]
    for model in ("arinc", "arinc-port-id", "auction", "demo"):
        for kind in ("unwinding", "refine", "compositional"):
            if model == "arinc-port-id" and kind != "compositional":
                # Acceptance docstring: local respect fails at a send
                # issued on another partition's port; c04 pins the
                # concrete witness, and the abstract model keeps the
                # foreign-port send, so both levels fail lr. With the
                # abstract unwinding failing, the refinement
                # cross-check passes with nothing to carry down.
                commands.append(check(
                    f"{kind} {model}", kind, model, exit=1,
                    failing=("concrete-lr", "abstract-lr"),
                    source="acceptance docstring and c04"))
            elif model == "arinc-port-id":
                # The lemmas speak about the step conditions only, not
                # about observations, so the leak does not touch them.
                commands.append(check(
                    f"{kind} {model}", kind, model,
                    source="lemmas 1-4 concern steps, not views"))
            else:
                commands.append(check(f"{kind} {model}", kind, model,
                                      source=SECURE))
    return tuple(commands)


def _state_space() -> tuple[Command, ...]:
    return (
        check("unwinding demo m2", "unwinding", "demo", "--messages", "2",
              source=SECURE + "; c06 pins the default size"),
        check("refine demo c2", "refine", "demo", "--capacity", "2",
              source=SECURE + "; c01 pins the default size"),
        check("compositional demo c2", "compositional", "demo",
              "--capacity", "2", source=SECURE + "; c07"),
        # tests/test_cli.py::test_c2_witness_reproduces_on_builtin pins
        # exit 1 and c2 failing at two threads. With two threads each
        # thread's only send target is its ring successor, which the
        # policy allows, so no send is denied, the counter never rolls
        # back, and unwinding passes on both levels.
        check("refine counter t2", "refine", "demo-insecure-counter",
              "--threads", "2", exit=1, failing=("c2", "refinement"),
              source="tests/test_cli.py c2 replay test"),
        replay("refine counter t2"),
    )


def _ni_bounded() -> tuple[Command, ...]:
    return (
        check("ni arinc sched2", "ni", "arinc", "--domain", "sched2",
              source=SECURE + "; c05 finds no NI failure at length 4"),
        check("ni auction server", "ni", "auction", "--domain", "server",
              source="acceptance docstring and c05, c10"),
        # c05 pins the abstract level failing at length 4. There t1
        # observes whether t2's queue is full: t1's send fills it and
        # t2's dequeue, purged for t1, empties it, two steps in all.
        # Each of those steps takes several steps at the concrete level,
        # which passes at length 4.
        check("ni fullstatus t1", "ni", "demo-insecure-fullstatus",
              "--domain", "t1", exit=1, failing=("abstract-ni",),
              source="c05 and the model's observation"),
        replay("ni fullstatus t1"),
    )


def _spec_files() -> tuple[Command, ...]:
    built = "specgen: holds by construction"
    return (
        check("unwinding sparse", "unwinding", "sparse.ifs", source=built),
        check("unwinding sparse universe", "unwinding", "sparse.ifs",
              "--universe", source=built),
        check("unwinding dense", "unwinding", "dense.ifs", source=built),
        check("unwinding lr-leak universe", "unwinding", "lr-leak.ifs",
              "--universe", exit=1, failing=("lr",), source=built),
        replay("unwinding lr-leak universe"),
        check("unwinding sc-leak", "unwinding", "sc-leak.ifs", exit=1,
              failing=("sc",), source=built),
        replay("unwinding sc-leak"),
        check("ni ni-leak", "ni", "ni-leak.ifs", exit=1, failing=("ni",),
              source=built),
        replay("ni ni-leak"),
        check("refine pair", "refine", "pair.ifs", source=built),
        check("compositional pair", "compositional", "pair.ifs",
              source=built),
    )


def _no_inputs(seed: int, directory: str) -> None:
    """Built-in models take no generated inputs."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    prepare: Callable[[int, str], None]  # writes the inputs


WORKLOADS = {w.name: w for w in (
    Workload("state-space", _state_space(), _no_inputs),
    Workload("ni-bounded", _ni_bounded(), _no_inputs),
    Workload("spec-files", _spec_files(), specgen.generate),
    Workload("small-models", _small_models(), _no_inputs),
)}
