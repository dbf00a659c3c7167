"""Decide whether one child's outcome is right.

A command's outcome is wrong when any of these holds:

* its exit code differs from the expected one (exit 4, an exhausted
  budget, is never expected, so it is always wrong);
* it writes a Python traceback to stderr;
* its set of failing check names differs from the expected one, or its
  stdout is not a JSON report at all;
* its `--json` report, with the `wall_time_s` line removed, differs
  from the report the same command printed earlier in the same run;
* it is a `replay` that does not print `reproduced`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import Command

TRACEBACK = "Traceback (most recent call last)"


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    stdout: str
    stderr: str


def without_wall_time(report: str) -> list[str]:
    return [line for line in report.splitlines() if "wall_time_s" not in line]


def failing_checks(report: str) -> frozenset[str] | None:
    """Names of the checks with status `fail`, or None if `report` is
    not a check report."""
    try:
        data = json.loads(report)
    except ValueError:
        return None
    if not isinstance(data, dict) or not isinstance(data.get("checks"), list):
        return None
    return frozenset(c.get("name") for c in data["checks"]
                     if isinstance(c, dict) and c.get("status") == "fail")


def problems(command: Command, result: ChildResult,
             earlier_stdout: str | None = None) -> list[str]:
    """Every way in which `result` is wrong for `command`; empty if right.

    `earlier_stdout` is what the same command printed earlier in the
    run, if it ran before.
    """
    found = []
    if result.exit_code != command.exit:
        found.append(f"exit {result.exit_code}, expected {command.exit}")
    if TRACEBACK in result.stderr:
        found.append("traceback on stderr")
    if command.replay_of is not None and "reproduced" not in result.stdout:
        found.append("replay did not print 'reproduced'")
    if command.failing is not None:
        failing = failing_checks(result.stdout)
        if failing is None:
            found.append("stdout is not a JSON check report")
        elif failing != command.failing:
            found.append(f"failing checks {sorted(failing)}, expected "
                         f"{sorted(command.failing)}")
        if earlier_stdout is not None and \
                without_wall_time(earlier_stdout) != \
                without_wall_time(result.stdout):
            found.append("report differs from the earlier repetition")
    return found
