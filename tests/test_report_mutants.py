"""Mutated run reports end with an exit code, never a traceback.

The inputs are four saved failing reports: a refinement c2 witness on a
built-in model, and an NI, an lr and a lemma witness on model files.
Each mutant changes one field of one report: it replaces a value
anywhere in the JSON tree (a leaf, a list or an object) by an edge
value, a value of another type or another field's value of the same
report, or it deletes the field. Each mutant runs through
`cli.main(["replay", ...])`. A mutant may still describe the violation,
so any exit code 0-4 passes; an uncaught exception fails. The mutants
are drawn from a fixed seed, in the way of `test_spec_mutants.py`.
"""

from __future__ import annotations

import json
import random

import pytest

from ifsec.cli import main
from test_cli import ABSTRACT, CONCRETE, LEAKY, PAIR_BAD_GUARANTEE

#: Model files the reports below read.
FILES = {"leaky.ifs": LEAKY, "pair_badg.ifs": PAIR_BAD_GUARANTEE,
         "abstract.ifs": ABSTRACT, "concrete.ifs": CONCRETE}

#: A failing check per witness kind; `@` is the model files' directory.
REPORTS = {
    "c2": ("check", "refine", "demo-insecure-counter", "--threads", "2"),
    "ni": ("check", "ni", "@/leaky.ifs"),
    "lr": ("check", "unwinding", "@/leaky.ifs"),
    "lemma": ("check", "compositional", "@/pair_badg.ifs"),
}

MUTANTS_PER_REPORT = 32

#: Marks a deleted field.
DELETE = object()

EDGE_VALUES = (None, True, False, 0, 1, -1, 2 ** 70, "", "x", "t1/nosuch",
               [], {}, [None], {"": None})


def fields(node, path=()):
    """The path of every value below `node`, the root excluded."""
    children = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from fields(child, (*path, key))


def mutated(data, path, value):
    """A copy of `data` with the field at `path` set to `value`, or
    deleted when `value` is `DELETE`."""
    copy = json.loads(json.dumps(data))
    *parents, key = path
    target = copy
    for parent in parents:
        target = target[parent]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return copy


def value_at(data, path):
    for key in path:
        data = data[key]
    return data


def test_mutated_reports_never_raise(tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    rng = random.Random(1)
    report = tmp_path / "report.json"
    runs = 0
    for kind, argv in REPORTS.items():
        argv = [a.replace("@", str(tmp_path)) for a in argv]
        assert main([*argv, "--json"]) == 1, kind
        data = json.loads(capsys.readouterr().out)
        paths = list(fields(data))
        others = [value_at(data, path) for path in paths]
        for _ in range(MUTANTS_PER_REPORT):
            path = rng.choice(paths)
            value = rng.choice((DELETE, *EDGE_VALUES, rng.choice(others)))
            mutant = mutated(data, path, value)
            report.write_text(json.dumps(mutant), encoding="utf-8")
            try:
                code = main(["replay", str(report)])
            except Exception as exc:  # noqa: BLE001 - the point
                pytest.fail(f"replay of the {kind} report raised {exc!r} "
                            f"with {path} set to {value!r}")
            assert code in range(5), (kind, path, value)
            capsys.readouterr()
            runs += 1
    assert runs == len(REPORTS) * MUTANTS_PER_REPORT
