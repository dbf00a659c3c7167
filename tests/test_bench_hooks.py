"""The bench tracer's hooks still name functions of the program.

`bench/tracer.py` rebinds each function named in its ENTRY_POINTS by
name at run time, so a rename or a deletion in `ifsec` would otherwise
surface only as an AttributeError in a traced benchmark run. Its
COUNTERS read sizes off what those functions return, so each one is
also run on a real return value here: a change of representation that
breaks a counter fails this test rather than a traced run. The tracer
also runs in process on the refinement commands, to show that each
refinement layer still gets its span, and as its own child process on
one command of each check kind and on a replay, the way a traced bench
pass runs it: there the checker modules have not run yet when it
installs its wrappers.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ifsec.cli
from ifsec.programs import Basic, ConcurrentSystem, Event
from ifsec.refinement import Alpha, RefinementPair, Zeta
from ifsec.specfile import elaborate_model, parse_model

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module_name,name", [
    (module_name, name)
    for module_name, names in sorted(tracer.ENTRY_POINTS.items())
    for name in names])
def test_entry_point_exists(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


def test_every_counter_has_an_entry_point():
    hooked = {name for names in tracer.ENTRY_POINTS.values() for name in names}
    assert set(tracer.COUNTERS) <= hooked


TOY = """\
[domains]
hi
lo

[policy]
hi -> hi
lo -> hi
lo -> lo

[state]
x in {0, 1} = 0
y in {0, 1} = 0

[actions]
act poke lo
  x=0 -> x:=1
act toggle hi
  y=0 -> y:=1
  y=1 -> y:=0

[observe]
hi: x y
lo: x
"""


def counted_calls():
    """Arguments for one real call of each entry point that COUNTERS
    counts, by entry point name."""
    bump = Basic(lambda s: {"n": (s["n"] + 1) % 3}, "bump")
    program = ConcurrentSystem(
        ("k",), {"k": (Event("e", lambda s: True, bump, "d"),)}, {"n": 0})
    compiled = (program, ["d"], [("d", "d")], lambda d, s: s["n"])
    toy = elaborate_model(parse_model(TOY), universe=True)
    pair = RefinementPair(toy, toy,
                          Alpha(lambda c, a: c == a, "equality"),
                          Zeta.identity(toy.machine.actions))
    return {
        "compile_system": compiled,
        "elaborate_model": (parse_model(TOY),),
        "explore": (toy.machine,),
        "scope_reachable": (toy,),
        "scope_universe": (toy,),
        "check_unwinding": (toy,),
        "check_ni": (toy, 2),
        "joint_explore": (pair,),
    }


def entry_point(name):
    for module_name, names in tracer.ENTRY_POINTS.items():
        if name in names:
            return getattr(importlib.import_module(module_name), name)
    raise LookupError(name)


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counter_reads_a_real_return_value(name):
    args = counted_calls()[name]
    counts = tracer.COUNTERS[name](entry_point(name)(*args), args, {})
    assert counts and json.loads(json.dumps(counts)) == counts


@pytest.fixture()
def installed_tracer():
    """A tracer installed in this process; every rebinding it made is
    undone afterwards."""
    modules = [module for name, module in sys.modules.items()
               if name == "ifsec" or name.startswith("ifsec.")]
    saved = [(module, dict(vars(module))) for module in modules]
    spans = tracer.Tracer("in-process")
    spans.install()
    yield spans
    for module, attributes in saved:
        for attribute, value in attributes.items():
            if vars(module).get(attribute) is not value:
                setattr(module, attribute, value)


@pytest.mark.parametrize("kind,layers", [
    ("refine", {"joint_explore", "check_alpha_preserves_indist",
                "check_simulation"}),
    ("compositional", {"joint_explore", "check_compositional"}),
])
def test_refinement_layers_get_their_spans(installed_tracer, capsys, kind,
                                           layers):
    # A joint search inlined into its callers would leave
    # refinement.joint_s at zero; the spans show it is still called.
    assert ifsec.cli.main(["check", kind, "demo", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {span["name"] for span in installed_tracer.spans}
    assert layers <= names
    joint = [span for span in installed_tracer.spans
             if span["name"] == "joint_explore"]
    assert len(joint) == 1
    assert joint[0]["counts"] == {"pairs": report["counters"]["joint_pairs"]}


LEAKY = TOY.replace("lo: x\n", "lo: x y\n")

#: A refinement of TOY by itself, with the contracts `check
#: compositional` needs.
SELF_PAIR = """\
[refinement]
concrete: toy.ifs
abstract: toy.ifs

[alpha]
match: x == x
match: y == y

[zeta]
poke -> poke
toggle -> toggle

[components]
poke: worker
toggle: janitor

[rely janitor]
keeps: y

[guarantee janitor]
may: y

[rely worker]
keeps: x

[guarantee worker]
may: x
"""

#: A passing reachable scope runs no `explore`: the model's build lists
#: the reachable states. Only a witness's trace explores, as in the
#: failing unwinding below.
SCAN = {"cmd_check", "load_model", "elaborate_model", "scope_reachable",
        "check_unwinding", "check_lr", "check_sc", "has_stutter"}


@pytest.mark.parametrize("argv,code,layers", [
    (("check", "unwinding", "@/leaky.ifs", "--json"), 1, SCAN | {"explore"}),
    (("check", "ni", "@/leaky.ifs"), 1,
     {"cmd_check", "load_model", "elaborate_model", "check_ni"}),
    (("check", "ni", "auction", "--max-len", "2"), 0,
     {"cmd_check", "get_model", "compile_system", "check_ni"}),
    (("check", "refine", "@/pair.ifs"), 0,
     SCAN | {"load_refinement", "elaborate_refinement", "joint_explore",
             "check_alpha_preserves_indist", "check_simulation"}),
    (("check", "compositional", "demo", "--threads", "2"), 0,
     {"cmd_check", "get_model", "compile_system", "joint_explore",
      "check_compositional"}),
], ids=["file-unwinding-and-replay", "file-ni", "builtin-ni", "file-refine",
        "builtin-compositional"])
def test_traced_child_gets_every_span(tmp_path, argv, code, layers):
    (tmp_path / "toy.ifs").write_text(TOY, encoding="utf-8")
    (tmp_path / "leaky.ifs").write_text(LEAKY, encoding="utf-8")
    (tmp_path / "pair.ifs").write_text(SELF_PAIR, encoding="utf-8")
    argv = [a.replace("@", str(tmp_path)) for a in argv]
    proc, spans = traced_child(tmp_path, *argv)
    assert proc.returncode == code, proc.stderr
    assert {span["name"] for span in spans} == \
        layers | {"cli.import", "cli.main", "trace.count"}
    for span in spans:
        assert bool(span["counts"]) == (span["name"] in tracer.COUNTERS)
    if argv[-1] == "--json":
        # Replay the report in a traced child too.
        report = tmp_path / "report.json"
        report.write_text(proc.stdout, encoding="utf-8")
        proc, spans = traced_child(tmp_path, "replay", str(report))
        assert proc.returncode == 0, proc.stderr
        assert {span["name"] for span in spans} == {
            "cli.import", "cli.main", "trace.count", "cmd_replay",
            "load_model", "elaborate_model"}


def traced_child(directory: pathlib.Path, *argv: str):
    """`bench/tracer.py` on `argv` in a fresh interpreter: the finished
    process and the spans it wrote."""
    src = pathlib.Path(ifsec.cli.__file__).resolve().parents[1]
    spans = directory / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "child", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    return proc, json.loads(spans.read_text(encoding="utf-8"))
