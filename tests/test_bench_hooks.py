"""The bench tracer's hooks still name functions of the program.

`bench/tracer.py` rebinds each function named in its ENTRY_POINTS by
name at run time, so a rename or a deletion in `ifsec` would otherwise
surface only as an AttributeError in a traced benchmark run. Its
COUNTERS read sizes off what those functions return, so each one is
also run on a real return value here: a change of representation that
breaks a counter fails this test rather than a traced run. The tracer
also runs in process on the refinement commands, to show that each
refinement layer still gets its span.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pathlib
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
