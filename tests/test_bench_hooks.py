"""The bench tracer's hooks still name functions of the program.

`bench/tracer.py` rebinds each function named in its ENTRY_POINTS by
name at run time, so a rename or a deletion in `ifsec` would otherwise
surface only as an AttributeError in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

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
