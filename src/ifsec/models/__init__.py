"""Bundled verification models and the registry the CLI serves them from.

Each entry builds a :class:`~ifsec.models.common.ModelBundle`: a concrete
and an abstract system joined by a refinement pair, with rely-guarantee
contracts where the model declares them; pair and contracts are built on
first use. Secure bundles are expected to
pass every checker; the insecure variants each demonstrate one specific
leak and are named after it.

A registry entry and its family's builder are the only declaration of a
built-in model: the entry holds its name, description and parameters
with their defaults, which the CLI's `list` and model flags read, and
the builder holds the rest. Listing the models runs no builder. The
builder modules are lazy (see `ifsec`): `get_model` runs the one it
builds with.
"""

from __future__ import annotations

import sys
from typing import Mapping

from ifsec import _lazy
from ifsec.core import UsageError, record

common = _lazy(__name__, __path__, "common")
arinc = _lazy(__name__, __path__, "arinc")
auction = _lazy(__name__, __path__, "auction")
demo = _lazy(__name__, __path__, "demo")

__all__ = [
    "ModelBundle",
    "RegistryEntry",
    "REGISTRY",
    "build_arinc",
    "build_auction",
    "build_demo",
    "component_of",
    "get_model",
    "model_names",
]

#: Names re-exported from the builder modules, by the name of their home
#: module; they are read there on first use.
_EXPORTS = {"build_arinc": "arinc", "build_auction": "auction",
            "build_demo": "demo", "ModelBundle": "common",
            "component_of": "common"}


def _builder_module(name: str):
    """The builder module `name`, looked up when used: an import
    statement that names it first puts an eagerly run module in
    `sys.modules` in place of the lazy one made above."""
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(_builder_module(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@record
class RegistryEntry:
    """A built-in model: `build` calls `build_<family>` of the builder
    module `family` with `variant` (when given) and the parameters.
    `params` maps each parameter the model takes to its default."""

    name: str
    description: str
    params: Mapping[str, int]
    family: str
    variant: str | None = None

    def build(self, **kwargs) -> ModelBundle:
        builder = f"build_{self.family}"
        if self.variant is not None:
            kwargs["variant"] = self.variant
        return getattr(_builder_module(self.family), builder)(**kwargs)


_DEMO = {"threads": 3, "capacity": 1, "messages": 1}

REGISTRY: dict[str, RegistryEntry] = {entry.name: entry for entry in (
    RegistryEntry("demo",
                  "ring of threads with locked single-reader message queues",
                  _DEMO, "demo", "secure"),
    RegistryEntry("demo-insecure-counter",
                  "ring variant leaking denied sends through a shared counter",
                  _DEMO, "demo", "insecure_counter"),
    RegistryEntry("demo-insecure-fullstatus",
                  "ring variant leaking dequeue progress through a fullness "
                  "flag",
                  _DEMO, "demo", "insecure_fullstatus"),
    RegistryEntry("arinc",
                  "two-core partition scheduler with a locked queuing channel",
                  {"capacity": 1}, "arinc", "secure"),
    RegistryEntry("arinc-queuing-mode",
                  "channel variant leaking dequeue timing through a fullness "
                  "flag",
                  {"capacity": 1}, "arinc", "queuing_mode"),
    RegistryEntry("arinc-port-id",
                  "channel variant where a co-scheduled partition sends on a "
                  "foreign port",
                  {"capacity": 1}, "arinc", "port_id"),
    RegistryEntry("auction",
                  "sealed-bid auction with locked ledger and a result "
                  "publisher",
                  {"users": 2}, "auction"),
)}


def model_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_model(name: str, budget: int | None = None, **params) -> ModelBundle:
    """Build a registered model, validating the parameter names.

    `budget` caps the states of each level's build (BudgetError beyond).
    """
    entry = REGISTRY.get(name)
    if entry is None:
        known = ", ".join(REGISTRY)
        raise UsageError(f"unknown model {name!r}; known models: {known}")
    for key in params:
        if key not in entry.params:
            raise UsageError(
                f"model {name!r} does not take parameter {key!r}; "
                f"it takes: {', '.join(entry.params) or 'none'}")
    return entry.build(budget=budget, **params)
