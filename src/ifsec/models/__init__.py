"""Bundled verification models and the registry the CLI serves them from.

Each entry builds a :class:`~ifsec.models.common.ModelBundle`: a concrete
and an abstract system joined by a refinement pair, with rely-guarantee
contracts where the model declares them. Secure bundles are expected to
pass every checker; the insecure variants each demonstrate one specific
leak and are named after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ifsec.core import UsageError
from ifsec.models import arinc as _arinc
from ifsec.models import demo as _demo
from ifsec.models.arinc import ArincConfig, build_arinc
from ifsec.models.auction import build_auction
from ifsec.models.common import ModelBundle, component_of
from ifsec.models.demo import build_demo

__all__ = [
    "ArincConfig",
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


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    description: str
    params: tuple[str, ...]
    build: Callable[..., ModelBundle]


def _entry(name: str, description: str, params: tuple[str, ...],
           build: Callable[..., ModelBundle]) -> tuple[str, RegistryEntry]:
    return name, RegistryEntry(name, description, params, build)


REGISTRY: dict[str, RegistryEntry] = dict((
    _entry("demo", _demo.DESCRIPTIONS["secure"],
           ("threads", "capacity", "messages"),
           lambda **kw: build_demo(variant="secure", **kw)),
    _entry("demo-insecure-counter", _demo.DESCRIPTIONS["insecure_counter"],
           ("threads", "capacity", "messages"),
           lambda **kw: build_demo(variant="insecure_counter", **kw)),
    _entry("demo-insecure-fullstatus", _demo.DESCRIPTIONS["insecure_fullstatus"],
           ("threads", "capacity", "messages"),
           lambda **kw: build_demo(variant="insecure_fullstatus", **kw)),
    _entry("arinc", _arinc.DESCRIPTIONS["secure"],
           ("capacity",),
           lambda **kw: build_arinc(variant="secure", **kw)),
    _entry("arinc-queuing-mode", _arinc.DESCRIPTIONS["queuing_mode"],
           ("capacity",),
           lambda **kw: build_arinc(variant="queuing_mode", **kw)),
    _entry("arinc-port-id", _arinc.DESCRIPTIONS["port_id"],
           ("capacity",),
           lambda **kw: build_arinc(variant="port_id", **kw)),
    _entry("auction",
           "sealed-bid auction with locked ledger and a result publisher",
           ("users",),
           lambda **kw: build_auction(**kw)),
))


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
