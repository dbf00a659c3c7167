"""ifsec: explicit-state information-flow verification for concurrent systems.

The package checks intransitive noninterference of finite machines three
ways: directly on bounded traces, via unwinding conditions on the full
state space, and by transferring unwinding verdicts across a simulation
from an abstract machine to a concrete one, with rely-guarantee reasoning
to localize the simulation obligations per component.

Start-up. `import ifsec` runs only `core`. The checker modules
(`models`, `noninterference`, `programs`, `refinement`, `specfile` and
`unwinding`) are put in `sys.modules` and on the package as lazy
modules (`importlib.util.LazyLoader`): a module's body runs at the
first attribute access, so a command runs only the modules it uses.
`ifsec.models` registers its builder modules the same way. Two rules
keep it so:

- A module that does not always need another one reaches it as
  `from ifsec import unwinding` and reads `unwinding.check_unwinding`
  where it calls it. A top-level `from ifsec.unwinding import name` or
  `import ifsec.unwinding` runs the module at once, and so does a
  module-level table that holds its classes or functions; such tables
  are keyed by name and resolved when used.
- There are no imports inside functions. Every module a command can
  reach is in `sys.modules` from `import ifsec` on (a builder module
  from the first use of `ifsec.models`). Tools that rebind functions
  module by module, such as `bench/tracer.py`, look each module up in
  `sys.modules` right after `import ifsec.cli`; their first attribute
  access runs it, and every module that runs later imports the rebound
  functions.
"""

from __future__ import annotations

import sys
import types
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

from .core import (
    ActionId,
    BudgetError,
    InfoFlowConfig,
    ModelError,
    ParseError,
    SecureSystem,
    State,
    StateMachine,
    UsageError,
    equidom,
    explore,
    indist,
    reachable,
    run,
    tabulate,
)

__all__ = [
    "ActionId",
    "BudgetError",
    "InfoFlowConfig",
    "ModelError",
    "ParseError",
    "SecureSystem",
    "State",
    "StateMachine",
    "UsageError",
    "equidom",
    "explore",
    "indist",
    "reachable",
    "run",
    "tabulate",
]

__version__ = "0.1.0"


def _lazy(package: str, path: list[str], name: str) -> types.ModuleType:
    """Submodule `name` of `package`, whose search path is `path`, put in
    `sys.modules` without running its body."""
    spec = PathFinder.find_spec(f"{package}.{name}", path)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


models = _lazy(__name__, __path__, "models")
noninterference = _lazy(__name__, __path__, "noninterference")
programs = _lazy(__name__, __path__, "programs")
refinement = _lazy(__name__, __path__, "refinement")
specfile = _lazy(__name__, __path__, "specfile")
unwinding = _lazy(__name__, __path__, "unwinding")
