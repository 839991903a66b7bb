"""Package surfaces that load on first use (PEP 562).

A fresh ``python -m repro repair`` pays for every module it imports — the
benchmark host compiles them from source each time — so a package
``__init__`` must not pull in subsystems that the importing process may
never run (the worker fleet, the tracer, the profiler).  Those
packages hand their re-exports to
:func:`lazy_exports`; the names stay importable, patchable and listed
exactly as if ``__init__`` had imported them.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module-level ``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module to the names the package re-exports from it,
    the module written as after ``from .`` in the package's ``__init__``: a
    submodule (``"trace"``), or with a leading dot a module of the parent
    package (``".distrib.faults"``).  The first access to such a name — or
    to a submodule's own name — imports the module and binds the value in
    the package namespace, so later accesses (and ``monkeypatch``) see an
    ordinary attribute.
    """
    origin = {name: module
              for module, names in exports.items() for name in names}
    submodules = {module for module in exports if not module.startswith(".")}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(import_module(f".{origin[name]}", package), name)
        elif name in submodules:
            value = import_module(f".{name}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | submodules)

    return __getattr__, __dir__
