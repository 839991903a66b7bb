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

    ``exports`` maps a submodule of ``package`` to the names the package
    re-exports from it.  The first access to such a name — or to the
    submodule's own name — imports the submodule and binds the value in
    the package namespace, so later accesses (and ``monkeypatch``) see an
    ordinary attribute.
    """
    origin = {name: submodule
              for submodule, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name in exports:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(exports))

    return __getattr__, __dir__
