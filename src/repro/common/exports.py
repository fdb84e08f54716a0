"""Lazy package exports (PEP 562).

Each ``repro`` package lists its public names once, in a ``{module: names}``
table, and hands the table to :func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        ".engine": ("SimConfig", "Simulation", "simulate"),
    })

A name's defining module is imported on first access, not when the package
is, so importing one name loads only the modules it needs. The resolved
object is then stored in the package namespace, and later lookups never
reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package owning *namespace*.

    *table* maps a module path, absolute or relative to the package, to the
    names the package exports from it.
    """
    package = namespace["__name__"]
    owners: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owners.keys())

    # Importing a submodule binds it on its package under its own name,
    # which would hide an export of the same name (``repro.fitting.nnls``
    # the function, not the module). Resolve those now, after the binding.
    for name, module in owners.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, list(owners)
