"""Lazy package re-exports (PEP 562).

A package ``__init__`` keeps its full ``__all__`` but leaves heavy
submodules (numpy users, the chaos and experiment catalogues) unimported
until one of their names is first read::

    _LAZY = {"CohortEngine": "repro.sim.cohort"}
    __getattr__ = lazy_exports(__name__, _LAZY, globals())

The first ``repro.sim.CohortEngine`` (or ``from repro.sim import
CohortEngine``, or ``from repro.sim import *``) imports
``repro.sim.cohort`` and caches the value in the package namespace, so
later reads never reach ``__getattr__`` again.  Lint rule API001 reads
the table literal, so every key counts as bound for ``__all__``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Mapping[str, str],
                 namespace: Dict[str, Any]) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``table``'s names on first use.

    ``table`` maps each exported name to the absolute name of the
    submodule that defines it; ``namespace`` is the package's
    ``globals()``, where each resolved value is cached.
    """

    def __getattr__(name: str) -> Any:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(submodule), name)
        namespace[name] = value
        return value

    return __getattr__
