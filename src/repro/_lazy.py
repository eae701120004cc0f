"""PEP 562 package exports that import their submodule on first use.

A package states once which submodule each public name lives in::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.errors": ("ReproError", "GraphError"),
        "repro.graph.datasets": ("datasets",),
    })

``import package`` then imports none of those submodules; the first
``package.ReproError`` (or ``from package import ReproError``) imports
``repro.errors`` and caches the value in the package namespace, so
every later lookup is an ordinary attribute read. A name equal to its
submodule's last component (``datasets`` above) is the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``,
    whose ``table`` maps a submodule to the names it exports."""
    where = {name: module for module, names in table.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(module)
        if not module.endswith("." + name):
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
