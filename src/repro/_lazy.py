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

A registry whose names a caller needs before any value (a parser's
``choices``) is a :class:`LazyTable`: its keys are plain strings and a
value is imported on its first lookup.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["LazyTable", "lazy_exports"]


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


class LazyTable(Mapping):
    """A read-only name -> object registry whose names are known at
    import and whose values are imported on first lookup.

    ``paths`` maps each name to ``"module:attribute"``; iterating,
    ``len`` and ``in`` read the names only.
    """

    def __init__(self, paths: Dict[str, str]) -> None:
        self._paths = dict(paths)
        self._values: Dict[str, object] = {}

    def __getitem__(self, name: str) -> object:
        if name not in self._values:
            module, _, attribute = self._paths[name].partition(":")
            self._values[name] = getattr(
                importlib.import_module(module), attribute
            )
        return self._values[name]

    def __contains__(self, name: object) -> bool:
        return name in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)
