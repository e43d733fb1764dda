"""Lazy package exports: a name imports its submodule on first use.

Each ``repro`` package ``__init__`` declares its exports as one table,
``{submodule: names}``, and takes its PEP 562 ``__getattr__`` and
``__dir__`` from :func:`export_lazily`.  ``from repro.nn import Tensor``
then imports :mod:`repro.nn.tensor` and nothing else, and binds
``Tensor`` on the package, so later lookups are plain attribute reads.
A name that is its own submodule (``repro.nn.functional``) exports the
submodule unless that submodule defines the name (``repro.nn.tensor``
exports the ``tensor`` function, as ``from .tensor import tensor``
did).
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Dict, Iterable, List, Tuple

#: Package name -> its exports, name -> submodule.
_EXPORTS: Dict[str, Dict[str, str]] = {}


def _value(module: ModuleType, name: str):
    if module.__name__.rpartition(".")[2] == name:
        return getattr(module, name, module)
    return getattr(module, name)


class _Package(ModuleType):
    """A lazily exporting package.

    Importing ``repro.nn.tensor`` binds the *module* on the package as
    ``tensor``, over the exported function of that name.  An eager
    ``__init__`` rebound the function right after; a lazy one never
    runs that line, so the binding is corrected as it happens.
    """

    def __setattr__(self, name: str, value) -> None:
        if (isinstance(value, ModuleType)
                and _EXPORTS[self.__name__].get(name) == name
                and value.__name__ == f"{self.__name__}.{name}"):
            value = _value(value, name)
        super().__setattr__(name, value)


def export_lazily(package: str, table: Dict[str, Iterable[str]]
                  ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``'s exports."""
    exports = {name: submodule for submodule, names in table.items()
               for name in names}
    _EXPORTS[package] = exports
    module = sys.modules[package]
    module.__class__ = _Package
    namespace = vars(module)

    def __getattr__(name: str):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = _value(importlib.import_module(f"{package}.{submodule}"),
                       name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
