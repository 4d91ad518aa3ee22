"""Package exports that resolve on first use (PEP 562).

A package whose ``__init__`` only re-exports names lists each name once,
under the module that defines it, and imports nothing until a name is
read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ["Environment"],
        ".rng": ["RngRegistry"],
    })

Module keys are relative to the package (``".engine"``) or absolute
(``"repro.errors"``).  A resolved name is stored in the package, so
``__getattr__`` runs once per name.  A name not in the table that names
a submodule (``repro.obs``, ``repro.net.capture``) imports it, as the
eager ``__init__`` did by side effect; any other name raises
:class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
import typing as t


def lazy_exports(
    package: str, table: t.Mapping[str, t.Sequence[str]],
) -> tuple[list[str], t.Callable[[str], t.Any], t.Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package* from *table*,
    a ``{module: [names]}`` map of what the package exports."""
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> t.Any:
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | where.keys())

    return sorted(where), __getattr__, __dir__
