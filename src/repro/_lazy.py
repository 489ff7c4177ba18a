"""Lazy package re-exports: a package declares its public names up
front, and each one imports its module on first use.

``import repro.core.gates`` runs ``repro/core/__init__.py``, and an
init that imported every submodule it re-exports would also execute
``ladder``, ``device``, ``calibration`` and the rest.  With
:func:`lazy_exports` the init only records where each name lives;
``from repro.core import LadderXorGate`` imports ``repro.core.ladder``
at that moment and stores the class in the package, so later lookups
are plain attribute reads.  ``__all__``, ``dir()`` and every
``from package import name`` behave as they did with eager imports.

The hooks are the module-level ``__getattr__`` and ``__dir__`` of
PEP 562, which Python consults only after the package's dict misses.
CPython does not specialise attribute reads on a module that has a
``__getattr__`` (about 50 ns a read instead of 16 ns), so a package
whose attributes are read on solver hot paths -- ``repro.obs``, as in
``obs.enabled()`` -- keeps its eager init.
"""

import importlib
import importlib.util
import pkgutil
import sys
import types
from typing import Dict, Mapping, Sequence, Tuple, Union

Export = Union[str, Tuple[str, str]]


class _ShadowedSubmodules(types.ModuleType):
    """Module type of a package that re-exports a name from the
    submodule of the same name (``compiler.place`` is a function in
    ``compiler/place.py``).

    The import system binds every loaded submodule on its package; the
    re-export keeps the name, as it did when the init imported it after
    the submodule.  Instances are no longer exact modules, so attribute
    reads lose the module fast path: only such packages get this type.
    """

    def __setattr__(self, name: str, value) -> None:
        if (isinstance(value, types.ModuleType)
                and name in self.__dict__["_lazy_exports"]):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str,
                 exports: Mapping[str, Sequence[Export]]) -> None:
    """Re-export names from other modules in ``package`` on first use.

    ``exports`` maps a module path relative to ``package`` (``".gates"``,
    ``"..errors"``) to the names taken from it; a ``(name, attribute)``
    pair exports the module's ``attribute`` as ``name``.  Submodules
    need no entry: ``package.submodule`` imports on first use.
    """
    table: Dict[str, Tuple[str, str]] = {}
    for source, names in exports.items():
        module = importlib.util.resolve_name(source, package)
        for entry in names:
            name, attr = (entry, entry) if isinstance(entry, str) else entry
            table[name] = (module, attr)
    target = sys.modules[package]
    namespace = target.__dict__

    def __getattr__(name: str):
        if name in table:
            source, attr = table[name]
            value = getattr(importlib.import_module(source), attr)
        elif name.startswith("__"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            # An eager init left its submodules bound on the package;
            # resolve ``package.submodule`` the same way.
            full = f"{package}.{name}"
            try:
                value = importlib.import_module(full)
            except ModuleNotFoundError as exc:
                if exc.name != full:
                    raise
                raise AttributeError(f"module {package!r} has no "
                                     f"attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__():
        names = set(namespace) | set(table)
        names.update(info.name for info in
                     pkgutil.iter_modules(namespace["__path__"]))
        return sorted(names)

    namespace.update(_lazy_exports=table, __getattr__=__getattr__,
                     __dir__=__dir__)
    if any(source == f"{package}.{name}"
           for name, (source, _attr) in table.items()):
        target.__class__ = _ShadowedSubmodules
