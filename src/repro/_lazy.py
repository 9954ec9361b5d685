"""Lazy package exports: a public name imports its module on first access.

Every ``repro`` package root declares its public surface as one table
mapping each exported name to the module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "RunStore": "repro.results.store",
        "open_store": "repro.results.backends",
    })

Importing the package then loads nothing else; ``repro.results.open_store``
(or ``from repro.results import open_store``) imports
``repro.results.backends`` the first time the name is looked up (PEP 562
module ``__getattr__``) and binds the value on the package, so later
lookups are plain attribute reads.  A command therefore pays only for the
modules it actually touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list], list]:
    """The ``(__getattr__, __dir__, __all__)`` triple of a package root.

    Parameters
    ----------
    package : str
        The package's ``__name__``.
    exports : Mapping[str, str]
        Public name -> dotted name of the module defining it.

    Returns
    -------
    tuple
        A module ``__getattr__`` resolving (and caching) the exported
        names, a ``__dir__`` listing them alongside the package's own
        globals, and ``__all__`` (the exported names, sorted).
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__, sorted(exports)
