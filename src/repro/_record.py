"""Slotted value records, on two small bases instead of generated classes.

Every value type in the package (specs, configs, records, events,
registry entries, per-transaction runtimes) is a plain class on one of
the two bases here.  The class lists its fields in ``__slots__``, in
declaration order, and writes its own ``__init__`` holding its checks;
the base supplies the rest from that tuple:

- ``==`` over the fields, between instances of the same class only;
- ``repr`` as ``Name(field=value, ...)``;
- copy, deep copy and pickle (the fields are the state, so a copy skips
  ``__init__`` and its checks), and weak references;
- :class:`FrozenRecord` also refuses assignment and deletion with an
  :class:`AttributeError` and hashes the field tuple; a mutable
  :class:`Record` is unhashable.

A frozen class's ``__init__`` sets its fields with ``object.__setattr__``.
Slots named with a leading underscore are private caches, not fields.
:func:`replace`, :func:`fields` and :func:`asdict` stand in for their
namesakes in the standard library's data-class module.

The package does not import that module: importing it loads ``inspect``,
``ast`` and ``dis`` (~9 ms), and each decorated class then generates and
compiles its methods (~1 ms a class), all before ``repro run`` reaches
its first cell or ``repro serve`` listens.  Here the methods are
compiled once, with this module.
"""

from __future__ import annotations

from typing import Any, TypeVar

__all__ = ["FrozenRecord", "Record", "asdict", "fields", "replace"]

R = TypeVar("R", bound="Record")


class Record:
    """A mutable record; subclasses declare their fields in ``__slots__``."""

    __slots__ = ("__weakref__",)

    #: Field names in declaration order, inherited fields first; set for
    #: each subclass from the public names of its own ``__slots__``.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(n for n in own if not n.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)


class FrozenRecord(Record):
    """An immutable, hashable record."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


def fields(record: "Record | type[Record]") -> tuple[str, ...]:
    """The field names of a record or record class, in declaration order."""
    return record._fields


def asdict(record: Record) -> dict:
    """``{field: value}`` in declaration order.

    Shallow: nested records and containers are the record's own
    objects, not copies.
    """
    return {name: getattr(record, name) for name in record._fields}


def replace(record: R, **changes: Any) -> R:
    """A new record equal to ``record`` but for ``changes``.

    The copy goes through the class's ``__init__``, so its checks run
    again.  Fields the constructor does not take (derived in
    ``__init__``) are derived afresh.
    """
    code = getattr(type(record).__init__, "__code__", None)  # None: no fields
    params = code.co_varnames[1 : code.co_argcount] if code else ()
    kwargs = {name: getattr(record, name) for name in params if name in record._fields}
    kwargs.update(changes)
    return type(record)(**kwargs)
