"""Immutable records: the base class of the package's value types, and ``replace``.

A record's fields are the parameters of its ``__init__``, which checks them
and stores them with ``self.__dict__.update``. These are plain classes, so
that importing the package builds no class by executing generated source:
that took about 0.4 ms a class, paid by every command at start-up.
"""
from __future__ import annotations


class Frozen:
    """Base of a record that cannot change: assigning or deleting an attribute
    raises AttributeError. ``functools.cached_property`` still works, as it
    writes to the instance ``__dict__`` directly. Records compare and hash by
    identity unless the subclass says otherwise."""

    def __init__(self):  # a record with no fields
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _fields(self))
        return f"{type(self).__name__}({fields})"


def _fields(record: Frozen) -> tuple[str, ...]:
    code = type(record).__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def replace(record: Frozen, **changes):
    """A copy of ``record`` with ``changes``, built through its constructor, so
    that every field is checked again."""
    return type(record)(**{**{name: getattr(record, name) for name in _fields(record)},
                           **changes})
