"""Base classes for the toolkit's small record types.

They give a __slots__ class what a dataclass would generate for it, without
importing dataclasses (and inspect) at start-up: equality over the fields
in order, between instances of the same class only; a repr naming each
field; and, for FrozenValue, a hash of the fields and no assignment after
__init__. A subclass names its fields in _fields and writes its own
__init__, which takes every field positionally in _fields order; a
mutable one is unhashable, as a dataclass with eq=True is. Every slot is a
field. A class whose constructor does not take its fields keeps its own
__reduce__.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Set the fields, in _fields order; for __init__ and alternative
        constructors only."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since fields cannot be set
        return (self.__class__, self._astuple())
