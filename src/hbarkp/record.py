"""Immutable records with value equality, the base of the data classes.

A subclass names its fields in ``_fields``, in the order its constructor
takes them, and its ``__init__`` stores them with ``_set``.  Two records
are equal when they are of the same class and their compared fields are
equal; the fields in ``_quiet`` are left out of equality, hashing and
``repr``.  Assigning to or deleting an attribute raises ``AttributeError``.
The fields live in the instance ``__dict__``, so a subclass may hold a
``functools.cached_property``.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()
    _quiet: tuple = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple(d[f] for f in self._fields if f not in self._quiet)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        d = self.__dict__
        body = ", ".join(f"{f}={d[f]!r}" for f in self._fields
                         if f not in self._quiet)
        return f"{self.__class__.__qualname__}({body})"

    def replace(self, **changes):
        """A copy with the given fields changed, built by the constructor
        (so its checks run again)."""
        d = self.__dict__
        return self.__class__(**{f: changes.pop(f, d[f]) for f in self._fields},
                              **changes)
