"""Records with slots: the data classes of the network model, the reports and
the simulator's scenarios.

A record lists its fields, in order, in `_fields`; `_key()` returns their
values as a tuple.  Two records are equal when they are of the same class
and their keys are equal, as with a dataclass, and a frozen record hashes
its key.  Each subclass writes its own `__init__`, which checks its
arguments and sets the fields through `_set_fields`, or one by one through
`object.__setattr__` on a hot path; `_replace` builds a changed copy
through that constructor, so the copy is checked too.  `dataclasses` would
build the same methods with `exec` when each class is defined, and it
imports `inspect`: together they cost more start-up than the analysis of a
small network.
"""


class Record:
    """A mutable record: its fields can be reassigned, and it has no hash."""

    __slots__ = ()
    _fields = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _set_fields(self, *values):
        """Set the fields, in `_fields` order, to `values` (also where
        `__setattr__` refuses)."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._key()))

    def _replace(self, **changes):
        """A copy with the fields named in `changes` set to new values,
        built and checked by the constructor."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({values})"


class FrozenRecord(Record):
    """An immutable record: assigning or deleting an attribute raises
    AttributeError, and copies are rebuilt through the constructor."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()
