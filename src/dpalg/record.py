"""Slotted record types, the base of the package's value classes.

A subclass names its public fields, in constructor order, in ``_fields``;
repr, equality and pickling go by them, as a dataclass's would.  Private
slots (a leading ``_``) hold derived data outside all of that.  Not using
``dataclasses`` keeps ``inspect``, ``ast``, ``dis`` and ``tokenize`` out of
``import dpalg``, whose time they dominated.
"""


class Record:
    """Fields read and written freely; equal by fields and unhashable, like a
    dataclass that is not frozen."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose fields are set once, in ``__init__`` through
    ``object.__setattr__``, and hashed together.  Assigning or deleting an
    attribute raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
