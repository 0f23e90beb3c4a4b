"""One base for the package's value classes.

A subclass lists its fields in __slots__ and sets each one in its own
__init__ with set_field.  Value derives the rest from the fields:
equality with an instance of the same class, a hash of the tuple of the
compared fields, a constructor-call repr, pickling and copying through
__reduce__ (the constructor takes the fields in order), and an
AttributeError on any later assignment or deletion: every value is
frozen.  A class narrows what equality and hashing look at with _compare,
and declares _fields when its fields come from more than one class.  A
class that defines __eq__, __hash__ or __repr__ itself keeps its own.
A value whose fields hold a list or a dict is frozen but unhashable: its
hash raises the TypeError of the list or dict.
"""

from operator import attrgetter

# sets a field of a frozen instance in its __init__, past Value.__setattr__
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _compare: tuple = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__", ())
        if slots and "_fields" not in cls.__dict__:
            cls._fields = tuple(slots)
        names = cls._compare or cls._fields
        cls._get = attrgetter(*names)  # one field's value itself, else a tuple
        cls._single = len(names) == 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == self._get(other)

    def __hash__(self):
        key = self._get(self)
        return hash((key,) if self._single else key)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
