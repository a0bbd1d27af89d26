"""Value classes on `__slots__`, with the semantics of a dataclass.

`Record` compares the fields that `_key` reads (an attrgetter over the
leading names of `__slots__`; trailing ones stay out of equality and the
repr), returns NotImplemented for other classes, writes the repr
`Name(field=value, ...)` and, like an eq-dataclass, is unhashable.
`Frozen` adds hashing and refuses assignment, so its constructors set
fields with `_set`.  The package does without `dataclasses`, whose import
pulls in `inspect` and `ast` and costs every CLI process tens of ms.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._key(self))))


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
