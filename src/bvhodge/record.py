"""Frozen records: what ``@dataclass(frozen=True)`` gives, without its import cost.

A record lists its fields in ``__slots__`` and stores them in its ``__init__``
through :func:`setfield`; assignment and deletion then raise.  Equality and
hash read the fields in ``_compare`` (default: all) of records of one class;
pickling and copying rebuild a record through ``__init__``, fields in slot order.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()
    #: the fields equality and hash read; None means every field
    _compare = None

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compare or self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
