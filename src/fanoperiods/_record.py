"""Immutable value records, the base of the package's small data classes.

Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and each
decorated class execs generated code: together about a third of a CLI
call's import time.  A subclass instead declares
`__slots__ = _fields = (...)` and writes an `__init__` that validates
its arguments and stores them with `_store`.  Equality, hashing,
`repr`, copying and pickling then behave as in a frozen dataclass over
`_fields`; copies are rebuilt through `__init__`.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # `_values(record)` is the field tuple; an attrgetter builds it
        # about four times faster than a generator over `_fields`.  `_store`
        # calls the slot setters in field order.
        fields = cls._fields
        get = attrgetter(*fields) if fields else (lambda record: ())
        if len(fields) == 1:
            cls._values = staticmethod(lambda record: (get(record),))
        else:
            cls._values = staticmethod(get)
        setters = tuple(getattr(cls, name).__set__ for name in fields)

        def store(record, *values):
            for put, value in zip(setters, values):
                put(record, value)

        cls._store = store

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
