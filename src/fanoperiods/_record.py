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
        # about four times faster than a generator over `_fields`.
        if not cls._fields:
            cls._values = staticmethod(lambda record: ())
            return
        get = attrgetter(*cls._fields)
        single = len(cls._fields) == 1
        cls._values = staticmethod((lambda record: (get(record),)) if single else get)

    def _store(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

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
