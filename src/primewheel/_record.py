"""Record: the frozen value type behind every form, interval, report and block count.

A subclass lists its fields as class annotations, in order; a field given
a value in the class body takes it as its default. Construction takes
the fields by position or keyword and then runs __post_init__. Records
compare equal only to a record of the same class with equal fields, hash
their fields, show them in their repr, and refuse assignment and
deletion. Each instance keeps a __dict__, so functools.cached_property
works on it. This is the part of @dataclass(frozen=True) the package
used, without importing dataclasses (and through it inspect, ast and dis)
at start-up.
"""

from __future__ import annotations


class Record:
    """Base of the frozen records; see the module docstring."""

    _fields = ()  # field names in order, a base class's first
    _defaults = {}  # field name -> default value

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}

    def __init__(self, *args, **kwargs) -> None:
        given = dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
