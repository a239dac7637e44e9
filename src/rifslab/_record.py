"""Frozen records that share one set of methods.

`@dataclass(frozen=True)` compiles six method sources for every class it
decorates, which costs start-up time in every process.  A record instead
derives from `Record`, whose methods read the class's field list, and
`@record` makes it a dataclass that generates no methods.  It stays a real
dataclass, so `fields`, `replace`, `asdict` and `__match_args__` work.
"""

from __future__ import annotations

import dataclasses
import inspect
import reprlib
from dataclasses import MISSING, FrozenInstanceError

_ARG = inspect.Parameter.POSITIONAL_OR_KEYWORD


class Record:
    """Base of every record: the `__init__`, `__repr__`, `__eq__`,
    `__hash__`, `__setattr__` and `__delattr__` of a frozen dataclass,
    computed from the field names and defaults that `record` caches."""

    def __init__(self, *args, **kwargs):
        # the checks, their order and their messages are Python's own
        cls = type(self)
        names, defaults = cls._names, cls._defaults
        where = f"{cls.__qualname__}.__init__()"
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in defaults:
                raise TypeError(
                    f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(
                    f"{where} got multiple values for argument {name!r}")
            values[name] = value
        if len(args) > len(names):
            least = sum(defaults[n] is MISSING for n in names) + 1
            takes = (f"from {least} to {len(names) + 1}"
                     if least <= len(names) else least)
            raise TypeError(f"{where} takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        missing = [repr(n) for n in names
                   if n not in values and defaults[n] is MISSING]
        if missing:
            listed = (" and ".join(missing) if len(missing) < 3 else
                      ", ".join(missing[:-1]) + ", and " + missing[-1])
            raise TypeError(f"{where} missing {len(missing)} required "
                            f"positional argument{'s' * (len(missing) > 1)}"
                            f": {listed}")
        for name in names:
            object.__setattr__(self, name, values.get(name, defaults[name]))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._names)

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._names) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: type[Record]) -> type[Record]:
    """Make `cls`, a `Record` subclass, a dataclass whose methods are
    `Record`'s: fields with plain defaults, in declaration order."""
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    plain = (True, True, None, True, False, MISSING)
    if not issubclass(cls, Record) or any(
            (f.init, f.repr, f.hash, f.compare, f.kw_only, f.default_factory)
            != plain for f in fields):
        raise TypeError(f"{cls.__qualname__} is not a Record of plain fields")
    cls._names = tuple(f.name for f in fields)
    cls._defaults = {f.name: f.default for f in fields}
    cls.__signature__ = inspect.Signature(
        [inspect.Parameter(f.name, _ARG, annotation=f.type, default=(
            inspect.Parameter.empty if f.default is MISSING else f.default))
         for f in fields], return_annotation=None)
    return cls
