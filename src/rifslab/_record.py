"""Frozen records that share one set of methods.

`@dataclass(frozen=True)` compiles six method sources for every class it
decorates, and `import dataclasses` loads `inspect`, `ast`, `dis` and
`tokenize`, which costs start-up time in every process.  A record instead
derives from `Record`, whose methods read the field names and defaults
that `@record` takes from the class's annotations and `__dict__`.  The
first read of `__dataclass_fields__`, `__dataclass_params__` or
`__signature__` makes the class a dataclass that generates no methods, so
`fields`, `replace`, `asdict`, `__match_args__` and `inspect.signature`
see what they see on a `@dataclass(frozen=True)`.
"""

from __future__ import annotations

import _thread
import re
import reprlib
import sys

_MISSING = object()  # a field with no default

# the head of a string annotation, as `dataclasses` parses it
_HEAD = re.compile(r"^(?:\s*(\w+)\s*\.)?\s*(\w+)")


class _OnFirstRead:
    """A dataclass attribute that `record` leaves in a class: its first
    read makes the class that holds it a dataclass, which replaces it."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner):
        home = next(cls for cls in owner.__mro__
                    if vars(cls).get(self.name) is self)
        _build(home)
        return getattr(home if obj is None else obj, self.name)


# what `_build` sets, `dataclass` setting `__replace__` from Python 3.13
_ON_FIRST_READ = [_OnFirstRead(name) for name in (
    "__dataclass_fields__", "__dataclass_params__", "__signature__")]
if sys.version_info >= (3, 13):
    _ON_FIRST_READ.append(_OnFirstRead("__replace__"))
_BUILDING = _thread.RLock()  # building a sub-record builds its bases


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
            least = sum(defaults[n] is _MISSING for n in names) + 1
            takes = (f"from {least} to {len(names) + 1}"
                     if least <= len(names) else least)
            raise TypeError(f"{where} takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        missing = [repr(n) for n in names
                   if n not in values and defaults[n] is _MISSING]
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
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _build(cls: type[Record]) -> None:
    """Make `cls` a dataclass that generates no methods, with the
    signature of its fields, unless it is one already."""
    import dataclasses
    import inspect
    with _BUILDING:
        if not isinstance(vars(cls)["__signature__"], _OnFirstRead):
            return
        # dataclass overwrites the other placeholders, but sets
        # `__replace__` only where the class has none
        if isinstance(vars(cls).get("__replace__"), _OnFirstRead):
            del cls.__replace__
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        cls.__signature__ = inspect.Signature(
            [inspect.Parameter(f.name,
                               inspect.Parameter.POSITIONAL_OR_KEYWORD,
                               annotation=f.type, default=(
                                   inspect.Parameter.empty
                                   if f.default is dataclasses.MISSING
                                   else f.default))
             for f in dataclasses.fields(cls)], return_annotation=None)


def _typing_annotation(cls: type, annotation) -> bool:
    """Whether `annotation` is not a string, or a string whose head names,
    looked up in `cls`'s module as `dataclasses` looks them up, are the
    `typing` or `dataclasses` module or come from one: what `dataclass`
    might take for a ClassVar, an InitVar or KW_ONLY rather than a field."""
    module = sys.modules.get(cls.__module__)
    if not isinstance(annotation, str) or module is None:
        return True
    match = _HEAD.match(annotation)
    for name in match.groups() if match else ():
        if name in vars(module):
            head = vars(module)[name]
            # its class, read without touching it: it may be a lazy
            # module such as `np`
            kind = head if issubclass(type(head), type) else type(head)
            if any(kind.__module__ == home or head is sys.modules.get(home)
                   for home in ("typing", "dataclasses")):
                return True
    return False


def _plain_fields(cls: type) -> dict | None:
    """The field defaults (`_MISSING` for none) that `dataclass` would give
    `cls`, read off its annotations and `__dict__`, when it is a documented
    `Record` subclass, its bases are records, and its own fields have
    hashable plain defaults and no annotation from `typing`; else None."""
    if not (issubclass(cls, Record) and cls.__doc__ and all(
            base in (Record, object) or "_names" in vars(base)
            for base in cls.__mro__[1:])):
        return None
    defaults = {}
    for base in reversed(cls.__mro__[1:]):
        defaults.update(getattr(base, "_defaults", {}))
    for name, annotation in cls.__annotations__.items():  # its own
        default = getattr(cls, name, _MISSING)
        if (_typing_annotation(cls, annotation)
                or type(default).__hash__ is None):
            return None
        defaults[name] = default
    # a dataclasses.field(), with an annotation or without
    if any(type(value).__module__ == "dataclasses"
           for value in vars(cls).values()):
        return None
    required = [default is _MISSING for default in defaults.values()]
    if required != sorted(required, reverse=True):  # refused by Signature
        return None
    return defaults


def record(cls: type[Record]) -> type[Record]:
    """Give `cls`, a `Record` subclass, `Record`'s methods over its fields,
    and make it a dataclass on its first read as one.

    Refused unless `_plain_fields` can read its fields: a docstring (else
    `dataclass` writes one from the signature), record bases, string
    annotations naming nothing from `typing` or `dataclasses`, hashable
    plain defaults, and no required field after a defaulted one."""
    defaults = _plain_fields(cls)
    if defaults is None:
        raise TypeError(f"{cls.__qualname__} is not a Record of plain fields")
    for attribute in _ON_FIRST_READ:
        setattr(cls, attribute.name, attribute)
    cls._names = tuple(defaults)
    cls._defaults = defaults
    if "__match_args__" not in vars(cls):
        cls.__match_args__ = cls._names
    return cls
