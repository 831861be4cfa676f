"""Records: the dataclass behaviour heatext's value types use, with no code
generated per class.

The standard library's `dataclass` decorator writes and execs fresh
source for each class's methods at every import. `record` instead gives a
class a table of its fields, read from its annotations in order, and
installs methods that every record shares:

- __init__ binds arguments by position or keyword in field order, fills
  each default (calling a default factory afresh for every instance) and
  runs __post_init__;
- __eq__ compares the field values of two instances of the same class;
- __repr__ prints Name(field=value, ...);
- a frozen record hashes its field values and raises AttributeError on
  assignment or deletion. object.__setattr__ and functools.cached_property
  write the instance's __dict__ directly and still work. A mutable record
  is unhashable.

What the dataclass decorator offers beyond this raises TypeError when the
class is made: a field option other than default and default_factory, a
mutable default, a subclass of a record, or a record class body that
defines a method `record` installs.
"""

_MISSING = object()
_SHARED = ("__init__", "__repr__", "__eq__", "__hash__", "__init_subclass__")


class Field:
    """One field of a record: its name and its default or default factory."""

    __slots__ = ("name", "default", "default_factory")

    def __init__(self, name, default=_MISSING, default_factory=_MISSING):
        self.name = name
        self.default = default
        self.default_factory = default_factory

    @property
    def required(self) -> bool:
        return self.default is _MISSING and self.default_factory is _MISSING


def field(*, default=_MISSING, default_factory=_MISSING, **options) -> Field:
    """A field's default or default factory, in a record's class body."""
    if options:
        raise TypeError(f"record fields take only default and default_factory, "
                        f"got {sorted(options)}")
    if default is not _MISSING and default_factory is not _MISSING:
        raise TypeError("a field takes a default or a default_factory, not both")
    return Field(None, default, default_factory)


def fields(obj) -> tuple:
    """The Field entries of a record or record class, in field order."""
    try:
        return obj.__record_fields__
    except AttributeError:
        raise TypeError(f"{obj!r} is not a record or record class") from None


def replace(obj, /, **changes):
    """A new record of obj's class with the given fields changed; it runs
    __init__, and so __post_init__, again."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    values.update(changes)
    return type(obj)(**values)


def record(cls=None, /, *, frozen=False):
    """Class decorator: `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    shared = _SHARED + (("__setattr__", "__delattr__") if frozen else ())
    own = [name for name in shared if name in vars(cls)]
    if own:
        raise TypeError(f"record {cls.__name__} defines {', '.join(own)}, which record installs")
    table = []
    for name in cls.__annotations__:
        value = vars(cls).get(name, _MISSING)
        if isinstance(value, Field):
            entry = Field(name, value.default, value.default_factory)
            if value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
        else:
            entry = Field(name, value)
        if type(entry.default).__hash__ is None:
            raise TypeError(f"record {cls.__name__} field {name!r} has a mutable default: "
                            f"use default_factory")
        if entry.required and table and not table[-1].required:
            raise TypeError(f"record {cls.__name__} field {name!r} without a default "
                            f"follows a field with one")
        table.append(entry)
    cls.__record_fields__ = tuple(table)
    cls.__record_names__ = frozenset(entry.name for entry in table)
    cls.__init__ = _init
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    cls.__hash__ = _hash if frozen else None
    cls.__init_subclass__ = classmethod(_refuse_subclass)
    if frozen:
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    table = cls.__record_fields__
    if len(args) > len(table):
        raise TypeError(f"{cls.__name__}() takes {len(table)} arguments but "
                        f"{len(args)} were given")
    unknown = kwargs.keys() - cls.__record_names__
    if unknown:
        raise TypeError(f"{cls.__name__}() got an unexpected keyword argument "
                        f"{min(unknown)!r}")
    for i, entry in enumerate(table):
        name = entry.name
        if i < len(args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            value = args[i]
        elif name in kwargs:
            value = kwargs[name]
        elif entry.default is not _MISSING:
            value = entry.default
        elif entry.default_factory is not _MISSING:
            value = entry.default_factory()
        else:
            raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        object.__setattr__(self, name, value)
    post_init = getattr(self, "__post_init__", None)
    if post_init is not None:
        post_init()


def _values(obj) -> tuple:
    return tuple(getattr(obj, entry.name) for entry in obj.__record_fields__)


def _repr(self):
    body = ", ".join(f"{entry.name}={getattr(self, entry.name)!r}"
                     for entry in self.__record_fields__)
    return f"{type(self).__qualname__}({body})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen record")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen record")


def _refuse_subclass(cls, **kwargs):
    raise TypeError(f"{cls.__name__} subclasses a record; records take no subclasses")
