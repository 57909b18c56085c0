"""``Value``, the frozen base of the package's value types, in place of
``@dataclass(frozen=True)``, whose import and per-class code every CLI call paid for."""


class _InitSignature:
    """``inspect.signature`` of a class on the generic ``__init__``; None for one with its own."""

    def __get__(self, obj, cls):
        if cls.__init__ is not Value.__init__:
            return None
        from inspect import Parameter, Signature

        notes = {k: v for c in reversed(cls.__mro__) for k, v in vars(c).get("__annotations__", {}).items()}
        return Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, annotation=notes[name],
                                    default=getattr(cls, name, Parameter.empty)) for name in cls.FIELDS])


class Value:
    """A frozen record. ``FIELDS`` lists its fields: the class's own annotations in order,
    ``ClassVar`` ones excepted, or else its parent's; a class attribute assigned to a field is
    its default. The generic ``__init__`` takes the fields by position or keyword, then calls
    ``__post_init__``; a class's own ``__init__`` (the hot ones) stores them with
    ``vars(self).update``. Values of one class with equal fields are equal and hash alike, and
    ``repr`` shows each field as ``name=value``."""

    FIELDS = ()

    def __init_subclass__(cls):
        own = tuple(n for n, note in vars(cls).get("__annotations__", {}).items() if not note.startswith("ClassVar"))
        cls.FIELDS = own or cls.FIELDS

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.FIELDS):
            args = self._bind(args, kwargs)
        vars(self).update(zip(self.FIELDS, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values of a call by keyword or with defaults; a TypeError where a function raises one."""
        cls, rest = type(self), self.FIELDS[len(args):]
        unknown = set(kwargs).difference(rest)
        missing = [name for name in rest if name not in kwargs and not hasattr(cls, name)]
        if len(args) > len(self.FIELDS) or unknown or missing:
            raise TypeError(f"{cls.__name__}() takes {', '.join(self.FIELDS)}: got {len(args)} by position,"
                            f" unknown or repeated {sorted(unknown)}, missing {missing}")
        return [*args, *(kwargs[name] if name in kwargs else getattr(cls, name) for name in rest)]

    def __post_init__(self):
        """Check the fields once they are stored; a subclass overrides it."""

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({shown})"

    __signature__ = _InitSignature()
