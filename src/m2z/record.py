"""The base of the immutable value types: slotted records with their own __init__."""

from operator import attrgetter


class Frozen:
    """A record whose fields are the ``__slots__`` of its class and bases (a
    ``"__dict__"`` slot, listed to cache properties, is no field).  Like a
    frozen dataclass, it equals only records of its own class with equal
    fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)``, and refuses assignment and deletion."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = (n for k in reversed(cls.__mro__) for n in k.__dict__.get("__slots__", ()))
        cls.__match_args__ = names = tuple(n for n in slots if n != "__dict__")
        get = attrgetter(*names)  # a tuple only for two names or more
        cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def _set(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle skip __init__ and its checks
        return restore, (type(self), self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


def restore(cls, values):  # values that already pass the checks of cls.__init__
    x = cls.__new__(cls)
    x._set(*values)
    return x
