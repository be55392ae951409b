"""Immutable records. One base class reads each record's fields from its
annotations and gives it construction, equality, hash and repr, so defining
a record execs no generated source; the standard library's frozen records
cost about 0.6 ms a class at import."""


class Record:
    """A record's fields are the names its class annotates, in order. It is
    built from positional or keyword arguments and cannot be changed; two
    records are equal when they are of the same class with equal fields,
    and it hashes and shows as its fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields) or kwargs.keys() != set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, got "
                            f"{len(args)} positional and the keywords {sorted(kwargs)}")
        self.__dict__.update(zip(fields, args), **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"
