"""Immutable value records, without the import and the generated methods of
`dataclasses`, which would cost every CLI call milliseconds.

A subclass of `Record` declares its fields as annotations, after those of
its bases, and a default as a class attribute of the same name.  A record
takes positional or keyword arguments, is checked by `__post_init__`,
refuses assignment, and compares and hashes by its fields.  The values
given live in the instance `__dict__`, so reads are plain and pickling
needs no hook.
"""


class Record:
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() got unexpected arguments")
        self.__dict__.update(zip(fields, args), **kwargs)
        missing = [field for field in fields if not hasattr(self, field)]
        if missing:
            raise TypeError(f"{name}() missing arguments {missing}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"
