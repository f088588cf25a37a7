"""The base of the library's immutable value classes.

Expression nodes, shapes, charts, bundles, connections, maps, sections,
grids and problem specs are not dataclasses, whose generated methods are
compiled as their module loads: that took half of dvbcalc's import time
after numpy.
"""

import operator


class Value:
    """An immutable slotted value, equal and hashed by exact class and fields.

    The fields are the parameters of ``__init__``, which checks them and
    sets each with ``object.__setattr__``; a subclass keeps its parent's.
    ``_replace``, copies and pickles rebuild a value through ``__init__``.
    Other slots hold memos or derived arrays, outside equality, hashing,
    the repr and ``_replace``; a memo slot may stay unset.  The repr leaves
    out the fields named in ``_hidden``.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        # The fields, read in C; an attrgetter does not bind, so call self._key(self).
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # Compared as tuples, so a field that is the same object is equal.
        return (self._key(self),) == (other._key(other),)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with the given fields changed, checked as a new value is."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


def dimension(value) -> int:
    """A dimension as an int: any integer, numpy's included, but not a bool."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"a dimension must be an integer, got {value!r}")
    return operator.index(value)
