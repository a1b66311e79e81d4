"""Value classes with the equality, hash and repr of a dataclass.

A subclass names the fields that take part in ``==``, ``hash`` and
``repr`` in ``_fields``, in order, and sets them in its own ``__init__``.
Records are equal only when of the same class: ``PubAck(5) != PubRec(5)``.
"""


class Record:
    """A mutable value: equal by class and fields, and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable value. Its ``__init__`` sets each field with
    ``object.__setattr__``; any later assignment raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        # A copy or pickle is built again by __init__, from the fields in order.
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
