"""Exception types shared across the package, and the base of its value types."""

from operator import attrgetter


class ParseError(ValueError):
    """Raised when a text form (vector, word, T-params, census file) is malformed."""


class UnsupportedInput(ValueError):
    """Raised when an input is valid but outside an operation's supported range."""


class _Value:
    """
    An immutable value whose fields are its class's __slots__, in the order of
    its constructor's arguments, each set there with object.__setattr__.
    Values of one type are equal when their compared fields are, all of them
    unless the class names some (class X(_Value, compared=(...))), and hash
    those fields.  The repr is Name(field=value, ...), and pickle and copy
    rebuild a value through its constructor, which validates it again.
    """

    __slots__ = ()

    def __init_subclass__(cls, compared: tuple[str, ...] = ()) -> None:
        names = compared or cls.__slots__
        cls._key = staticmethod(attrgetter(*names) if names else lambda value: ())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
