"""Result fields decoded on first read.

The vectorized engine ends a run with one availability float per
payload group; turning that into the ``{node: {chunk}}`` holdings map
(and, under reported faults, the undelivered map) costs a set insert
per held ``(node, chunk)`` slot — more than the run itself on
many-chunk programs whose callers never read the map.  A result field
declared with :class:`OnAccess` therefore accepts a :class:`Deferred`
decoder in place of its value and runs it the first time the field is
read.  Pickling or copying a result decodes the field first, so a
stored result never carries the decoder.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["Deferred", "OnAccess"]

_MISSING = object()


class Deferred:
    """A zero-argument decoder standing in for a field's value."""

    __slots__ = ("decode",)

    def __init__(self, decode: Callable[[], Any]) -> None:
        self.decode = decode

    def __repr__(self) -> str:
        return f"Deferred({self.decode!r})"

    def __reduce__(self) -> tuple[Callable[[Any], Any], tuple[Any]]:
        return (_identity, (self.decode(),))


def _identity(value: Any) -> Any:
    return value


class OnAccess:
    """Dataclass field descriptor: a value, or a :class:`Deferred` one.

    ``default`` is the field's default (a :class:`Deferred` for a fresh
    mutable default per instance); without one the field is required.
    """

    def __init__(self, default: Any = _MISSING) -> None:
        self._default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            # dataclasses reads the class attribute as the default
            if self._default is _MISSING:
                raise AttributeError(self._name)
            return self._default
        value = obj.__dict__[self._name]
        if type(value) is Deferred:
            value = obj.__dict__[self._name] = value.decode()
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self._name] = value
