"""The base of zhcalc's immutable value classes that validate or
canonicalise their fields, and the one reader of their JSON fields.

A subclass names its fields in ``__match_args__``. Its ``__init__``
checks its arguments and sets each field once with
``object.__setattr__``; only ``Diagram`` also calls a ``__post_init__``,
which the benchmark's tracer rebinds to count nodes built. ``Frozen``
compares two values by class and fields, hashes their fields and shows
a value as ``Cls(field=value, ...)``; assigning or deleting an attribute
raises AttributeError. A class whose last fields are caches lists the
compared ones in ``_compared``; the rest stay out of ``==``, ``hash``
and ``repr``. Plain records are named tuples instead. Every
``from_json`` reads its keys through ``_fields``.

Python builds these classes without generating source, so importing
them compiles nothing beyond this module.
"""

from __future__ import annotations

import reprlib
from operator import attrgetter


class Frozen:
    __match_args__: tuple[str, ...]
    _compared: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._compared = cls.__dict__.get("_compared", cls.__match_args__)
        # attrgetter reads the fields in C: a tuple of them, or the one
        # field's value when there is only one.
        cls._values = property(attrgetter(*cls._compared))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _fields(data: object, form: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in the JSON object ``data``, in order, or a
    one-line ValueError that names the ``form`` and the first missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{form} JSON must be an object, got {_brief(data)}")
    try:
        return [data[key] for key in keys]
    except KeyError as exc:
        raise ValueError(f"{form} JSON is missing a required key: {exc}") from exc


def _brief(value: object) -> str:
    """A repr of a JSON value cut to a fixed length, so that an error
    message stays one short line however large the input."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."
