"""Exception types shared across the package."""

from __future__ import annotations

import functools
import math
import types
import typing


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class DegenerateVectorError(ValueError):
    """A vector required to have positive norm is (numerically) zero."""


class StateError(RuntimeError):
    """A run reached a state it cannot go on from: a non-finite training
    loss, or gating margins too narrow for a finite-difference audit."""


class FormatError(ValueError):
    """A payload could not be parsed into the expected structure.

    Carries the raw payload so callers can log what the remote side
    actually returned.
    """

    def __init__(self, message: str, payload: str | None = None):
        super().__init__(message)
        self.payload = payload


def from_fields(cls, data, what: str, payload: str | None = None):
    """cls(**data) for a parsed JSON object holding exactly cls's fields,
    each of its annotated type; FormatError naming what otherwise."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object", payload=payload)
    hints = _field_types(cls)
    missing, unknown = hints.keys() - data.keys(), data.keys() - hints.keys()
    if missing or unknown:
        raise FormatError(f"{what} keys: missing {sorted(missing)}, "
                          f"unknown {sorted(unknown)}", payload=payload)
    for name, value in data.items():
        hint = hints[name]
        if not _conforms(value, hint):
            shown = hint.__name__ if isinstance(hint, type) else hint
            raise FormatError(f"{what} key {name!r} must be {shown}, "
                              f"got {value!r}", payload=payload)
    return cls(**data)


# A dataclass's field annotations, resolved once per class.
_field_types = functools.cache(typing.get_type_hints)


def _conforms(value, hint) -> bool:
    """Whether a parsed JSON value has the annotated type; an int may stand
    for a float, a bool is not an int, and NaN or inf is not a float."""
    if type(value) is hint:
        return hint is not float or math.isfinite(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return type(value) is list and all(_conforms(v, args[0])
                                           for v in value)
    if origin is dict:
        return type(value) is dict and all(
            _conforms(k, args[0]) and _conforms(v, args[1])
            for k, v in value.items())
    return hint is float and type(value) is int


class ClientError(RuntimeError):
    """Transport-level failure talking to a remote service (retryable)."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class EvaluationError(RuntimeError):
    """An evaluation step could not produce a score at all."""
