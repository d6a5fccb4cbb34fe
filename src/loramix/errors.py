"""Exception types shared across the package."""

from __future__ import annotations

import dataclasses


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class DegenerateVectorError(ValueError):
    """A vector required to have positive norm is (numerically) zero."""


class StateError(RuntimeError):
    """An operation was called out of order, e.g. gradients before forward."""


class FormatError(ValueError):
    """A payload could not be parsed into the expected structure.

    Carries the raw payload so callers can log what the remote side
    actually returned.
    """

    def __init__(self, message: str, payload: str | None = None):
        super().__init__(message)
        self.payload = payload


def from_fields(cls, data, what: str, payload: str | None = None):
    """cls(**data) for a parsed JSON object holding exactly cls's fields;
    FormatError naming what otherwise."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object", payload=payload)
    names = {f.name for f in dataclasses.fields(cls)}
    missing, unknown = names - data.keys(), data.keys() - names
    if missing or unknown:
        raise FormatError(f"{what} keys: missing {sorted(missing)}, "
                          f"unknown {sorted(unknown)}", payload=payload)
    return cls(**data)


class ClientError(RuntimeError):
    """Transport-level failure talking to a remote service (retryable)."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class EvaluationError(RuntimeError):
    """An evaluation step could not produce a score at all."""
