"""Float64 numeric substrate: stable softmax, cosine, Adam.

These are the contract-carrying entry points. Hot loops elsewhere in the
package call numpy directly on arrays that have already been validated
here or at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, ShapeError

Array = np.ndarray


def as_vector(v, name: str = "vector") -> Array:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={arr.ndim}")
    return arr


def as_matrix(m, name: str = "matrix") -> Array:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def softmax_rows(m: Array) -> Array:
    """Stable softmax along the last axis. Rows may contain -inf (masked).

    The row maximum is subtracted before exponentiation, so the result is
    invariant (to rounding) under adding a constant to every entry. The
    input is left unchanged; the result is computed in one new array.
    """
    m = np.asarray(m, dtype=np.float64)
    e = m - np.max(m, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two equal-length 1-D vectors in [-1, 1]."""
    u = as_vector(u, "first vector")
    v = as_vector(v, "second vector")
    if u.shape != v.shape:
        raise ShapeError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine similarity of a zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


# Adam's moment decay rates and the guard added to the update's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-tensor Adam accumulator with bias-corrected updates."""

    first_moment: Array
    second_moment: Array
    lr: float = 1e-4
    step_count: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")

    @classmethod
    def for_param(cls, param: Array, lr: float = 1e-4) -> "AdamState":
        param = np.asarray(param, dtype=np.float64)
        return cls(
            first_moment=np.zeros_like(param),
            second_moment=np.zeros_like(param),
            lr=lr,
        )


def adam_step(params: Array, grads: Array, state: AdamState) -> Array:
    """One bias-corrected Adam update; mutates `state`, returns new params."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape} and moments "
            f"{state.first_moment.shape} must share a shape"
        )
    state.step_count += 1
    t = state.step_count
    state.first_moment = ADAM_BETA1 * state.first_moment + (1 - ADAM_BETA1) * grads
    state.second_moment = ADAM_BETA2 * state.second_moment + (1 - ADAM_BETA2) * grads**2
    m_hat = state.first_moment / (1 - ADAM_BETA1**t)
    v_hat = state.second_moment / (1 - ADAM_BETA2**t)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
