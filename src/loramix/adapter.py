"""Routed mixture of low-rank experts on a frozen feed-forward layer.

The decorated layer is a frozen two-layer FFN. Each expert is a rank-r
factor pair whose product perturbs the first projection; a linear router
scores all experts per input vector, the scores pass through a softmax
over every expert, and only the top-k survive with their weights
renormalized to sum to one. Unselected experts contribute nothing to the
output and receive no gradient. With all up-factors zero the layer is
exactly the frozen FFN, so a freshly decorated model reproduces its base.

The mixture is one rank-(E*r) adapter whose rank space is gated by the
routing weights, each expert's weight repeated over its r rank columns.
It stores and trains the two flat factors that product uses, expert i
owning their rows i*r to (i+1)*r, plus the router matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError
from .numerics import as_matrix, softmax_rows

if TYPE_CHECKING:
    from .model import AdapterSpec

Array = np.ndarray


def silu(x: Array) -> Array:
    return x / (1.0 + np.exp(-x))


def route_rows(logits: Array, k: int) -> tuple[Array, Array, Array, Array]:
    """Top-k routing of a stack of router logits, one row per input.

    Returns `full`, the softmax over every expert; `order`, the k
    selected expert indices per row in descending score order, ties
    going to the lower index; `denom`, the selected scores' sum per row;
    and `mix`, the selected scores divided by `denom` at their expert
    columns and zero elsewhere, so each row sums to one.

    A lone expert takes every row with weight 1, the softmax of one
    finite logit, so that case skips the sort and the scatter.
    """
    n = logits.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if n == 1:
        ones = np.ones(logits.shape)
        return ones, np.zeros(logits.shape, dtype=np.intp), ones, ones
    full = softmax_rows(logits)
    # Stable argsort on negated scores: equal scores keep index order.
    order = np.argsort(-full, axis=1, kind="stable")[:, :k]
    picked = np.take_along_axis(full, order, axis=1)
    denom = picked.sum(axis=1, keepdims=True)
    mix = np.zeros_like(full)
    np.put_along_axis(mix, order, picked / denom, axis=1)
    return full, order, denom, mix


class MixtureFfn:
    """Frozen two-layer FFN decorated with a routed mixture of experts.

    The E rank-r experts live in two flat factors, `down` (E*r, d_in)
    and `up` (E*r, d_ff), expert i owning rows i*r to (i+1)*r of each;
    the router is one (d_in, E) matrix. With `gate` the routing mix
    repeated r times per expert:

        p = x down^T
        h = W1 x + (alpha / r) * (gate * p) up
        y = W2 silu(h)

    The base projections are write-protected at construction; only
    `down`, `up` and the router train.
    """

    def __init__(self, w1: Array, w2: Array, down: Array, up: Array,
                 router: Array, top_k: int, alpha: float):
        w1 = np.array(as_matrix(w1, "first projection"), dtype=np.float64)
        w2 = np.array(as_matrix(w2, "second projection"), dtype=np.float64)
        d_ff, d_in = w1.shape
        if w2.shape != (d_in, d_ff):
            raise ShapeError(
                f"second projection must be ({d_in}, {d_ff}), got {w2.shape}"
            )
        down = np.array(as_matrix(down, "down factor"), order="C")
        up = np.array(as_matrix(up, "up factor"), order="C")
        router = np.array(as_matrix(router, "router weights"), order="C")
        n = router.shape[1]
        rank = down.shape[0] // n if n else 0
        if (rank < 1 or router.shape != (d_in, n)
                or down.shape != (n * rank, d_in)
                or up.shape != (n * rank, d_ff)):
            raise ShapeError(
                f"factors {down.shape} / {up.shape} and router "
                f"{router.shape} do not make rank-r experts on the "
                f"decorated projection ({d_in} -> {d_ff})"
            )
        if not 1 <= top_k <= n:
            raise ValueError(f"top_k must satisfy 1 <= k <= {n}, got {top_k}")
        w1.setflags(write=False)
        w2.setflags(write=False)
        self.w1 = w1
        self.w2 = w2
        self.down = down
        self.up = up
        self.router = router
        self.top_k = top_k
        self.rank = rank
        self.scale = alpha / rank

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    # -- row-vectorized core -------------------------------------------------

    def forward_rows(self, x_rows: Array) -> tuple[Array, dict]:
        """Forward over a stack of input vectors; returns output and cache."""
        x_rows = as_matrix(x_rows, "layer input rows")
        if x_rows.shape[1] != self.d_in:
            raise ShapeError(
                f"layer expects rows of length {self.d_in}, got {x_rows.shape[1]}"
            )
        full, order, denom, mix = route_rows(x_rows @ self.router, self.top_k)
        gate = np.repeat(mix, self.rank, axis=1)            # (N, E*r)
        p = x_rows @ self.down.T                            # (N, E*r)
        hidden = x_rows @ self.w1.T + self.scale * ((gate * p) @ self.up)
        den = 1.0 + np.exp(-hidden)            # silu(h) = h / den
        out = (hidden / den) @ self.w2.T
        cache = {
            "x": x_rows, "full": full, "order": order, "denom": denom,
            "mix": mix, "gate": gate, "p": p, "hidden": hidden, "den": den,
        }
        return out, cache

    def backward_rows(self, cache: dict, upstream_rows: Array
                      ) -> tuple[Array, dict[str, Array]]:
        """Reverse pass through one cached forward.

        Returns the gradient with respect to the input rows plus a dict of
        gradients for every trainable tensor. Unselected experts' rows get
        exact zeros, and so does the router of a lone expert, whose weight
        is the constant 1; the frozen projections get no entry at all.
        """
        x_rows, gate, p = cache["x"], cache["gate"], cache["p"]
        full, order, denom = cache["full"], cache["order"], cache["denom"]
        hidden, s = cache["hidden"], 1.0 / cache["den"]

        d_hidden = (upstream_rows @ self.w2) * (s * (1.0 + hidden * (1.0 - s)))
        q = d_hidden @ self.up.T                       # (N, E*r)
        d_p = self.scale * (gate * q)                  # zero when unselected
        # Computed as (d_ff, E*r) and returned transposed; the product in
        # the other orientation may round differently.
        d_up = self.scale * d_hidden.T @ (gate * p)
        n = self.router.shape[1]
        d_x = d_hidden @ self.w1 + d_p @ self.down
        if n == 1:
            d_router = np.zeros_like(self.router)
        else:
            d_mix = self.scale * (p * q).reshape(-1, n, self.rank).sum(axis=2)
            # Renormalization backward, restricted to the selected set; the
            # dropped experts' mixing weights are constants (zero), so only
            # the softmax coupling below routes gradient to their logits.
            picked_d = np.take_along_axis(d_mix, order, axis=1)
            picked_s = np.take_along_axis(full, order, axis=1)
            dot = np.sum(picked_d * picked_s, axis=1, keepdims=True)
            d_sel = picked_d / denom - dot / denom**2
            d_full = np.zeros_like(full)
            np.put_along_axis(d_full, order, d_sel, axis=1)
            d_logits = full * (d_full - np.sum(d_full * full, axis=1,
                                               keepdims=True))
            d_x += d_logits @ self.router.T
            d_router = x_rows.T @ d_logits
        return d_x, {"down": d_p.T @ x_rows, "up": d_up.T, "router": d_router}

    # -- parameter access -----------------------------------------------------

    def trainable(self) -> dict[str, Array]:
        """The flat factors and the router matrix; the same array objects
        on every call."""
        return {"down": self.down, "up": self.up, "router": self.router}


def build_mixture(w1: Array, w2: Array, spec: AdapterSpec, seed: int,
                  layer_index: int) -> MixtureFfn:
    """Construct a decorated FFN with per-component derived initialization:
    each expert's rows of `down` uniform from its own stream, `up` zero,
    so the delta starts at zero."""
    from . import seeding

    d_ff, d_in = np.shape(w1)
    bound = 1.0 / np.sqrt(d_in)
    down = np.concatenate([
        seeding.rng_for(seed, seeding.EXPERT, layer_index, i).uniform(
            -bound, bound, size=(spec.rank, d_in))
        for i in range(spec.n_experts)
    ])
    router = seeding.rng_for(seed, seeding.ROUTER, layer_index).normal(
        0.0, 0.02, size=(d_in, spec.n_experts))
    return MixtureFfn(w1, w2, down, np.zeros((down.shape[0], d_ff)), router,
                      spec.top_k, spec.alpha)
