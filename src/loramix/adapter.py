"""Routed mixture of low-rank experts on a frozen feed-forward layer.

The decorated layer is a frozen two-layer FFN. Each expert is a rank-r
factor pair whose product perturbs the first projection; a linear router
scores all experts per input vector, the scores pass through a softmax
over every expert, and only the top-k survive with their weights
renormalized to sum to one. Unselected experts contribute nothing to the
output and receive no gradient. With all up-factors zero the layer is
exactly the frozen FFN, so a freshly decorated model reproduces its base.

The experts' factors are stored stacked, so the mixture is computed as
one rank-(E*r) adapter whose rank space is gated by the routing weights,
each expert's weight repeated over its r rank columns.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .numerics import as_matrix, softmax_rows

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

    The E experts' factors live in two stacks, `down` (E, r, d_in) and
    `up` (E, d_ff, r); the router is one (d_in, E) matrix. Flattening the
    stacks to rank E*r, with `gate` the routing mix repeated r times per
    expert:

        p = x down_cat^T
        h = W1 x + (alpha / r) * (gate * p) up_cat
        y = W2 silu(h)

    The base projections are write-protected at construction; only the
    factor stacks and the router train.
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
        down = np.array(down, dtype=np.float64, order="C")
        up = np.array(up, dtype=np.float64, order="C")
        router = np.array(as_matrix(router, "router weights"), order="C")
        if down.ndim != 3 or down.shape[0] < 1 or down.shape[1] < 1:
            raise ShapeError(f"down factors must be a non-empty (experts, "
                             f"rank, d_in) stack, got {down.shape}")
        n, rank = down.shape[:2]
        if down.shape != (n, rank, d_in) or up.shape != (n, d_ff, rank):
            raise ShapeError(
                f"factor stacks {down.shape} / {up.shape} do not match "
                f"{n} rank-{rank} experts on the decorated projection "
                f"({d_in} -> {d_ff})"
            )
        if router.shape != (d_in, n):
            raise ShapeError(
                f"router must be ({d_in}, {n}), got {router.shape}")
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
        self.scale = alpha / rank
        self._views = _named(down, up, router)

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_ff(self) -> int:
        return self.w1.shape[0]

    @property
    def n_experts(self) -> int:
        return self.down.shape[0]

    def _flat_factors(self) -> tuple[Array, Array]:
        """`down_cat` (E*r, d_in) and `up_cat` (E*r, d_ff)."""
        n, rank, d_in = self.down.shape
        return (self.down.reshape(n * rank, d_in),
                self.up.transpose(0, 2, 1).reshape(n * rank, self.d_ff))

    # -- row-vectorized core -------------------------------------------------

    def forward_rows(self, x_rows: Array) -> tuple[Array, dict]:
        """Forward over a stack of input vectors; returns output and cache."""
        x_rows = as_matrix(x_rows, "layer input rows")
        if x_rows.shape[1] != self.d_in:
            raise ShapeError(
                f"layer expects rows of length {self.d_in}, got {x_rows.shape[1]}"
            )
        full, order, denom, mix = route_rows(x_rows @ self.router, self.top_k)
        down_cat, up_cat = self._flat_factors()
        gate = np.repeat(mix, self.down.shape[1], axis=1)   # (N, E*r)
        p = x_rows @ down_cat.T                             # (N, E*r)
        hidden = x_rows @ self.w1.T + self.scale * ((gate * p) @ up_cat)
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
        gradients for every trainable tensor. Unselected experts get exact
        zeros, and so does the router of a lone expert, whose weight is
        the constant 1; the frozen projections get no entry at all.
        """
        x_rows, gate, p = cache["x"], cache["gate"], cache["p"]
        full, order, denom = cache["full"], cache["order"], cache["denom"]
        hidden, s = cache["hidden"], 1.0 / cache["den"]
        down_cat, up_cat = self._flat_factors()

        d_hidden = (upstream_rows @ self.w2) * (s * (1.0 + hidden * (1.0 - s)))
        q = d_hidden @ up_cat.T                        # (N, E*r)
        d_p = self.scale * (gate * q)                  # zero when unselected
        d_up = self.scale * d_hidden.T @ (gate * p)    # (d_ff, E*r)
        n, rank = self.down.shape[:2]
        d_x = d_hidden @ self.w1 + d_p @ down_cat
        if n == 1:
            d_router = np.zeros_like(self.router)
        else:
            d_mix = self.scale * (p * q).reshape(-1, n, rank).sum(axis=2)
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
        grads = _named((d_p.T @ x_rows).reshape(self.down.shape),
                       d_up.reshape(-1, n, rank).transpose(1, 0, 2),
                       d_router)
        return d_x, grads

    # -- parameter access -----------------------------------------------------

    def trainable(self) -> dict[str, Array]:
        """Each expert's factors, as writable views into the stacks, and
        the router matrix; the same array objects on every call."""
        return dict(self._views)


def _named(down: Array, up: Array, router: Array) -> dict[str, Array]:
    """Per-expert names for stacked factor tensors (or their gradients)."""
    out: dict[str, Array] = {}
    for i in range(down.shape[0]):
        out[f"expert{i}.down"] = down[i]
        out[f"expert{i}.up"] = up[i]
    out["router.weights"] = router
    return out


def build_mixture(d_in: int, d_ff: int, w1: Array, w2: Array, n_experts: int,
                  top_k: int, rank: int, alpha: float, seed: int,
                  layer_index: int) -> MixtureFfn:
    """Construct a decorated FFN with per-component derived initialization:
    each expert's down factor uniform from its own stream, every up factor
    zero, so the delta starts at zero."""
    from . import seeding

    bound = 1.0 / np.sqrt(d_in)
    down = np.stack([
        seeding.rng_for(seed, seeding.EXPERT, layer_index, i).uniform(
            -bound, bound, size=(rank, d_in))
        for i in range(n_experts)
    ])
    router = seeding.rng_for(seed, seeding.ROUTER, layer_index).normal(
        0.0, 0.02, size=(d_in, n_experts))
    return MixtureFfn(w1, w2, down, np.zeros((n_experts, d_ff, rank)), router,
                      top_k, alpha)
